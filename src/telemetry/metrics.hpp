// MetricsRegistry: the unified metrics layer every LIDC component
// reports through. Three instrument kinds — monotonic Counters, Gauges,
// and log2-bucketed Histograms with p50/p90/p99 — grouped into labeled
// families (e.g. lidc_forwarder_in_interests{node="gw-east"}).
//
// One place per count: a component keeps each count as a Counter in a
// shared counters block and attachTelemetry() adopt()s those Counters,
// so the registry exports the component's own numbers. Incrementing is
// a single relaxed atomic add — no lock, no lookup. Collectors set only
// values derived at snapshot time (sums, sizes, gauges); the registry
// holds them weakly, and the owner keeps the returned handle.
//
// Exporters: toJson() (machine-readable, stable ordering) and
// toPrometheus() (text exposition format; histograms as summaries).
// The /ndn/k8s/telemetry monitoring plane publishes the Prometheus
// form, and parsePrometheusText() turns it back into a flat value map
// on the collector side.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace lidc::telemetry {

/// Sorted key=value pairs identifying one member of a metric family.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic counter. inc() is the hot path: one relaxed atomic add.
/// It reads as the integer it counts, so a counters block of Counters
/// is read like a struct of plain integers; copying one copies the
/// current value (a snapshot).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter& other) noexcept : value_(other.value()) {}
  Counter& operator=(const Counter& other) noexcept {
    value_.store(other.value(), std::memory_order_relaxed);
    return *this;
  }

  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Absolute value of a derived counter, written by a collector at
  /// snapshot time (e.g. a sum over per-face counters).
  void set(std::uint64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  operator std::uint64_t() const noexcept { return value(); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Compiled-in no-op drop-in for Counter: every call is an empty inline
/// the optimizer deletes. bench_telemetry uses it as the zero-cost
/// baseline that a Counter increment is measured against.
struct NoopCounter {
  void inc(std::uint64_t = 1) noexcept {}
  void set(std::uint64_t) noexcept {}
  [[nodiscard]] std::uint64_t value() const noexcept { return 0; }
};

/// Point-in-time value (queue depth, free cores, health fraction).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Log2-bucketed histogram: bucket 0 holds [0,1), bucket i>=1 holds
/// [2^(i-1), 2^i). Observing is two relaxed adds plus a CAS-add on the
/// sum; quantiles are approximated by the midpoint of the bucket where
/// the cumulative count crosses q. Choose the unit so interesting
/// values land above 1 (e.g. microseconds for latencies).
class Histogram {
 public:
  static constexpr int kBucketCount = 64;

  /// `exemplarTrace` (optional) attaches an exemplar: when the sample
  /// lands in the highest populated bucket so far — the tail bucket the
  /// p99 estimate reads from — its trace id and value are captured, so
  /// a "p99 regressed" alert links straight to a concrete slow trace.
  void observe(double v, std::uint64_t exemplarTrace = 0) noexcept {
    const int bucket = bucketFor(v);
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
    }
    if (exemplarTrace != 0 &&
        bucket >= exemplar_bucket_.load(std::memory_order_relaxed)) {
      exemplar_bucket_.store(bucket, std::memory_order_relaxed);
      exemplar_value_.store(v, std::memory_order_relaxed);
      exemplar_trace_.store(exemplarTrace, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }

  /// Approximate quantile in [0,1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept;

  /// Trace id of the captured tail exemplar (0 = none captured).
  [[nodiscard]] std::uint64_t exemplarTrace() const noexcept {
    return exemplar_trace_.load(std::memory_order_relaxed);
  }
  /// Observed value of the captured tail exemplar.
  [[nodiscard]] double exemplarValue() const noexcept {
    return exemplar_value_.load(std::memory_order_relaxed);
  }

  static int bucketFor(double v) noexcept;
  /// [lower, upper) bounds of one bucket.
  static std::pair<double, double> bucketBounds(int bucket) noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[kBucketCount] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<int> exemplar_bucket_{-1};
  std::atomic<std::uint64_t> exemplar_trace_{0};
  std::atomic<double> exemplar_value_{0.0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// A snapshot-time callback, and the owner-held handle that keeps it
/// registered: the registry runs a collector only while its handle
/// lives, so a collector never outlives the component it reads.
using Collector = std::function<void()>;
using CollectorHandle = std::shared_ptr<const Collector>;

/// One exported metric value (histograms carry their summary stats).
struct MetricSnapshot {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  double value = 0;  // counter/gauge value; histogram mean
  // Histogram-only fields.
  std::uint64_t count = 0;
  double sum = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  /// Tail exemplar (0 = the histogram never captured one).
  std::uint64_t exemplarTrace = 0;
  double exemplarValue = 0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the instrument; the reference stays valid for the
  /// registry's lifetime. Labels are sorted internally, so label order
  /// does not create distinct series.
  Counter& counter(const std::string& name, Labels labels = {});
  Gauge& gauge(const std::string& name, Labels labels = {});
  Histogram& histogram(const std::string& name, Labels labels = {});

  /// Exports `counter` — stored and incremented by its component — as
  /// the counter series (name, labels), sharing its ownership so the
  /// series outlives the component. Adopting an existing series
  /// replaces the counter it exports (the latest attach wins).
  void adopt(const std::string& name, Labels labels,
             std::shared_ptr<Counter> counter);

  /// Registers a callback run before every snapshot()/export that sets
  /// instruments to values derived at that moment. The registry keeps
  /// only a weak reference: the collector runs while the returned
  /// handle lives, so the owner keeps it as a member.
  [[nodiscard]] CollectorHandle registerCollector(Collector collect);

  /// Runs collectors, then returns every metric whose name starts with
  /// `prefix` (empty = all), ordered by (name, labels).
  [[nodiscard]] std::vector<MetricSnapshot> snapshot(const std::string& prefix = "");

  /// {"metrics":[{"name":...,"labels":{...},"kind":...,"value":...},...]}
  [[nodiscard]] std::string toJson(const std::string& prefix = "");
  /// Prometheus text exposition format (histograms as summaries).
  [[nodiscard]] std::string toPrometheus(const std::string& prefix = "");
  /// Convenience: toPrometheus() parsed back into {series -> value},
  /// the same view a TelemetryCollector builds from scraped Data.
  [[nodiscard]] std::map<std::string, double> flatten(const std::string& prefix = "");

  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    MetricKind kind = MetricKind::kCounter;
    Labels labels;
    std::shared_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& findOrCreate(const std::string& name, Labels labels, MetricKind kind);
  void runCollectors();

  mutable std::mutex mutex_;
  // (name, serialized labels) -> instrument; ordered for stable exports.
  std::map<std::pair<std::string, std::string>, Entry> entries_;
  std::vector<std::weak_ptr<const Collector>> collectors_;
  // Counters replaced by a later adopt(): counter() handed out
  // references to them, which stay valid for the registry's lifetime.
  std::vector<std::shared_ptr<Counter>> displaced_;
};

/// Serializes labels as `k1="v1",k2="v2"` (sorted), "" when empty.
std::string labelString(const Labels& labels);

/// Parses Prometheus text back into {"name{labels}" or "name" -> value}.
/// Comment lines are skipped; malformed lines are ignored.
std::map<std::string, double> parsePrometheusText(const std::string& text);

}  // namespace lidc::telemetry
