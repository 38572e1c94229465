#include "telemetry/metrics.hpp"

#include "telemetry/trace_context.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string_view>

namespace lidc::telemetry {

int Histogram::bucketFor(double v) noexcept {
  if (!(v >= 1.0)) return 0;  // negatives and NaN also land in bucket 0
  // Values at or above 2^63 saturate into the last bucket.
  if (v >= 9.223372036854775808e18) return kBucketCount - 1;
  const auto x = static_cast<std::uint64_t>(v);
  const int b = std::bit_width(x);  // x in [2^(b-1), 2^b)
  return std::min(b, kBucketCount - 1);
}

std::pair<double, double> Histogram::bucketBounds(int bucket) noexcept {
  if (bucket <= 0) return {0.0, 1.0};
  return {std::ldexp(1.0, bucket - 1), std::ldexp(1.0, bucket)};
}

double Histogram::quantile(double q) const noexcept {
  std::uint64_t counts[kBucketCount];
  std::uint64_t total = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    seen += counts[i];
    if (seen >= rank && counts[i] > 0) {
      const auto [lo, hi] = bucketBounds(i);
      return (lo + hi) / 2.0;
    }
  }
  const auto [lo, hi] = bucketBounds(kBucketCount - 1);
  return (lo + hi) / 2.0;
}

std::string labelString(const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (const auto& [k, v] : sorted) {
    if (!out.empty()) out += ',';
    out += k;
    out += "=\"";
    out += v;
    out += '"';
  }
  return out;
}

MetricsRegistry::Entry& MetricsRegistry::findOrCreate(const std::string& name,
                                                      Labels labels,
                                                      MetricKind kind) {
  std::sort(labels.begin(), labels.end());
  std::lock_guard<std::mutex> lock(mutex_);
  auto key = std::make_pair(name, labelString(labels));
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    Entry entry;
    entry.kind = kind;
    entry.labels = std::move(labels);
    switch (kind) {
      case MetricKind::kCounter:
        entry.counter = std::make_shared<Counter>();
        break;
      case MetricKind::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case MetricKind::kHistogram:
        entry.histogram = std::make_unique<Histogram>();
        break;
    }
    it = entries_.emplace(std::move(key), std::move(entry)).first;
  }
  assert(it->second.kind == kind && "metric re-registered with a different kind");
  return it->second;
}

Counter& MetricsRegistry::counter(const std::string& name, Labels labels) {
  return *findOrCreate(name, std::move(labels), MetricKind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, Labels labels) {
  return *findOrCreate(name, std::move(labels), MetricKind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name, Labels labels) {
  return *findOrCreate(name, std::move(labels), MetricKind::kHistogram).histogram;
}

void MetricsRegistry::adopt(const std::string& name, Labels labels,
                            std::shared_ptr<Counter> counter) {
  assert(counter);
  std::sort(labels.begin(), labels.end());
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = entries_.try_emplace({name, labelString(labels)});
  Entry& entry = it->second;
  if (inserted) {
    entry.kind = MetricKind::kCounter;
    entry.labels = std::move(labels);
  }
  assert(entry.kind == MetricKind::kCounter &&
         "metric re-registered with a different kind");
  if (entry.counter) displaced_.push_back(std::move(entry.counter));
  entry.counter = std::move(counter);
}

CollectorHandle MetricsRegistry::registerCollector(Collector collect) {
  auto handle = std::make_shared<const Collector>(std::move(collect));
  std::lock_guard<std::mutex> lock(mutex_);
  collectors_.push_back(handle);
  return handle;
}

void MetricsRegistry::runCollectors() {
  // Pin the live collectors under the lock (dropping dead ones), run
  // them outside it: collectors are free to create new instruments
  // without deadlocking.
  std::vector<CollectorHandle> live;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::erase_if(collectors_, [&live](const std::weak_ptr<const Collector>& weak) {
      CollectorHandle collector = weak.lock();
      if (!collector) return true;
      live.push_back(std::move(collector));
      return false;
    });
  }
  for (const auto& collect : live) (*collect)();
}

std::vector<MetricSnapshot> MetricsRegistry::snapshot(const std::string& prefix) {
  runCollectors();
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricSnapshot> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    if (!prefix.empty() && key.first.rfind(prefix, 0) != 0) continue;
    MetricSnapshot snap;
    snap.name = key.first;
    snap.labels = entry.labels;
    snap.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::kCounter:
        snap.value = static_cast<double>(entry.counter->value());
        break;
      case MetricKind::kGauge:
        snap.value = entry.gauge->value();
        break;
      case MetricKind::kHistogram:
        snap.count = entry.histogram->count();
        snap.sum = entry.histogram->sum();
        snap.value = entry.histogram->mean();
        snap.p50 = entry.histogram->quantile(0.50);
        snap.p90 = entry.histogram->quantile(0.90);
        snap.p99 = entry.histogram->quantile(0.99);
        snap.exemplarTrace = entry.histogram->exemplarTrace();
        snap.exemplarValue = entry.histogram->exemplarValue();
        break;
    }
    out.push_back(std::move(snap));
  }
  return out;
}

namespace {

/// Renders integral values without a fractional part so counter exports
/// stay byte-stable across platforms.
std::string formatNumber(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

const char* kindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

/// `name{a="b",quantile="0.5"}` — merges extra label pairs in.
std::string promSeries(const std::string& name, const Labels& labels,
                       const Labels& extra = {}) {
  Labels all = labels;
  all.insert(all.end(), extra.begin(), extra.end());
  if (all.empty()) return name;
  return name + "{" + labelString(all) + "}";
}

}  // namespace

std::string MetricsRegistry::toJson(const std::string& prefix) {
  const auto snaps = snapshot(prefix);
  std::ostringstream os;
  os << "{\"metrics\":[";
  bool first = true;
  for (const auto& s : snaps) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << jsonEscape(s.name) << "\",\"kind\":\""
       << kindName(s.kind) << "\",\"labels\":{";
    bool firstLabel = true;
    for (const auto& [k, v] : s.labels) {
      if (!firstLabel) os << ',';
      firstLabel = false;
      os << '"' << jsonEscape(k) << "\":\"" << jsonEscape(v) << '"';
    }
    os << '}';
    if (s.kind == MetricKind::kHistogram) {
      os << ",\"count\":" << s.count << ",\"sum\":" << formatNumber(s.sum)
         << ",\"mean\":" << formatNumber(s.value)
         << ",\"p50\":" << formatNumber(s.p50)
         << ",\"p90\":" << formatNumber(s.p90)
         << ",\"p99\":" << formatNumber(s.p99);
      if (s.exemplarTrace != 0) {
        os << ",\"exemplar_trace\":\"" << traceIdToString(s.exemplarTrace)
           << "\",\"exemplar_value\":" << formatNumber(s.exemplarValue);
      }
    } else {
      os << ",\"value\":" << formatNumber(s.value);
    }
    os << '}';
  }
  os << "]}";
  return os.str();
}

std::string MetricsRegistry::toPrometheus(const std::string& prefix) {
  const auto snaps = snapshot(prefix);
  std::ostringstream os;
  std::string lastTyped;
  for (const auto& s : snaps) {
    if (s.name != lastTyped) {
      os << "# TYPE " << s.name << ' '
         << (s.kind == MetricKind::kHistogram ? "summary" : kindName(s.kind))
         << '\n';
      lastTyped = s.name;
    }
    if (s.kind == MetricKind::kHistogram) {
      os << promSeries(s.name + "_count", s.labels) << ' ' << s.count << '\n';
      os << promSeries(s.name + "_sum", s.labels) << ' ' << formatNumber(s.sum)
         << '\n';
      os << promSeries(s.name, s.labels, {{"quantile", "0.5"}}) << ' '
         << formatNumber(s.p50) << '\n';
      os << promSeries(s.name, s.labels, {{"quantile", "0.9"}}) << ' '
         << formatNumber(s.p90) << '\n';
      os << promSeries(s.name, s.labels, {{"quantile", "0.99"}}) << ' '
         << formatNumber(s.p99) << '\n';
    } else {
      os << promSeries(s.name, s.labels) << ' ' << formatNumber(s.value) << '\n';
    }
  }
  return os.str();
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::map<std::string, double> MetricsRegistry::flatten(const std::string& prefix) {
  return parsePrometheusText(toPrometheus(prefix));
}

std::map<std::string, double> parsePrometheusText(const std::string& text) {
  // Tolerant by construction: exposition text may arrive truncated or
  // corrupted off the wire. Bad lines are skipped deterministically
  // (same input -> same output), duplicate series keep the last value,
  // non-finite values (NaN/Inf) are dropped, and nothing ever throws.
  std::map<std::string, double> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line(
        text.data() + pos,
        (eol == std::string::npos ? text.size() : eol) - pos);
    pos = eol == std::string::npos ? text.size() + 1 : eol + 1;

    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0 || space + 1 >= line.size()) {
      continue;  // no value field
    }
    const std::string_view series = line.substr(0, space);
    // A series is a metric name with an optional complete {labels}
    // block; an unbalanced brace means a truncated line.
    const std::size_t open = series.find('{');
    if (open != std::string::npos &&
        (series.back() != '}' || series.find('}') != series.size() - 1)) {
      continue;
    }
    if (open == 0) continue;  // label block with no metric name

    const std::string value(line.substr(space + 1));
    char* end = nullptr;
    errno = 0;
    const double parsed = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') continue;  // not a number
    if (!std::isfinite(parsed)) continue;                // NaN / +-Inf
    out[std::string(series)] = parsed;  // duplicates: last one wins
  }
  return out;
}

}  // namespace lidc::telemetry
