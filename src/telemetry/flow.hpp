// Traffic observability plane, part 1 (see DESIGN.md §13): per-link
// flow accounting with heavy-hitter attribution.
//
// Three layers, costed separately:
//
//  * LinkFlowStats — the per-packet hot path. A face tap calls on*()
//    once per packet: a handful of relaxed atomic adds into lifetime
//    totals plus a time-bucketed ring (for trailing-window utilization).
//    Wait-free, no locks, no allocation; bench_flow_accounting holds it
//    to ~20ns/packet.
//  * FlowAccountant::attribute() — the per-Data attribution path. The
//    forwarder calls it when it sends Data downstream, with a FlowKey
//    (prefix-group, tenant, workflow/dataset tag) extracted from the
//    name and the FlowLabel carried alongside the Interest. Updates a
//    Space-Saving top-k (Count-Min backed) per link, so top-talker
//    queries are O(k) memory regardless of name cardinality. Mutexed —
//    it runs once per Data forwarded, not per packet event.
//  * Export — toPrometheus() renders the lidc_link_* / lidc_flow_*
//    families that the TelemetryPublisher serves as the
//    /ndn/k8s/telemetry/<cluster>/flow/ content group and the
//    Weathermap (weathermap.hpp) aggregates fleet-wide.
//
// This header sits *below* the NDN stack (lidc_telemetry), so nothing
// here may name ndn types: flow keys are extracted from raw name
// component bytes (std::string_view), and the FlowLabel rides packets
// the same way TraceContext does.
//
// Determinism: no wall clock, no unseeded hashing. Sketch hash seeds
// are fixed at construction, Space-Saving ties break on (count, key)
// order, and every export is sorted — per-seed runs produce
// byte-identical snapshots (the weathermap determinism test keys on
// this).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulator.hpp"
#include "telemetry/flow_label.hpp"
#include "telemetry/metrics.hpp"

namespace lidc::telemetry {

/// Attribution key for one flow: which namespace group the traffic
/// belongs to, which tenant drove it, and which workflow/dataset it
/// serves. Fields are sanitized (safe label charset, bounded length)
/// so hostile names cannot break the Prometheus exposition.
struct FlowKey {
  std::string group = "-";   // compute | data | submit | publish | ... | other
  std::string tenant = "-";  // "-" = unattributed
  std::string tag = "-";     // "-" = none

  [[nodiscard]] bool operator==(const FlowKey& o) const noexcept {
    return group == o.group && tenant == o.tenant && tag == o.tag;
  }
  [[nodiscard]] bool operator<(const FlowKey& o) const noexcept {
    if (group != o.group) return group < o.group;
    if (tenant != o.tenant) return tenant < o.tenant;
    return tag < o.tag;
  }
  /// "group|tenant|tag" — the sketch key.
  [[nodiscard]] std::string toString() const;
  /// Inverse of toString(); missing fields come back as "-".
  static FlowKey fromString(std::string_view s);
};

/// Keeps [A-Za-z0-9._=&:/-], replaces everything else with '_', and
/// caps the result at kMaxFlowComponent bytes. Empty input -> "-".
/// This is the defense line between hostile name bytes and the
/// Prometheus/JSON exports (see the flow-key fuzz test).
inline constexpr std::size_t kMaxFlowComponent = 48;
[[nodiscard]] std::string sanitizeFlowComponent(std::string_view raw);

/// Builds the FlowKey for a packet from its raw name component bytes
/// plus the FlowLabel it carried. Group is name component [2] of
/// /ndn/k8s/<group>/...; tenant prefers the label, falling back to the
/// submit-name tenant component or a "tenant=<t>" component; tag comes
/// from the label. Total function: any byte soup yields a sane key.
[[nodiscard]] FlowKey extractFlowKey(const std::string_view* components,
                                     std::size_t count,
                                     const FlowLabel& label);

inline FlowKey extractFlowKey(const std::vector<std::string_view>& components,
                              const FlowLabel& label) {
  return extractFlowKey(components.data(), components.size(), label);
}

/// Count-Min sketch: conservative frequency estimates over an
/// unbounded key space in O(width * depth) memory. Overestimates only:
/// estimate(k) >= true count, and with width w and depth d the excess
/// is <= 2N/w with probability 1 - 2^-d (N = total count). Hash seeds
/// are fixed per instance, so estimates are deterministic.
class CountMinSketch {
 public:
  explicit CountMinSketch(std::size_t width = 512, std::size_t depth = 4,
                          std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  void add(std::string_view key, std::uint64_t n) noexcept;
  [[nodiscard]] std::uint64_t estimate(std::string_view key) const noexcept;
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::size_t width() const noexcept { return width_; }
  [[nodiscard]] std::size_t depth() const noexcept { return rows_.size() / width_; }

 private:
  [[nodiscard]] std::size_t cell(std::size_t row, std::string_view key) const noexcept;

  std::size_t width_;
  std::vector<std::uint64_t> rows_;   // depth * width, row-major
  std::vector<std::uint64_t> seeds_;  // one per row
  std::uint64_t total_ = 0;
};

/// One reported heavy hitter. `count` is the Space-Saving estimate;
/// `error` bounds the overestimate (true count is in
/// [count - error, count]).
struct TopKEntry {
  std::string key;
  std::uint64_t count = 0;
  std::uint64_t error = 0;
};

/// Space-Saving top-k (Metwally et al.): k monitored entries; an
/// unmonitored arrival evicts the current minimum, inheriting its
/// count as error. A Count-Min backing sketch gates evictions — an
/// arrival whose estimated frequency cannot beat the minimum leaves
/// the monitored set alone, which keeps one-off keys (hostile name
/// soup) from churning real heavy hitters out.
///
/// Deterministic: eviction picks the (smallest count, lexicographically
/// smallest key) entry; top() sorts by (count desc, key asc).
class SpaceSaving {
 public:
  explicit SpaceSaving(std::size_t k, std::size_t sketchWidth = 512,
                       std::size_t sketchDepth = 4);

  void add(const std::string& key, std::uint64_t n) noexcept;
  [[nodiscard]] std::vector<TopKEntry> top() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return k_; }
  [[nodiscard]] const CountMinSketch& sketch() const noexcept { return cms_; }

 private:
  struct Slot {
    std::uint64_t count = 0;
    std::uint64_t error = 0;
  };

  std::size_t k_;
  std::map<std::string, Slot> slots_;  // ordered: deterministic min scan
  CountMinSketch cms_;
};

/// Per-link counters. The on*() methods are the wait-free hot path: a
/// few relaxed adds into lifetime totals plus one time bucket of a
/// ring (bucket reset is a CAS on the bucket's epoch — losers see the
/// winner's store and just add). Readers (utilization) only consult
/// buckets whose epoch proves they belong to the trailing window.
class LinkFlowStats {
 public:
  static constexpr std::size_t kBuckets = 8;

  LinkFlowStats(sim::Simulator& sim, std::uint64_t bucketWidthNs);
  LinkFlowStats(const LinkFlowStats&) = delete;
  LinkFlowStats& operator=(const LinkFlowStats&) = delete;

#if defined(LIDC_TELEMETRY_DISABLED)
  void onInterest(std::uint64_t) noexcept {}
  void onData(std::uint64_t) noexcept {}
  void onNack() noexcept {}
  void onCsBytes(std::uint64_t) noexcept {}
  void onUpstreamBytes(std::uint64_t) noexcept {}
#else
  void onInterest(std::uint64_t wireBytes) noexcept {
    interests_.fetch_add(1, std::memory_order_relaxed);
    addBytes(wireBytes);
  }
  void onData(std::uint64_t wireBytes) noexcept {
    data_.fetch_add(1, std::memory_order_relaxed);
    addBytes(wireBytes);
  }
  void onNack() noexcept { nacks_.fetch_add(1, std::memory_order_relaxed); }
  /// CS-vs-upstream byte split, fed by the forwarder (only it knows
  /// where a Data came from), not by the face tap.
  void onCsBytes(std::uint64_t bytes) noexcept {
    cs_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void onUpstreamBytes(std::uint64_t bytes) noexcept {
    upstream_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
#endif

  [[nodiscard]] std::uint64_t interests() const noexcept {
    return interests_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dataPackets() const noexcept {
    return data_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t nacks() const noexcept {
    return nacks_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t csBytes() const noexcept {
    return cs_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t upstreamBytes() const noexcept {
    return upstream_bytes_.load(std::memory_order_relaxed);
  }

  /// Bytes recorded in complete buckets of the trailing window (the
  /// in-progress bucket is excluded so utilization doesn't sawtooth).
  [[nodiscard]] std::uint64_t trailingWindowBytes() const noexcept;
  /// Length of that window in nanoseconds (shorter early in a run).
  [[nodiscard]] std::uint64_t trailingWindowNs() const noexcept;

 private:
  struct Bucket {
    std::atomic<std::uint64_t> epoch{kIdleEpoch};
    std::atomic<std::uint64_t> bytes{0};
  };
  static constexpr std::uint64_t kIdleEpoch = ~std::uint64_t{0};

  void addBytes(std::uint64_t wireBytes) noexcept;

  sim::Simulator& sim_;
  std::uint64_t bucket_width_ns_;
  Bucket ring_[kBuckets];
  std::atomic<std::uint64_t> interests_{0};
  std::atomic<std::uint64_t> data_{0};
  std::atomic<std::uint64_t> nacks_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> cs_bytes_{0};
  std::atomic<std::uint64_t> upstream_bytes_{0};
};

struct FlowAccountantOptions {
  /// Width of one utilization bucket; the trailing window spans
  /// (kBuckets - 1) complete buckets.
  sim::Duration bucketWidth = sim::Duration::seconds(1);
  /// Heavy-hitter slots per link.
  std::size_t topK = 8;
  /// Count-Min backing dimensions (error <= 2N/width w.p. 1 - 2^-depth).
  std::size_t sketchWidth = 512;
  std::size_t sketchDepth = 4;
};

/// The cluster-local flow ledger: one LinkFlowStats per registered
/// link (faces register by URI), per-link heavy-hitter sketches and
/// per-tenant byte shares, plus a "staged bytes" ledger that the
/// replica TransferScheduler reports through (the single path for
/// staging byte accounting — see the parity test). toPrometheus() is
/// the /ndn/k8s/telemetry/<cluster>/flow/ payload.
class FlowAccountant {
 public:
  explicit FlowAccountant(sim::Simulator& sim, FlowAccountantOptions options = {});

  /// Finds or creates the per-link stats; the pointer stays valid for
  /// the accountant's lifetime (faces keep it as their tap).
  LinkFlowStats* registerLink(const std::string& link);
  [[nodiscard]] LinkFlowStats* link(const std::string& link) noexcept;
  void setLinkCapacity(const std::string& link, double bitsPerSec);
  [[nodiscard]] std::vector<std::string> linkNames() const;

  /// Attribution path: `bytes` of Data for `key` crossed `link`
  /// (downstream). fromCache marks bytes served out of a Content
  /// Store instead of fetched upstream. No-op for unregistered links.
  void attribute(const std::string& link, const FlowKey& key,
                 std::uint64_t bytes, bool fromCache);

  /// Staged-transfer ledger (replica plane / workflow staging): bytes
  /// moved on behalf of `key`, deliberately *not* double-counted into
  /// any link (the underlying fetches already crossed instrumented
  /// faces).
  void recordTransfer(const FlowKey& key, std::uint64_t bytes);
  [[nodiscard]] std::uint64_t stagedBytes() const;
  [[nodiscard]] std::uint64_t stagedBytes(const std::string& tenant) const;
  /// Copy of the staged-transfer ledger (the byte-parity test compares
  /// a scheduler's bytesMoved() against the "staging" group here).
  [[nodiscard]] std::map<FlowKey, std::uint64_t> stagedLedger() const;

  /// Trailing-window link utilization in [0, inf): bytes * 8 over
  /// window seconds * capacity. 0 when capacity is unknown.
  [[nodiscard]] double utilization(const std::string& link) const;
  /// Largest single-tenant share of attributed bytes on the link, in
  /// [0, 1]; 0 when nothing is attributed.
  [[nodiscard]] double dominantShare(const std::string& link) const;
  /// Tenant with that largest share ("-" when nothing is attributed).
  [[nodiscard]] std::string dominantTenant(const std::string& link) const;

  /// Top-k talkers on one link, by attributed bytes (deterministic
  /// order: count desc, key asc).
  [[nodiscard]] std::vector<TopKEntry> topTalkers(const std::string& link) const;

  /// The lidc_link_* / lidc_flow_* families in Prometheus exposition
  /// format, sorted, for the "flow" content group.
  [[nodiscard]] std::string toPrometheus() const;
  /// Bumped by every attribute()/recordTransfer(); the content group's
  /// revision function, so idle clusters re-serve the same sequence.
  [[nodiscard]] std::uint64_t revision() const noexcept {
    return revision_.load(std::memory_order_relaxed);
  }

  /// Mirrors the fixed-cardinality lidc_link_* families into
  /// `registry` via a collector callback (runs at snapshot time; the
  /// hot path is untouched).
  void attachTelemetry(MetricsRegistry& registry);

  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] const FlowAccountantOptions& options() const noexcept {
    return options_;
  }

 private:
  struct LinkEntry {
    std::unique_ptr<LinkFlowStats> stats;
    double capacityBits = 0;
    std::unique_ptr<SpaceSaving> talkers;
    std::map<std::string, std::uint64_t> tenantBytes;
    std::uint64_t attributedBytes = 0;
  };

  [[nodiscard]] const LinkEntry* find(const std::string& link) const;

  sim::Simulator& sim_;
  FlowAccountantOptions options_;
  mutable std::mutex mutex_;
  std::map<std::string, LinkEntry> links_;
  // (tenant, group, tag) -> staged bytes, from recordTransfer().
  std::map<FlowKey, std::uint64_t> staged_;
  std::uint64_t staged_total_ = 0;
  std::atomic<std::uint64_t> revision_{0};
  CollectorHandle collector_;
};

}  // namespace lidc::telemetry
