// The named monitoring plane (paper SIV pattern, applied to telemetry;
// cf. OSDF's monitoring-as-a-service): each cluster's gateway node runs
// a TelemetryPublisher that serves signed metric snapshots through the
// named-snapshot protocol (snapshot.hpp):
//
//   /ndn/k8s/telemetry/<cluster>/<group>/_latest   -> "seq=N;generated=<ns>"
//   /ndn/k8s/telemetry/<cluster>/<group>/<seq>     -> Prometheus text
//
// Registry groups cut a new seq at most once per second, content groups
// only when their revision moved. A TelemetryCollector scrapes any
// number of clusters and scores their health.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "ndn/forwarder.hpp"
#include "telemetry/alerts.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/snapshot.hpp"

namespace lidc::telemetry {

/// Root of the monitoring namespace.
inline const ndn::Name kTelemetryPrefix{"/ndn/k8s/telemetry"};

class TelemetryPublisher : public SnapshotPublisher {
 public:
  /// Attaches to `forwarder` (the cluster's gateway NFD), registering
  /// /ndn/k8s/telemetry/<cluster> toward a new AppFace. The default
  /// "all" group exports the whole registry; addGroup() narrows by
  /// metric-name prefix (e.g. "forwarder" -> "lidc_forwarder").
  TelemetryPublisher(ndn::Forwarder& forwarder, MetricsRegistry& registry,
                     std::string clusterName);

  void addGroup(const std::string& group, const std::string& metricPrefix);

  /// A group whose snapshot text comes from `content` instead of the
  /// registry. A new sequence is exported only when `revision` has
  /// changed since the last export, so manifest reuse still works for
  /// slow-changing payloads — this is how the AlertEngine's transition
  /// log becomes /ndn/k8s/telemetry/<cluster>/alerts/.
  void addContentGroup(const std::string& group,
                       std::function<std::string()> content,
                       std::function<std::uint64_t()> revision);

  [[nodiscard]] const std::string& clusterName() const noexcept {
    return cluster_name_;
  }

 private:
  MetricsRegistry& registry_;
  std::string cluster_name_;
};

struct HealthPolicy {
  /// Score assigned to clusters never scraped or past their freshness
  /// window (a blacked-out gateway lands here).
  double staleScore = 0.0;
  /// Gauge series (before the {cluster=...} label) carrying the
  /// gateway's ready-node fraction; missing series counts as healthy.
  std::string healthyFractionSeries = "lidc_gateway_healthy_node_fraction";
  /// Weight of the refused-work ratio (admission rejections + blackout
  /// drops since the previous snapshot, over compute Interests
  /// received) in the score.
  double rejectionWeight = 1.0;
  /// A raw score below this arms the hold-down: the cluster keeps
  /// reporting its degraded score for `holdDown` even after steering
  /// has moved traffic away (so no new evidence accumulates), instead
  /// of flapping healthy and luring jobs back into the fault.
  double degradedThreshold = 0.5;
  sim::Duration holdDown = sim::Duration::seconds(10);
};

struct TelemetryCollectorOptions : ScrapeTiming {
  /// Metric group to scrape.
  std::string group = "all";
  /// How scraped series aggregate into healthScore().
  HealthPolicy health;
};

class TelemetryCollector : public SnapshotScraper {
 public:
  /// One cluster's latest scraped state.
  struct ClusterView : SnapshotView {
    std::map<std::string, double> values;  // Prometheus series -> value
    /// Previous snapshot's values — rejection pressure is scored on
    /// the delta between consecutive snapshots, not lifetime totals.
    std::map<std::string, double> prevValues;
    std::string rawText;
    /// Hold-down state (see HealthPolicy::holdDown).
    sim::Time degradedUntil;
    double degradedScore = 1.0;
  };

  /// Invoked with (cluster, healthScore) after every scrape attempt
  /// settles for that cluster — success OR failure, so a blackout
  /// drives the score down as soon as the scrape times out.
  using HealthListener =
      std::function<void(const std::string& cluster, double score)>;

  /// Attaches to the collector host's forwarder.
  TelemetryCollector(ndn::Forwarder& forwarder,
                     TelemetryCollectorOptions options = {});

  void watchCluster(const std::string& cluster);

  [[nodiscard]] const ClusterView* view(const std::string& cluster) const;
  /// Convenience: series value from the cluster's view (0 if absent).
  [[nodiscard]] double metric(const std::string& cluster,
                              const std::string& series) const;

  /// Aggregated cluster health in [0, 1]: staleScore when stale or
  /// never scraped; otherwise the gateway's healthy-node fraction
  /// discounted by admission-rejection pressure since the previous
  /// snapshot. 1.0 = route work here, 0.0 = steer away.
  [[nodiscard]] double healthScore(const std::string& cluster) const;

  void setHealthListener(HealthListener listener) {
    health_listener_ = std::move(listener);
  }

  /// Mirrors lidc_collector_* counters plus the stale-cluster gauge and
  /// per-cluster health gauges into `registry`.
  void attachTelemetry(MetricsRegistry& registry);

  /// Forgets a cluster's scraped values (keeps it watched), forcing the
  /// next scrape to re-fetch the snapshot Data — which a warm Content
  /// Store on the path then answers without touching the publisher.
  void invalidate(const std::string& cluster);

 private:
  void applySnapshot(const std::string& cluster, std::string text) override;
  /// Reports the (possibly degraded) health score after every scrape,
  /// so a blackout is announced as soon as the scrape fails — the
  /// steering loop must not wait for a hard job failure.
  void scrapeSettled(const std::string& cluster) override;
  /// healthScore() without the hold-down memory.
  [[nodiscard]] double rawHealthScore(const std::string& cluster) const;

  sim::Simulator& sim_;
  TelemetryCollectorOptions options_;
  std::map<std::string, ClusterView> views_;
  HealthListener health_listener_;
};

/// Adapter: an AlertEngine value source over a collector's scraped
/// views. For every watched cluster C it exposes
///   "<C>/stale"  — 1 when the cluster is stale, else 0
///   "<C>/health" — healthScore(C)
///   "<C>/<series>" — each scraped Prometheus series
/// so rules can reference cross-cluster series with stable names.
[[nodiscard]] AlertEngine::ValueSource collectorValueSource(
    const TelemetryCollector& collector);

}  // namespace lidc::telemetry
