#include "telemetry/monitor.hpp"

#include <algorithm>

namespace lidc::telemetry {

namespace {
constexpr const char* kLatestComponent = "_latest";

ndn::Name clusterPrefix(const std::string& cluster) {
  ndn::Name prefix = kTelemetryPrefix;
  prefix.append(cluster);
  return prefix;
}
}  // namespace

TelemetryPublisher::TelemetryPublisher(ndn::Forwarder& forwarder,
                                       MetricsRegistry& registry,
                                       std::string clusterName)
    : SnapshotPublisher(forwarder, clusterPrefix(clusterName),
                        "app://telemetry/" + clusterName, kLatestComponent,
                        sim::Duration::seconds(1)),
      registry_(registry),
      cluster_name_(std::move(clusterName)) {
  addGroup("all", "");
}

void TelemetryPublisher::addGroup(const std::string& group,
                                  const std::string& metricPrefix) {
  addStream(group, [this, metricPrefix] {
    return registry_.toPrometheus(metricPrefix);
  });
}

void TelemetryPublisher::addContentGroup(const std::string& group,
                                         std::function<std::string()> content,
                                         std::function<std::uint64_t()> revision) {
  addStream(group, std::move(content), std::move(revision));
}

TelemetryCollector::TelemetryCollector(ndn::Forwarder& forwarder,
                                       TelemetryCollectorOptions options)
    : SnapshotScraper(forwarder, "app://telemetry-collector",
                      /*nonceSeed=*/0x7e1e, kTelemetryPrefix, options.group,
                      kLatestComponent, options),
      sim_(forwarder.simulator()),
      options_(std::move(options)) {}

void TelemetryCollector::watchCluster(const std::string& cluster) {
  watch(cluster, views_[cluster]);
}

void TelemetryCollector::applySnapshot(const std::string& cluster,
                                       std::string text) {
  ClusterView& view = views_.at(cluster);
  view.prevValues = std::move(view.values);
  view.rawText = std::move(text);
  view.values = parsePrometheusText(view.rawText);
}

const TelemetryCollector::ClusterView* TelemetryCollector::view(
    const std::string& cluster) const {
  auto it = views_.find(cluster);
  return it == views_.end() ? nullptr : &it->second;
}

double TelemetryCollector::metric(const std::string& cluster,
                                  const std::string& series) const {
  const ClusterView* v = view(cluster);
  if (!v) return 0.0;
  auto it = v->values.find(series);
  return it == v->values.end() ? 0.0 : it->second;
}

void TelemetryCollector::invalidate(const std::string& cluster) {
  auto it = views_.find(cluster);
  if (it == views_.end()) return;
  it->second = ClusterView{};
}

namespace {

double clamp01(double v) { return v < 0.0 ? 0.0 : (v > 1.0 ? 1.0 : v); }

/// Series lookup that tolerates both labeled ("name{cluster=\"x\"}")
/// and bare ("name") exports.
double seriesValue(const std::map<std::string, double>& values,
                   const std::string& name, const std::string& cluster,
                   double fallback) {
  auto it = values.find(name + "{cluster=\"" + cluster + "\"}");
  if (it != values.end()) return it->second;
  it = values.find(name);
  if (it != values.end()) return it->second;
  return fallback;
}

double seriesDelta(const TelemetryCollector::ClusterView& view,
                   const std::string& name, const std::string& cluster) {
  const double now = seriesValue(view.values, name, cluster, 0.0);
  const double before = seriesValue(view.prevValues, name, cluster, 0.0);
  return now > before ? now - before : 0.0;
}

}  // namespace

double TelemetryCollector::rawHealthScore(const std::string& cluster) const {
  const HealthPolicy& policy = options_.health;
  if (isStale(cluster)) return policy.staleScore;
  const ClusterView* v = view(cluster);
  if (v == nullptr) return policy.staleScore;

  // Base: the gateway's own view of how many nodes are ready.
  double score =
      clamp01(seriesValue(v->values, policy.healthyFractionSeries, cluster, 1.0));

  // Discount by refused-work pressure since the last snapshot: a
  // gateway shedding load (health gate, capacity) or dropping Interests
  // dark (blackout) is degraded even while its nodes still report
  // ready — and even while its telemetry publisher keeps answering.
  const double rejected =
      seriesDelta(*v, "lidc_gateway_health_rejected", cluster) +
      seriesDelta(*v, "lidc_gateway_capacity_rejected", cluster) +
      seriesDelta(*v, "lidc_gateway_blackout_dropped", cluster);
  const double received = seriesDelta(*v, "lidc_gateway_compute_received", cluster);
  if (rejected > 0.0) {
    const double pressure = rejected / std::max(1.0, received);
    score *= clamp01(1.0 - policy.rejectionWeight * pressure);
  }
  return clamp01(score);
}

double TelemetryCollector::healthScore(const std::string& cluster) const {
  const double raw = rawHealthScore(cluster);
  const ClusterView* v = view(cluster);
  if (v != nullptr && v->degradedUntil.toNanos() > 0 &&
      sim_.now() < v->degradedUntil) {
    // Hold-down: once steering moves traffic away, the refused-work
    // deltas go quiet — without memory the score would snap back to
    // healthy and lure jobs straight back into the fault.
    return std::min(raw, v->degradedScore);
  }
  return raw;
}

void TelemetryCollector::scrapeSettled(const std::string& cluster) {
  const HealthPolicy& policy = options_.health;
  const double raw = rawHealthScore(cluster);
  if (raw < policy.degradedThreshold) {
    auto it = views_.find(cluster);
    if (it != views_.end()) {
      it->second.degradedUntil = sim_.now() + policy.holdDown;
      it->second.degradedScore = raw;
    }
  }
  if (health_listener_) health_listener_(cluster, healthScore(cluster));
}

void TelemetryCollector::attachTelemetry(MetricsRegistry& registry) {
  adoptCounter(registry, "lidc_collector_scrapes_started_total",
               &ScrapeCounters::scrapesStarted);
  adoptCounter(registry, "lidc_collector_scrape_failures_total",
               &ScrapeCounters::scrapesFailed);
  adoptCounter(registry, "lidc_collector_snapshots_fetched_total",
               &ScrapeCounters::snapshotsFetched);
  adoptCounter(registry, "lidc_collector_manifest_reuses_total",
               &ScrapeCounters::manifestReuses);
  adoptCounter(registry, "lidc_collector_signature_failures_total",
               &ScrapeCounters::signatureFailures);
  collector_ = registry.registerCollector([this, &registry] {
    double stale = 0.0;
    for (const auto& cluster : watchedClusters()) {
      if (isStale(cluster)) stale += 1.0;
      registry.gauge("lidc_collector_cluster_health", {{"cluster", cluster}})
          .set(healthScore(cluster));
    }
    registry.gauge("lidc_collector_stale_clusters").set(stale);
  });
}

AlertEngine::ValueSource collectorValueSource(
    const TelemetryCollector& collector) {
  return [&collector] {
    std::map<std::string, double> out;
    for (const auto& cluster : collector.watchedClusters()) {
      out[cluster + "/stale"] = collector.isStale(cluster) ? 1.0 : 0.0;
      out[cluster + "/health"] = collector.healthScore(cluster);
      if (const auto* v = collector.view(cluster)) {
        for (const auto& [series, value] : v->values) {
          out[cluster + "/" + series] = value;
        }
      }
    }
    return out;
  };
}

}  // namespace lidc::telemetry
