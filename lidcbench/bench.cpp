#include "bench.hpp"

#include <algorithm>
#include <cstdio>

#include "common/strings.hpp"
#include "core/compute_cluster.hpp"

namespace lidcbench {

// --- spans -------------------------------------------------------------

int SpanRecorder::open(std::string_view name, std::string_view layer,
                       std::int64_t job) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = open_.empty() ? -1 : open_.back();
  span.job = job;
  span.startNs = hostNs();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanRecorder::close(int id) {
  spans_[static_cast<std::size_t>(id)].endNs = hostNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> SpanRecorder::selfNsByLayer() const {
  std::vector<double> childNs(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      childNs[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.endNs - span.startNs);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double duration =
        static_cast<double>(spans_[i].endNs - spans_[i].startNs);
    self[spans_[i].layer] += duration - childNs[i];
  }
  return self;
}

std::string SpanRecorder::toJson() const {
  std::string out = "[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"id\":%zu,\"name\":\"%s\",\"layer\":\"%s\",\"start_ns\":%lld,"
                  "\"end_ns\":%lld,\"parent\":%d,\"job\":%lld}",
                  i == 0 ? "" : ",", i, span.name.c_str(), span.layer.c_str(),
                  static_cast<long long>(span.startNs),
                  static_cast<long long>(span.endNs), span.parent,
                  static_cast<long long>(span.job));
    out += buf;
  }
  out += "\n]\n";
  return out;
}

SpanRecorder*& activeRecorder() {
  static SpanRecorder* recorder = nullptr;
  return recorder;
}

ScopedSpan::ScopedSpan(std::string_view name, std::string_view layer,
                       std::int64_t job) {
  if (SpanRecorder* recorder = activeRecorder()) {
    id_ = recorder->open(name, layer, job);
  }
}

ScopedSpan::~ScopedSpan() {
  if (id_ >= 0 && activeRecorder() != nullptr) activeRecorder()->close(id_);
}

// --- simulator driving -------------------------------------------------

namespace {

constexpr sim::Duration kChunk = sim::Duration::seconds(5);

void runOneChunk(sim::Simulator& sim, RoundContext& ctx) {
  std::size_t fired = 0;
  {
    ScopedSpan span("sim.runUntil", "sim");
    const std::int64_t start = hostNs();
    fired = sim.runUntil(sim.now() + kChunk);
    ctx.tally.simNs += hostNs() - start;
  }
  ctx.tally.simEvents += fired;
  ctx.tally.pendingPeak =
      std::max<std::uint64_t>(ctx.tally.pendingPeak, sim.pendingEvents());
}

}  // namespace

void runChunks(sim::Simulator& sim, RoundContext& ctx,
               const std::function<bool()>& finished, sim::Time limit,
               const std::function<void()>& sample) {
  while (!finished() && sim.now() < limit) {
    runOneChunk(sim, ctx);
    if (sample) sample();
  }
}

void drain(sim::Simulator& sim, RoundContext& ctx) {
  // Chunked rather than run(): a leaked periodic timer then shows up as
  // a failed quiescence check instead of a hang.
  const sim::Time limit = sim.now() + sim::Duration::hours(24);
  while (!sim.empty() && sim.now() < limit) runOneChunk(sim, ctx);
}

k8s::AppRunner timedRunner(k8s::AppRunner inner, RoundContext& ctx,
                           bool aligner) {
  return [inner = std::move(inner), &ctx, aligner](k8s::AppContext& context) {
    ScopedSpan span(aligner ? "app.magic-blast" : "app.runner",
                    aligner ? "genomics" : "k8s");
    const std::int64_t start = hostNs();
    k8s::AppResult result = inner(context);
    const std::int64_t elapsed = hostNs() - start;
    ctx.tally.appNs += elapsed;
    if (aligner) {
      ctx.tally.alignNs += elapsed;
      ++ctx.tally.alignJobs;
      // The runner reports "aligned <aligned>/<processed> reads, ...".
      const std::string& message = result.message;
      if (message.rfind("aligned ", 0) == 0) {
        const auto slash = message.find('/');
        if (auto n = strings::parseUint(message.substr(8, slash - 8))) {
          ctx.tally.readsAligned += *n;
        }
      }
    }
    return result;
  };
}

void installSleeper(core::ComputeCluster& cluster, RoundContext& ctx) {
  cluster.cluster().registerApp(
      "sleeper", timedRunner(
                     [](k8s::AppContext& context) {
                       k8s::AppResult result;
                       std::int64_t ms = 10'000;
                       if (auto it = context.spec.args.find("dur_ms");
                           it != context.spec.args.end()) {
                         if (auto n = strings::parseUint(it->second)) {
                           ms = static_cast<std::int64_t>(*n);
                         }
                       }
                       result.runtime = sim::Duration::millis(ms);
                       return result;
                     },
                     ctx, /*aligner=*/false));
  cluster.gateway().jobs().mapAppToImage("sleep", "sleeper");
}

// --- counters ----------------------------------------------------------

void sampleQueues(core::ClusterOverlay& overlay, RoundContext& ctx) {
  net::Topology& topology = overlay.topology();
  for (const std::string& name : topology.nodeNames()) {
    ctx.tally.pitPeak = std::max<std::uint64_t>(ctx.tally.pitPeak,
                                                topology.node(name)->pit().size());
  }
  for (const std::string& name : overlay.clusterNames()) {
    if (auto* admission = overlay.cluster(name)->gateway().admission()) {
      ctx.tally.queuePeak =
          std::max<std::uint64_t>(ctx.tally.queuePeak, admission->queueDepth());
    }
  }
}

void readOverlayCounters(core::ClusterOverlay& overlay,
                         const qos::TenantRegistry* tenants,
                         std::map<std::string, double>& out, double& linkBytes) {
  net::Topology& topology = overlay.topology();
  for (const std::string& name : topology.nodeNames()) {
    const ndn::ForwarderCounters& c = topology.node(name)->counters();
    out["ndn.interests_in"] += static_cast<double>(c.nInInterests);
    out["ndn.data_out"] += static_cast<double>(c.nOutData);
    out["ndn.cs_hits"] += static_cast<double>(c.nCsHits);
    out["ndn.cs_misses"] += static_cast<double>(c.nCsMisses);
    out["ndn.unsatisfied"] += static_cast<double>(c.nUnsatisfied);
    out["ndn.no_route"] += static_cast<double>(c.nNoRoute);
    out["ndn.integrity_drops"] += static_cast<double>(c.nIntegrityDrops);
  }
  linkBytes = 0.0;
  double nacks = 0.0;
  for (const net::Topology::Edge& edge : topology.edges()) {
    for (const auto& [node, face] :
         {std::pair{edge.a, edge.faceAtA}, std::pair{edge.b, edge.faceAtB}}) {
      if (ndn::Face* f = topology.node(node)->face(face)) {
        linkBytes += static_cast<double>(f->counters().nOutBytes);
        nacks += static_cast<double>(f->counters().nOutNacks);
      }
    }
  }
  out["net.bytes"] = linkBytes;
  out["net.nacks"] = nacks;
  for (const std::string& name : overlay.clusterNames()) {
    core::Gateway& gateway = overlay.cluster(name)->gateway();
    const core::GatewayCounters& g = gateway.counters();
    out["core.compute_received"] += static_cast<double>(g.computeReceived);
    out["core.cache_hits"] += static_cast<double>(g.cacheHits + g.inflightDedup);
    out["core.health_rejected"] += static_cast<double>(g.healthRejected);
    out["core.status_received"] += static_cast<double>(g.statusReceived);
    out["k8s.jobs_launched"] += static_cast<double>(g.jobsLaunched);
    out["k8s.capacity_rejected"] += static_cast<double>(g.capacityRejected);
    auto* admission = gateway.admission();
    if (admission == nullptr || tenants == nullptr) continue;
    for (const std::string& tenant : tenants->ids()) {
      out["qos.admitted"] += static_cast<double>(admission->admitted(tenant));
      out["qos.rejected"] += static_cast<double>(admission->rejected(tenant));
      out["qos.preempted"] += static_cast<double>(admission->preempted(tenant));
    }
  }
}

std::map<std::string, std::uint64_t> freeResources(core::ClusterOverlay& overlay) {
  std::map<std::string, std::uint64_t> free;
  for (const std::string& name : overlay.clusterNames()) {
    const k8s::Resources r = overlay.cluster(name)->cluster().totalFree();
    free[name + ".cpu_m"] = r.cpu.millicores();
    free[name + ".mem_b"] = r.memory.bytes();
  }
  return free;
}

void checkQuiescent(sim::Simulator& sim, core::ClusterOverlay& overlay,
                    const std::map<std::string, std::uint64_t>& freeAtStart,
                    const qos::TenantRegistry* tenants, RoundContext& ctx) {
  expect(ctx, sim.empty(),
         "simulator queue not empty at quiescence: " +
             std::to_string(sim.pendingEvents()) + " events");
  net::Topology& topology = overlay.topology();
  for (const std::string& name : topology.nodeNames()) {
    const std::size_t pit = topology.node(name)->pit().size();
    expect(ctx, pit == 0,
           "PIT of " + name + " holds " + std::to_string(pit) + " entries");
  }
  const auto freeNow = freeResources(overlay);
  for (const auto& [key, value] : freeAtStart) {
    const auto it = freeNow.find(key);
    expect(ctx, it != freeNow.end() && it->second == value,
           "k8s free resources " + key + " " +
               std::to_string(it == freeNow.end() ? 0 : it->second) +
               " != start " + std::to_string(value));
  }
  if (tenants == nullptr) return;
  for (const std::string& name : overlay.clusterNames()) {
    auto* admission = overlay.cluster(name)->gateway().admission();
    if (admission == nullptr) continue;
    expect(ctx, admission->queueDepth() == 0,
           "QoS queue of " + name + " not empty");
    for (const std::string& tenant : tenants->ids()) {
      expect(ctx, admission->jobsInFlight(tenant) == 0,
             "QoS in-flight of " + tenant + " on " + name + " not zero");
    }
  }
}

void checkExactlyOnce(const JobLedger& ledger, RoundContext& ctx) {
  std::size_t missing = 0;
  std::size_t duplicated = 0;
  for (const JobRecord& job : ledger.jobs()) {
    if (job.terminals == 0) ++missing;
    if (job.terminals > 1) ++duplicated;
  }
  expect(ctx, missing == 0,
         std::to_string(missing) + " jobs never reached a terminal outcome");
  expect(ctx, duplicated == 0,
         std::to_string(duplicated) + " jobs reached more than one terminal outcome");
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t h) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::vector<sim::Time> arrivals(Rng& rng, std::size_t count, sim::Duration window) {
  std::vector<sim::Time> times;
  times.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    times.push_back(sim::Time() +
                    sim::Duration::nanos(static_cast<std::int64_t>(
                        rng.uniformDouble() * static_cast<double>(window.toNanos()))));
  }
  std::sort(times.begin(), times.end());
  return times;
}

}  // namespace lidcbench
