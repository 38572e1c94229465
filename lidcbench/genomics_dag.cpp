// genomics_dag: a few multi-stage MiniBlast DAGs on WorkflowEngine —
// prep -> fan-out alignment of several samples -> merge. The samples are
// segmented datasets spread over the lakes of two clusters; the
// reference lives on one. Locality-aware placement and lookahead
// replica prestage are on: each alignment runs where its sample lives
// (the reference is staged to it), every intermediate is written back
// into the lake of the cluster that produced it, and merge pulls the
// remote ones. Alignments checkpoint into the lake as they run. Host
// time goes to the aligner and to large-segment retrieve/publish;
// control Interests are few.
#include <map>
#include <memory>
#include <optional>

#include "apps/transform_app.hpp"
#include "bench.hpp"
#include "core/client.hpp"
#include "core/compute_cluster.hpp"
#include "genomics/aligner.hpp"
#include "genomics/fasta.hpp"
#include "genomics/magic_blast_app.hpp"
#include "migrate/checkpoint.hpp"
#include "replica/prestage.hpp"
#include "replica/scheduler.hpp"
#include "workflow/engine.hpp"

namespace lidcbench {

namespace {

constexpr std::size_t kDags = 8;
constexpr std::size_t kSamplesPerDag = 4;
constexpr double kArrivalWindowSeconds = 10.0;
constexpr std::size_t kReferenceBases = 60'000;
constexpr std::size_t kReadsPerSample = 1000;
constexpr std::size_t kReadLength = 100;
constexpr std::size_t kAlignerThreads = 2;  // stages request 2 cores
const char* const kClusters[] = {"east", "west"};

struct Inputs {
  std::vector<std::uint8_t> referenceFasta;
  std::string referenceBases;
  /// Sample object name ("SRR<digits>") -> FASTA bytes; sample i of a
  /// DAG lives in the lake of kClusters[i % 2].
  std::map<std::string, std::vector<std::uint8_t>> samples;
  std::vector<sim::Time> dagArrivals;
};

std::string sampleId(std::size_t dag, std::size_t sample) {
  return "SRR" + std::to_string(9'100'000 + dag * 100 + sample);
}

/// Every input of the workload, generated from the seed alone.
Inputs generate(std::uint64_t seed) {
  Rng rng(seed ^ 0x9e0a1c5ULL);
  Inputs inputs;
  genomics::Sequence reference;
  reference.id = "ref";
  reference.bases = genomics::randomBases(rng, kReferenceBases);
  inputs.referenceBases = reference.bases;
  inputs.referenceFasta = genomics::toFasta({reference});
  for (std::size_t d = 0; d < kDags; ++d) {
    for (std::size_t s = 0; s < kSamplesPerDag; ++s) {
      const std::string id = sampleId(d, s);
      const auto reads = genomics::generateReads(
          rng, reference.bases, kReadsPerSample, kReadLength,
          /*derivedFraction=*/0.4 + 0.05 * static_cast<double>(s % 3),
          /*mutationRate=*/0.03, id);
      inputs.samples[id] = genomics::toFasta(reads);
    }
  }
  inputs.dagArrivals =
      arrivals(rng, kDags, sim::Duration::seconds(kArrivalWindowSeconds));
  return inputs;
}

workflow::WorkflowSpec dagSpec(std::size_t dag) {
  workflow::WorkflowSpec spec;
  spec.id = "g" + std::to_string(dag);

  workflow::StageSpec prep;
  prep.name = "prep";
  prep.app = "transform";
  prep.cpu = MilliCpu::fromCores(1);
  prep.memory = ByteSize::fromGiB(1);
  prep.lakeInputs = {"ref"};
  spec.addStage(prep);

  workflow::StageSpec merge;
  merge.name = "merge";
  merge.app = "transform";
  merge.cpu = MilliCpu::fromCores(1);
  merge.memory = ByteSize::fromGiB(1);
  for (std::size_t s = 0; s < kSamplesPerDag; ++s) {
    workflow::StageSpec align;
    align.name = "a" + std::to_string(s);
    align.app = "BLAST";
    align.cpu = MilliCpu::fromCores(kAlignerThreads);
    align.memory = ByteSize::fromGiB(4);
    align.params["srr_id"] = sampleId(dag, s);
    align.params["ref"] = "ref";
    align.lakeInputs = {sampleId(dag, s), "ref"};
    align.stageInputs = {{"prep", ""}};
    spec.addStage(align);
    merge.stageInputs.push_back({align.name, ""});
  }
  spec.addStage(merge);
  return spec;
}

/// The cluster whose lake holds a stage's sample (prep and merge: east).
std::size_t homeCluster(const std::string& stage) {
  if (stage.size() < 2 || stage[0] != 'a') return 0;
  return static_cast<std::size_t>(stage.back() - '0') % 2;
}

std::vector<std::string> lakeUris(const std::vector<std::string>& paths) {
  std::vector<std::string> uris;
  for (const std::string& path : paths) uris.push_back(core::makeDataName(path).toUri());
  return uris;
}

/// Expected digests of every stage output, computed by calling the
/// aligner directly on the generated inputs (outside the simulation),
/// single-threaded: the aligner promises the same output order in its
/// serial and parallel modes. Keyed by lake path; cached per seed since
/// every round replays it.
const std::map<std::string, std::uint64_t>& expectedDigests(std::uint64_t seed,
                                                            const Inputs& inputs) {
  static std::uint64_t cachedSeed = 0;
  static std::map<std::string, std::uint64_t> cached;
  if (!cached.empty() && cachedSeed == seed) return cached;
  cached.clear();
  cachedSeed = seed;
  genomics::AlignerOptions options;
  options.threads = 1;
  const genomics::MiniBlastAligner aligner(inputs.referenceBases, options);
  for (std::size_t d = 0; d < kDags; ++d) {
    const std::string wf = "g" + std::to_string(d);
    cached[workflow::intermediatePath(wf, "prep")] =
        fnv1a(inputs.referenceFasta.data(), inputs.referenceFasta.size());
    std::vector<std::uint8_t> merged;
    for (std::size_t s = 0; s < kSamplesPerDag; ++s) {
      auto reads = genomics::fromFasta(inputs.samples.at(sampleId(d, s)));
      std::vector<genomics::Alignment> alignments;
      (void)aligner.alignAll(*reads, alignments);
      const auto report = genomics::encodeCompressedReport(alignments);
      cached[workflow::intermediatePath(wf, "a" + std::to_string(s))] =
          fnv1a(report.data(), report.size());
      merged.insert(merged.end(), report.begin(), report.end());
    }
    cached[workflow::intermediatePath(wf, "merge")] = fnv1a(merged.data(), merged.size());
  }
  return cached;
}

}  // namespace

RoundResult runGenomicsDag(RoundContext& ctx) {
  RoundResult out;
  const std::int64_t setupStart = hostNs();

  const Inputs inputs = generate(ctx.seed);
  sim::Simulator sim;
  core::ClusterOverlay overlay(sim);
  overlay.addNode("client-host");
  std::vector<core::ComputeCluster*> clusters;
  genomics::MagicBlastConfig blast;
  // The samples stand in for testbed-scale ones: ~2 min of sim runtime.
  blast.throughputBytesPerSec = 1'200.0;
  blast.referenceObject = "ref";
  apps::TransformConfig transform;
  transform.bytesPerSecondPerCore = 32'768.0;
  transform.scalingEfficiency = 0.0;
  const genomics::DatasetCatalog catalog;
  for (const char* name : kClusters) {
    core::ComputeClusterConfig config;
    config.name = name;
    // Room for every alignment of its half of the samples at once.
    config.nodeCount = 4;
    config.perNode = k8s::Resources{MilliCpu::fromCores(10), ByteSize::fromGiB(32)};
    core::ComputeCluster& cc = overlay.addCluster(config);
    cc.cluster().registerApp(
        "magic-blast",
        timedRunner(genomics::makeMagicBlastRunner(cc.store(), catalog, blast), ctx,
                    /*aligner=*/true));
    cc.cluster().registerApp(
        "transform",
        timedRunner(apps::makeTransformRunner(cc.store(), transform), ctx,
                    /*aligner=*/false));
    clusters.push_back(&cc);
  }
  overlay.connect("client-host", "east", net::LinkParams{sim::Duration::millis(5)});
  overlay.connect("client-host", "west", net::LinkParams{sim::Duration::millis(20)});
  overlay.connect("east", "west", net::LinkParams{sim::Duration::millis(10)});
  overlay.announceCluster("east");
  overlay.announceCluster("west");

  // Load the lake: the reference on east, samples alternating.
  std::uint64_t loadedBytes = 0;
  {
    ScopedSpan span("datalake.load", "datalake");
    const std::int64_t start = hostNs();
    (void)clusters[0]->store().put(core::makeDataName("ref"), inputs.referenceFasta);
    loadedBytes += inputs.referenceFasta.size();
    for (std::size_t d = 0; d < kDags; ++d) {
      for (std::size_t s = 0; s < kSamplesPerDag; ++s) {
        const auto& fasta = inputs.samples.at(sampleId(d, s));
        (void)clusters[s % 2]->store().put(core::makeDataName(sampleId(d, s)), fasta);
        loadedBytes += fasta.size();
      }
    }
    ctx.tally.publishNs += hostNs() - start;
  }
  std::uint64_t storedAfterLoad = 0;
  for (auto* cc : clusters) storedAfterLoad += cc->store().bytesStored();

  std::vector<std::unique_ptr<replica::TransferScheduler>> schedulers;
  std::vector<std::unique_ptr<replica::PrestageCoordinator>> prestagers;
  std::vector<std::unique_ptr<migrate::CheckpointManager>> checkpoints;
  migrate::CheckpointOptions ckptOptions;
  ckptOptions.interval = sim::Duration::seconds(30);
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    checkpoints.push_back(std::make_unique<migrate::CheckpointManager>(
        clusters[i]->cluster(), clusters[i]->store(), ckptOptions));
    schedulers.push_back(std::make_unique<replica::TransferScheduler>(
        clusters[i]->forwarder(), clusters[i]->store(), kClusters[i]));
    prestagers.push_back(std::make_unique<replica::PrestageCoordinator>(
        *schedulers.back(), clusters[i]->store()));
  }
  core::ClientOptions clientOptions;
  clientOptions.statusPollInterval = sim::Duration::seconds(1);
  clientOptions.maxSubmitRetries = 12;
  core::LidcClient client(*overlay.topology().node("client-host"), "gd-user",
                          clientOptions, ctx.seed + 11);
  workflow::WorkflowOptions options;
  options.localityAware = true;
  options.prestageHook = [&](const std::string& consumer,
                             const std::vector<std::string>& paths) {
    prestagers[homeCluster(consumer)]->prestage(consumer, lakeUris(paths));
  };
  options.ensureInputsLocal = [&](const std::string& stage,
                                  const std::vector<std::string>& paths,
                                  std::function<void(std::uint64_t)> done) {
    prestagers[homeCluster(stage)]->ensureLocal(stage, lakeUris(paths), std::move(done));
  };
  workflow::WorkflowEngine engine(client, std::move(options));
  const auto freeAtStart = freeResources(overlay);
  out.setupS = static_cast<double>(hostNs() - setupStart) / 1e9;

  // --- timed phase: DAG arrivals in sim time, run to quiescence ---
  JobLedger dags;
  std::vector<std::optional<workflow::WorkflowOutcome>> outcomes(kDags);
  const std::int64_t start = hostNs();
  for (std::size_t d = 0; d < kDags; ++d) {
    const std::size_t id = dags.add(inputs.dagArrivals[d]);
    sim.scheduleAt(inputs.dagArrivals[d], [&, d, id] {
      ScopedSpan span("workflow.run", "workflow", static_cast<std::int64_t>(id));
      engine.run(dagSpec(d), [&, d, id](Result<workflow::WorkflowOutcome> r) {
        ScopedSpan callback("workflow.done", "bench", static_cast<std::int64_t>(id));
        dags.settle(id, sim.now(), r.ok() && r->succeeded);
        if (r.ok()) outcomes[d] = std::move(r).value();
      });
    });
  }
  runChunks(
      sim, ctx, [&] { return dags.allSettled(); }, sim::Time() + sim::Duration::hours(6),
      [&] { sampleQueues(overlay, ctx); });
  drain(sim, ctx);
  out.hostS = static_cast<double>(hostNs() - start) / 1e9;

  // --- checks and counters (untimed) ---
  checkExactlyOnce(dags, ctx);
  checkQuiescent(sim, overlay, freeAtStart, nullptr, ctx);
  readOverlayCounters(overlay, nullptr, out.counters, out.linkBytes);
  std::uint64_t workflowBytes = 0;
  for (std::size_t d = 0; d < kDags; ++d) {
    expect(ctx, outcomes[d].has_value(), "workflow g" + std::to_string(d) + " has no outcome");
    if (!outcomes[d]) continue;
    workflowBytes += outcomes[d]->intermediateBytesMoved + outcomes[d]->dispatchBytesMoved;
    for (const auto& [stage, status] : outcomes[d]->stages) {
      // Each stage is one job: due at dispatch, done when terminal.
      JobRecord job;
      job.due = status.dispatchedAt;
      job.done = status.finishedAt;
      job.terminals = 1;
      job.completed = status.state == workflow::StageState::kCompleted;
      job.failovers = status.failovers;
      job.cluster = status.cluster;
      out.jobs.push_back(job);
      out.workUnits += job.completed ? 1 : 0;
    }
  }
  std::uint64_t storedAtEnd = 0;
  for (auto* cc : clusters) storedAtEnd += cc->store().bytesStored();
  out.counters["datalake.bytes_published"] =
      static_cast<double>(loadedBytes + storedAtEnd - storedAfterLoad);
  out.counters["workflow.stages_dispatched"] = static_cast<double>(engine.stagesDispatched());
  out.counters["workflow.stage_hedges"] = static_cast<double>(engine.stageHedges());
  out.counters["workflow.bytes_moved"] = static_cast<double>(workflowBytes);
  for (const auto& checkpoint : checkpoints) {
    out.counters["migrate.ckpt_written"] += static_cast<double>(checkpoint->counters().written);
    out.counters["migrate.ckpt_bytes"] += static_cast<double>(checkpoint->counters().bytes);
  }
  for (const auto& scheduler : schedulers) {
    out.counters["replica.bytes_moved"] += static_cast<double>(scheduler->bytesMoved());
    out.counters["replica.local_hits"] += static_cast<double>(scheduler->localHits());
    out.counters["replica.failures"] += static_cast<double>(scheduler->failures());
  }

  // Every result object is retrievable from the lake by name, and its
  // digest matches the one computed directly from the seed's inputs.
  const auto& expected = expectedDigests(ctx.seed, inputs);
  std::map<std::string, std::uint64_t> fetched;
  {
    ScopedSpan span("datalake.fetch", "datalake");
    const std::int64_t fetchStart = hostNs();
    for (const auto& [path, digest] : expected) {
      client.fetchData(core::makeDataName(path),
                       [&fetched, path = path](Result<std::vector<std::uint8_t>> r) {
                         fetched[path] = r.ok() ? fnv1a(r->data(), r->size()) : 0;
                       });
    }
    sim.run();
    ctx.tally.fetchNs += hostNs() - fetchStart;
  }
  for (const auto& [path, digest] : expected) {
    const auto it = fetched.find(path);
    expect(ctx, it != fetched.end() && it->second != 0,
           "result " + path + " could not be retrieved from the lake");
    expect(ctx, it == fetched.end() || it->second == 0 || it->second == digest,
           "result " + path + " digest differs from the one computed for this seed");
  }
  return out;
}

}  // namespace lidcbench
