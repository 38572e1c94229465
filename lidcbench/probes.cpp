// The layer-probe phase: each probe times one public function of a
// layer, repeatedly, on inputs shaped like the workload's own (name
// component counts and lengths, payload and segment sizes, node and pod
// counts). A probe reports the median per-operation time over
// kBatches batches, after one warm-up batch.
//
// ndn.exchange_us is the one two-node Interest/Data exchange rate that
// later changes cite: a consumer and a producer on two forwarders joined
// by one link.
#include <algorithm>
#include <memory>

#include "bench.hpp"
#include "core/checkpoint_format.hpp"
#include "core/compute_cluster.hpp"
#include "core/semantic_name.hpp"
#include "datalake/file_server.hpp"
#include "datalake/object_store.hpp"
#include "datalake/retriever.hpp"
#include "genomics/aligner.hpp"
#include "k8s/cluster.hpp"
#include "k8s/pvc.hpp"
#include "k8s/scheduler.hpp"
#include "ndn/app_face.hpp"
#include "ndn/cs.hpp"
#include "ndn/fib.hpp"
#include "ndn/pit.hpp"
#include "net/topology.hpp"

namespace lidcbench {

namespace {

constexpr int kBatches = 7;

/// Inputs shaped like one workload.
struct Shape {
  std::vector<ndn::Name> names;  // Interest names the workload expresses
  std::vector<std::string> clusters;
  std::size_t payloadBytes = 0;  // typical Data payload
  std::size_t objectBytes = 0;   // typical lake object
  std::size_t nodes = 0;         // k8s nodes per cluster
  std::uint64_t coresPerNode = 0;
  std::size_t pods = 0;          // concurrent job pods per cluster
};

Shape shapeFor(const std::string& workload, std::uint64_t seed) {
  Rng rng(seed ^ 0x9b0be5ULL);
  Shape shape;
  if (workload == "genomics_dag") {
    shape.clusters = {"east", "west"};
    shape.payloadBytes = 8 * 1024;  // FileServer segments
    shape.objectBytes = 128 * 1024;
    shape.nodes = 4;
    shape.coresPerNode = 10;
    shape.pods = 16;
    for (int i = 0; i < 64; ++i) {
      shape.names.push_back(core::makeDataName(
          "wf/g" + std::to_string(rng.uniform(8)) + "/a" + std::to_string(rng.uniform(4)) +
          "/seg=" + std::to_string(rng.uniform(16))));
    }
  } else {
    shape.clusters = workload == "chaos_mix"
                         ? std::vector<std::string>{"east", "west", "south"}
                         : std::vector<std::string>{"edge", "regional", "cloud"};
    shape.payloadBytes = 256;  // acks and status replies
    shape.objectBytes = 64 * 1024;
    shape.nodes = workload == "chaos_mix" ? 2 : 4;
    shape.coresPerNode = 16;
    shape.pods = 32;
    for (int i = 0; i < 64; ++i) {
      core::ComputeRequest request;
      request.app = "sleep";
      request.cpu = MilliCpu::fromCores(2);
      request.memory = ByteSize::fromGiB(2);
      request.params["dur_ms"] = std::to_string(20'000 + rng.uniform(20'000));
      request.requestId = "cp-user-a-" + std::to_string(rng.uniform(2000));
      shape.names.push_back(request.toName());
      shape.names.push_back(core::makeStatusName(
          shape.clusters[rng.uniform(3)], "job-edge-" + std::to_string(rng.uniform(700))));
    }
  }
  return shape;
}

/// Runs `batch` (which performs `ops` operations) once to warm up, then
/// kBatches timed times; returns the median ns per operation.
template <class Batch>
double nsPerOp(const char* name, std::size_t ops, Batch&& batch) {
  ScopedSpan span(name, "probe");
  batch();
  std::vector<double> perOp;
  for (int b = 0; b < kBatches; ++b) {
    const std::int64_t start = hostNs();
    batch();
    perOp.push_back(static_cast<double>(hostNs() - start) / static_cast<double>(ops));
  }
  return median(perOp);
}

/// Keeps a computed value observable so the work is not optimised away.
volatile std::uint64_t g_sink = 0;

ndn::Data makeData(const ndn::Name& name, std::size_t bytes) {
  ndn::Data data(name);
  data.setContent(std::string(bytes, 'x'));
  data.sign();
  return data;
}

// --- ndn ---------------------------------------------------------------

double probeNameHash(const Shape& shape) {
  return nsPerOp("probe.name_hash", 100 * shape.names.size(), [&] {
    for (int r = 0; r < 100; ++r) {
      for (const ndn::Name& name : shape.names) g_sink = g_sink + name.hash();
    }
  });
}

double probeFibLpm(const Shape& shape) {
  ndn::Fib fib;
  ndn::FaceId face = 1;
  for (const ndn::Name& prefix : {core::kComputePrefix, core::kDataPrefix,
                                  core::kPublishPrefix, core::kSubmitPrefix,
                                  core::kCkptPrefix}) {
    fib.insert(prefix, face++, 0);
  }
  for (const std::string& cluster : shape.clusters) {
    for (ndn::Name prefix : {core::kStatusPrefix, core::kInfoPrefix}) {
      fib.insert(prefix.append(cluster), face++, 0);
    }
  }
  return nsPerOp("probe.fib_lpm", 100 * shape.names.size(), [&] {
    for (int r = 0; r < 100; ++r) {
      for (const ndn::Name& name : shape.names) {
        g_sink = g_sink + (fib.longestPrefixMatch(name) != nullptr ? 1 : 0);
      }
    }
  });
}

double probePit(const Shape& shape) {
  ndn::Pit pit;
  std::vector<ndn::Interest> interests;
  for (const ndn::Name& name : shape.names) interests.emplace_back(name);
  return nsPerOp("probe.pit_insert_erase", 50 * interests.size(), [&] {
    for (int r = 0; r < 50; ++r) {
      for (const ndn::Interest& interest : interests) pit.erase(pit.insert(interest).entry);
    }
  });
}

double probeCs(const Shape& shape) {
  ndn::ContentStore cs(1024);
  std::vector<ndn::Data> data;
  std::vector<ndn::Interest> interests;
  for (const ndn::Name& name : shape.names) {
    data.push_back(makeData(name, shape.payloadBytes));
    interests.emplace_back(name);
  }
  const sim::Time now;
  return nsPerOp("probe.cs_insert_find", 20 * data.size(), [&] {
    for (int r = 0; r < 20; ++r) {
      for (std::size_t i = 0; i < data.size(); ++i) {
        cs.insert(data[i], now);
        g_sink = g_sink + (cs.find(interests[(i * 7) % interests.size()], now) ? 1 : 0);
      }
    }
  });
}

double probeInterestRoundtrip(const Shape& shape) {
  std::vector<ndn::Interest> interests;
  for (const ndn::Name& name : shape.names) {
    interests.emplace_back(name);
    interests.back().setNonce(7);
  }
  return nsPerOp("probe.interest_roundtrip", 20 * interests.size(), [&] {
    for (int r = 0; r < 20; ++r) {
      for (const ndn::Interest& interest : interests) {
        const auto wire = interest.wireEncode();
        auto decoded = ndn::Interest::wireDecode(std::span<const std::uint8_t>(wire));
        g_sink = g_sink + (decoded.ok() ? decoded->name().size() : 0);
      }
    }
  });
}

double probeDigestPerKb(const Shape& shape) {
  const ndn::Data data = makeData(shape.names.front(), shape.payloadBytes);
  const double kb = static_cast<double>(shape.payloadBytes) / 1024.0;
  return nsPerOp("probe.data_digest", 2000, [&] {
           for (int r = 0; r < 2000; ++r) g_sink = g_sink + data.contentDigest();
         }) /
         kb;
}

/// Two forwarders joined by one 1 ms link; a consumer on one, a
/// producer on the other. One exchange = Interest out, Data back.
double probeExchangeUs(const Shape& shape) {
  sim::Simulator sim;
  net::Topology topology(sim);
  ndn::Forwarder& a = topology.addNode("a");
  ndn::Forwarder& b = topology.addNode("b");
  topology.connect("a", "b", net::LinkParams{sim::Duration::millis(1)});
  a.cs().setCapacity(0);  // measure the forwarding path, not cache hits
  b.cs().setCapacity(0);
  auto consumer = std::make_shared<ndn::AppFace>("app://consumer", sim, 1);
  auto producer = std::make_shared<ndn::AppFace>("app://producer", sim, 2);
  a.addFace(consumer);
  const ndn::FaceId producerId = b.addFace(producer);
  const ndn::Name prefix("/probe");
  b.registerPrefix(prefix, producerId);
  topology.installRoutesTo(prefix, "b");
  const std::string payload(shape.payloadBytes, 'r');
  producer->setInterestHandler([&producer, &payload](const ndn::Interest& interest) {
    ndn::Data data(interest.name());
    data.setContent(payload);
    data.sign();
    producer->putData(std::move(data));
  });
  std::uint64_t counter = 0;
  constexpr std::size_t kOps = 500;
  return nsPerOp("probe.exchange", kOps, [&] {
           for (std::size_t i = 0; i < kOps; ++i) {
             ndn::Name name = prefix;
             name.appendNumber(counter++);
             consumer->expressInterest(ndn::Interest(name),
                                       [](const ndn::Interest&, const ndn::Data&) {
                                         g_sink = g_sink + 1;
                                       });
             sim.run();
           }
         }) /
         1000.0;
}

// --- sim ---------------------------------------------------------------

double probeSimEvent() {
  sim::Simulator sim;
  constexpr std::size_t kOps = 20'000;
  return nsPerOp("probe.sim_event", kOps, [&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      sim.scheduleAfter(sim::Duration::micros(static_cast<std::int64_t>(i % 97)),
                        [] { g_sink = g_sink + 1; });
    }
    sim.run();
  });
}

// --- k8s ---------------------------------------------------------------

k8s::AppResult sleepRunner(k8s::AppContext&) {
  k8s::AppResult result;
  result.runtime = sim::Duration::seconds(1);
  return result;
}

double probeJobLifecycleUs(const Shape& shape) {
  sim::Simulator sim;
  k8s::Cluster cluster("probe", sim);
  for (std::size_t n = 0; n < shape.nodes; ++n) {
    cluster.addNode("n" + std::to_string(n),
                    k8s::Resources{MilliCpu::fromCores(shape.coresPerNode),
                                   ByteSize::fromGiB(64)});
  }
  cluster.registerApp("sleep", sleepRunner);
  std::size_t counter = 0;
  constexpr std::size_t kOps = 200;
  return nsPerOp("probe.job_lifecycle", kOps, [&] {
           for (std::size_t i = 0; i < kOps; ++i) {
             k8s::JobSpec spec;
             spec.app = "sleep";
             spec.requests = k8s::Resources{MilliCpu::fromCores(2), ByteSize::fromGiB(2)};
             (void)cluster.createJob("jobs", "job-" + std::to_string(counter++), spec);
             sim.run();
           }
         }) /
         1000.0;
}

double probeEndpointSelectUs(const Shape& shape) {
  sim::Simulator sim;
  k8s::Cluster cluster("probe", sim);
  cluster.addNode("n0", k8s::Resources{MilliCpu::fromCores(10'000), ByteSize::fromGiB(10'000)});
  k8s::ServiceSpec svcSpec;
  svcSpec.selector = {{"app", "worker"}};
  auto svc = cluster.createService("jobs", "svc", svcSpec);
  for (std::size_t i = 0; i < shape.pods; ++i) {
    k8s::PodSpec podSpec;
    podSpec.image = "worker";
    podSpec.requests = k8s::Resources{MilliCpu::fromCores(2), ByteSize::fromGiB(2)};
    podSpec.labels = {{"app", i % 2 == 0 ? "worker" : "other"}};
    (void)cluster.createPod("jobs", "p" + std::to_string(i), podSpec);
  }
  sim.run();
  constexpr std::size_t kOps = 2000;
  return nsPerOp("probe.endpoint_select", kOps, [&] {
           for (std::size_t i = 0; i < kOps; ++i) {
             g_sink = g_sink + cluster.serviceEndpoints(**svc).size();
           }
         }) /
         1000.0;
}

double probeSelectNodeUs(const Shape& shape) {
  k8s::Scheduler scheduler;
  std::vector<std::unique_ptr<k8s::Node>> owned;
  std::vector<k8s::Node*> nodes;
  Rng rng(11);
  for (std::size_t i = 0; i < shape.nodes; ++i) {
    owned.push_back(std::make_unique<k8s::Node>(
        "n" + std::to_string(i),
        k8s::Resources{MilliCpu::fromCores(shape.coresPerNode), ByteSize::fromGiB(64)}));
    owned.back()->allocate("warm", k8s::Resources{MilliCpu(rng.uniform(8'000)),
                                                   ByteSize::fromGiB(rng.uniform(32))});
    nodes.push_back(owned.back().get());
  }
  k8s::PodSpec spec;
  spec.requests = k8s::Resources{MilliCpu::fromCores(2), ByteSize::fromGiB(2)};
  const k8s::Pod pod("probe-pod", "jobs", spec);
  constexpr std::size_t kOps = 20'000;
  return nsPerOp("probe.select_node", kOps, [&] {
           for (std::size_t i = 0; i < kOps; ++i) {
             g_sink = g_sink + (scheduler.selectNode(pod, nodes).ok() ? 1 : 0);
           }
         }) /
         1000.0;
}

// --- core --------------------------------------------------------------

/// One gateway behind a 1 ms link; each operation is one compute (or
/// tenant submit) Interest through admission to its ack.
double probeGatewayAdmitUs(const Shape& shape, bool tenantPath) {
  sim::Simulator sim;
  qos::TenantRegistry tenants;
  qos::TenantSpec spec;
  spec.id = "alpha";
  (void)tenants.registerTenant(spec);
  core::ClusterOverlay overlay(sim);
  overlay.addNode("client-host");
  core::ComputeClusterConfig config;
  config.name = "probe";
  config.nodeCount = static_cast<int>(shape.nodes);
  config.perNode = k8s::Resources{MilliCpu::fromCores(100'000), ByteSize::fromGiB(100'000)};
  config.tenants = &tenants;
  core::ComputeCluster& cluster = overlay.addCluster(config);
  cluster.cluster().registerApp("sleeper", [](k8s::AppContext&) {
    k8s::AppResult result;
    result.runtime = sim::Duration::hours(10);  // stays running during the probe
    return result;
  });
  cluster.gateway().jobs().mapAppToImage("sleep", "sleeper");
  overlay.connect("client-host", "probe", net::LinkParams{sim::Duration::millis(1)});
  overlay.announceCluster("probe");
  auto face = std::make_shared<ndn::AppFace>("app://probe-client", sim, 3);
  overlay.topology().node("client-host")->addFace(face);
  std::uint64_t counter = 0;
  constexpr std::size_t kOps = 100;
  return nsPerOp(tenantPath ? "probe.gateway_submit_admit" : "probe.gateway_admit", kOps,
                 [&] {
                   for (std::size_t i = 0; i < kOps; ++i) {
                     core::ComputeRequest request;
                     request.app = "sleep";
                     request.cpu = MilliCpu::fromCores(2);
                     request.memory = ByteSize::fromGiB(2);
                     request.requestId = "probe-" + std::to_string(counter++);
                     ndn::Interest interest(tenantPath ? core::makeSubmitName("alpha", request)
                                                       : request.toName());
                     interest.setLifetime(sim::Duration::seconds(10));
                     bool acked = false;
                     face->expressInterest(std::move(interest),
                                           [&acked](const ndn::Interest&, const ndn::Data&) {
                                             acked = true;
                                           });
                     while (!acked && !sim.empty()) sim.runSteps(1);
                     g_sink = g_sink + (acked ? 1 : 0);
                   }
                 }) /
         1000.0;
}

double probeSemanticParse(const Shape& shape) {
  std::vector<ndn::Name> compute;
  for (const ndn::Name& name : shape.names) {
    if (core::kComputePrefix.isPrefixOf(name)) compute.push_back(name);
  }
  if (compute.empty()) {
    core::ComputeRequest request;
    request.app = "BLAST";
    request.cpu = MilliCpu::fromCores(2);
    request.memory = ByteSize::fromGiB(4);
    request.params["srr_id"] = "SRR9100101";
    request.params["ref"] = "ref";
    request.params["out"] = "wf/g1/a1";
    request.datasets = {"SRR9100101", "ref", "wf/g1/prep"};
    compute.push_back(request.toName());
  }
  return nsPerOp("probe.semantic_name_parse", 200 * compute.size(), [&] {
    for (int r = 0; r < 200; ++r) {
      for (const ndn::Name& name : compute) {
        g_sink = g_sink + (core::ComputeRequest::fromName(name).ok() ? 1 : 0);
      }
    }
  });
}

// --- datalake ----------------------------------------------------------

/// A FileServer behind a 1 ms link; one operation retrieves one
/// workload-sized object (segment by segment) with a Retriever.
double probeRetrieveUsPerMb(const Shape& shape) {
  sim::Simulator sim;
  net::Topology topology(sim);
  ndn::Forwarder& client = topology.addNode("client");
  ndn::Forwarder& lake = topology.addNode("lake");
  topology.connect("client", "lake", net::LinkParams{sim::Duration::millis(1)});
  client.cs().setCapacity(0);
  lake.cs().setCapacity(0);
  k8s::PersistentVolumeClaim pvc("probe-lake", ByteSize::fromGiB(1));
  datalake::ObjectStore store(pvc);
  datalake::FileServer server(lake, store, core::kDataPrefix);
  topology.installRoutesTo(core::kDataPrefix, "lake");
  const ndn::Name object = core::makeDataName("probe/object");
  (void)store.put(object, std::vector<std::uint8_t>(shape.objectBytes, 0x5a));
  auto face = std::make_shared<ndn::AppFace>("app://probe-retriever", sim, 5);
  client.addFace(face);
  datalake::Retriever retriever(*face);
  constexpr std::size_t kOps = 10;
  const double mb = static_cast<double>(shape.objectBytes) / 1e6;
  return nsPerOp("probe.retrieve", kOps, [&] {
           for (std::size_t i = 0; i < kOps; ++i) {
             retriever.fetch(object, [](Result<std::vector<std::uint8_t>> r) {
               g_sink = g_sink + (r.ok() ? r->size() : 0);
             });
             sim.run();
           }
         }) /
         1000.0 / mb;
}

// --- genomics ----------------------------------------------------------

/// Aligns genomics_dag-shaped reads (100 bases, ~45% derived from the
/// reference) against a 60 kb reference with two threads.
double probeAlignUsPerRead(std::uint64_t seed) {
  Rng rng(seed ^ 0xa11c0ULL);
  const std::string reference = genomics::randomBases(rng, 60'000);
  const auto reads =
      genomics::generateReads(rng, reference, 200, 100, 0.45, 0.03, "probe");
  genomics::AlignerOptions options;
  options.threads = 2;
  const genomics::MiniBlastAligner aligner(reference, options);
  return nsPerOp("probe.align", reads.size(), [&] {
           std::vector<genomics::Alignment> alignments;
           g_sink = g_sink + aligner.alignAll(reads, alignments).readsAligned;
         }) /
         1000.0;
}

}  // namespace

std::vector<ProbeResult> runProbes(const std::string& workload, std::uint64_t seed) {
  const Shape shape = shapeFor(workload, seed);
  return {
      {"ndn.name_hash_ns", probeNameHash(shape), "ns"},
      {"ndn.fib_lpm_ns", probeFibLpm(shape), "ns"},
      {"ndn.pit_insert_erase_ns", probePit(shape), "ns"},
      {"ndn.cs_insert_find_ns", probeCs(shape), "ns"},
      {"ndn.interest_roundtrip_ns", probeInterestRoundtrip(shape), "ns"},
      {"ndn.data_digest_ns_per_kb", probeDigestPerKb(shape), "ns/KB"},
      {"ndn.exchange_us", probeExchangeUs(shape), "us"},
      {"sim.schedule_run_ns", probeSimEvent(), "ns"},
      {"k8s.job_lifecycle_us", probeJobLifecycleUs(shape), "us"},
      {"k8s.endpoint_select_us", probeEndpointSelectUs(shape), "us"},
      {"k8s.select_node_us", probeSelectNodeUs(shape), "us"},
      {"core.gateway_admit_us", probeGatewayAdmitUs(shape, false), "us"},
      {"core.gateway_submit_admit_us", probeGatewayAdmitUs(shape, true), "us"},
      {"core.semantic_name_parse_ns", probeSemanticParse(shape), "ns"},
      {"datalake.retrieve_us_per_mb", probeRetrieveUsPerMb(shape), "us/MB"},
      {"genomics.align_us_per_read", probeAlignUsPerRead(seed), "us"},
  };
}

}  // namespace lidcbench
