// Ablation H — NDN data-plane microbenchmarks (google-benchmark).
//
// Host-time costs of the primitives every LIDC operation rides on:
// name parsing, TLV encode/decode, FIB longest-prefix match at several
// table sizes, Content Store insert/lookup and refresh, the full
// forwarder Interest->Data exchange, and one client status poll round
// trip through a gateway. This binary counts heap allocations (a global
// operator new that counts), which the refresh and poll benches report.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "bench_gbench_util.hpp"

#include "common/rng.hpp"
#include "core/client.hpp"
#include "core/overlay.hpp"
#include "ndn/app_face.hpp"
#include "ndn/forwarder.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_allocated_bytes{0};

void* countedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace lidc;

void BM_NameParse(benchmark::State& state) {
  const std::string uri = "/ndn/k8s/compute/mem=4&cpu=6&app=BLAST&srr_id=SRR2931415";
  for (auto _ : state) {
    ndn::Name name(uri);
    benchmark::DoNotOptimize(name);
  }
}
BENCHMARK(BM_NameParse);

void BM_NameToUri(benchmark::State& state) {
  const ndn::Name name("/ndn/k8s/compute/mem=4&cpu=6&app=BLAST");
  for (auto _ : state) {
    auto uri = name.toUri();
    benchmark::DoNotOptimize(uri);
  }
}
BENCHMARK(BM_NameToUri);

void BM_InterestEncode(benchmark::State& state) {
  ndn::Interest interest(ndn::Name("/ndn/k8s/compute/mem=4&cpu=6&app=BLAST"));
  interest.setNonce(42);
  for (auto _ : state) {
    auto wire = interest.wireEncode();
    benchmark::DoNotOptimize(wire);
  }
}
BENCHMARK(BM_InterestEncode);

void BM_InterestDecode(benchmark::State& state) {
  ndn::Interest interest(ndn::Name("/ndn/k8s/compute/mem=4&cpu=6&app=BLAST"));
  interest.setNonce(42);
  const auto wire = interest.wireEncode();
  for (auto _ : state) {
    auto decoded =
        ndn::Interest::wireDecode(std::span<const std::uint8_t>(wire));
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_InterestDecode);

void BM_DataEncodeWithContent(benchmark::State& state) {
  ndn::Data data(ndn::Name("/ndn/k8s/data/object/seg=0"));
  data.setContent(std::string(static_cast<std::size_t>(state.range(0)), 'x'));
  data.sign();
  for (auto _ : state) {
    auto wire = data.wireEncode();
    benchmark::DoNotOptimize(wire);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DataEncodeWithContent)->Arg(1024)->Arg(8 * 1024)->Arg(64 * 1024);

void BM_FibLongestPrefixMatch(benchmark::State& state) {
  const auto entries = static_cast<std::size_t>(state.range(0));
  ndn::Fib fib;
  Rng rng(3);
  for (std::size_t i = 0; i < entries; ++i) {
    ndn::Name prefix("/ndn/k8s");
    prefix.append("svc" + std::to_string(i % 97));
    prefix.append("inst" + std::to_string(i));
    fib.insert(prefix, static_cast<ndn::FaceId>(i % 16 + 1), i);
  }
  fib.insert(ndn::Name("/ndn/k8s/compute"), 1, 0);
  const ndn::Name lookup("/ndn/k8s/compute/mem=4&cpu=6&app=BLAST/req=1");
  for (auto _ : state) {
    benchmark::DoNotOptimize(fib.longestPrefixMatch(lookup));
  }
}
BENCHMARK(BM_FibLongestPrefixMatch)->Arg(16)->Arg(256)->Arg(4096)->Arg(65536);

void BM_ContentStoreInsertFind(benchmark::State& state) {
  ndn::ContentStore cs(static_cast<std::size_t>(state.range(0)));
  Rng rng(7);
  std::size_t counter = 0;
  for (auto _ : state) {
    ndn::Data data(ndn::Name("/ndn/k8s/data").appendNumber(counter % 10'000));
    data.setContent("payload");
    cs.insert(data, sim::Time::fromNanos(static_cast<std::int64_t>(counter)));
    ndn::Interest probe(ndn::Name("/ndn/k8s/data").appendNumber(rng.uniform(10'000)));
    benchmark::DoNotOptimize(
        cs.find(probe, sim::Time::fromNanos(static_cast<std::int64_t>(counter))));
    ++counter;
  }
}
BENCHMARK(BM_ContentStoreInsertFind)->Arg(1024)->Arg(16 * 1024);

/// A status reply as control_plane's forwarders cache it: five name
/// components, one of them a long job id, and a short key=value payload.
ndn::Data statusReply(std::size_t job) {
  ndn::Data data(ndn::Name("/ndn/k8s/status/regional")
                     .append("job-regional-" + std::to_string(100'000 + job)));
  data.setContent("cluster=regional&output_bytes=4096&result=/ndn/k8s/data/r&state=Running");
  data.setFreshnessPeriod(sim::Duration::millis(500));
  data.sign();
  return data;
}

void BM_ContentStoreRefresh(benchmark::State& state) {
  const auto entries = static_cast<std::size_t>(state.range(0));
  std::vector<ndn::Data> replies;
  for (std::size_t i = 0; i < entries; ++i) replies.push_back(statusReply(i));
  ndn::ContentStore cs(entries);
  // Heap bytes requested while filling, per entry (allocator overhead
  // not included).
  const std::size_t bytesBefore = g_allocated_bytes.load();
  for (const ndn::Data& reply : replies) cs.insert(reply, sim::Time());
  const double bytesPerEntry =
      static_cast<double>(g_allocated_bytes.load() - bytesBefore) /
      static_cast<double>(entries);

  std::size_t next = 0;
  std::int64_t now = 0;
  const std::size_t allocsBefore = g_allocations.load();
  for (auto _ : state) {
    cs.insert(replies[next], sim::Time::fromNanos(++now));
    next = next + 1 == entries ? 0 : next + 1;
  }
  state.counters["bytes_per_entry"] = bytesPerEntry;
  state.counters["allocs_per_refresh"] =
      static_cast<double>(g_allocations.load() - allocsBefore) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_ContentStoreRefresh)->Arg(4096);

void BM_StatusPoll(benchmark::State& state) {
  // One iteration is one poll of runToCompletion()'s loop for a job that
  // keeps running: client -> client-host forwarder -> 5 ms link -> edge
  // forwarder -> gateway, the reply back, and the re-arm.
  sim::Simulator sim;
  core::ClusterOverlay overlay(sim);
  overlay.addNode("client-host");
  core::ComputeClusterConfig config;
  config.name = "edge";
  config.gateway.enableOrphanReaper = false;
  core::ComputeCluster& edge = overlay.addCluster(config);
  edge.cluster().registerApp("sleeper", [](k8s::AppContext&) {
    k8s::AppResult result;
    result.runtime = sim::Duration::hours(1'000'000);
    return result;
  });
  edge.gateway().jobs().mapAppToImage("sleep", "sleeper");
  overlay.connect("client-host", "edge", net::LinkParams{sim::Duration::millis(5)});
  overlay.announceCluster("edge");
  core::ClientOptions options;
  options.statusPollInterval = sim::Duration::seconds(2);  // > status freshness
  core::LidcClient client(*overlay.topology().node("client-host"), "user", options);
  core::ComputeRequest request;
  request.app = "sleep";
  request.cpu = MilliCpu::fromCores(1);
  request.memory = ByteSize::fromGiB(1);
  bool finished = false;
  client.runToCompletion(request, [&finished](Result<core::JobOutcome>) { finished = true; });
  // The ack lands within 0.1 s; from then on one poll every 2 s, each
  // whole inside a window that starts 1 s past a multiple of 2 s.
  sim::Time windowEnd = sim.now() + sim::Duration::seconds(7);
  sim.runUntil(windowEnd);

  const std::size_t allocsBefore = g_allocations.load();
  for (auto _ : state) {
    windowEnd = windowEnd + sim::Duration::seconds(2);
    sim.runUntil(windowEnd);
  }
  state.counters["allocs_per_poll"] =
      static_cast<double>(g_allocations.load() - allocsBefore) /
      static_cast<double>(state.iterations());
  if (finished) state.SkipWithError("the job finished under the bench");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StatusPoll);

void BM_ForwarderExchange(benchmark::State& state) {
  // Full pipeline: consumer Interest -> producer Data -> consumer,
  // single node, no link delay (host-time cost of the software path).
  sim::Simulator sim;
  ndn::Forwarder node("bench", sim);
  node.cs().setCapacity(0);  // measure the full path, not cache hits
  auto consumer = std::make_shared<ndn::AppFace>("app://c", sim, 1);
  auto producer = std::make_shared<ndn::AppFace>("app://p", sim, 2);
  node.addFace(consumer);
  node.addFace(producer);
  node.registerPrefix(ndn::Name("/svc"), producer->id());
  producer->setInterestHandler([&producer](const ndn::Interest& interest) {
    ndn::Data data(interest.name());
    data.setContent("r");
    data.sign();
    producer->putData(std::move(data));
  });

  std::size_t counter = 0;
  for (auto _ : state) {
    ndn::Interest interest(ndn::Name("/svc").appendNumber(counter++));
    bool done = false;
    consumer->expressInterest(interest,
                              [&done](const ndn::Interest&, const ndn::Data&) {
                                done = true;
                              });
    sim.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(counter));
}
BENCHMARK(BM_ForwarderExchange);

}  // namespace

int main(int argc, char** argv) {
  return lidc::bench::runBenchmarksWithJsonReport(argc, argv, "ndn_forwarder");
}
