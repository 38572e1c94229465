// Allocation budgets of the control-plane hot path and the aligner's
// seeding index. This binary replaces the global operator new with one
// that counts, and asserts exact steady-state counts: a simulator event
// with a small capture, the wire size of a packet, a copy of a Name of
// short components, a Content Store refresh, one status poll round trip
// of a Running job, a k-mer index build and a k-mer lookup, an aligner
// over a reference whose database is already resident; and the resident
// size of a seed index.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "core/client.hpp"
#include "core/overlay.hpp"
#include "genomics/aligner.hpp"
#include "genomics/kmer_index.hpp"
#include "genomics/sequence.hpp"
#include "ndn/cs.hpp"
#include "ndn/packet.hpp"
#include "sim/simulator.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};

void* countedAlloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return countedAlloc(size, 0); }
void* operator new[](std::size_t size) { return countedAlloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return countedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return countedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace lidc {
namespace {

template <class F>
std::size_t allocationsDuring(F&& f) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(AllocBudgetTest, CounterSeesHeapAllocations) {
  std::unique_ptr<int> escaped;
  EXPECT_EQ(allocationsDuring([&] { escaped = std::make_unique<int>(1); }), 1u);
}

TEST(AllocBudgetTest, InlineEventScheduleAndFireAllocateNothing) {
  sim::Simulator sim;
  int sink = 0;
  std::array<std::uint8_t, sim::Callback::kInlineBytes - sizeof(int*)> payload{};
  payload[0] = 1;
  auto event = [&sink, payload] { sink += payload[0]; };
  static_assert(sizeof(event) == sim::Callback::kInlineBytes);
  auto burst = [&] {
    for (int i = 0; i < 64; ++i) {
      sim.scheduleAfter(sim::Duration::micros(i % 7), event);
    }
    sim.run();
  };
  burst();  // grows the slot pool and the heap to their steady size
  EXPECT_EQ(allocationsDuring(burst), 0u);
  EXPECT_EQ(sink, 128);
}

TEST(AllocBudgetTest, InlineTimerArmAndCancelAllocateNothing) {
  sim::Simulator sim;
  int fired = 0;
  auto armCancel = [&] {
    for (int i = 0; i < 64; ++i) {
      sim::EventHandle timer =
          sim.scheduleAfter(sim::Duration::seconds(4), [&fired] { ++fired; });
      EXPECT_TRUE(timer.pending());
      timer.cancel();
    }
    sim.run();
  };
  armCancel();
  EXPECT_EQ(allocationsDuring(armCancel), 0u);
  EXPECT_EQ(fired, 0);
}

TEST(AllocBudgetTest, WireSizeOfFreshPacketsAllocatesNothing) {
  ndn::Interest interest(ndn::Name("/ndn/k8s/compute/mem=4&cpu=6&app=BLAST"));
  interest.setApplicationParameters("params").setExcludeDigest(42).setNonce(7);
  ndn::Data data(interest.name());
  data.setContent(std::vector<std::uint8_t>(32 * 1024, 0x5a)).sign();
  std::size_t sizes = 0;
  EXPECT_EQ(allocationsDuring([&] { sizes = interest.wireSize() + data.wireSize(); }), 0u);
  EXPECT_EQ(sizes, interest.wireEncode().size() + data.wireEncode().size());
}

TEST(AllocBudgetTest, CopyingANameOfShortComponentsAllocatesOnce) {
  const ndn::Name name("/ndn/k8s/status/job-0000000042/fifteen-bytes-x");
  for (const auto& component : name) ASSERT_LE(component.size(), 15u);
  std::optional<ndn::Name> copy;
  EXPECT_EQ(allocationsDuring([&] { copy.emplace(name); }), 1u);
  EXPECT_EQ(*copy, name);

  // The inline limit itself, and one byte past it.
  ndn::Name widest("/ndn");
  widest.append(ndn::Component(std::string(ndn::Component::kInlineCapacity, 'w')));
  copy.reset();
  EXPECT_EQ(allocationsDuring([&] { copy.emplace(widest); }), 1u);
  ndn::Name spilled("/ndn");
  spilled.append(ndn::Component(std::string(ndn::Component::kInlineCapacity + 1, 's')));
  copy.reset();
  EXPECT_EQ(allocationsDuring([&] { copy.emplace(spilled); }), 2u);
}

TEST(AllocBudgetTest, RefreshingAContentStoreNameAllocatesAtMostOneBlock) {
  ndn::ContentStore cs;
  ndn::Data data(ndn::Name("/ndn/k8s/status/cloud/job-cloud-1234567890"));
  data.setContent("state=Running&cluster=cloud");
  data.setFreshnessPeriod(sim::Duration::millis(500));
  data.sign();
  cs.insert(data, sim::Time());
  // Same-size content: rewritten in place.
  EXPECT_EQ(allocationsDuring([&] { cs.insert(data, sim::Time()); }), 0u);
  // Grown content: one new block for the whole entry.
  data.setContent(std::string(400, 'c'));
  data.sign();
  EXPECT_LE(allocationsDuring([&] { cs.insert(data, sim::Time()); }), 1u);
  EXPECT_EQ(cs.size(), 1u);
}

TEST(AllocBudgetTest, StatusPollOfARunningJobStaysWithinItsBudget) {
  // runToCompletion()'s poll loop for a job that keeps running: each
  // poll goes client -> client-host forwarder -> link -> edge forwarder
  // -> gateway and back, then re-arms.
  sim::Simulator sim;
  core::ClusterOverlay overlay(sim);
  overlay.addNode("client-host");
  core::ComputeClusterConfig config;
  config.name = "edge";
  config.gateway.enableOrphanReaper = false;  // no sweep inside the window
  core::ComputeCluster& edge = overlay.addCluster(config);
  edge.cluster().registerApp("sleeper", [](k8s::AppContext&) {
    k8s::AppResult result;
    result.runtime = sim::Duration::hours(1);
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
  // The ack lands within 0.1 s, and polls follow every 2 s from then on.
  // The window [7 s, 27 s) holds exactly 10 whole polls, after the
  // tables have reached their steady size.
  const sim::Time start = sim.now();
  sim.runUntil(start + sim::Duration::seconds(7));
  const std::size_t tenPolls = allocationsDuring(
      [&] { sim.runUntil(start + sim::Duration::seconds(27)); });
  EXPECT_FALSE(finished);
  EXPECT_LE(tenPolls, 10 * 45u) << "allocations per status poll: " << tenPolls / 10.0;
}

TEST(AllocBudgetTest, KmerIndexBuildAllocationsDoNotGrowWithTheReference) {
  Rng rng(9);
  const std::string small = genomics::randomBases(rng, 20'000);
  const std::string large = genomics::randomBases(rng, 200'000);
  const std::size_t smallBuild =
      allocationsDuring([&] { genomics::KmerIndex index(small, 11); });
  const std::size_t largeBuild =
      allocationsDuring([&] { genomics::KmerIndex index(large, 11); });
  // The slot array and the positions array; at k = 11 keys have no high
  // half to keep.
  EXPECT_EQ(smallBuild, 2u);
  EXPECT_EQ(largeBuild, smallBuild);
}

TEST(AllocBudgetTest, KmerIndexKeepsAtMost24BytesPerReferenceWindow) {
  Rng rng(11);
  const std::string reference = genomics::randomBases(rng, 60'000);
  const genomics::KmerIndex index(reference, 11);
  const std::size_t windows = reference.size() - 11 + 1;
  EXPECT_LE(index.residentBytes(), 24 * windows);
}

TEST(AllocBudgetTest, KmerIndexResidentSizeTracksTheReferenceLength) {
  // The table is twice the windows at any length, so just past a power
  // of two it does not double: about 20 B per window at 60 and 200 kbp.
  Rng rng(13);
  for (const std::size_t length : {std::size_t{60'000}, std::size_t{200'000}}) {
    const std::string reference = genomics::randomBases(rng, length);
    const genomics::KmerIndex index(reference, 11);
    const std::size_t windows = reference.size() - 11 + 1;
    EXPECT_LE(2 * index.residentBytes(), 43 * windows) << length;  // 21.5 B
  }
}

TEST(AllocBudgetTest, AlignerOverAResidentReferenceAllocatesTheSameAtAnySize) {
  Rng rng(12);
  const std::string small = genomics::randomBases(rng, 20'000);
  const std::string large = genomics::randomBases(rng, 200'000);
  const genomics::MiniBlastAligner smallHolder(small);
  const genomics::MiniBlastAligner largeHolder(large);
  const std::size_t smallLookup =
      allocationsDuring([&] { const genomics::MiniBlastAligner aligner(small); });
  const std::size_t largeLookup =
      allocationsDuring([&] { const genomics::MiniBlastAligner aligner(large); });
  // The copy of the reference handed to the constructor; no index build.
  EXPECT_EQ(smallLookup, 1u);
  EXPECT_EQ(largeLookup, smallLookup);
}

TEST(AllocBudgetTest, KmerLookupAllocatesNothing) {
  Rng rng(10);
  const std::string reference = genomics::randomBases(rng, 20'000);
  const genomics::KmerIndex index(reference, 11);
  std::size_t hits = 0;
  EXPECT_EQ(allocationsDuring([&] {
              for (std::size_t pos = 0; pos + 11 <= 2'000; ++pos) {
                std::uint64_t packed = 0;
                if (genomics::KmerIndex::pack(reference, pos, 11, packed)) {
                  hits += index.find(packed).size();
                }
              }
              hits += index.find(std::uint64_t{1} << 21).size();
            }),
            0u);
  EXPECT_GE(hits, 1'990u);
}

}  // namespace
}  // namespace lidc
