// Ablation I — MiniBlast alignment kernel (google-benchmark).
//
// Host-time throughput of the real compute kernel behind the magic-blast
// application: index construction, reverse complement and read
// alignment, across thread counts and seed lengths; one whole
// genomics_dag alignment stage, with its reference database built cold
// and already resident; and a pure busy loop per thread that
// measures how many cores the process actually gets, which is what
// bounds the aligner's thread scaling on a given machine.
#include <benchmark/benchmark.h>

#include <thread>
#include <vector>

#include "bench_gbench_util.hpp"

#include "genomics/aligner.hpp"
#include "genomics/datasets.hpp"

namespace {

using namespace lidc;
using namespace lidc::genomics;

const std::string& reference() {
  static const std::string ref = [] {
    Rng rng(42);
    return randomBases(rng, 200'000);
  }();
  return ref;
}

const std::vector<Sequence>& reads() {
  static const std::vector<Sequence> all = [] {
    Rng rng(43);
    return generateReads(rng, reference(), 2'000, 100, 0.42, 0.04, "BENCH");
  }();
  return all;
}

void BM_KmerIndexBuild(benchmark::State& state) {
  const auto k = static_cast<unsigned>(state.range(0));
  std::size_t resident = 0;
  for (auto _ : state) {
    KmerIndex index(reference(), k);
    benchmark::DoNotOptimize(index.distinctKmers());
    resident = index.residentBytes();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(reference().size()));
  state.counters["bytes_per_window"] =
      static_cast<double>(resident) / static_cast<double>(reference().size() - k + 1);
}
BENCHMARK(BM_KmerIndexBuild)->Arg(9)->Arg(11)->Arg(15);

void BM_AlignReads(benchmark::State& state) {
  AlignerOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  const MiniBlastAligner aligner(reference(), options);
  for (auto _ : state) {
    std::vector<Alignment> out;
    auto stats = aligner.alignAll(reads(), out);
    benchmark::DoNotOptimize(stats.readsAligned);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(reads().size()));
}
BENCHMARK(BM_AlignReads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_ReverseComplement(benchmark::State& state) {
  // Both strands of every read are seeded: one reverse complement per
  // read, here over 1000 reads of 100 bp.
  const std::vector<Sequence>& all = reads();
  for (auto _ : state) {
    for (std::size_t i = 0; i < 1'000; ++i) {
      auto rc = reverseComplement(all[i].bases);
      benchmark::DoNotOptimize(rc);
    }
  }
  state.SetItemsProcessed(state.iterations() * 1'000);
}
BENCHMARK(BM_ReverseComplement);

const std::string& stageReference() {
  static const std::string ref = [] {
    Rng rng(44);
    return randomBases(rng, 60'000);
  }();
  return ref;
}

const std::vector<Sequence>& stageReads() {
  static const std::vector<Sequence> all = [] {
    Rng rng(45);
    return generateReads(rng, stageReference(), 1'000, 100, 0.45, 0.03, "STAGE");
  }();
  return all;
}

void alignStage(benchmark::State& state) {
  AlignerOptions options;
  options.threads = 2;
  for (auto _ : state) {
    const MiniBlastAligner aligner(stageReference(), options);
    std::vector<Alignment> out;
    auto stats = aligner.alignAll(stageReads(), out);
    benchmark::DoNotOptimize(stats.basesExamined);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stageReads().size()));
}

void BM_AlignStage(benchmark::State& state) {
  // One genomics_dag alignment stage as the first of a round runs it: no
  // one holds the 60 kbp reference's database, so the aligner builds it,
  // then aligns 1000 reads of 100 bp at 2 threads.
  alignStage(state);
}
BENCHMARK(BM_AlignStage)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_AlignStageSharedDb(benchmark::State& state) {
  // The same stage as every later one of a round runs it: the database
  // is already resident, so the aligner only looks it up.
  AlignerOptions options;
  options.threads = 2;
  const MiniBlastAligner resident(stageReference(), options);
  alignStage(state);
}
BENCHMARK(BM_AlignStageSharedDb)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SpinCalibration(benchmark::State& state) {
  // range(0) threads each run the same fixed busy loop (no memory, no
  // locks). With that many free cores the wall time stays flat; when it
  // grows with the thread count, the process gets fewer cores than it
  // has threads, and neither does the aligner scale past that.
  const auto threads = static_cast<std::size_t>(state.range(0));
  constexpr std::uint64_t kSpins = 100'000'000;
  auto spin = [] {
    std::uint64_t x = 88172645463325252ULL;
    for (std::uint64_t i = 0; i < kSpins; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    benchmark::DoNotOptimize(x);
  };
  for (auto _ : state) {
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) workers.emplace_back(spin);
    for (auto& worker : workers) worker.join();
  }
}
BENCHMARK(BM_SpinCalibration)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_CompressReport(benchmark::State& state) {
  const MiniBlastAligner aligner(reference());
  std::vector<Alignment> alignments;
  (void)aligner.alignAll(reads(), alignments);
  for (auto _ : state) {
    auto compressed = encodeCompressedReport(alignments);
    benchmark::DoNotOptimize(compressed);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(alignments.size()));
}
BENCHMARK(BM_CompressReport);

}  // namespace

int main(int argc, char** argv) {
  return lidc::bench::runBenchmarksWithJsonReport(argc, argv, "aligner");
}
