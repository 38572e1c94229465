#include "genomics/aligner.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "genomics/sequence.hpp"

namespace lidc::genomics {
namespace {

class AlignerTest : public ::testing::Test {
 protected:
  AlignerTest() {
    Rng rng(42);
    reference_ = randomBases(rng, 20'000);
  }

  std::string reference_;
};

TEST_F(AlignerTest, ExactFragmentAlignsPerfectly) {
  MiniBlastAligner aligner(reference_);
  AlignerStats stats;
  const Sequence read{"exact", reference_.substr(5'000, 100)};
  const auto alignments = aligner.alignRead(read, stats);
  ASSERT_FALSE(alignments.empty());
  const auto& best = alignments.front();
  EXPECT_EQ(best.refStart, 5'000u);
  EXPECT_EQ(best.length, 100u);
  EXPECT_EQ(best.mismatches, 0u);
  EXPECT_DOUBLE_EQ(best.identity(), 1.0);
  EXPECT_FALSE(best.reverseStrand);
}

TEST_F(AlignerTest, ReverseStrandFragmentFound) {
  MiniBlastAligner aligner(reference_);
  AlignerStats stats;
  const Sequence read{"rc", reverseComplement(reference_.substr(3'000, 100))};
  const auto alignments = aligner.alignRead(read, stats);
  ASSERT_FALSE(alignments.empty());
  EXPECT_TRUE(alignments.front().reverseStrand);
  EXPECT_EQ(alignments.front().refStart, 3'000u);
}

TEST_F(AlignerTest, MutatedFragmentStillAlignsWithMismatches) {
  Rng rng(7);
  std::string fragment = reference_.substr(8'000, 100);
  // Introduce 5 spread-out substitutions.
  for (std::size_t pos : {10u, 30u, 50u, 70u, 90u}) {
    fragment[pos] = fragment[pos] == 'A' ? 'C' : 'A';
  }
  MiniBlastAligner aligner(reference_);
  AlignerStats stats;
  const auto alignments = aligner.alignRead({"mut", fragment}, stats);
  ASSERT_FALSE(alignments.empty());
  EXPECT_GT(alignments.front().mismatches, 0u);
  EXPECT_GE(alignments.front().identity(), 0.9);
}

TEST_F(AlignerTest, RandomReadDoesNotAlign) {
  MiniBlastAligner aligner(reference_);
  AlignerStats stats;
  Rng rng(999);
  int aligned = 0;
  for (int i = 0; i < 20; ++i) {
    const Sequence read{"rand", randomBases(rng, 100)};
    if (!aligner.alignRead(read, stats).empty()) ++aligned;
  }
  // Random 100-mers against a 20 kb random reference: essentially never.
  EXPECT_LE(aligned, 1);
}

TEST_F(AlignerTest, ShortReadBelowKIsSkipped) {
  MiniBlastAligner aligner(reference_);
  AlignerStats stats;
  EXPECT_TRUE(aligner.alignRead({"tiny", "ACGT"}, stats).empty());
}

TEST_F(AlignerTest, StatsAccumulate) {
  MiniBlastAligner aligner(reference_);
  AlignerStats stats;
  (void)aligner.alignRead({"a", reference_.substr(0, 100)}, stats);
  (void)aligner.alignRead({"b", reference_.substr(500, 100)}, stats);
  EXPECT_EQ(stats.readsProcessed, 2u);
  EXPECT_EQ(stats.readsAligned, 2u);
  EXPECT_GT(stats.seedHits, 0u);
  EXPECT_GT(stats.basesExamined, 0u);
}

TEST_F(AlignerTest, AlignAllMatchesPerReadResults) {
  Rng rng(5);
  const auto reads = generateReads(rng, reference_, 100, 100, 0.5, 0.03, "R");
  MiniBlastAligner aligner(reference_);
  std::vector<Alignment> out;
  const auto stats = aligner.alignAll(reads, out);
  EXPECT_EQ(stats.readsProcessed, 100u);
  EXPECT_EQ(out.size(), stats.alignmentsReported);
  // About half the reads are reference-derived.
  EXPECT_GT(stats.readsAligned, 30u);
  EXPECT_LT(stats.readsAligned, 70u);
}

TEST_F(AlignerTest, ParallelAndSerialAgree) {
  Rng rng(5);
  const auto reads = generateReads(rng, reference_, 200, 100, 0.5, 0.03, "R");

  AlignerOptions serialOptions;
  serialOptions.threads = 1;
  MiniBlastAligner serialAligner(reference_, serialOptions);
  std::vector<Alignment> serialOut;
  const auto serialStats = serialAligner.alignAll(reads, serialOut);

  AlignerOptions parallelOptions;
  parallelOptions.threads = 4;
  MiniBlastAligner parallelAligner(reference_, parallelOptions);
  std::vector<Alignment> parallelOut;
  const auto parallelStats = parallelAligner.alignAll(reads, parallelOut);

  EXPECT_EQ(serialStats.readsAligned, parallelStats.readsAligned);
  EXPECT_EQ(serialStats.alignmentsReported, parallelStats.alignmentsReported);
  EXPECT_EQ(serialStats.basesExamined, parallelStats.basesExamined);
  ASSERT_EQ(serialOut.size(), parallelOut.size());
  // alignAll sorts deterministically; records must match field-by-field.
  for (std::size_t i = 0; i < serialOut.size(); ++i) {
    EXPECT_EQ(serialOut[i].toRecord(), parallelOut[i].toRecord());
  }
}

TEST_F(AlignerTest, BothStrandTiesKeepOneOrderAcrossThreadCounts) {
  // A read equal to its own reverse complement aligns on both strands at
  // one refStart. Splice 64 such reads into the reference so the output
  // holds many (readId, refStart) ties for the sort to order.
  Rng rng(11);
  std::string reference = randomBases(rng, 40'000);
  std::vector<Sequence> reads;
  for (std::size_t i = 0; i < 64; ++i) {
    const std::string half = randomBases(rng, 50);
    const std::string palindrome = half + reverseComplement(half);
    reference.replace(300 + i * 600, palindrome.size(), palindrome);
    reads.push_back({"P" + std::to_string(i), palindrome});
  }

  auto records = [&](unsigned threads) {
    AlignerOptions options;
    options.threads = threads;
    MiniBlastAligner aligner(reference, options);
    std::vector<Alignment> out;
    aligner.alignAll(reads, out);
    std::string text;
    for (const auto& alignment : out) text += alignment.toRecord() + "\n";
    return std::make_pair(out, text);
  };

  const auto [serialOut, serial] = records(1);
  ASSERT_EQ(serialOut.size(), 2 * reads.size());
  for (std::size_t i = 0; i < serialOut.size(); i += 2) {
    ASSERT_EQ(serialOut[i].refStart, serialOut[i + 1].refStart);
    EXPECT_FALSE(serialOut[i].reverseStrand);
    EXPECT_TRUE(serialOut[i + 1].reverseStrand);
  }
  for (int repeat = 0; repeat < 50; ++repeat) {
    ASSERT_EQ(records(2).second, serial) << "repeat " << repeat;
  }
}

TEST_F(AlignerTest, RecordFormatIsTabular) {
  Alignment alignment;
  alignment.readId = "SRR.1";
  alignment.refStart = 10;
  alignment.length = 100;
  alignment.matches = 95;
  alignment.mismatches = 5;
  alignment.score = 80;
  const std::string record = alignment.toRecord();
  EXPECT_NE(record.find("SRR.1\t10"), std::string::npos);
  EXPECT_NE(record.find("0.9500"), std::string::npos);
}

TEST_F(AlignerTest, CompressedReportScalesWithAlignments) {
  Rng rng(5);
  const auto fewReads = generateReads(rng, reference_, 50, 100, 0.8, 0.02, "F");
  const auto manyReads = generateReads(rng, reference_, 500, 100, 0.8, 0.02, "M");
  MiniBlastAligner aligner(reference_);
  std::vector<Alignment> fewOut;
  std::vector<Alignment> manyOut;
  (void)aligner.alignAll(fewReads, fewOut);
  (void)aligner.alignAll(manyReads, manyOut);
  const auto fewBytes = encodeCompressedReport(fewOut);
  const auto manyBytes = encodeCompressedReport(manyOut);
  EXPECT_GT(manyBytes.size(), fewBytes.size() * 5);
}

TEST_F(AlignerTest, EmptyReportCompressesToEmpty) {
  EXPECT_TRUE(encodeCompressedReport({}).empty());
}

TEST_F(AlignerTest, IdentityThresholdFiltersJunk) {
  AlignerOptions strict;
  strict.minIdentity = 0.99;
  MiniBlastAligner aligner(reference_, strict);
  std::string fragment = reference_.substr(1'000, 100);
  for (std::size_t pos = 5; pos < 100; pos += 10) {
    fragment[pos] = fragment[pos] == 'A' ? 'C' : 'A';  // 10% divergence
  }
  AlignerStats stats;
  EXPECT_TRUE(aligner.alignRead({"junk", fragment}, stats).empty());
}


/// FNV-1a over a report; pins its bytes in one number.
std::uint64_t reportDigest(const std::vector<std::uint8_t>& report) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t byte : report) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// The output of one fixed seed, pinned: a rewrite of the seeding or
// extension code must leave every record and every work counter (the
// counters drive the simulated runtime) byte-identical. The reference
// carries a masked poly-A repeat, a run of N, and a duplicated segment.
class AlignerGoldenTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AlignerGoldenTest, ReportAndStatsArePinned) {
  Rng rng(2718);
  std::string reference = randomBases(rng, 30'000);
  reference.replace(10'000, 400, std::string(400, 'A'));
  reference.replace(20'000, 200, std::string(200, 'N'));
  reference.replace(25'000, 1'500, reference.substr(2'000, 1'500));
  const auto reads = generateReads(rng, reference, 400, 100, 0.5, 0.03, "G");

  AlignerOptions options;
  options.threads = GetParam();
  const MiniBlastAligner aligner(reference, options);
  std::vector<Alignment> out;
  const AlignerStats stats = aligner.alignAll(reads, out);

  EXPECT_EQ(reportDigest(encodeCompressedReport(out)), 745723824140022179ULL);
  EXPECT_EQ(stats.readsProcessed, 400u);
  EXPECT_EQ(stats.readsAligned, 198u);
  EXPECT_EQ(stats.seedHits, 2888u);
  EXPECT_EQ(stats.extensions, 352u);
  EXPECT_EQ(stats.basesExamined, 20990u);
  EXPECT_EQ(stats.alignmentsReported, 198u);
}

INSTANTIATE_TEST_SUITE_P(Threads, AlignerGoldenTest, ::testing::Values(1, 2));

}  // namespace
}  // namespace lidc::genomics
