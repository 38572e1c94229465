#include "genomics/kmer_index.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "genomics/sequence.hpp"

namespace lidc::genomics {
namespace {

TEST(KmerIndexTest, PackRejectsNonAcgtAndOutOfRange) {
  std::uint64_t packed = 0;
  EXPECT_TRUE(KmerIndex::pack("ACGTACGT", 0, 4, packed));
  EXPECT_FALSE(KmerIndex::pack("ACNT", 0, 4, packed));
  EXPECT_FALSE(KmerIndex::pack("ACG", 0, 4, packed));  // too short
  EXPECT_TRUE(KmerIndex::pack("ACGT", 0, 4, packed));
}

TEST(KmerIndexTest, PackIsPositional) {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  ASSERT_TRUE(KmerIndex::pack("ACGTAAAA", 0, 4, a));  // ACGT
  ASSERT_TRUE(KmerIndex::pack("AAAAACGT", 4, 4, b));  // ACGT
  EXPECT_EQ(a, b);
  std::uint64_t c = 0;
  ASSERT_TRUE(KmerIndex::pack("TGCA", 0, 4, c));
  EXPECT_NE(a, c);
}

TEST(KmerIndexTest, FindsAllOccurrences) {
  // "ACGT" occurs at 0 and 8.
  KmerIndex index("ACGTTTTTACGT", 4, 64);
  std::uint64_t packed = 0;
  ASSERT_TRUE(KmerIndex::pack("ACGT", 0, 4, packed));
  const auto hits = index.find(packed);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(std::vector<std::uint32_t>(hits.begin(), hits.end()),
            (std::vector<std::uint32_t>{0, 8}));
}

TEST(KmerIndexTest, AbsentKmerReturnsEmpty) {
  KmerIndex index("AAAAAAAA", 4, 64);
  std::uint64_t packed = 0;
  ASSERT_TRUE(KmerIndex::pack("CCCC", 0, 4, packed));
  EXPECT_TRUE(index.find(packed).empty());
}

TEST(KmerIndexTest, RepeatMaskingDropsFrequentKmers) {
  // Poly-A: the AAAA k-mer occurs length-3 times.
  const std::string polyA(100, 'A');
  KmerIndex masked(polyA, 4, /*maxOccurrences=*/10);
  std::uint64_t packed = 0;
  ASSERT_TRUE(KmerIndex::pack("AAAA", 0, 4, packed));
  EXPECT_TRUE(masked.find(packed).empty());
  EXPECT_EQ(masked.maskedKmers(), 1u);

  KmerIndex unmasked(polyA, 4, /*maxOccurrences=*/1000);
  EXPECT_FALSE(unmasked.find(packed).empty());
}

TEST(KmerIndexTest, ShortReferenceYieldsEmptyIndex) {
  KmerIndex index("ACG", 11, 64);
  EXPECT_EQ(index.distinctKmers(), 0u);
}

TEST(KmerIndexTest, DistinctCountMatchesRandomSequenceScale) {
  Rng rng(3);
  const std::string reference = randomBases(rng, 10'000);
  KmerIndex index(reference, 11, 64);
  // With 4^11 ~ 4M possible k-mers and 10k positions, nearly all distinct.
  EXPECT_GT(index.distinctKmers(), 9'500u);
}

struct IndexCase {
  unsigned k;
  std::size_t maxOccurrences;
  std::uint64_t seed;
};

/// Seeded property test: the flat index answers exactly like a
/// std::map model built window by window with pack().
class KmerIndexModelTest : public ::testing::TestWithParam<IndexCase> {};

TEST_P(KmerIndexModelTest, AgreesWithOrderedMapModel) {
  const auto [k, maxOccurrences, seed] = GetParam();
  Rng rng(seed);
  // Random bases broken by runs of N (no window spans one), poly-A
  // repeats (masked at small maxOccurrences) and a copied segment.
  std::string reference = randomBases(rng, 3'000);
  for (int i = 0; i < 4; ++i) {
    const std::size_t at = rng.uniform(reference.size() - 200);
    reference.replace(at, 1 + rng.uniform(40), std::string(1 + rng.uniform(40), 'N'));
    const std::size_t polyA = rng.uniform(reference.size() - 200);
    reference.replace(polyA, 60, std::string(60, 'A'));
  }
  reference += reference.substr(100, 300);

  std::map<std::uint64_t, std::vector<std::uint32_t>> model;
  for (std::size_t pos = 0; pos + k <= reference.size(); ++pos) {
    std::uint64_t packed = 0;
    if (KmerIndex::pack(reference, pos, k, packed)) {
      model[packed].push_back(static_cast<std::uint32_t>(pos));
    }
  }
  std::size_t masked = 0;
  for (const auto& [packed, positions] : model) {
    if (positions.size() > maxOccurrences) ++masked;
  }

  const KmerIndex index(reference, k, maxOccurrences);
  EXPECT_EQ(index.k(), k);
  EXPECT_EQ(index.distinctKmers(), model.size() - masked);
  EXPECT_EQ(index.maskedKmers(), masked);
  for (const auto& [packed, positions] : model) {
    const auto hits = index.find(packed);
    if (positions.size() > maxOccurrences) {
      EXPECT_TRUE(hits.empty()) << "masked k-mer " << packed;
    } else {
      EXPECT_EQ(std::vector<std::uint32_t>(hits.begin(), hits.end()), positions)
          << "k-mer " << packed;
    }
  }
  const std::uint64_t universe = std::uint64_t{1} << (2 * k);
  std::size_t absent = 0;
  for (int i = 0; i < 2'000; ++i) {
    const std::uint64_t packed = rng.uniform(universe);
    if (model.count(packed) != 0) continue;
    ++absent;
    EXPECT_TRUE(index.find(packed).empty()) << "absent k-mer " << packed;
  }
  if (k >= 9) {
    EXPECT_GT(absent, 1'000u);
  }
}

std::vector<IndexCase> indexCases() {
  std::vector<IndexCase> cases;
  for (const unsigned k : {4u, 9u, 11u, 15u, 31u}) {
    for (const std::size_t maxOccurrences : {1u, 2u, 64u}) {
      for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        cases.push_back({k, maxOccurrences, seed});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, KmerIndexModelTest, ::testing::ValuesIn(indexCases()),
                         [](const ::testing::TestParamInfo<IndexCase>& info) {
                           return "k" + std::to_string(info.param.k) + "_max" +
                                  std::to_string(info.param.maxOccurrences) + "_seed" +
                                  std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace lidc::genomics
