// The shared MiniBlast reference database: one build per reference while
// anyone holds it, separate databases for different content or seeding
// parameters, and nothing kept once the last holder is gone.
#include "genomics/reference_db.hpp"

#include <gtest/gtest.h>

#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "genomics/aligner.hpp"
#include "genomics/sequence.hpp"

namespace lidc::genomics {
namespace {

class ReferenceDbTest : public ::testing::Test {
 protected:
  ReferenceDbTest() {
    Rng rng(77);
    reference_ = randomBases(rng, 5'000);
  }

  std::string reference_;
};

TEST_F(ReferenceDbTest, AlignersOnEqualReferencesShareOneDatabase) {
  const std::uint64_t before = ReferenceDb::builds();
  const MiniBlastAligner first(reference_);
  const MiniBlastAligner second(std::string(reference_.begin(), reference_.end()));
  EXPECT_EQ(first.db(), second.db());
  EXPECT_EQ(&first.index(), &second.index());
  EXPECT_EQ(first.db()->reference(), reference_);
  EXPECT_EQ(ReferenceDb::builds() - before, 1u);
}

TEST_F(ReferenceDbTest, DifferentContentOfTheSameLengthGetsItsOwnDatabase) {
  std::string edited = reference_;
  edited[edited.size() / 2] = edited[edited.size() / 2] == 'A' ? 'C' : 'A';
  ASSERT_EQ(edited.size(), reference_.size());
  const MiniBlastAligner original(reference_);
  const MiniBlastAligner mutant(edited);
  EXPECT_NE(original.db(), mutant.db());
  EXPECT_EQ(mutant.db()->reference(), edited);
}

TEST_F(ReferenceDbTest, DifferentSeedingParametersGetTheirOwnDatabase) {
  AlignerOptions base;
  AlignerOptions otherK = base;
  otherK.k = 13;
  AlignerOptions otherMask = base;
  otherMask.maxSeedOccurrences = 8;
  AlignerOptions otherThreads = base;
  otherThreads.threads = 3;
  const MiniBlastAligner a(reference_, base);
  const MiniBlastAligner b(reference_, otherK);
  const MiniBlastAligner c(reference_, otherMask);
  const MiniBlastAligner d(reference_, otherThreads);
  EXPECT_NE(a.db(), b.db());
  EXPECT_NE(a.db(), c.db());
  EXPECT_NE(b.db(), c.db());
  EXPECT_EQ(b.index().k(), 13u);
  EXPECT_EQ(c.db()->maxSeedOccurrences(), 8u);
  // Alignment options other than the seeding ones share the database.
  EXPECT_EQ(a.db(), d.db());
}

TEST_F(ReferenceDbTest, NothingOutlivesTheLastHolder) {
  std::weak_ptr<const ReferenceDb> weak;
  {
    const MiniBlastAligner first(reference_);
    weak = first.db();
    {
      const MiniBlastAligner second(reference_);
      EXPECT_EQ(weak.lock(), second.db());
    }
    EXPECT_FALSE(weak.expired());
  }
  EXPECT_TRUE(weak.expired());

  // The next aligner builds afresh.
  const std::uint64_t before = ReferenceDb::builds();
  const MiniBlastAligner again(reference_);
  EXPECT_EQ(ReferenceDb::builds() - before, 1u);
}

TEST_F(ReferenceDbTest, ConcurrentConstructionBuildsOneDatabase) {
  constexpr std::size_t kThreads = 4;
  const std::uint64_t before = ReferenceDb::builds();
  std::vector<std::shared_ptr<const ReferenceDb>> dbs(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      const MiniBlastAligner aligner(reference_);
      dbs[t] = aligner.db();
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& db : dbs) EXPECT_EQ(db, dbs.front());
  EXPECT_EQ(ReferenceDb::builds() - before, 1u);
  EXPECT_GT(dbs.front()->index().distinctKmers(), 4'000u);
}

}  // namespace
}  // namespace lidc::genomics
