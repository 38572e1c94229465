#include "ndn/cs.hpp"

#include <gtest/gtest.h>

#include <string>

namespace lidc::ndn {
namespace {

Data makeData(const std::string& uri, sim::Duration freshness = sim::Duration()) {
  Data data((Name(uri)));
  data.setContent(uri);
  data.setFreshnessPeriod(freshness);
  data.sign();
  return data;
}

Interest makeInterest(const std::string& uri, bool canBePrefix = false,
                      bool mustBeFresh = false) {
  Interest interest((Name(uri)));
  interest.setCanBePrefix(canBePrefix);
  interest.setMustBeFresh(mustBeFresh);
  return interest;
}

TEST(ContentStoreTest, ExactMatchHit) {
  ContentStore cs;
  cs.insert(makeData("/a/b"), sim::Time());
  auto hit = cs.find(makeInterest("/a/b"), sim::Time());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->name(), Name("/a/b"));
  EXPECT_EQ(cs.hits(), 1u);
}

TEST(ContentStoreTest, ExactMatchDoesNotMatchDeeperName) {
  ContentStore cs;
  cs.insert(makeData("/a/b/c"), sim::Time());
  EXPECT_FALSE(cs.find(makeInterest("/a/b"), sim::Time()).has_value());
  EXPECT_EQ(cs.misses(), 1u);
}

TEST(ContentStoreTest, PrefixMatchWithCanBePrefix) {
  ContentStore cs;
  cs.insert(makeData("/a/b/c"), sim::Time());
  auto hit = cs.find(makeInterest("/a/b", /*canBePrefix=*/true), sim::Time());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->name(), Name("/a/b/c"));
}

TEST(ContentStoreTest, PrefixMatchDoesNotCrossSubtree) {
  ContentStore cs;
  cs.insert(makeData("/a/bb"), sim::Time());
  EXPECT_FALSE(cs.find(makeInterest("/a/b", true), sim::Time()).has_value());
}

TEST(ContentStoreTest, MustBeFreshRespectsFreshnessPeriod) {
  ContentStore cs;
  cs.insert(makeData("/a", sim::Duration::seconds(1)), sim::Time());
  // Within freshness: hit.
  EXPECT_TRUE(cs.find(makeInterest("/a", false, true),
                      sim::Time() + sim::Duration::millis(500))
                  .has_value());
  // After freshness: stale, no hit for MustBeFresh...
  EXPECT_FALSE(cs.find(makeInterest("/a", false, true),
                       sim::Time() + sim::Duration::seconds(2))
                   .has_value());
  // ...but a hit without MustBeFresh.
  EXPECT_TRUE(cs.find(makeInterest("/a"),
                      sim::Time() + sim::Duration::seconds(2))
                  .has_value());
}

TEST(ContentStoreTest, ZeroFreshnessNeverSatisfiesMustBeFresh) {
  ContentStore cs;
  cs.insert(makeData("/a"), sim::Time());
  EXPECT_FALSE(cs.find(makeInterest("/a", false, true), sim::Time()).has_value());
}

TEST(ContentStoreTest, LruEvictionDropsColdest) {
  ContentStore cs(2);
  cs.insert(makeData("/a"), sim::Time());
  cs.insert(makeData("/b"), sim::Time());
  // Touch /a so /b is the LRU victim.
  (void)cs.find(makeInterest("/a"), sim::Time());
  cs.insert(makeData("/c"), sim::Time());
  EXPECT_EQ(cs.size(), 2u);
  EXPECT_TRUE(cs.find(makeInterest("/a"), sim::Time()).has_value());
  EXPECT_FALSE(cs.find(makeInterest("/b"), sim::Time()).has_value());
  EXPECT_TRUE(cs.find(makeInterest("/c"), sim::Time()).has_value());
}

TEST(ContentStoreTest, ReinsertRefreshesArrivalTime) {
  ContentStore cs;
  cs.insert(makeData("/a", sim::Duration::seconds(1)), sim::Time());
  // Re-inserted at t=5s: fresh again relative to the new arrival.
  cs.insert(makeData("/a", sim::Duration::seconds(1)),
            sim::Time() + sim::Duration::seconds(5));
  EXPECT_TRUE(cs.find(makeInterest("/a", false, true),
                      sim::Time() + sim::Duration::seconds(5.5))
                  .has_value());
}

TEST(ContentStoreTest, ZeroCapacityStoresNothing) {
  ContentStore cs(0);
  cs.insert(makeData("/a"), sim::Time());
  EXPECT_EQ(cs.size(), 0u);
}

TEST(ContentStoreTest, ShrinkingCapacityEvicts) {
  ContentStore cs(4);
  for (const char* uri : {"/a", "/b", "/c", "/d"}) {
    cs.insert(makeData(uri), sim::Time());
  }
  cs.setCapacity(2);
  EXPECT_EQ(cs.size(), 2u);
}

TEST(ContentStoreTest, EraseAndClear) {
  ContentStore cs;
  cs.insert(makeData("/a"), sim::Time());
  cs.insert(makeData("/b"), sim::Time());
  cs.erase(Name("/a"));
  EXPECT_EQ(cs.size(), 1u);
  cs.erase(Name("/missing"));  // harmless
  cs.clear();
  EXPECT_EQ(cs.size(), 0u);
}

/// Signed, then tampered: the signature no longer matches the content.
Data makePoisoned(const std::string& uri) {
  Data data = makeData(uri);
  auto bytes = data.content();
  bytes[0] ^= 0x01;
  data.setContent(std::move(bytes));
  return data;
}

TEST(ContentStoreTest, PoisonedDataRejectedAtInsert) {
  ContentStore cs;
  cs.insert(makePoisoned("/a"), sim::Time());
  EXPECT_EQ(cs.size(), 0u);
  EXPECT_EQ(cs.poisonedRejects(), 1u);
  EXPECT_FALSE(cs.find(makeInterest("/a"), sim::Time()).has_value());
}

TEST(ContentStoreTest, PoisonedEntryEvictedOnLookupNotServed) {
  ContentStore cs;
  // Let the bad entry in (verification off — e.g. an undefended bench),
  // then flip the defense back on: the lookup must evict, not serve.
  cs.setVerification(false);
  cs.insert(makePoisoned("/a"), sim::Time());
  ASSERT_EQ(cs.size(), 1u);
  cs.setVerification(true);
  EXPECT_FALSE(cs.find(makeInterest("/a"), sim::Time()).has_value());
  EXPECT_EQ(cs.poisonedEvictions(), 1u);
  EXPECT_EQ(cs.size(), 0u);
}

TEST(ContentStoreTest, UnsignedDataIsAdmittedUnchanged) {
  ContentStore cs;
  Data data((Name("/plain")));
  data.setContent("no signature at all");
  cs.insert(data, sim::Time());
  EXPECT_EQ(cs.size(), 1u);
  EXPECT_TRUE(cs.find(makeInterest("/plain"), sim::Time()).has_value());
  EXPECT_EQ(cs.poisonedRejects(), 0u);
}

TEST(ContentStoreTest, ExcludeDigestSkipsTheHintedEntry) {
  ContentStore cs;
  const Data data = makeData("/a/b");
  cs.insert(data, sim::Time());
  Interest interest = makeInterest("/a/b");
  interest.setExcludeDigest(data.contentDigest());
  // The consumer flagged this exact payload as bad: the CS must not
  // re-serve it, forcing the Interest upstream to the producer.
  EXPECT_FALSE(cs.find(interest, sim::Time()).has_value());
  // A different digest hint still hits.
  Interest other = makeInterest("/a/b");
  other.setExcludeDigest(data.contentDigest() ^ 1u);
  EXPECT_TRUE(cs.find(other, sim::Time()).has_value());
}

TEST(ContentStoreTest, ServeStaleModeReplaysExpiredEntriesAgainstMustBeFresh) {
  ContentStore cs;
  cs.insert(makeData("/a", sim::Duration::seconds(1)), sim::Time());
  const sim::Time later = sim::Time() + sim::Duration::seconds(5);
  const Interest fresh = makeInterest("/a", false, /*mustBeFresh=*/true);
  // Healthy cache: the entry expired 4 s ago, MustBeFresh misses.
  EXPECT_FALSE(cs.find(fresh, later).has_value());
  // Gray cache (ChaosEngine::staleReplay toggles this): the same
  // Interest is answered with the stale entry.
  cs.setServeStale(true);
  EXPECT_TRUE(cs.find(fresh, later).has_value());
  cs.setServeStale(false);
  EXPECT_FALSE(cs.find(fresh, later).has_value());
}

TEST(ContentStoreTest, ServedDataEqualsTheInsertedPacketFieldForField) {
  ContentStore cs;
  // A long (heap) component, one past the one-byte length form, and an
  // empty one, next to short inline ones.
  Name name("/ndn/k8s/status");
  name.append(Component(std::string(40, 'j')));
  name.append(Component(std::string(300, 'x')));
  name.append(Component());
  Data data(name);
  data.setContent("state=Running&cluster=edge");
  data.setContentType(ContentType::kKey);
  data.setFreshnessPeriod(sim::Duration::micros(1500));
  data.sign();
  cs.insert(data, sim::Time());

  const auto hit = cs.find(Interest(name), sim::Time());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->name(), data.name());
  EXPECT_EQ(hit->content(), data.content());
  EXPECT_EQ(hit->contentType(), ContentType::kKey);
  EXPECT_EQ(hit->freshnessPeriod(), sim::Duration::micros(1500));
  EXPECT_TRUE(hit->hasSignature());
  EXPECT_TRUE(hit->verify());
  EXPECT_EQ(hit->contentDigest(), data.contentDigest());
  EXPECT_EQ(hit->wireEncode(), data.wireEncode());

  // Sub-millisecond freshness is kept exactly, not rounded to the wire's
  // milliseconds: fresh at 1,499 us, stale at 1,500 us.
  Interest fresh(name);
  fresh.setMustBeFresh(true);
  EXPECT_TRUE(cs.find(fresh, sim::Time() + sim::Duration::micros(1499)).has_value());
  EXPECT_FALSE(cs.find(fresh, sim::Time() + sim::Duration::micros(1500)).has_value());

  // Unsigned Data comes back unsigned, with the same digest.
  Data plain((Name("/plain/v1")));
  plain.setContent("bytes");
  cs.insert(plain, sim::Time());
  const auto plainHit = cs.find(makeInterest("/plain/v1"), sim::Time());
  ASSERT_TRUE(plainHit.has_value());
  EXPECT_FALSE(plainHit->hasSignature());
  EXPECT_EQ(plainHit->contentDigest(), plain.contentDigest());
  EXPECT_EQ(plainHit->wireEncode(), plain.wireEncode());
}

TEST(ContentStoreTest, PoisonedEntryUnderAPrefixIsEvictedNeverServed) {
  ContentStore cs;
  cs.setVerification(false);
  cs.insert(makePoisoned("/a/1"), sim::Time());
  cs.insert(makeData("/a/2"), sim::Time());
  cs.setVerification(true);
  // /a/1 sorts first; it is evicted and the scan moves on to /a/2.
  const auto hit = cs.find(makeInterest("/a", /*canBePrefix=*/true), sim::Time());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->name(), Name("/a/2"));
  EXPECT_EQ(cs.poisonedEvictions(), 1u);
  EXPECT_EQ(cs.size(), 1u);
  EXPECT_FALSE(cs.find(makeInterest("/a/1"), sim::Time()).has_value());
}

TEST(ContentStoreTest, FindsEachOf4096DistinctNamesByExactName) {
  ContentStore cs(4096);
  auto nameOf = [](std::size_t i) {
    return Name("/ndn/k8s/status/cloud").append("job-cloud-" + std::to_string(i));
  };
  for (std::size_t i = 0; i < 4096; ++i) {
    Data data(nameOf(i));
    data.setContent("state=Running#" + std::to_string(i));
    cs.insert(data, sim::Time());
  }
  ASSERT_EQ(cs.size(), 4096u);
  for (std::size_t i = 0; i < 4096; ++i) {
    const auto hit = cs.find(Interest(nameOf(i)), sim::Time());
    ASSERT_TRUE(hit.has_value()) << i;
    ASSERT_EQ(hit->contentAsString(), "state=Running#" + std::to_string(i));
  }
  // Every lookup refreshed recency in order, so entry 0 is now coldest.
  Data extra(nameOf(4096));
  cs.insert(extra, sim::Time());
  EXPECT_EQ(cs.size(), 4096u);
  EXPECT_FALSE(cs.find(Interest(nameOf(0)), sim::Time()).has_value());
  EXPECT_TRUE(cs.find(Interest(nameOf(1)), sim::Time()).has_value());
}

TEST(ContentStoreTest, RefreshWithLargerOrSmallerContentServesTheNewest) {
  ContentStore cs;
  Data data((Name("/a/b")));
  data.setContent("short");
  cs.insert(data, sim::Time());
  data.setContent(std::string(500, 'L'));  // outgrows the entry's block
  cs.insert(data, sim::Time());
  EXPECT_EQ(cs.find(makeInterest("/a/b"), sim::Time())->contentAsString(),
            std::string(500, 'L'));
  data.setContent("tiny");  // fits the block it already has
  cs.insert(data, sim::Time());
  EXPECT_EQ(cs.find(makeInterest("/a/b"), sim::Time())->contentAsString(), "tiny");
  EXPECT_EQ(cs.size(), 1u);
  cs.erase(Name("/a/b"));
  EXPECT_EQ(cs.size(), 0u);
}

}  // namespace
}  // namespace lidc::ndn
