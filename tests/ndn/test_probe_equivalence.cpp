// Seeded randomized checks of the forwarder's table lookups against
// brute-force references: prefix hashes against hashing prefix()
// copies, PIT matching and FIB/strategy longest-prefix match against
// linear scans, and the Content Store against a list-based model of its
// LRU, CanBePrefix, freshness, poisoning and digest-exclusion rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ndn/cs.hpp"
#include "ndn/fib.hpp"
#include "ndn/forwarder.hpp"
#include "ndn/pit.hpp"
#include "sim/simulator.hpp"

namespace lidc::ndn {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 7, 42, 1234, 99991};

/// A name of 0..maxDepth components drawn from a tiny alphabet, so
/// random names share prefixes and collide often.
Name randomName(Rng& rng, std::size_t maxDepth) {
  static const char* const kParts[] = {"a", "b", "c", "k8s", "status"};
  Name name;
  const std::size_t depth = rng.uniform(maxDepth + 1);
  for (std::size_t i = 0; i < depth; ++i) name.append(kParts[rng.uniform(5)]);
  return name;
}

TEST(PrefixHashesTest, EveryEntryEqualsTheHashOfThatPrefix) {
  std::vector<Name> names = {Name(), Name("/"), Name("/a"), Name("/ndn/k8s/compute")};
  // Component lengths straddling the two length bytes the hash mixes.
  for (std::size_t len : {255u, 256u, 70'000u}) {
    Name big("/head");
    big.append(Component(std::vector<std::uint8_t>(len, 0x5A)));
    big.append("tail");
    names.push_back(big);
  }
  for (std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    for (int i = 0; i < 200; ++i) {
      Name name;
      const std::size_t depth = rng.uniform(9);
      for (std::size_t c = 0; c < depth; ++c) {
        std::vector<std::uint8_t> bytes(rng.uniform(300));
        for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform(256));
        name.append(Component(std::move(bytes)));
      }
      names.push_back(name);
    }
  }
  std::vector<std::size_t> hashes = {7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7};  // reused, stale
  for (const Name& name : names) {
    name.prefixHashes(hashes);
    ASSERT_EQ(hashes.size(), name.size() + 1);
    for (std::size_t len = 0; len <= name.size(); ++len) {
      EXPECT_EQ(hashes[len], name.prefix(len).hash()) << name.toUri().substr(0, 64)
                                                      << " len " << len;
    }
  }
}

TEST(PitProbeTest, FindMatchesEqualsLinearScan) {
  for (std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    Pit pit;
    std::vector<std::shared_ptr<PitEntry>> live;
    for (int step = 0; step < 3000; ++step) {
      const std::uint64_t op = rng.uniform(10);
      if (op < 5) {
        Interest interest(randomName(rng, 4));
        interest.setCanBePrefix(rng.bernoulli(0.5));
        interest.setMustBeFresh(rng.bernoulli(0.5));
        auto [entry, isNew] = pit.insert(interest);
        const bool known = std::find(live.begin(), live.end(), entry) != live.end();
        ASSERT_EQ(isNew, !known);
        if (isNew) live.push_back(entry);
      } else if (op < 7 && !live.empty()) {
        const std::size_t victim = rng.uniform(live.size());
        pit.erase(live[victim]);
        live.erase(live.begin() + static_cast<long>(victim));
      } else {
        const Data data(randomName(rng, 5));
        auto matches = pit.findMatches(data);
        std::vector<std::shared_ptr<PitEntry>> expected;
        for (const auto& entry : live) {
          const bool match = entry->interest().canBePrefix()
                                 ? entry->name().isPrefixOf(data.name())
                                 : entry->name() == data.name();
          if (match) expected.push_back(entry);
        }
        std::sort(matches.begin(), matches.end());
        std::sort(expected.begin(), expected.end());
        ASSERT_EQ(matches, expected) << "seed " << seed << " step " << step;
      }
      ASSERT_EQ(pit.size(), live.size());
      if (!live.empty()) {
        const auto& probe = live[rng.uniform(live.size())];
        ASSERT_EQ(pit.find(probe->interest()), probe);
      }
    }
  }
}

TEST(FibProbeTest, LongestPrefixMatchEqualsLinearScan) {
  for (std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    Fib fib;
    std::map<Name, std::size_t> hops;  // prefix -> next-hop count
    for (int step = 0; step < 3000; ++step) {
      const std::uint64_t op = rng.uniform(10);
      if (op < 3) {
        const Name prefix = randomName(rng, 3);
        const FaceId face = 1 + rng.uniform(3);
        if (!fib.findExact(prefix) || !fib.findExact(prefix)->hasNextHop(face)) {
          ++hops[prefix];
        }
        fib.insert(prefix, face, rng.uniform(10));
      } else if (op < 5 && !hops.empty()) {
        auto it = hops.begin();
        std::advance(it, static_cast<long>(rng.uniform(hops.size())));
        const Name prefix = it->first;
        const FaceId face = 1 + rng.uniform(3);
        if (fib.findExact(prefix)->hasNextHop(face) && --it->second == 0) hops.erase(it);
        fib.removeNextHop(prefix, face);
      } else {
        const Name name = randomName(rng, 5);
        const Name* best = nullptr;
        for (const auto& [prefix, count] : hops) {
          if (prefix.isPrefixOf(name) && (best == nullptr || prefix.size() > best->size())) {
            best = &prefix;
          }
        }
        const FibEntry* entry = fib.longestPrefixMatch(name);
        if (best == nullptr) {
          ASSERT_EQ(entry, nullptr) << name;
        } else {
          ASSERT_NE(entry, nullptr) << name;
          ASSERT_EQ(entry->prefix(), *best) << name;
        }
      }
      ASSERT_EQ(fib.size(), hops.size());
    }
  }
}

TEST(StrategyProbeTest, FindStrategyEqualsLinearScan) {
  for (std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    sim::Simulator sim;
    Forwarder forwarder("node", sim);
    std::map<Name, const Strategy*> choices{{Name("/"), &forwarder.findStrategy(Name("/"))}};
    for (int step = 0; step < 400; ++step) {
      if (rng.uniform(4) == 0) {
        const Name prefix = randomName(rng, 3);
        auto strategy = std::make_unique<MulticastStrategy>(forwarder);
        choices[prefix] = strategy.get();
        forwarder.setStrategy(prefix, std::move(strategy));
      }
      const Name name = randomName(rng, 5);
      const Strategy* expected = nullptr;
      std::size_t bestLen = 0;
      for (const auto& [prefix, strategy] : choices) {
        if (prefix.isPrefixOf(name) && (expected == nullptr || prefix.size() > bestLen)) {
          expected = strategy;
          bestLen = prefix.size();
        }
      }
      ASSERT_EQ(&forwarder.findStrategy(name), expected) << name;
    }
  }
}

/// Reference Content Store: a vector in LRU order (front = most recent),
/// scanned linearly.
class ModelCs {
 public:
  explicit ModelCs(std::size_t capacity) : capacity_(capacity) {}

  void insert(const Data& data, sim::Time now, bool verify) {
    if (verify && poisoned(data)) return;
    auto it = findName(data.name());
    if (it != entries_.end()) entries_.erase(it);
    entries_.insert(entries_.begin(), {data, now});
    if (entries_.size() > capacity_) entries_.pop_back();
  }

  std::optional<Data> find(const Interest& interest, sim::Time now) {
    std::vector<Name> candidates;
    for (const auto& entry : entries_) {
      const Name& name = entry.data.name();
      if (interest.canBePrefix() ? interest.name().isPrefixOf(name)
                                 : interest.name() == name) {
        candidates.push_back(name);
      }
    }
    std::sort(candidates.begin(), candidates.end());
    for (const Name& name : candidates) {
      auto it = findName(name);
      if (poisoned(it->data)) {
        entries_.erase(it);
        continue;
      }
      const bool fresh = !interest.mustBeFresh() ||
                         (it->data.freshnessPeriod() != sim::Duration() &&
                          now < it->arrival + it->data.freshnessPeriod());
      const bool excluded = interest.excludeDigest() &&
                            *interest.excludeDigest() == it->data.contentDigest();
      if (fresh && !excluded) {
        Entry hit = *it;
        entries_.erase(it);
        entries_.insert(entries_.begin(), hit);
        return hit.data;
      }
      // The real store scans no further than the first exact name.
      if (!interest.canBePrefix()) break;
    }
    return std::nullopt;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    Data data;
    sim::Time arrival;
  };
  static bool poisoned(const Data& data) { return data.hasSignature() && !data.verify(); }
  std::vector<Entry>::iterator findName(const Name& name) {
    return std::find_if(entries_.begin(), entries_.end(),
                        [&](const Entry& e) { return e.data.name() == name; });
  }

  std::size_t capacity_;
  std::vector<Entry> entries_;
};

TEST(ContentStoreProbeTest, MatchesListModel) {
  for (std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    constexpr std::size_t kCapacity = 12;
    ContentStore cs(kCapacity);
    ModelCs model(kCapacity);
    sim::Time now;
    std::vector<std::uint64_t> seenDigests;
    for (int step = 0; step < 4000; ++step) {
      now = now + sim::Duration::millis(static_cast<std::int64_t>(rng.uniform(400)));
      const std::uint64_t op = rng.uniform(20);
      if (op == 0) {
        // Toggling admission checks lets poisoned entries in, which the
        // lookup path must then evict instead of serving.
        cs.setVerification(!cs.verificationEnabled());
      } else if (op < 9) {
        Data data(randomName(rng, 4));
        data.setContent("v" + std::to_string(rng.uniform(4)));
        data.setFreshnessPeriod(
            sim::Duration::millis(static_cast<std::int64_t>(rng.uniform(3) * 500)));
        const std::uint64_t kind = rng.uniform(4);
        if (kind > 0) data.sign();
        if (kind == 3) data.setContent("tampered");  // stale signature: poisoned
        seenDigests.push_back(data.contentDigest());
        cs.insert(data, now);
        model.insert(data, now, cs.verificationEnabled());
      } else {
        Interest interest(randomName(rng, 3));
        interest.setCanBePrefix(rng.bernoulli(0.5));
        interest.setMustBeFresh(rng.bernoulli(0.4));
        if (!seenDigests.empty() && rng.bernoulli(0.3)) {
          interest.setExcludeDigest(seenDigests[rng.uniform(seenDigests.size())]);
        }
        const auto got = cs.find(interest, now);
        const auto want = model.find(interest, now);
        ASSERT_EQ(got.has_value(), want.has_value()) << "seed " << seed << " step " << step;
        if (got) {
          ASSERT_EQ(got->name(), want->name());
          ASSERT_EQ(got->content(), want->content());
          ASSERT_EQ(got->contentDigest(), want->contentDigest());
        }
      }
      ASSERT_EQ(cs.size(), model.size()) << "seed " << seed << " step " << step;
    }
  }
}

TEST(ContentStoreProbeTest, RefreshInPlaceKeepsOneEntryAndMovesItToFront) {
  ContentStore cs(2);
  auto make = [](const char* uri, const char* content) {
    Data data((Name(uri)));
    data.setContent(content);
    data.sign();
    return data;
  };
  cs.insert(make("/a", "old"), sim::Time());
  cs.insert(make("/b", "b"), sim::Time());
  cs.insert(make("/a", "new"), sim::Time());  // refresh: /b is now coldest
  EXPECT_EQ(cs.size(), 2u);
  cs.insert(make("/c", "c"), sim::Time());
  EXPECT_FALSE(cs.find(Interest(Name("/b")), sim::Time()).has_value());
  const auto a = cs.find(Interest(Name("/a")), sim::Time());
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->contentAsString(), "new");
}

}  // namespace
}  // namespace lidc::ndn
