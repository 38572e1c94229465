#include "ndn/dead_nonce_list.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <random>
#include <set>
#include <utility>

#include "ndn/app_face.hpp"
#include "ndn/forwarder.hpp"
#include "net/link.hpp"

namespace lidc::ndn {
namespace {

TEST(DeadNonceListTest, AddAndHas) {
  DeadNonceList dnl(16);
  EXPECT_FALSE(dnl.has(Name("/a"), 1));
  dnl.add(Name("/a"), 1);
  EXPECT_TRUE(dnl.has(Name("/a"), 1));
  EXPECT_FALSE(dnl.has(Name("/a"), 2));
  EXPECT_FALSE(dnl.has(Name("/b"), 1));
}

TEST(DeadNonceListTest, FifoEviction) {
  DeadNonceList dnl(4);
  for (std::uint32_t nonce = 0; nonce < 8; ++nonce) {
    dnl.add(Name("/x"), nonce);
  }
  EXPECT_EQ(dnl.size(), 4u);
  EXPECT_FALSE(dnl.has(Name("/x"), 0));
  EXPECT_TRUE(dnl.has(Name("/x"), 7));
}

TEST(DeadNonceListTest, DuplicateEntriesRefCounted) {
  DeadNonceList dnl(4);
  dnl.add(Name("/x"), 1);
  dnl.add(Name("/x"), 1);
  dnl.add(Name("/x"), 2);
  dnl.add(Name("/x"), 3);
  // Evicts the first copy of (x,1); the second copy keeps it alive.
  dnl.add(Name("/x"), 4);
  EXPECT_TRUE(dnl.has(Name("/x"), 1));
  // Evicting the second copy finally drops it.
  dnl.add(Name("/x"), 5);
  EXPECT_FALSE(dnl.has(Name("/x"), 1));
}

TEST(DeadNonceListTest, MatchesAFifoMultisetModel) {
  // Small capacity and few distinct nonces, so the ring wraps many times
  // and duplicates are common.
  constexpr std::size_t kCapacity = 37;
  DeadNonceList dnl(kCapacity);
  std::deque<std::pair<std::size_t, std::uint32_t>> fifo;
  std::multiset<std::pair<std::size_t, std::uint32_t>> live;
  std::mt19937_64 rng(8192);
  for (int op = 0; op < 20'000; ++op) {
    const std::size_t nameHash = rng() % 5;
    const auto nonce = static_cast<std::uint32_t>(rng() % 11);
    if (rng() % 3 != 0) {
      dnl.add(nameHash, nonce);
      fifo.emplace_back(nameHash, nonce);
      live.emplace(nameHash, nonce);
      if (fifo.size() > kCapacity) {
        live.erase(live.find(fifo.front()));
        fifo.pop_front();
      }
    }
    ASSERT_EQ(dnl.size(), fifo.size());
    ASSERT_EQ(dnl.has(nameHash, nonce), live.count({nameHash, nonce}) > 0) << "op " << op;
  }
}

TEST(DeadNonceListTest, ZeroCapacityDisables) {
  DeadNonceList dnl(0);
  dnl.add(Name("/x"), 1);
  EXPECT_FALSE(dnl.has(Name("/x"), 1));
}

TEST(DeadNonceListTest, ForwarderRejectsLateLoopedInterest) {
  // A nonce loops back *after* its PIT entry was satisfied: without the
  // DNL the forwarder would re-forward it; with the DNL it nacks.
  sim::Simulator sim;
  Forwarder consumerNode("consumer", sim);
  Forwarder producerNode("producer", sim);
  net::Link::connect(sim, consumerNode, producerNode,
                     net::LinkParams{sim::Duration::millis(1)});
  auto consumer = std::make_shared<AppFace>("app://c", sim, 1);
  consumerNode.addFace(consumer);
  consumerNode.registerPrefix(Name("/data"), 1);

  auto producer = std::make_shared<AppFace>("app://p", sim, 2);
  producerNode.addFace(producer);
  producerNode.registerPrefix(Name("/data"), producer->id());
  int producerHits = 0;
  producer->setInterestHandler([&](const Interest& interest) {
    ++producerHits;
    Data data(interest.name());
    data.sign();
    producer->putData(std::move(data));
  });

  Interest interest(Name("/data/x"));
  interest.setNonce(4242);
  consumer->expressInterest(interest, [](const Interest&, const Data&) {});
  sim.run();
  ASSERT_EQ(producerHits, 1);

  // The same nonce arrives again at the producer node (simulated loop),
  // long after the PIT entry was consumed. CS would normally answer, so
  // disable it to isolate the DNL behaviour.
  producerNode.cs().setCapacity(0);
  auto looper = std::make_shared<AppFace>("app://loop", sim, 3);
  producerNode.addFace(looper);
  int nacks = 0;
  looper->expressInterest(
      interest, [](const Interest&, const Data&) {},
      [&](const Interest&, const Nack& nack) {
        ++nacks;
        EXPECT_EQ(nack.reason(), NackReason::kDuplicate);
      });
  sim.run();
  EXPECT_EQ(nacks, 1);
  EXPECT_EQ(producerHits, 1);  // never reached the app again
}

}  // namespace
}  // namespace lidc::ndn
