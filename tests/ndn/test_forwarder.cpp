// Forwarder pipeline tests over real two/three-node topologies:
// producer/consumer exchange, CS hits, Interest aggregation, loop
// suppression, timeouts, and nack propagation.
#include "ndn/forwarder.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "ndn/app_face.hpp"
#include "net/link.hpp"

namespace lidc::ndn {
namespace {

class ForwarderTest : public ::testing::Test {
 protected:
  ForwarderTest()
      : consumerNode_("consumer", sim_), producerNode_("producer", sim_) {
    net::Link::connect(sim_, consumerNode_, producerNode_,
                       net::LinkParams{sim::Duration::millis(5), 0.0, 0.0});

    consumerApp_ = std::make_shared<AppFace>("app://consumer", sim_, 1);
    consumerNode_.addFace(consumerApp_);

    producerApp_ = std::make_shared<AppFace>("app://producer", sim_, 2);
    producerNode_.addFace(producerApp_);
    producerNode_.registerPrefix(Name("/data"), producerApp_->id());

    // Consumer's route to the producer: its link face is id 1.
    consumerNode_.registerPrefix(Name("/data"), 1);

    producerApp_->setInterestHandler([this](const Interest& interest) {
      ++producerInterests_;
      if (!respond_) return;
      Data data(interest.name());
      data.setContent("payload");
      data.setFreshnessPeriod(sim::Duration::seconds(10));
      data.sign();
      producerApp_->putData(std::move(data));
    });
  }

  Interest makeInterest(const std::string& uri) {
    Interest interest((Name(uri)));
    interest.setLifetime(sim::Duration::seconds(2));
    return interest;
  }

  sim::Simulator sim_;
  Forwarder consumerNode_;
  Forwarder producerNode_;
  std::shared_ptr<AppFace> consumerApp_;
  std::shared_ptr<AppFace> producerApp_;
  int producerInterests_ = 0;
  bool respond_ = true;
};

TEST_F(ForwarderTest, BasicExchangeDeliversData) {
  int received = 0;
  consumerApp_->expressInterest(makeInterest("/data/x"),
                                [&](const Interest&, const Data& data) {
                                  ++received;
                                  EXPECT_EQ(data.contentAsString(), "payload");
                                });
  sim_.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(producerInterests_, 1);
  // RTT = 2 * 5ms.
  EXPECT_DOUBLE_EQ(sim_.now().toSeconds(), 0.010);
}

TEST_F(ForwarderTest, SecondRequestServedFromContentStore) {
  consumerApp_->expressInterest(makeInterest("/data/x"),
                                [](const Interest&, const Data&) {});
  sim_.run();
  int received = 0;
  consumerApp_->expressInterest(makeInterest("/data/x"),
                                [&](const Interest&, const Data&) { ++received; });
  sim_.run();
  EXPECT_EQ(received, 1);
  // The producer never saw the second Interest.
  EXPECT_EQ(producerInterests_, 1);
  EXPECT_GE(consumerNode_.counters().nCsHits, 1u);
}

TEST_F(ForwarderTest, ConcurrentIdenticalInterestsAggregate) {
  // Two different downstream apps on the same node asking the same name:
  // only one Interest goes upstream.
  auto secondApp = std::make_shared<AppFace>("app://consumer2", sim_, 3);
  consumerNode_.addFace(secondApp);
  int received = 0;
  Interest i1 = makeInterest("/data/agg");
  i1.setNonce(111);
  Interest i2 = makeInterest("/data/agg");
  i2.setNonce(222);
  consumerApp_->expressInterest(i1, [&](const Interest&, const Data&) { ++received; });
  secondApp->expressInterest(i2, [&](const Interest&, const Data&) { ++received; });
  sim_.run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(producerInterests_, 1);
}

TEST_F(ForwarderTest, DuplicateNonceNacked) {
  // The same nonce arriving on a different face of the producer node is
  // a loop; inject directly.
  auto otherApp = std::make_shared<AppFace>("app://other", sim_, 4);
  producerNode_.addFace(otherApp);

  respond_ = false;
  Interest looped = makeInterest("/data/loop");
  looped.setNonce(777);
  int nacks = 0;
  // First arrival via the link (from consumer), second via otherApp.
  consumerApp_->expressInterest(looped, [](const Interest&, const Data&) {});
  sim_.runUntil(sim::Time::fromNanos(sim::Duration::millis(6).toNanos()));
  otherApp->expressInterest(
      looped, [](const Interest&, const Data&) {},
      [&](const Interest&, const Nack& nack) {
        ++nacks;
        EXPECT_EQ(nack.reason(), NackReason::kDuplicate);
      });
  sim_.run();
  EXPECT_EQ(nacks, 1);
  EXPECT_GE(producerNode_.counters().nDuplicateNonce, 1u);
}

TEST_F(ForwarderTest, NoRouteProducesNack) {
  int nacks = 0;
  consumerApp_->expressInterest(
      makeInterest("/unrouted/name"), [](const Interest&, const Data&) {},
      [&](const Interest&, const Nack& nack) {
        ++nacks;
        EXPECT_EQ(nack.reason(), NackReason::kNoRoute);
      });
  sim_.run();
  EXPECT_EQ(nacks, 1);
}

TEST_F(ForwarderTest, UnansweredInterestTimesOut) {
  respond_ = false;
  int timeouts = 0;
  consumerApp_->expressInterest(
      makeInterest("/data/silent"), [](const Interest&, const Data&) {},
      nullptr, [&](const Interest&) { ++timeouts; });
  sim_.run();
  EXPECT_EQ(timeouts, 1);
  EXPECT_GE(producerNode_.counters().nUnsatisfied, 1u);
  // Both PITs are clean afterwards.
  EXPECT_EQ(consumerNode_.pit().size(), 0u);
  EXPECT_EQ(producerNode_.pit().size(), 0u);
}

TEST_F(ForwarderTest, HopLimitZeroIsDropped) {
  respond_ = false;
  Interest interest = makeInterest("/data/h");
  interest.setHopLimit(0);
  consumerApp_->expressInterest(interest, [](const Interest&, const Data&) {});
  sim_.run();
  EXPECT_EQ(producerInterests_, 0);
}

TEST_F(ForwarderTest, UnsolicitedDataDropped) {
  Data data(Name("/data/unsolicited"));
  data.sign();
  producerApp_->putData(data);
  sim_.run();
  EXPECT_GE(producerNode_.counters().nUnsolicitedData, 1u);
}

TEST_F(ForwarderTest, FaceRemovalCleansFib) {
  consumerNode_.removeFace(1);
  int nacks = 0;
  consumerApp_->expressInterest(
      makeInterest("/data/x"), [](const Interest&, const Data&) {},
      [&](const Interest&, const Nack&) { ++nacks; });
  sim_.run();
  EXPECT_EQ(nacks, 1);
}

TEST_F(ForwarderTest, CountersTrackTraffic) {
  consumerApp_->expressInterest(makeInterest("/data/x"),
                                [](const Interest&, const Data&) {});
  sim_.run();
  EXPECT_EQ(consumerNode_.counters().nInInterests, 1u);
  EXPECT_EQ(consumerNode_.counters().nOutInterests, 1u);
  EXPECT_EQ(consumerNode_.counters().nInData, 1u);
  EXPECT_EQ(producerNode_.counters().nSatisfied, 1u);
}

TEST_F(ForwarderTest, StrategyChoiceByLongestPrefix) {
  consumerNode_.setStrategy(Name("/data"),
                            std::make_unique<MulticastStrategy>(consumerNode_));
  EXPECT_EQ(consumerNode_.findStrategy(Name("/data/deep/name")).name(), "multicast");
  EXPECT_EQ(consumerNode_.findStrategy(Name("/other")).name(), "best-route");
}

TEST(ForwarderIntegrityTest, CorruptedLinkCopyFailsVerifyDespiteDigestMemo) {
  // The producer's AppFace verifies (and so memoizes the digest of) every
  // Data it puts. A bit-flip on the link must still be caught: the
  // damaged copy's content change drops the memo it inherited.
  sim::Simulator sim;
  Forwarder consumer("consumer", sim);
  Forwarder producer("producer", sim);
  net::LinkParams params{sim::Duration::millis(5), 0.0, 0.0};
  params.corruptRate = 1.0;
  net::Link::connect(sim, consumer, producer, params);
  auto consumerApp = std::make_shared<AppFace>("app://consumer", sim, 1);
  consumer.addFace(consumerApp);
  auto producerApp = std::make_shared<AppFace>("app://producer", sim, 2);
  producer.addFace(producerApp);
  producer.registerPrefix(Name("/data"), producerApp->id());
  consumer.registerPrefix(Name("/data"), 1);
  producerApp->setInterestHandler([&producerApp](const Interest& interest) {
    Data data(interest.name());
    data.setContent("payload");
    data.sign();
    producerApp->putData(std::move(data));
  });

  // Undefended consumer node: the damaged copy reaches the application.
  consumer.setDataVerification(false);
  std::optional<Data> received;
  consumerApp->expressInterest(Interest(Name("/data/x")),
                               [&](const Interest&, const Data& data) { received = data; });
  sim.run();
  ASSERT_TRUE(received.has_value());
  EXPECT_NE(received->contentAsString(), "payload");
  EXPECT_TRUE(received->hasSignature());
  EXPECT_FALSE(received->verify());

  // Defended node: the same damage is dropped at the integrity gate.
  consumer.setDataVerification(true);
  bool delivered = false;
  Interest second(Name("/data/y"));
  second.setLifetime(sim::Duration::seconds(1));
  consumerApp->expressInterest(second,
                               [&](const Interest&, const Data&) { delivered = true; });
  sim.run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(consumer.counters().nIntegrityDrops, 1u);
}

}  // namespace
}  // namespace lidc::ndn
