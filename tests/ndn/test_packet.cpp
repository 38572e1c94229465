#include "ndn/packet.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

namespace lidc::ndn {
namespace {

TEST(InterestTest, WireRoundTripPreservesEverything) {
  Interest interest(Name("/ndn/k8s/compute/mem=4&cpu=6&app=BLAST"));
  interest.setCanBePrefix(true)
      .setMustBeFresh(true)
      .setNonce(0xDEADBEEF)
      .setLifetime(sim::Duration::millis(1234))
      .setHopLimit(7)
      .setApplicationParameters("params");

  const auto wire = interest.wireEncode();
  auto decoded = Interest::wireDecode(std::span<const std::uint8_t>(wire));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->name(), interest.name());
  EXPECT_TRUE(decoded->canBePrefix());
  EXPECT_TRUE(decoded->mustBeFresh());
  EXPECT_EQ(decoded->nonce(), 0xDEADBEEFu);
  EXPECT_EQ(decoded->lifetime(), sim::Duration::millis(1234));
  EXPECT_EQ(decoded->hopLimit(), 7);
  EXPECT_EQ(decoded->applicationParameters(),
            (std::vector<std::uint8_t>{'p', 'a', 'r', 'a', 'm', 's'}));
}

TEST(InterestTest, DefaultsDecodeCleanly) {
  Interest interest(Name("/a"));
  const auto wire = interest.wireEncode();
  auto decoded = Interest::wireDecode(std::span<const std::uint8_t>(wire));
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->canBePrefix());
  EXPECT_FALSE(decoded->mustBeFresh());
  EXPECT_EQ(decoded->lifetime(), sim::Duration::millis(4000));
}

TEST(InterestTest, GarbageFailsToDecode) {
  const std::vector<std::uint8_t> garbage{0xFF, 0x00, 0x01};
  EXPECT_FALSE(Interest::wireDecode(std::span<const std::uint8_t>(garbage)).ok());
}

TEST(InterestTest, DataPacketIsNotAnInterest) {
  Data data(Name("/a"));
  data.sign();
  const auto wire = data.wireEncode();
  EXPECT_FALSE(Interest::wireDecode(std::span<const std::uint8_t>(wire)).ok());
}

TEST(DataTest, WireRoundTripPreservesEverything) {
  Data data(Name("/ndn/k8s/data/human-ref/seg=3"));
  data.setContent("ACGTACGT")
      .setContentType(ContentType::kBlob)
      .setFreshnessPeriod(sim::Duration::seconds(10));
  data.sign();

  const auto wire = data.wireEncode();
  auto decoded = Data::wireDecode(std::span<const std::uint8_t>(wire));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->name(), data.name());
  EXPECT_EQ(decoded->contentAsString(), "ACGTACGT");
  EXPECT_EQ(decoded->freshnessPeriod(), sim::Duration::seconds(10));
  EXPECT_TRUE(decoded->verify());
}

TEST(DataTest, SignatureDetectsTampering) {
  Data data(Name("/x"));
  data.setContent("original");
  data.sign();
  EXPECT_TRUE(data.verify());
  data.setContent("tampered");
  EXPECT_FALSE(data.verify());
  data.sign();
  EXPECT_TRUE(data.verify());
}

TEST(DataTest, UnsignedDataDoesNotVerify) {
  Data data(Name("/x"));
  data.setContent("c");
  EXPECT_FALSE(data.verify());
}

TEST(DataTest, EmptyContentAllowed) {
  Data data(Name("/empty"));
  data.sign();
  const auto wire = data.wireEncode();
  auto decoded = Data::wireDecode(std::span<const std::uint8_t>(wire));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->content().empty());
  EXPECT_TRUE(decoded->verify());
}

TEST(DataTest, WireSizeGrowsWithContent) {
  Data small(Name("/x"));
  small.setContent(std::string(10, 'a'));
  Data large(Name("/x"));
  large.setContent(std::string(10'000, 'a'));
  EXPECT_GT(large.wireSize(), small.wireSize() + 9'000);
}

TEST(DataTest, EveryDigestInputSetterInvalidatesTheDigestMemo) {
  const std::vector<std::pair<const char*, std::function<void(Data&)>>> setters = {
      {"setName", [](Data& d) { d.setName(Name("/x/z")); }},
      {"setContent(bytes)",
       [](Data& d) { d.setContent(std::vector<std::uint8_t>{1, 2, 3}); }},
      {"setContent(text)", [](Data& d) { d.setContent("other"); }},
      {"setContentType", [](Data& d) { d.setContentType(ContentType::kNack); }},
      {"setFreshnessPeriod",
       [](Data& d) { d.setFreshnessPeriod(sim::Duration::seconds(2)); }},
  };
  for (const auto& [label, mutate] : setters) {
    Data data(Name("/x/y"));
    data.setContent("payload");
    data.setFreshnessPeriod(sim::Duration::seconds(1));
    data.sign();
    ASSERT_TRUE(data.verify()) << label;  // the memo is filled now
    const std::uint64_t before = data.contentDigest();
    const Data copy = data;  // carries the memo
    mutate(data);
    EXPECT_FALSE(data.verify()) << label;
    EXPECT_NE(data.contentDigest(), before) << label;
    // A decoded copy has no memo, so it recomputes from the fields.
    const auto wire = data.wireEncode();
    auto decoded = Data::wireDecode(std::span<const std::uint8_t>(wire));
    ASSERT_TRUE(decoded.ok()) << label;
    EXPECT_EQ(decoded->contentDigest(), data.contentDigest()) << label;
    // The copy taken before the change still verifies.
    EXPECT_TRUE(copy.verify()) << label;
    EXPECT_EQ(copy.contentDigest(), before) << label;
  }
}

TEST(NackTest, CarriesInterestAndReason) {
  Interest interest(Name("/a/b"));
  interest.setNonce(5);
  const Nack nack(interest, NackReason::kNoRoute);
  EXPECT_EQ(nack.interest().name(), Name("/a/b"));
  EXPECT_EQ(nack.reason(), NackReason::kNoRoute);
  EXPECT_EQ(nackReasonName(NackReason::kNoRoute), "NoRoute");
  EXPECT_EQ(nackReasonName(NackReason::kCongestion), "Congestion");
  EXPECT_EQ(nackReasonName(NackReason::kDuplicate), "Duplicate");
}

}  // namespace
}  // namespace lidc::ndn
