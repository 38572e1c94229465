// Seeded property test: Interest::wireSize() and Data::wireSize(),
// computed from the TLV length rules, equal the size of the real
// encoding. The generators draw every field from its width boundaries:
// var-number lengths 0/252/253/65535/65536 and NonNegativeInteger
// values at 255/256, 65535/65536 and 2^32-1/2^32.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "ndn/packet.hpp"

namespace lidc::ndn {
namespace {

constexpr std::size_t kLengths[] = {0, 1, 252, 253, 65535, 65536};
constexpr std::uint64_t kIntegers[] = {0,          1,          255,
                                       256,        65535,      65536,
                                       0xFFFFFFFF, 0x100000000, ~std::uint64_t{0}};

template <class T, std::size_t N>
T pick(std::mt19937_64& rng, const T (&values)[N]) {
  return values[rng() % N];
}

std::vector<std::uint8_t> bytes(std::size_t n, std::mt19937_64& rng) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

/// 0-3 components, each of a boundary length (so the Name block's own
/// length crosses the 253 and 65536 boundaries too).
Name randomName(std::mt19937_64& rng) {
  Name name;
  const std::size_t count = rng() % 4;
  for (std::size_t i = 0; i < count; ++i) {
    name.append(Component(bytes(pick(rng, kLengths), rng)));
  }
  return name;
}

/// Milliseconds that fit a Duration (2^64-1 ms would overflow nanos).
sim::Duration boundaryMillis(std::mt19937_64& rng) {
  std::uint64_t ms = pick(rng, kIntegers);
  if (ms > 0x100000000) ms = 0x100000000;
  return sim::Duration::millis(static_cast<std::int64_t>(ms));
}

TEST(WireSizeTest, InterestMatchesItsEncoding) {
  std::mt19937_64 rng(0x1D1C);
  for (int trial = 0; trial < 400; ++trial) {
    Interest interest(randomName(rng));
    interest.setCanBePrefix(rng() % 2 == 0)
        .setMustBeFresh(rng() % 2 == 0)
        .setNonce(static_cast<std::uint32_t>(
            std::min<std::uint64_t>(pick(rng, kIntegers), 0xFFFFFFFF)))
        .setLifetime(boundaryMillis(rng))
        .setHopLimit(static_cast<std::uint8_t>(rng()));
    if (rng() % 2 == 0) interest.setExcludeDigest(pick(rng, kIntegers));
    interest.setApplicationParameters(bytes(pick(rng, kLengths), rng));
    ASSERT_EQ(interest.wireSize(), interest.wireEncode().size()) << "trial " << trial;
  }
}

TEST(WireSizeTest, InterestFieldBoundariesOneAtATime) {
  for (std::uint64_t v : kIntegers) {
    Interest interest(Name("/a/b"));
    interest.setNonce(static_cast<std::uint32_t>(std::min<std::uint64_t>(v, 0xFFFFFFFF)));
    EXPECT_EQ(interest.wireSize(), interest.wireEncode().size()) << "nonce " << v;
    interest.setExcludeDigest(v);
    EXPECT_EQ(interest.wireSize(), interest.wireEncode().size()) << "digest " << v;
    if (v <= 0x100000000) {
      interest.setLifetime(sim::Duration::millis(static_cast<std::int64_t>(v)));
      EXPECT_EQ(interest.wireSize(), interest.wireEncode().size()) << "lifetime " << v;
    }
  }
  std::mt19937_64 rng(7);
  for (std::size_t n : kLengths) {
    Interest interest(Name().append(Component(bytes(n, rng))));
    EXPECT_EQ(interest.wireSize(), interest.wireEncode().size()) << "component " << n;
    interest.setApplicationParameters(bytes(n, rng));
    EXPECT_EQ(interest.wireSize(), interest.wireEncode().size()) << "params " << n;
  }
}

TEST(WireSizeTest, DataMatchesItsEncoding) {
  constexpr ContentType kTypes[] = {ContentType::kBlob, ContentType::kLink,
                                    ContentType::kKey, ContentType::kNack};
  std::mt19937_64 rng(0xDA7A);
  for (int trial = 0; trial < 400; ++trial) {
    Data data(randomName(rng));
    data.setContent(bytes(pick(rng, kLengths), rng))
        .setContentType(pick(rng, kTypes))
        .setFreshnessPeriod(boundaryMillis(rng));
    ASSERT_EQ(data.wireSize(), data.wireEncode().size()) << "unsigned trial " << trial;
    data.sign();
    ASSERT_EQ(data.wireSize(), data.wireEncode().size()) << "signed trial " << trial;
  }
}

TEST(WireSizeTest, DecodedSignatureWidthsMatch) {
  // sign() yields a 64-bit digest; a decoded packet can carry any
  // width, so splice boundary values in through the wire.
  for (std::uint64_t sig : kIntegers) {
    Data data(Name("/d"));
    data.setContent("x");
    const tlv::Buffer unsignedWire = data.wireEncode();
    tlv::Decoder top(unsignedWire);
    auto element = top.readElement(tlv::kData);
    ASSERT_TRUE(element.ok());

    tlv::Encoder value;
    value.writeNonNegativeInteger(tlv::kSignatureValue, sig);
    tlv::Encoder sigBlock;
    sigBlock.writeNested(tlv::kSignatureValue, value);
    tlv::Buffer body(element->value.begin(), element->value.end());
    body.insert(body.end(), sigBlock.buffer().begin(), sigBlock.buffer().end());
    tlv::Encoder wire;
    wire.writeBlock(tlv::kData, body);

    auto decoded = Data::wireDecode(wire.buffer());
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ASSERT_TRUE(decoded->hasSignature());
    EXPECT_EQ(decoded->wireSize(), decoded->wireEncode().size()) << "signature " << sig;
    EXPECT_EQ(decoded->wireSize(), wire.size());
  }
}

}  // namespace
}  // namespace lidc::ndn
