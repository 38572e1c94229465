// NDN TLV (Type-Length-Value) wire format, per the NDN packet format
// specification v0.3. Types and lengths are variable-size numbers
// (1 / 3 / 5 / 9 bytes). Interests and Data are encoded to real wire
// bytes so the network substrate carries honest packet sizes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace lidc::ndn::tlv {

/// TLV type numbers used by this implementation (subset of the NDN spec).
enum Type : std::uint32_t {
  kInterest = 0x05,
  kData = 0x06,
  kName = 0x07,
  kGenericNameComponent = 0x08,
  kCanBePrefix = 0x21,
  kMustBeFresh = 0x12,
  kNonce = 0x0A,
  kInterestLifetime = 0x0C,
  kHopLimit = 0x22,
  kApplicationParameters = 0x24,
  kMetaInfo = 0x14,
  kContentType = 0x18,
  kFreshnessPeriod = 0x19,
  kContent = 0x15,
  kSignatureInfo = 0x16,
  kSignatureValue = 0x17,
  kSignatureType = 0x1B,
  // Network NACK (from NDNLPv2, simplified to a top-level TLV here).
  kNack = 0x0320,
  kNackReason = 0x0321,
  // LIDC extension: digest exclusion hint on retransmitted Interests,
  // so caches skip an entry known to be poisoned (cf. the Exclude
  // selector of classic NDN).
  kExcludeDigest = 0x0330,
};

using Buffer = std::vector<std::uint8_t>;

/// Encoded size of a var-number (type or length): 1, 3, 5 or 9 bytes.
constexpr std::size_t varNumberSize(std::uint64_t value) noexcept {
  if (value < 253) return 1;
  if (value <= 0xFFFF) return 3;
  if (value <= 0xFFFFFFFF) return 5;
  return 9;
}

/// Minimal NonNegativeInteger width: 1, 2, 4 or 8 bytes.
constexpr std::size_t nonNegativeIntegerSize(std::uint64_t value) noexcept {
  if (value <= 0xFF) return 1;
  if (value <= 0xFFFF) return 2;
  if (value <= 0xFFFFFFFF) return 4;
  return 8;
}

/// Size of a whole TLV block with a `length`-byte value.
constexpr std::size_t blockSize(std::uint32_t type, std::size_t length) noexcept {
  return varNumberSize(type) + varNumberSize(length) + length;
}

/// Size of Encoder::writeNonNegativeInteger(type, value).
constexpr std::size_t nonNegativeIntegerBlockSize(std::uint32_t type,
                                                  std::uint64_t value) noexcept {
  return blockSize(type, nonNegativeIntegerSize(value));
}

/// Appends TLV blocks to a growing buffer.
class Encoder {
 public:
  /// Encodes a TLV var-number (type or length).
  void writeVarNumber(std::uint64_t value);

  /// Writes a full TLV block with raw payload bytes.
  void writeBlock(std::uint32_t type, std::span<const std::uint8_t> payload);
  void writeBlock(std::uint32_t type, const Buffer& payload) {
    writeBlock(type, std::span<const std::uint8_t>(payload.data(), payload.size()));
  }

  /// Writes a TLV block whose value is a big-endian non-negative integer
  /// in minimal width (1/2/4/8 bytes), per NDN NonNegativeInteger rules.
  void writeNonNegativeInteger(std::uint32_t type, std::uint64_t value);

  /// Writes a zero-length TLV (boolean flag element).
  void writeFlag(std::uint32_t type) { writeBlock(type, std::span<const std::uint8_t>{}); }

  /// Writes pre-encoded child bytes wrapped in a parent TLV.
  void writeNested(std::uint32_t type, const Encoder& child);

  [[nodiscard]] const Buffer& buffer() const noexcept { return buffer_; }
  [[nodiscard]] Buffer takeBuffer() noexcept { return std::move(buffer_); }
  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }

 private:
  Buffer buffer_;
};

/// One decoded TLV element.
struct Element {
  std::uint32_t type = 0;
  std::span<const std::uint8_t> value;
};

/// Sequentially decodes TLV elements from a byte span.
class Decoder {
 public:
  explicit Decoder(std::span<const std::uint8_t> input) : input_(input) {}

  [[nodiscard]] bool atEnd() const noexcept { return offset_ >= input_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return input_.size() - offset_;
  }

  /// Reads the next element. Returns error on truncation/overflow.
  Result<Element> readElement();

  /// Reads the next element and checks its type.
  Result<Element> readElement(std::uint32_t expectedType);

  /// Decodes an NDN NonNegativeInteger from an element value.
  static Result<std::uint64_t> readNonNegativeInteger(std::span<const std::uint8_t> v);

 private:
  Result<std::uint64_t> readVarNumber();

  std::span<const std::uint8_t> input_;
  std::size_t offset_ = 0;
};

}  // namespace lidc::ndn::tlv
