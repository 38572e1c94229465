#include "ndn/tlv.hpp"

namespace lidc::ndn::tlv {

void Encoder::writeVarNumber(std::uint64_t value) {
  const std::size_t size = varNumberSize(value);
  if (size == 1) {
    buffer_.push_back(static_cast<std::uint8_t>(value));
    return;
  }
  buffer_.push_back(size == 3 ? 253 : size == 5 ? 254 : 255);
  for (int shift = 8 * static_cast<int>(size - 2); shift >= 0; shift -= 8) {
    buffer_.push_back(static_cast<std::uint8_t>(value >> shift));
  }
}

void Encoder::writeBlock(std::uint32_t type, std::span<const std::uint8_t> payload) {
  writeVarNumber(type);
  writeVarNumber(payload.size());
  buffer_.insert(buffer_.end(), payload.begin(), payload.end());
}

void Encoder::writeNonNegativeInteger(std::uint32_t type, std::uint64_t value) {
  const std::size_t width = nonNegativeIntegerSize(value);
  writeVarNumber(type);
  writeVarNumber(width);
  for (int shift = 8 * static_cast<int>(width - 1); shift >= 0; shift -= 8) {
    buffer_.push_back(static_cast<std::uint8_t>(value >> shift));
  }
}

void Encoder::writeNested(std::uint32_t type, const Encoder& child) {
  writeVarNumber(type);
  writeVarNumber(child.buffer_.size());
  buffer_.insert(buffer_.end(), child.buffer_.begin(), child.buffer_.end());
}

Result<std::uint64_t> Decoder::readVarNumber() {
  if (atEnd()) return Status::InvalidArgument("TLV truncated: missing var-number");
  const std::uint8_t first = input_[offset_++];
  if (first < 253) return static_cast<std::uint64_t>(first);

  int extra = 0;
  if (first == 253) {
    extra = 2;
  } else if (first == 254) {
    extra = 4;
  } else {
    extra = 8;
  }
  if (remaining() < static_cast<std::size_t>(extra)) {
    return Status::InvalidArgument("TLV truncated: short var-number");
  }
  std::uint64_t value = 0;
  for (int i = 0; i < extra; ++i) {
    value = (value << 8) | input_[offset_++];
  }
  return value;
}

Result<Element> Decoder::readElement() {
  auto type = readVarNumber();
  if (!type) return type.status();
  auto length = readVarNumber();
  if (!length) return length.status();
  if (*length > remaining()) {
    return Status::InvalidArgument("TLV truncated: declared length exceeds input");
  }
  if (*type > 0xFFFFFFFFULL) {
    return Status::InvalidArgument("TLV type out of range");
  }
  Element element;
  element.type = static_cast<std::uint32_t>(*type);
  element.value = input_.subspan(offset_, *length);
  offset_ += *length;
  return element;
}

Result<Element> Decoder::readElement(std::uint32_t expectedType) {
  auto element = readElement();
  if (!element) return element.status();
  if (element->type != expectedType) {
    return Status::InvalidArgument("unexpected TLV type " +
                                   std::to_string(element->type) + ", wanted " +
                                   std::to_string(expectedType));
  }
  return element;
}

Result<std::uint64_t> Decoder::readNonNegativeInteger(
    std::span<const std::uint8_t> v) {
  if (v.size() != 1 && v.size() != 2 && v.size() != 4 && v.size() != 8) {
    return Status::InvalidArgument("NonNegativeInteger has invalid width");
  }
  std::uint64_t value = 0;
  for (std::uint8_t byte : v) value = (value << 8) | byte;
  return value;
}

}  // namespace lidc::ndn::tlv
