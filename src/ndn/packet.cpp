#include "ndn/packet.hpp"

#include <algorithm>

namespace lidc::ndn {

namespace {

void encodeName(tlv::Encoder& encoder, const Name& name) {
  tlv::Encoder inner;
  for (const auto& component : name) {
    inner.writeBlock(tlv::kGenericNameComponent, component.value());
  }
  encoder.writeNested(tlv::kName, inner);
}

Result<Name> decodeName(std::span<const std::uint8_t> value) {
  tlv::Decoder decoder(value);
  std::vector<Component> components;
  while (!decoder.atEnd()) {
    auto element = decoder.readElement(tlv::kGenericNameComponent);
    if (!element) return element.status();
    components.emplace_back(element->value);
  }
  return Name(std::move(components));
}

std::size_t nameBlockSize(const Name& name) noexcept {
  std::size_t inner = 0;
  for (const auto& component : name) {
    inner += tlv::blockSize(tlv::kGenericNameComponent, component.size());
  }
  return tlv::blockSize(tlv::kName, inner);
}

std::uint64_t toMillis(sim::Duration d) noexcept {
  return static_cast<std::uint64_t>(std::max<std::int64_t>(0, d.toNanos() / 1'000'000));
}

}  // namespace

std::size_t Interest::wireSize() const noexcept {
  std::size_t inner = nameBlockSize(name_);
  if (can_be_prefix_) inner += tlv::blockSize(tlv::kCanBePrefix, 0);
  if (must_be_fresh_) inner += tlv::blockSize(tlv::kMustBeFresh, 0);
  inner += tlv::nonNegativeIntegerBlockSize(tlv::kNonce, nonce_);
  inner += tlv::nonNegativeIntegerBlockSize(tlv::kInterestLifetime, toMillis(lifetime_));
  inner += tlv::nonNegativeIntegerBlockSize(tlv::kHopLimit, hop_limit_);
  if (exclude_digest_) {
    inner += tlv::nonNegativeIntegerBlockSize(tlv::kExcludeDigest, *exclude_digest_);
  }
  if (!app_parameters_.empty()) {
    inner += tlv::blockSize(tlv::kApplicationParameters, app_parameters_.size());
  }
  return tlv::blockSize(tlv::kInterest, inner);
}

tlv::Buffer Interest::wireEncode() const {
  tlv::Encoder inner;
  encodeName(inner, name_);
  if (can_be_prefix_) inner.writeFlag(tlv::kCanBePrefix);
  if (must_be_fresh_) inner.writeFlag(tlv::kMustBeFresh);
  inner.writeNonNegativeInteger(tlv::kNonce, nonce_);
  inner.writeNonNegativeInteger(tlv::kInterestLifetime, toMillis(lifetime_));
  inner.writeNonNegativeInteger(tlv::kHopLimit, hop_limit_);
  if (exclude_digest_) {
    inner.writeNonNegativeInteger(tlv::kExcludeDigest, *exclude_digest_);
  }
  if (!app_parameters_.empty()) {
    inner.writeBlock(tlv::kApplicationParameters,
                     std::span<const std::uint8_t>(app_parameters_.data(),
                                                   app_parameters_.size()));
  }
  tlv::Encoder outer;
  outer.writeNested(tlv::kInterest, inner);
  return outer.takeBuffer();
}

Result<Interest> Interest::wireDecode(std::span<const std::uint8_t> wire) {
  tlv::Decoder outer(wire);
  auto top = outer.readElement(tlv::kInterest);
  if (!top) return top.status();

  Interest interest;
  tlv::Decoder decoder(top->value);
  bool saw_name = false;
  while (!decoder.atEnd()) {
    auto element = decoder.readElement();
    if (!element) return element.status();
    switch (element->type) {
      case tlv::kName: {
        auto name = decodeName(element->value);
        if (!name) return name.status();
        interest.name_ = std::move(*name);
        saw_name = true;
        break;
      }
      case tlv::kCanBePrefix:
        interest.can_be_prefix_ = true;
        break;
      case tlv::kMustBeFresh:
        interest.must_be_fresh_ = true;
        break;
      case tlv::kNonce: {
        auto v = tlv::Decoder::readNonNegativeInteger(element->value);
        if (!v) return v.status();
        interest.nonce_ = static_cast<std::uint32_t>(*v);
        break;
      }
      case tlv::kInterestLifetime: {
        auto v = tlv::Decoder::readNonNegativeInteger(element->value);
        if (!v) return v.status();
        interest.lifetime_ = sim::Duration::millis(static_cast<std::int64_t>(*v));
        break;
      }
      case tlv::kHopLimit: {
        auto v = tlv::Decoder::readNonNegativeInteger(element->value);
        if (!v) return v.status();
        interest.hop_limit_ = static_cast<std::uint8_t>(*v);
        break;
      }
      case tlv::kApplicationParameters:
        interest.app_parameters_.assign(element->value.begin(), element->value.end());
        break;
      case tlv::kExcludeDigest: {
        auto v = tlv::Decoder::readNonNegativeInteger(element->value);
        if (!v) return v.status();
        interest.exclude_digest_ = *v;
        break;
      }
      default:
        // Unknown non-critical elements are skipped (NDN evolvability rule).
        break;
    }
  }
  if (!saw_name) return Status::InvalidArgument("Interest missing Name");
  return interest;
}

std::uint64_t Data::computeDigest() const {
  // FNV-1a over name + metainfo + content; stands in for DigestSha256.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  };
  for (const auto& component : name_) {
    for (std::uint8_t byte : component.value()) mix(byte);
    mix(0xFF);
  }
  mix(static_cast<std::uint8_t>(content_type_));
  const auto freshness = static_cast<std::uint64_t>(freshness_.toNanos());
  for (int shift = 56; shift >= 0; shift -= 8) {
    mix(static_cast<std::uint8_t>(freshness >> shift));
  }
  for (std::uint8_t byte : content_) mix(byte);
  return h;
}

Data& Data::sign() {
  signature_ = contentDigest();
  has_signature_ = true;
  return *this;
}

bool Data::verify() const { return has_signature_ && signature_ == contentDigest(); }

std::size_t Data::wireSize() const noexcept {
  std::size_t inner = nameBlockSize(name_);
  inner += tlv::blockSize(
      tlv::kMetaInfo,
      tlv::nonNegativeIntegerBlockSize(tlv::kContentType,
                                       static_cast<std::uint64_t>(content_type_)) +
          tlv::nonNegativeIntegerBlockSize(tlv::kFreshnessPeriod, toMillis(freshness_)));
  inner += tlv::blockSize(tlv::kContent, content_.size());
  inner += tlv::blockSize(tlv::kSignatureInfo,
                          tlv::nonNegativeIntegerBlockSize(tlv::kSignatureType, 0));
  if (has_signature_) {
    inner += tlv::blockSize(
        tlv::kSignatureValue,
        tlv::nonNegativeIntegerBlockSize(tlv::kSignatureValue, signature_));
  }
  return tlv::blockSize(tlv::kData, inner);
}

tlv::Buffer Data::wireEncode() const {
  tlv::Encoder inner;
  encodeName(inner, name_);

  tlv::Encoder meta;
  meta.writeNonNegativeInteger(tlv::kContentType,
                               static_cast<std::uint64_t>(content_type_));
  meta.writeNonNegativeInteger(tlv::kFreshnessPeriod, toMillis(freshness_));
  inner.writeNested(tlv::kMetaInfo, meta);

  inner.writeBlock(tlv::kContent,
                   std::span<const std::uint8_t>(content_.data(), content_.size()));

  tlv::Encoder sigInfo;
  sigInfo.writeNonNegativeInteger(tlv::kSignatureType, 0);  // DigestSha256 stand-in
  inner.writeNested(tlv::kSignatureInfo, sigInfo);
  if (has_signature_) {
    tlv::Encoder sigValue;
    sigValue.writeNonNegativeInteger(tlv::kSignatureValue, signature_);
    inner.writeNested(tlv::kSignatureValue, sigValue);
  }

  tlv::Encoder outer;
  outer.writeNested(tlv::kData, inner);
  return outer.takeBuffer();
}

Result<Data> Data::wireDecode(std::span<const std::uint8_t> wire) {
  tlv::Decoder outer(wire);
  auto top = outer.readElement(tlv::kData);
  if (!top) return top.status();

  Data data;
  tlv::Decoder decoder(top->value);
  bool saw_name = false;
  while (!decoder.atEnd()) {
    auto element = decoder.readElement();
    if (!element) return element.status();
    switch (element->type) {
      case tlv::kName: {
        auto name = decodeName(element->value);
        if (!name) return name.status();
        data.name_ = std::move(*name);
        saw_name = true;
        break;
      }
      case tlv::kMetaInfo: {
        tlv::Decoder meta(element->value);
        while (!meta.atEnd()) {
          auto field = meta.readElement();
          if (!field) return field.status();
          auto v = tlv::Decoder::readNonNegativeInteger(field->value);
          if (!v) return v.status();
          if (field->type == tlv::kContentType) {
            data.content_type_ = static_cast<ContentType>(*v);
          } else if (field->type == tlv::kFreshnessPeriod) {
            data.freshness_ = sim::Duration::millis(static_cast<std::int64_t>(*v));
          }
        }
        break;
      }
      case tlv::kContent:
        data.content_.assign(element->value.begin(), element->value.end());
        break;
      case tlv::kSignatureInfo:
        break;  // only one signature type supported
      case tlv::kSignatureValue: {
        tlv::Decoder sig(element->value);
        auto field = sig.readElement(tlv::kSignatureValue);
        if (!field) return field.status();
        auto v = tlv::Decoder::readNonNegativeInteger(field->value);
        if (!v) return v.status();
        data.signature_ = *v;
        data.has_signature_ = true;
        break;
      }
      default:
        break;
    }
  }
  if (!saw_name) return Status::InvalidArgument("Data missing Name");
  return data;
}

std::string_view nackReasonName(NackReason reason) noexcept {
  switch (reason) {
    case NackReason::kNone:
      return "None";
    case NackReason::kCongestion:
      return "Congestion";
    case NackReason::kDuplicate:
      return "Duplicate";
    case NackReason::kQuotaExceeded:
      return "QuotaExceeded";
    case NackReason::kNoRoute:
      return "NoRoute";
  }
  return "Unknown";
}

}  // namespace lidc::ndn
