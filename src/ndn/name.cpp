#include "ndn/name.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <ostream>

#include "common/strings.hpp"

namespace lidc::ndn {

namespace {

constexpr bool isUriUnreserved(std::uint8_t c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
         c == '-' || c == '.' || c == '_' || c == '~' ||
         // Kept readable in LIDC semantic names:
         c == '=' || c == '&' || c == '+' || c == ':';
}

constexpr char kHexDigits[] = "0123456789ABCDEF";

int hexValue(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

void Component::assign(std::span<const std::uint8_t> value) {
  if (value.size() <= kInlineCapacity) {
    if (!value.empty()) std::memcpy(raw_, value.data(), value.size());
    raw_[kTagByte] = static_cast<std::uint8_t>(value.size());
    return;
  }
  if (value.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("name component longer than 4 GiB");
  }
  auto* heap = new std::uint8_t[value.size()];
  std::memcpy(heap, value.data(), value.size());
  const auto size = static_cast<std::uint32_t>(value.size());
  std::memcpy(raw_, &heap, sizeof(heap));
  std::memcpy(raw_ + sizeof(heap), &size, sizeof(size));
  raw_[kTagByte] = kHeapTag;
}

std::optional<Component> Component::fromEscaped(std::string_view escaped) {
  if (escaped.find('%') == std::string_view::npos) return Component(escaped);
  std::vector<std::uint8_t> bytes;
  bytes.reserve(escaped.size());
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] == '%') {
      if (i + 2 >= escaped.size()) return std::nullopt;
      const int hi = hexValue(escaped[i + 1]);
      const int lo = hexValue(escaped[i + 2]);
      if (hi < 0 || lo < 0) return std::nullopt;
      bytes.push_back(static_cast<std::uint8_t>(hi * 16 + lo));
      i += 2;
    } else {
      bytes.push_back(static_cast<std::uint8_t>(escaped[i]));
    }
  }
  return Component(bytes);
}

std::string Component::toEscapedString() const {
  std::string out;
  out.reserve(size());
  for (std::uint8_t byte : value()) {
    if (isUriUnreserved(byte)) {
      out.push_back(static_cast<char>(byte));
    } else {
      out.push_back('%');
      out.push_back(kHexDigits[byte >> 4]);
      out.push_back(kHexDigits[byte & 0x0F]);
    }
  }
  return out;
}

std::strong_ordering Component::compare(const Component& other) const noexcept {
  // NDN canonical order: shorter components sort first.
  const std::size_t n = size();
  if (n != other.size()) {
    return n < other.size() ? std::strong_ordering::less : std::strong_ordering::greater;
  }
  const int cmp = n == 0 ? 0 : std::memcmp(data(), other.data(), n);
  if (cmp < 0) return std::strong_ordering::less;
  if (cmp > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

Name::Name(std::string_view uri) {
  // Accept both "/a/b" and "ndn:/a/b".
  if (strings::startsWith(uri, "ndn:")) uri.remove_prefix(4);
  for (auto segment : strings::splitSkipEmpty(uri, '/')) {
    if (auto component = Component::fromEscaped(segment)) {
      components_.push_back(std::move(*component));
    } else {
      // Malformed escape: keep the raw text so the name is still usable.
      components_.emplace_back(segment);
    }
  }
}

Name& Name::append(const Name& suffix) {
  components_.insert(components_.end(), suffix.components_.begin(),
                     suffix.components_.end());
  return *this;
}

Name& Name::appendNumber(std::uint64_t number) {
  return append(Component(std::string_view(std::to_string(number))));
}

Name Name::subName(std::size_t start, std::size_t count) const {
  if (start >= components_.size()) return {};
  const std::size_t end = count == static_cast<std::size_t>(-1)
                              ? components_.size()
                              : std::min(components_.size(), start + count);
  return Name(std::vector<Component>(components_.begin() + static_cast<long>(start),
                                     components_.begin() + static_cast<long>(end)));
}

bool Name::isPrefixOf(const Name& other) const noexcept {
  if (components_.size() > other.components_.size()) return false;
  for (std::size_t i = 0; i < components_.size(); ++i) {
    if (!(components_[i] == other.components_[i])) return false;
  }
  return true;
}

std::strong_ordering Name::compare(const Name& other) const noexcept {
  const std::size_t n = std::min(components_.size(), other.components_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto cmp = components_[i].compare(other.components_[i]);
    if (cmp != std::strong_ordering::equal) return cmp;
  }
  if (components_.size() < other.components_.size()) return std::strong_ordering::less;
  if (components_.size() > other.components_.size())
    return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

std::string Name::toUri() const {
  if (components_.empty()) return "/";
  std::string out;
  for (const auto& component : components_) {
    out += '/';
    out += component.toEscapedString();
  }
  return out;
}

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

// FNV-1a over (length, bytes) pairs so component boundaries matter.
void mixComponent(std::uint64_t& h, const Component& component) noexcept {
  auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  };
  const std::size_t len = component.size();
  mix(static_cast<std::uint8_t>(len & 0xFF));
  mix(static_cast<std::uint8_t>((len >> 8) & 0xFF));
  for (std::uint8_t byte : component.value()) mix(byte);
}

}  // namespace

std::size_t Name::hash() const noexcept {
  std::uint64_t h = kFnvOffset;
  for (const auto& component : components_) mixComponent(h, component);
  return static_cast<std::size_t>(h);
}

void Name::prefixHashes(std::vector<std::size_t>& out) const {
  out.resize(components_.size() + 1);
  std::uint64_t h = kFnvOffset;
  out[0] = static_cast<std::size_t>(h);
  for (std::size_t i = 0; i < components_.size(); ++i) {
    mixComponent(h, components_[i]);
    out[i + 1] = static_cast<std::size_t>(h);
  }
}

std::ostream& operator<<(std::ostream& os, const Name& name) {
  return os << name.toUri();
}

}  // namespace lidc::ndn
