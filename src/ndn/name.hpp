// NDN hierarchical names. A Name is an ordered list of Components
// (arbitrary byte strings); the URI form is '/'-separated with
// percent-escaping of non-URI-safe bytes, per the NDN naming conventions.
// Names are the addressing primitive of all of LIDC: computations, data,
// status checks, and service endpoints are all Names.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace lidc::ndn {

/// One name component: an opaque byte string. Values of up to
/// kInlineCapacity bytes (keywords, job ids, most semantic fields) live
/// inside the object, so copying a Name of short components allocates
/// only its component vector.
class Component {
 public:
  static constexpr std::size_t kInlineCapacity = 15;

  Component() noexcept = default;
  explicit Component(std::span<const std::uint8_t> value) { assign(value); }
  /// Builds from raw text (no unescaping).
  explicit Component(std::string_view text)
      : Component(std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(text.data()), text.size())) {}

  Component(const Component& other) { assign(other.value()); }
  Component(Component&& other) noexcept {
    std::memcpy(raw_, other.raw_, sizeof(raw_));
    other.raw_[kTagByte] = 0;
  }
  Component& operator=(const Component& other) {
    if (this != &other) *this = Component(other);
    return *this;
  }
  Component& operator=(Component&& other) noexcept {
    if (this != &other) {
      release();
      std::memcpy(raw_, other.raw_, sizeof(raw_));
      other.raw_[kTagByte] = 0;
    }
    return *this;
  }
  ~Component() { release(); }

  /// Parses one percent-escaped URI component ("mem%3D4" -> "mem=4").
  static std::optional<Component> fromEscaped(std::string_view escaped);

  [[nodiscard]] std::span<const std::uint8_t> value() const noexcept {
    return {data(), size()};
  }
  [[nodiscard]] const std::uint8_t* data() const noexcept {
    if (isInline()) return raw_;
    const std::uint8_t* heap = nullptr;
    std::memcpy(&heap, raw_, sizeof(heap));
    return heap;
  }
  [[nodiscard]] std::size_t size() const noexcept {
    if (isInline()) return raw_[kTagByte];
    std::uint32_t size = 0;
    std::memcpy(&size, raw_ + sizeof(std::uint8_t*), sizeof(size));
    return size;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  /// Raw bytes as string (no escaping).
  [[nodiscard]] std::string toString() const {
    return {reinterpret_cast<const char*>(data()), size()};
  }
  /// Percent-escaped URI form.
  [[nodiscard]] std::string toEscapedString() const;

  /// Canonical NDN order: shorter first, then lexicographic.
  [[nodiscard]] std::strong_ordering compare(const Component& other) const noexcept;

  friend bool operator==(const Component& a, const Component& b) noexcept {
    const std::size_t n = a.size();
    return n == b.size() && (n == 0 || std::memcmp(a.data(), b.data(), n) == 0);
  }
  friend std::strong_ordering operator<=>(const Component& a,
                                          const Component& b) noexcept {
    return a.compare(b);
  }

 private:
  // raw_ holds either the inline bytes with their length in the last
  // byte, or {heap pointer, 32-bit size} with kHeapTag in the last byte.
  static constexpr std::size_t kTagByte = kInlineCapacity;
  static constexpr std::uint8_t kHeapTag = 0xFF;

  [[nodiscard]] bool isInline() const noexcept { return raw_[kTagByte] != kHeapTag; }
  void assign(std::span<const std::uint8_t> value);
  void release() noexcept {
    if (!isInline()) delete[] data();
  }

  alignas(std::uint8_t*) std::uint8_t raw_[kInlineCapacity + 1] = {};
};

static_assert(sizeof(Component) == 16);

/// Hierarchical NDN name, e.g. /ndn/k8s/compute/mem=4&cpu=6&app=BLAST.
class Name {
 public:
  Name() = default;
  /// Parses a URI like "/ndn/k8s/data/human-ref". Empty segments collapse.
  // NOLINTNEXTLINE(google-explicit-constructor): URI literals read naturally.
  Name(std::string_view uri);
  Name(const char* uri) : Name(std::string_view(uri)) {}
  explicit Name(std::vector<Component> components)
      : components_(std::move(components)) {}

  [[nodiscard]] std::size_t size() const noexcept { return components_.size(); }
  [[nodiscard]] bool empty() const noexcept { return components_.empty(); }

  [[nodiscard]] const Component& at(std::size_t i) const { return components_.at(i); }
  [[nodiscard]] const Component& operator[](std::size_t i) const {
    return components_[i];
  }
  [[nodiscard]] auto begin() const noexcept { return components_.begin(); }
  [[nodiscard]] auto end() const noexcept { return components_.end(); }

  /// Appends one component (chainable).
  Name& append(Component component) {
    components_.push_back(std::move(component));
    return *this;
  }
  Name& append(std::string_view text) { return append(Component(text)); }
  Name& append(const char* text) { return append(std::string_view(text)); }
  /// Appends all components of another name.
  Name& append(const Name& suffix);
  /// Appends a decimal number as a text component.
  Name& appendNumber(std::uint64_t number);

  /// Sub-name [start, start+count); count npos-like means "to the end".
  [[nodiscard]] Name subName(std::size_t start,
                             std::size_t count = static_cast<std::size_t>(-1)) const;
  /// First `count` components.
  [[nodiscard]] Name prefix(std::size_t count) const { return subName(0, count); }

  /// True if this name is a prefix of (or equal to) `other`.
  [[nodiscard]] bool isPrefixOf(const Name& other) const noexcept;

  /// Canonical NDN order: shorter-prefix first, then component order.
  [[nodiscard]] std::strong_ordering compare(const Name& other) const noexcept;

  [[nodiscard]] std::string toUri() const;

  friend bool operator==(const Name& a, const Name& b) noexcept {
    return a.components_ == b.components_;
  }
  friend std::strong_ordering operator<=>(const Name& a, const Name& b) noexcept {
    return a.compare(b);
  }

  /// FNV-1a hash over the wire bytes; suitable for unordered containers.
  [[nodiscard]] std::size_t hash() const noexcept;

  /// One FNV-1a pass that leaves out[L] == prefix(L).hash() for every L
  /// in [0, size()]. Longest-prefix probes use these instead of hashing
  /// prefix() copies; `out` is resized, so a reused buffer never
  /// allocates.
  void prefixHashes(std::vector<std::size_t>& out) const;

 private:
  std::vector<Component> components_;
};

// Every packet and table entry holds Names; a cached-hash member would
// grow each of them, so callers compute (prefix) hashes when they probe.
static_assert(sizeof(Name) == sizeof(std::vector<Component>));

std::ostream& operator<<(std::ostream& os, const Name& name);

/// The first `len` components of `*name` with their hash (a
/// prefixHashes() entry): a table key that borrows its name. Tables
/// store keys pointing at the name their entry owns, and probe with
/// prefixes of the packet name, so no lookup copies a component.
struct NamePrefix {
  const Name* name = nullptr;
  std::size_t len = 0;
  std::size_t hash = 0;

  friend bool operator==(const NamePrefix& a, const NamePrefix& b) noexcept {
    return a.len == b.len && a.hash == b.hash &&
           std::equal(a.name->begin(), a.name->begin() + static_cast<long>(a.len),
                      b.name->begin());
  }
};

struct NamePrefixHash {
  std::size_t operator()(const NamePrefix& p) const noexcept { return p.hash; }
};

struct NameHash {
  std::size_t operator()(const Name& name) const noexcept { return name.hash(); }
};

}  // namespace lidc::ndn
