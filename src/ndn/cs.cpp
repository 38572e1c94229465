#include "ndn/cs.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>
#include <span>

namespace lidc::ndn {

namespace {

/// Signed-but-invalid is the poisoned state; unsigned Data carries no
/// integrity information and passes (see file comment).
bool isPoisoned(const Data& data) { return data.hasSignature() && !data.verify(); }

constexpr std::uint8_t kLongLength = 0xFF;

std::size_t encodedNameSize(const Name& name) noexcept {
  std::size_t total = 0;
  for (const Component& c : name) {
    total += (c.size() < kLongLength ? 1 : 1 + sizeof(std::uint32_t)) + c.size();
  }
  return total;
}

void encodeName(const Name& name, std::uint8_t* out) noexcept {
  for (const Component& c : name) {
    const auto size = static_cast<std::uint32_t>(c.size());
    if (size < kLongLength) {
      *out++ = static_cast<std::uint8_t>(size);
    } else {
      *out++ = kLongLength;
      std::memcpy(out, &size, sizeof(size));
      out += sizeof(size);
    }
    if (size > 0) std::memcpy(out, c.data(), size);
    out += size;
  }
}

/// Walks the encoded components of an entry's name.
class ComponentReader {
 public:
  ComponentReader(const std::uint8_t* begin, std::size_t size) noexcept
      : p_(begin), end_(begin + size) {}

  [[nodiscard]] bool atEnd() const noexcept { return p_ == end_; }

  std::span<const std::uint8_t> next() noexcept {
    std::size_t size = *p_++;
    if (size == kLongLength) {
      std::uint32_t longSize = 0;
      std::memcpy(&longSize, p_, sizeof(longSize));
      p_ += sizeof(longSize);
      size = longSize;
    }
    const std::span<const std::uint8_t> value(p_, size);
    p_ += size;
    return value;
  }

 private:
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

bool sameBytes(std::span<const std::uint8_t> a, const Component& b) noexcept {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

}  // namespace

// The block header. After it come the name, one component at a time as
// a length (one byte, or kLongLength and four bytes) and its bytes, then
// the content. Inserts are frequent and hits rare, so an entry is one
// allocation of raw fields and a hit pays for rebuilding the Data.
struct ContentStore::Entry {
  Entry* chain = nullptr;  // next entry in the same bucket
  Entry* newer = nullptr;  // LRU neighbours
  Entry* older = nullptr;
  std::size_t hash = 0;    // name hash
  sim::Time arrival;
  sim::Duration freshness;
  std::uint64_t signature = 0;
  ContentType contentType = ContentType::kBlob;
  std::uint32_t components = 0;
  std::uint32_t nameBytes = 0;  // encoded name length
  std::uint32_t contentBytes = 0;
  std::uint32_t room = 0;  // bytes the block has after the header
  bool hasSignature = false;
  /// Signed but failing verification; computed at insert, since the
  /// stored bytes never change.
  bool poisoned = false;

  [[nodiscard]] std::uint8_t* bytes() noexcept {
    return reinterpret_cast<std::uint8_t*>(this + 1);
  }
  [[nodiscard]] const std::uint8_t* bytes() const noexcept {
    return reinterpret_cast<const std::uint8_t*>(this + 1);
  }
  [[nodiscard]] const std::uint8_t* content() const noexcept {
    return bytes() + nameBytes;
  }
  [[nodiscard]] ComponentReader name() const noexcept {
    return {bytes(), nameBytes};
  }

  /// True if `prefix` is a prefix of (or equal to) this entry's name.
  [[nodiscard]] bool nameStartsWith(const Name& prefix) const noexcept {
    if (prefix.size() > components) return false;
    ComponentReader reader = name();
    for (const Component& c : prefix) {
      if (!sameBytes(reader.next(), c)) return false;
    }
    return true;
  }

  /// Canonical NDN order of two entries' names (Name::compare): shorter
  /// components first, then bytes; a proper prefix first.
  static bool nameLess(const Entry* a, const Entry* b) noexcept {
    ComponentReader ra = a->name();
    ComponentReader rb = b->name();
    while (!ra.atEnd() && !rb.atEnd()) {
      const auto ca = ra.next();
      const auto cb = rb.next();
      if (ca.size() != cb.size()) return ca.size() < cb.size();
      const int cmp = ca.empty() ? 0 : std::memcmp(ca.data(), cb.data(), ca.size());
      if (cmp != 0) return cmp < 0;
    }
    return ra.atEnd() && !rb.atEnd();
  }
};

Data ContentStore::rebuild(const Entry& entry) {
  std::vector<Component> components;
  components.reserve(entry.components);
  ComponentReader reader = entry.name();
  while (!reader.atEnd()) components.emplace_back(reader.next());
  Data data{Name(std::move(components))};
  data.content_.assign(entry.content(), entry.content() + entry.contentBytes);
  data.freshness_ = entry.freshness;
  data.content_type_ = entry.contentType;
  data.signature_ = entry.signature;
  data.has_signature_ = entry.hasSignature;
  // Only clean entries are rebuilt for serving or digesting; a clean
  // signature is the digest, so the copy starts with its memo.
  if (entry.hasSignature && !entry.poisoned) {
    data.digest_ = entry.signature;
    data.has_digest_ = true;
  }
  return data;
}

void ContentStore::insert(const Data& data, std::size_t nameHash, sim::Time now) {
  if (capacity_ == 0) return;
  const bool poisoned = isPoisoned(data);
  if (verify_inserts_ && poisoned) {
    ++poisoned_rejects_;
    return;
  }
  const std::size_t contentBytes = data.content().size();
  Entry* entry = lookup(data.name(), nameHash);
  if (entry != nullptr && entry->nameBytes + contentBytes <= entry->room) {
    touch(entry);  // refresh in place: the name is already there
  } else {
    const std::size_t nameBytes =
        entry != nullptr ? entry->nameBytes : encodedNameSize(data.name());
    const std::size_t room = nameBytes + contentBytes;
    auto* fresh = ::new (::operator new(sizeof(Entry) + room)) Entry;
    fresh->hash = nameHash;
    fresh->components = static_cast<std::uint32_t>(data.name().size());
    fresh->nameBytes = static_cast<std::uint32_t>(nameBytes);
    fresh->room = static_cast<std::uint32_t>(room);
    if (entry != nullptr) {
      // A refresh whose content outgrew the block moves to a new one.
      std::memcpy(fresh->bytes(), entry->bytes(), nameBytes);
      erase(entry);
    } else {
      encodeName(data.name(), fresh->bytes());
    }
    link(fresh);
    pushFront(fresh);
    entry = fresh;
  }
  entry->arrival = now;
  entry->freshness = data.freshnessPeriod();
  entry->signature = data.signature_;
  entry->contentType = data.contentType();
  entry->hasSignature = data.hasSignature();
  entry->poisoned = poisoned;
  entry->contentBytes = static_cast<std::uint32_t>(contentBytes);
  if (contentBytes > 0) {
    std::memcpy(entry->bytes() + entry->nameBytes, data.content().data(), contentBytes);
  }
  evictIfNeeded();
}

std::optional<Data> ContentStore::find(const Interest& interest, std::size_t nameHash,
                                       sim::Time now) {
  // Poisoned entries (cached while verification was off) are removed
  // instead of served, so a cache never re-serves bad content.
  if (!interest.canBePrefix()) {
    Entry* entry = lookup(interest.name(), nameHash);
    if (entry != nullptr && entry->poisoned) {
      ++poisoned_evictions_;
      erase(entry);
    } else if (entry != nullptr && usable(*entry, interest, now)) {
      return serve(entry);
    }
    ++misses_;
    return std::nullopt;
  }

  // CanBePrefix: the entries under the prefix, tried in name order. The
  // forwarding plane never sets CanBePrefix, so this scans the store.
  std::vector<Entry*> under;
  for (Entry* entry = lru_head_; entry != nullptr; entry = entry->older) {
    if (entry->nameStartsWith(interest.name())) under.push_back(entry);
  }
  std::sort(under.begin(), under.end(), Entry::nameLess);
  for (Entry* entry : under) {
    if (entry->poisoned) {
      ++poisoned_evictions_;
      erase(entry);
      continue;
    }
    if (usable(*entry, interest, now)) return serve(entry);
  }
  ++misses_;
  return std::nullopt;
}

bool ContentStore::usable(const Entry& entry, const Interest& interest,
                          sim::Time now) const {
  if (!isFreshEnough(entry, interest, now)) return false;
  const std::optional<std::uint64_t> exclude = interest.excludeDigest();
  if (!exclude) return true;
  // A clean signature is the digest; an unsigned entry is digested from
  // its rebuilt Data (hints are rare: they follow a failed verification).
  const std::uint64_t digest =
      entry.hasSignature ? entry.signature : rebuild(entry).contentDigest();
  return digest != *exclude;
}

Data ContentStore::serve(Entry* entry) {
  touch(entry);
  ++hits_;
  return rebuild(*entry);
}

void ContentStore::erase(const Name& name) {
  if (Entry* entry = lookup(name, name.hash())) erase(entry);
}

void ContentStore::clear() {
  for (Entry* entry = lru_head_; entry != nullptr;) {
    Entry* older = entry->older;
    ::operator delete(entry);
    entry = older;
  }
  std::fill(buckets_.begin(), buckets_.end(), nullptr);
  size_ = 0;
  lru_head_ = nullptr;
  lru_tail_ = nullptr;
}

void ContentStore::setCapacity(std::size_t capacity) {
  capacity_ = capacity;
  evictIfNeeded();
}

ContentStore::Entry*& ContentStore::bucket(std::size_t hash) noexcept {
  // Fibonacci hashing: the top bits of the product mix every bit of the
  // FNV-1a hash, whose low bits alone are weak.
  return buckets_[(static_cast<std::uint64_t>(hash) * 0x9E3779B97F4A7C15ULL) >>
                  bucket_shift_];
}

ContentStore::Entry* ContentStore::lookup(const Name& name, std::size_t hash) noexcept {
  if (buckets_.empty()) return nullptr;
  for (Entry* entry = bucket(hash); entry != nullptr; entry = entry->chain) {
    if (entry->hash == hash && entry->components == name.size() &&
        entry->nameStartsWith(name)) {
      return entry;
    }
  }
  return nullptr;
}

void ContentStore::link(Entry* entry) {
  if (size_ >= buckets_.size()) rehash(std::max<std::size_t>(16, buckets_.size() * 2));
  Entry*& head = bucket(entry->hash);
  entry->chain = head;
  head = entry;
  ++size_;
}

void ContentStore::rehash(std::size_t buckets) {
  buckets_.assign(buckets, nullptr);
  bucket_shift_ = 64 - std::countr_zero(buckets);
  for (Entry* entry = lru_head_; entry != nullptr; entry = entry->older) {
    Entry*& head = bucket(entry->hash);
    entry->chain = head;
    head = entry;
  }
}

void ContentStore::erase(Entry* entry) noexcept {
  Entry** slot = &bucket(entry->hash);
  while (*slot != entry) slot = &(*slot)->chain;
  *slot = entry->chain;
  unlinkLru(entry);
  --size_;
  ::operator delete(entry);
}

void ContentStore::touch(Entry* entry) noexcept {
  if (entry == lru_head_) return;
  unlinkLru(entry);
  pushFront(entry);
}

void ContentStore::pushFront(Entry* entry) noexcept {
  entry->newer = nullptr;
  entry->older = lru_head_;
  if (lru_head_ != nullptr) {
    lru_head_->newer = entry;
  } else {
    lru_tail_ = entry;
  }
  lru_head_ = entry;
}

void ContentStore::unlinkLru(Entry* entry) noexcept {
  if (entry->newer != nullptr) {
    entry->newer->older = entry->older;
  } else {
    lru_head_ = entry->older;
  }
  if (entry->older != nullptr) {
    entry->older->newer = entry->newer;
  } else {
    lru_tail_ = entry->newer;
  }
}

void ContentStore::evictIfNeeded() noexcept {
  while (size_ > capacity_) erase(lru_tail_);
}

bool ContentStore::isFreshEnough(const Entry& entry, const Interest& interest,
                                 sim::Time now) const noexcept {
  if (!interest.mustBeFresh()) return true;
  if (serve_stale_) return true;  // chaos: buggy cache replays stale Data
  if (entry.freshness == sim::Duration()) return false;
  return now < entry.arrival + entry.freshness;
}

}  // namespace lidc::ndn
