#include "ndn/cs.hpp"

namespace lidc::ndn {

namespace {
/// Signed-but-invalid is the poisoned state; unsigned Data carries no
/// integrity information and passes (see file comment).
bool isPoisoned(const Data& data) { return data.hasSignature() && !data.verify(); }
}  // namespace

void ContentStore::insert(const Data& data, sim::Time now) {
  if (capacity_ == 0) return;
  if (verify_inserts_ && isPoisoned(data)) {
    ++poisoned_rejects_;
    return;
  }
  auto it = index_.find(data.name());
  if (it != index_.end()) {
    it->data = data;
    it->arrival = now;
    touch(*it);
    return;
  }
  pushFront(*index_.emplace(data, now).first);
  evictIfNeeded();
}

std::optional<Data> ContentStore::find(const Interest& interest, sim::Time now) {
  const Name& name = interest.name();
  const std::optional<std::uint64_t> exclude = interest.excludeDigest();

  // Serve-or-evict decision for one candidate entry. Poisoned entries
  // (cached while verification was off, or corrupted post-admission) are
  // removed instead of served, so a cache never re-serves bad content.
  auto usable = [&](const Entry& entry) {
    if (!isFreshEnough(entry, interest, now)) return false;
    if (exclude && entry.data.contentDigest() == *exclude) return false;
    return true;
  };

  if (!interest.canBePrefix()) {
    auto it = index_.find(name);
    if (it != index_.end() && isPoisoned(it->data)) {
      ++poisoned_evictions_;
      erase(it);
    } else if (it != index_.end() && usable(*it)) {
      touch(*it);
      ++hits_;
      return it->data;
    }
    ++misses_;
    return std::nullopt;
  }

  // CanBePrefix: scan names >= prefix until we leave the subtree.
  for (auto it = index_.lower_bound(name); it != index_.end();) {
    const Entry& entry = *it;
    if (!name.isPrefixOf(entry.data.name())) break;
    if (isPoisoned(entry.data)) {
      ++poisoned_evictions_;
      erase(it++);
      continue;
    }
    if (usable(entry)) {
      touch(*it);
      ++hits_;
      return entry.data;
    }
    ++it;
  }
  ++misses_;
  return std::nullopt;
}

void ContentStore::erase(const Name& name) {
  auto it = index_.find(name);
  if (it != index_.end()) erase(it);
}

void ContentStore::erase(Index::iterator it) {
  unlinkLru(*it);
  index_.erase(it);
}

void ContentStore::clear() {
  index_.clear();
  lru_head_ = nullptr;
  lru_tail_ = nullptr;
}

void ContentStore::setCapacity(std::size_t capacity) {
  capacity_ = capacity;
  evictIfNeeded();
}

void ContentStore::touch(const Entry& entry) {
  if (&entry == lru_head_) return;
  unlinkLru(entry);
  pushFront(entry);
}

void ContentStore::pushFront(const Entry& entry) {
  entry.newer = nullptr;
  entry.older = lru_head_;
  if (lru_head_ != nullptr) {
    lru_head_->newer = &entry;
  } else {
    lru_tail_ = &entry;
  }
  lru_head_ = &entry;
}

void ContentStore::unlinkLru(const Entry& entry) {
  if (entry.newer != nullptr) {
    entry.newer->older = entry.older;
  } else {
    lru_head_ = entry.older;
  }
  if (entry.older != nullptr) {
    entry.older->newer = entry.newer;
  } else {
    lru_tail_ = entry.newer;
  }
}

void ContentStore::evictIfNeeded() {
  while (index_.size() > capacity_) erase(index_.find(lru_tail_->data.name()));
}

bool ContentStore::isFreshEnough(const Entry& entry, const Interest& interest,
                                 sim::Time now) const noexcept {
  if (!interest.mustBeFresh()) return true;
  if (serve_stale_) return true;  // chaos: buggy cache replays stale Data
  if (entry.data.freshnessPeriod() == sim::Duration()) return false;
  return now < entry.arrival + entry.data.freshnessPeriod();
}

}  // namespace lidc::ndn
