#include "ndn/cs.hpp"

namespace lidc::ndn {

namespace {
/// Signed-but-invalid is the poisoned state; unsigned Data carries no
/// integrity information and passes (see file comment).
bool isPoisoned(const Data& data) { return data.hasSignature() && !data.verify(); }
}  // namespace

bool ContentStore::ByName::operator()(LruList::iterator a,
                                      LruList::iterator b) const noexcept {
  return a->data.name() < b->data.name();
}
bool ContentStore::ByName::operator()(LruList::iterator a,
                                      const Name& b) const noexcept {
  return a->data.name() < b;
}
bool ContentStore::ByName::operator()(const Name& a,
                                      LruList::iterator b) const noexcept {
  return a < b->data.name();
}

void ContentStore::insert(const Data& data, sim::Time now) {
  if (capacity_ == 0) return;
  if (verify_inserts_ && isPoisoned(data)) {
    ++poisoned_rejects_;
    return;
  }
  auto it = index_.find(data.name());
  if (it != index_.end()) {
    (*it)->data = data;
    (*it)->arrival = now;
    touch(*it);
    return;
  }
  lru_.push_front(Entry{data, now, {}});
  lru_.front().indexed = index_.insert(lru_.begin()).first;
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
    if (it != index_.end() && isPoisoned((*it)->data)) {
      ++poisoned_evictions_;
      erase(it);
    } else if (it != index_.end() && usable(**it)) {
      touch(*it);
      ++hits_;
      return (*it)->data;
    }
    ++misses_;
    return std::nullopt;
  }

  // CanBePrefix: scan names >= prefix until we leave the subtree.
  for (auto it = index_.lower_bound(name); it != index_.end();) {
    const Entry& entry = **it;
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
  const LruList::iterator entry = *it;
  index_.erase(it);
  lru_.erase(entry);
}

void ContentStore::clear() {
  index_.clear();
  lru_.clear();
}

void ContentStore::setCapacity(std::size_t capacity) {
  capacity_ = capacity;
  evictIfNeeded();
}

void ContentStore::touch(LruList::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
}

void ContentStore::evictIfNeeded() {
  while (lru_.size() > capacity_) erase(lru_.back().indexed);
}

bool ContentStore::isFreshEnough(const Entry& entry, const Interest& interest,
                                 sim::Time now) const noexcept {
  if (!interest.mustBeFresh()) return true;
  if (serve_stale_) return true;  // chaos: buggy cache replays stale Data
  if (entry.data.freshnessPeriod() == sim::Duration()) return false;
  return now < entry.arrival + entry.data.freshnessPeriod();
}

}  // namespace lidc::ndn
