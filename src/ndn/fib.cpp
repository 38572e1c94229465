#include "ndn/fib.hpp"

#include <algorithm>

namespace lidc::ndn {

void FibEntry::addOrUpdateNextHop(FaceId face, std::uint64_t cost) {
  for (auto& hop : next_hops_) {
    if (hop.face == face) {
      hop.cost = cost;
      std::stable_sort(next_hops_.begin(), next_hops_.end(),
                       [](const NextHop& a, const NextHop& b) { return a.cost < b.cost; });
      return;
    }
  }
  next_hops_.push_back(NextHop{face, cost});
  std::stable_sort(next_hops_.begin(), next_hops_.end(),
                   [](const NextHop& a, const NextHop& b) { return a.cost < b.cost; });
}

void FibEntry::removeNextHop(FaceId face) {
  std::erase_if(next_hops_, [face](const NextHop& h) { return h.face == face; });
}

bool FibEntry::hasNextHop(FaceId face) const noexcept {
  return std::any_of(next_hops_.begin(), next_hops_.end(),
                     [face](const NextHop& h) { return h.face == face; });
}

FibEntry& Fib::insert(const Name& prefix, FaceId face, std::uint64_t cost) {
  auto it = entries_.find(keyOf(prefix));
  if (it == entries_.end()) {
    auto entry = std::make_unique<FibEntry>(prefix);
    const NamePrefix key = keyOf(entry->prefix());
    it = entries_.emplace(key, std::move(entry)).first;
  }
  it->second->addOrUpdateNextHop(face, cost);
  return *it->second;
}

void Fib::removeNextHop(const Name& prefix, FaceId face) {
  auto it = entries_.find(keyOf(prefix));
  if (it == entries_.end()) return;
  it->second->removeNextHop(face);
  if (it->second->empty()) entries_.erase(it);
}

void Fib::removeFaceFromAll(FaceId face) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    it->second->removeNextHop(face);
    if (it->second->empty()) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

const FibEntry* Fib::longestPrefixMatch(const Name& name) const {
  thread_local std::vector<std::size_t> hashes;
  name.prefixHashes(hashes);
  for (std::size_t len = name.size() + 1; len-- > 0;) {
    auto it = entries_.find(NamePrefix{&name, len, hashes[len]});
    if (it != entries_.end() && !it->second->empty()) return it->second.get();
  }
  return nullptr;
}

const FibEntry* Fib::findExact(const Name& prefix) const {
  auto it = entries_.find(keyOf(prefix));
  return it == entries_.end() ? nullptr : it->second.get();
}

}  // namespace lidc::ndn
