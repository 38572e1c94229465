#include "ndn/dead_nonce_list.hpp"

namespace lidc::ndn {

void DeadNonceList::add(std::size_t nameHash, std::uint32_t nonce) {
  if (capacity_ == 0) return;
  const std::uint64_t key = hashOf(nameHash, nonce);
  if (fifo_.size() < capacity_) {
    fifo_.push_back(key);
    if (2 * fifo_.size() > slots_.size()) {
      grow();
    } else {
      link(fifo_.size() - 1);
    }
    return;
  }
  // Full: the new record replaces the oldest.
  unlink(oldest_);
  fifo_[oldest_] = key;
  link(oldest_);
  oldest_ = (oldest_ + 1) % capacity_;
}

bool DeadNonceList::has(std::size_t nameHash, std::uint32_t nonce) const {
  if (slots_.empty()) return false;
  const std::uint64_t key = hashOf(nameHash, nonce);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(key); slots_[i] != 0; i = (i + 1) & mask) {
    if (fifo_[slots_[i] - 1] == key) return true;
  }
  return false;
}

void DeadNonceList::link(std::size_t pos) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(fifo_[pos]);
  while (slots_[i] != 0) i = (i + 1) & mask;
  slots_[i] = static_cast<std::uint32_t>(pos + 1);
}

void DeadNonceList::unlink(std::size_t pos) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = home(fifo_[pos]);
  while (slots_[hole] != pos + 1) hole = (hole + 1) & mask;
  // Backward-shift deletion: pull each later record of the probe run
  // into the hole unless its home lies cyclically in (hole, j].
  for (std::size_t j = (hole + 1) & mask; slots_[j] != 0; j = (j + 1) & mask) {
    const std::size_t h = home(fifo_[slots_[j] - 1]);
    const bool stays = hole < j ? (hole < h && h <= j) : (hole < h || h <= j);
    if (!stays) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = 0;
}

void DeadNonceList::grow() {
  std::size_t size = slots_.empty() ? 16 : 2 * slots_.size();
  while (size < 2 * fifo_.size()) size *= 2;
  slots_.assign(size, 0);
  for (std::size_t pos = 0; pos < fifo_.size(); ++pos) link(pos);
}

}  // namespace lidc::ndn
