#include "genomics/kmer_index.hpp"

#include <algorithm>
#include <cassert>

#include "genomics/sequence.hpp"

namespace lidc::genomics {

namespace {

/// Calls visit(pos, packed) for every all-ACGT window bases[pos .. pos+k),
/// in ascending order of pos or, when kDescending, descending. The pack
/// rolls: one table lookup and one shift per base.
template <bool kDescending, class Visit>
void forEachWindow(std::string_view bases, unsigned k, Visit&& visit) {
  const std::size_t n = bases.size();
  const std::uint64_t mask = (std::uint64_t{1} << (2 * k)) - 1;
  std::uint64_t packed = 0;
  std::size_t run = 0;  // ACGT bases in a row, up to the current one
  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t i = kDescending ? n - 1 - step : step;
    const std::uint8_t code = baseCode(bases[i]);
    run = code > 3 ? 0 : run + 1;
    if constexpr (kDescending) {
      packed = (packed >> 2) | (std::uint64_t{code & 3u} << (2 * (k - 1)));
      if (run >= k) visit(i, packed);
    } else {
      packed = ((packed << 2) | (code & 3u)) & mask;
      if (run >= k) visit(i + 1 - k, packed);
    }
  }
}

}  // namespace

std::size_t KmerIndex::probe(std::uint64_t key) const noexcept {
  const std::size_t table = slots_.size() - 1;  // the sentinel aside
  // Multiply-shift range reduction of a Fibonacci hash: the top 32 bits
  // of key * 2^64/phi, scaled to the table, pick the home slot.
  const std::uint64_t top = (key * 0x9e3779b97f4a7c15ULL) >> 32;
  std::size_t i = static_cast<std::size_t>((top * table) >> 32);
  auto next = [table](std::size_t slot) { return slot + 1 == table ? 0 : slot + 1; };
  const auto low = static_cast<std::uint32_t>(key);
  if (high_.empty()) {
    while (slots_[i].key != low && slots_[i].key != kEmpty) i = next(i);
    return i;
  }
  const auto high = static_cast<std::uint32_t>(key >> 32);
  while (!(slots_[i].key == low && high_[i] == high) && high_[i] != kEmpty) {
    i = next(i);
  }
  return i;
}

bool KmerIndex::pack(std::string_view bases, std::size_t pos, unsigned k,
                     std::uint64_t& out) noexcept {
  if (pos + k > bases.size()) return false;
  std::uint64_t packed = 0;
  for (unsigned i = 0; i < k; ++i) {
    const std::uint8_t code = baseCode(bases[pos + i]);
    if (code > 3) return false;
    packed = (packed << 2) | code;
  }
  out = packed;
  return true;
}

KmerIndex::KmerIndex(std::string_view reference, unsigned k,
                     std::size_t maxOccurrences)
    : k_(k) {
  assert(k >= 4 && k <= 31);
  const std::size_t windows = reference.size() >= k ? reference.size() - k + 1 : 0;
  // Twice the windows: at least one slot always stays empty, so every
  // probe terminates. Positions are 32-bit, so the table size is too.
  const std::size_t capacity = std::max<std::size_t>(2 * windows, 2);
  assert(capacity <= (std::uint64_t{1} << 32));
  slots_.assign(capacity + 1, Slot{kEmpty, 0});
  if (2 * k > 30) high_.assign(capacity, kEmpty);

  // Pass 1: count each k-mer's occurrences in its slot's begin.
  forEachWindow<false>(reference, k, [this](std::size_t, std::uint64_t packed) {
    const std::size_t i = probe(packed);
    slots_[i].key = static_cast<std::uint32_t>(packed);
    if (!high_.empty()) high_[i] = static_cast<std::uint32_t>(packed >> 32);
    ++slots_[i].begin;
  });

  // Lay the ranges out in slot order. Each begin starts one past its
  // range's end; empty slots get the empty range where the next one
  // starts. A masked k-mer becomes a tombstone with an empty range:
  // probes pass over it, so looking it up lands on an empty slot.
  std::uint32_t end = 0;
  for (std::size_t i = 0; i < capacity; ++i) {
    Slot& slot = slots_[i];
    if (tag(i) != kEmpty) {
      if (slot.begin > maxOccurrences) {
        ++masked_;
        (high_.empty() ? slot.key : high_[i]) = kMasked;
      } else {
        ++distinct_;
        end += slot.begin;
      }
    }
    slot.begin = end;
  }
  slots_[capacity].begin = end;
  positions_.resize(end);

  // Pass 2: positions arrive descending and each is written just below
  // the previous one of its k-mer, so every range ends up ascending with
  // begin back at its start.
  forEachWindow<true>(reference, k, [this](std::size_t pos, std::uint64_t packed) {
    const std::size_t i = probe(packed);
    if (tag(i) != kEmpty) positions_[--slots_[i].begin] = static_cast<std::uint32_t>(pos);
  });
}

std::size_t KmerIndex::residentBytes() const noexcept {
  return slots_.capacity() * sizeof(Slot) +
         (high_.capacity() + positions_.capacity()) * sizeof(std::uint32_t);
}

std::span<const std::uint32_t> KmerIndex::find(std::uint64_t packed) const noexcept {
  const std::size_t i = probe(packed);
  return {positions_.data() + slots_[i].begin, slots_[i + 1].begin - slots_[i].begin};
}

}  // namespace lidc::genomics
