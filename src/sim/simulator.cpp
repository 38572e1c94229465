#include "sim/simulator.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace lidc::sim {

namespace {
/// The simulator currently feeding log timestamps; guards against a
/// destroyed simulator leaving a dangling time source behind.
Simulator* g_log_clock_owner = nullptr;
}  // namespace

Simulator::Simulator() {
  g_log_clock_owner = this;
  log::setTimeSource([this] { return now().toSeconds(); });
}

Simulator::~Simulator() {
  if (g_log_clock_owner == this) {
    g_log_clock_owner = nullptr;
    log::setTimeSource(nullptr);
  }
}

namespace {

/// Heap order: the earliest (at, seq) on top.
struct Later {
  template <class E>
  bool operator()(const E& a, const E& b) const noexcept {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }
};

}  // namespace

void Simulator::push(Time at, std::uint32_t slot, std::uint32_t generation) {
  heap_.push_back(Entry{at, next_seq_++, slot, generation});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Simulator::popHeap() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

bool Simulator::step() {
  while (!heap_.empty()) {
    const Entry top = heap_.front();
    popHeap();
    if (!slots_->armed(top.slot, top.generation)) continue;  // cancelled
    now_ = top.at;
    // Disarm before firing: the callback may schedule into (and so
    // reallocate) the pool, and pending() reads false from here on.
    Callback fn = slots_->release(top.slot);
    fn();
    return true;
  }
  return false;
}

std::size_t Simulator::run() {
  std::size_t fired = 0;
  while (step()) ++fired;
  return fired;
}

std::size_t Simulator::runUntil(Time deadline) {
  std::size_t fired = 0;
  while (!heap_.empty()) {
    // Purge cancelled events at the head so the deadline check below
    // sees the next *live* event (a cancelled head must not let step()
    // run a live event scheduled past the deadline).
    const Entry& top = heap_.front();
    if (!slots_->armed(top.slot, top.generation)) {
      popHeap();
      continue;
    }
    if (top.at > deadline) break;
    if (step()) ++fired;
  }
  if (now_ < deadline) now_ = deadline;
  return fired;
}

std::size_t Simulator::runSteps(std::size_t maxEvents) {
  std::size_t fired = 0;
  while (fired < maxEvents && step()) ++fired;
  return fired;
}

}  // namespace lidc::sim
