// Deterministic discrete-event simulator. Events fire in (time, sequence)
// order; ties break by scheduling order so runs are bit-reproducible.
// Everything in LIDC — link delays, pod startup, job execution, Interest
// timeouts — is an event on one Simulator instance.
//
// Events live in a pool of reusable slots, each with a generation count;
// the heap holds 24-byte {at, seq, slot, generation} entries and a
// callback keeps small captures inline, so scheduling, firing and
// cancelling a typical event allocates nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace lidc::sim {

namespace detail {

/// The event slot pool. Shared with handles (weakly) so a handle
/// outliving its simulator cancels nothing instead of touching freed
/// memory.
class EventSlots {
 public:
  /// Stores `fn` in a free slot; returns {slot, generation}.
  template <class F>
  std::pair<std::uint32_t, std::uint32_t> arm(F&& fn) {
    std::uint32_t slot = free_head_;
    if (slot == kNoSlot) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      free_head_ = slots_[slot].next_free;
    }
    Slot& s = slots_[slot];
    // A free slot's callback is empty: construct in place, no relocation.
    std::destroy_at(&s.fn);
    std::construct_at(&s.fn, std::forward<F>(fn));
    return {slot, s.generation};
  }

  /// True while the event armed as (slot, generation) has neither fired
  /// nor been cancelled.
  [[nodiscard]] bool armed(std::uint32_t slot, std::uint32_t generation) const noexcept {
    return slot < slots_.size() && slots_[slot].generation == generation;
  }

  /// Disarms the event and returns its callback: stale handles and heap
  /// entries stop matching and the slot goes back on the free list.
  Callback release(std::uint32_t slot) noexcept {
    Slot& s = slots_[slot];
    Callback fn = std::move(s.fn);
    ++s.generation;
    s.next_free = free_head_;
    free_head_ = slot;
    return fn;
  }

  /// Disarms the event if (slot, generation) is still armed and destroys
  /// its captures (after the slot is free, so a capture's destructor may
  /// schedule or cancel other events).
  void cancel(std::uint32_t slot, std::uint32_t generation) noexcept {
    if (armed(slot, generation)) Callback dropped = release(slot);
  }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  struct Slot {
    Callback fn;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoSlot;
  };

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
};

}  // namespace detail

/// Opaque handle used to cancel a scheduled event.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not started firing, destroying its
  /// captures now. Safe to call repeatedly, and after the simulator is
  /// gone.
  void cancel() noexcept {
    if (auto slots = slots_.lock()) slots->cancel(slot_, generation_);
  }

  /// True until the event starts firing or is cancelled.
  [[nodiscard]] bool pending() const noexcept {
    auto slots = slots_.lock();
    return slots && slots->armed(slot_, generation_);
  }

 private:
  friend class Simulator;
  EventHandle(std::weak_ptr<detail::EventSlots> slots, std::uint32_t slot,
              std::uint32_t generation)
      : slots_(std::move(slots)), slot_(slot), generation_(generation) {}

  std::weak_ptr<detail::EventSlots> slots_;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class Simulator {
 public:
  /// Installs this simulator's clock as the log timestamp source (the
  /// most recently constructed simulator wins; the destructor removes
  /// it again only if still the owner).
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedules fn (any move-only `void()` callable) to run at absolute
  /// time `at` (clamped to now).
  template <class F>
  EventHandle scheduleAt(Time at, F&& fn) {
    const auto [slot, generation] = slots_->arm(std::forward<F>(fn));
    push(at < now_ ? now_ : at, slot, generation);
    return EventHandle{slots_, slot, generation};
  }

  /// Schedules fn to run after `delay`.
  template <class F>
  EventHandle scheduleAfter(Duration delay, F&& fn) {
    return scheduleAt(now_ + delay, std::forward<F>(fn));
  }

  /// Runs events until the queue drains. Returns number of events fired.
  std::size_t run();

  /// Runs events with firing time <= deadline; leaves later events queued.
  /// Advances now() to `deadline` even if the queue drains earlier.
  std::size_t runUntil(Time deadline);

  /// Runs at most `maxEvents` events.
  std::size_t runSteps(std::size_t maxEvents);

  /// Queue entries, including cancelled ones not yet popped.
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pendingEvents() const noexcept { return heap_.size(); }

 private:
  struct Entry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  static_assert(sizeof(Entry) == 24);

  void push(Time at, std::uint32_t slot, std::uint32_t generation);
  /// Removes the earliest entry.
  void popHeap();
  /// Pops and fires one event; returns false if the queue was empty.
  bool step();

  Time now_;
  std::uint64_t next_seq_ = 0;
  std::vector<Entry> heap_;
  std::shared_ptr<detail::EventSlots> slots_ = std::make_shared<detail::EventSlots>();
};

}  // namespace lidc::sim
