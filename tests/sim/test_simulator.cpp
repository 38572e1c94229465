#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <utility>
#include <vector>

namespace lidc::sim {
namespace {

TEST(DurationTest, UnitConversions) {
  EXPECT_EQ(Duration::millis(1).toNanos(), 1'000'000);
  EXPECT_DOUBLE_EQ(Duration::seconds(2.5).toSeconds(), 2.5);
  EXPECT_DOUBLE_EQ(Duration::minutes(2).toSeconds(), 120.0);
  EXPECT_DOUBLE_EQ(Duration::hours(1).toSeconds(), 3600.0);
  EXPECT_DOUBLE_EQ(Duration::micros(1500).toMillis(), 1.5);
}

TEST(DurationTest, ArithmeticAndOrdering) {
  EXPECT_EQ(Duration::millis(3) + Duration::millis(4), Duration::millis(7));
  EXPECT_EQ(Duration::seconds(1) - Duration::millis(250), Duration::millis(750));
  EXPECT_LT(Duration::millis(1), Duration::seconds(1));
  EXPECT_EQ(Duration::millis(10) * 2.0, Duration::millis(20));
}

TEST(TimeTest, TimePlusDuration) {
  const Time t = Time::fromNanos(1000) + Duration::nanos(500);
  EXPECT_EQ(t.toNanos(), 1500);
  EXPECT_EQ(t - Time::fromNanos(1000), Duration::nanos(500));
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.scheduleAfter(Duration::millis(30), [&] { order.push_back(3); });
  sim.scheduleAfter(Duration::millis(10), [&] { order.push_back(1); });
  sim.scheduleAfter(Duration::millis(20), [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, TiesBreakByScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.scheduleAfter(Duration::millis(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, NowAdvancesToEventTime) {
  Simulator sim;
  Time observed;
  sim.scheduleAfter(Duration::seconds(2), [&] { observed = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(observed.toSeconds(), 2.0);
}

TEST(SimulatorTest, NestedSchedulingWorks) {
  Simulator sim;
  int fired = 0;
  sim.scheduleAfter(Duration::millis(1), [&] {
    ++fired;
    sim.scheduleAfter(Duration::millis(1), [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  auto handle = sim.scheduleAfter(Duration::millis(5), [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelAfterFiringIsHarmless) {
  Simulator sim;
  auto handle = sim.scheduleAfter(Duration::millis(1), [] {});
  sim.run();
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // no-op
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.scheduleAfter(Duration::millis(10), [&] { ++fired; });
  sim.scheduleAfter(Duration::millis(30), [&] { ++fired; });
  const auto count =
      sim.runUntil(Time::fromNanos(Duration::millis(20).toNanos()));
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(fired, 1);
  // Clock advanced exactly to the deadline.
  EXPECT_EQ(sim.now().toNanos(), Duration::millis(20).toNanos());
  // The rest still runs later.
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunStepsLimitsEventCount) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    sim.scheduleAfter(Duration::millis(i), [&] { ++fired; });
  }
  EXPECT_EQ(sim.runSteps(4), 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(sim.pendingEvents(), 6u);
}

TEST(SimulatorTest, SchedulingInThePastClampsToNow) {
  Simulator sim;
  sim.scheduleAfter(Duration::millis(10), [] {});
  sim.run();
  bool fired = false;
  sim.scheduleAt(Time::fromNanos(0), [&] {
    fired = true;
  });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_GE(sim.now().toNanos(), Duration::millis(10).toNanos());
}

TEST(SimulatorTest, RunUntilWithCancelledHeadRespectsDeadline) {
  // Regression: a cancelled event before the deadline must not let a
  // live event *after* the deadline execute.
  Simulator sim;
  auto cancelled = sim.scheduleAfter(Duration::millis(10), [] {});
  bool lateFired = false;
  sim.scheduleAfter(Duration::seconds(100), [&] { lateFired = true; });
  cancelled.cancel();
  sim.runUntil(Time::fromNanos(Duration::seconds(1).toNanos()));
  EXPECT_FALSE(lateFired);
  EXPECT_EQ(sim.now().toNanos(), Duration::seconds(1).toNanos());
}

TEST(SimulatorTest, EmptyAfterRun) {
  Simulator sim;
  sim.scheduleAfter(Duration::millis(1), [] {});
  EXPECT_FALSE(sim.empty());
  sim.run();
  EXPECT_TRUE(sim.empty());
}

TEST(SimulatorTest, StaleHandleCannotTouchTheEventReusingItsSlot) {
  Simulator sim;
  auto cancelled = sim.scheduleAfter(Duration::millis(1), [] {});
  cancelled.cancel();
  // The pool has one free slot, so this event reuses it.
  bool fired = false;
  auto reused = sim.scheduleAfter(Duration::millis(2), [&] { fired = true; });
  EXPECT_FALSE(cancelled.pending());
  cancelled.cancel();
  EXPECT_TRUE(reused.pending());
  sim.run();
  EXPECT_TRUE(fired);

  // Same after firing: the fired event's handle goes stale.
  auto next = sim.scheduleAfter(Duration::millis(1), [] {});
  EXPECT_FALSE(reused.pending());
  reused.cancel();
  EXPECT_TRUE(next.pending());
  EXPECT_EQ(sim.run(), 1u);
}

TEST(SimulatorTest, HandleOutlivingTheSimulatorIsInert) {
  EventHandle handle;
  {
    Simulator sim;
    handle = sim.scheduleAfter(Duration::millis(1), [] {});
    EXPECT_TRUE(handle.pending());
  }
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // no-op, no access to the destroyed pool
  EXPECT_FALSE(EventHandle{}.pending());
}

TEST(SimulatorTest, MoveOnlyCapturesAreAccepted) {
  Simulator sim;
  int seen = 0;
  auto value = std::make_unique<int>(7);
  sim.scheduleAfter(Duration::millis(1), [value = std::move(value), &seen] { seen = *value; });
  sim.run();
  EXPECT_EQ(seen, 7);
}

TEST(SimulatorTest, CancelDestroysCapturesImmediately) {
  Simulator sim;
  auto token = std::make_shared<int>(0);
  std::array<std::uint8_t, 2 * Callback::kInlineBytes> bulk{};  // forces a boxed callback
  auto small = sim.scheduleAfter(Duration::millis(1), [token] {});
  auto boxed = sim.scheduleAfter(Duration::millis(1), [token, bulk] { (void)bulk; });
  EXPECT_EQ(token.use_count(), 3);
  small.cancel();
  EXPECT_EQ(token.use_count(), 2);
  boxed.cancel();
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(sim.run(), 0u);
}

TEST(SimulatorTest, EventIsNotPendingOnceItStartsFiring) {
  Simulator sim;
  EventHandle handle;
  bool pendingInside = true;
  handle = sim.scheduleAfter(Duration::millis(1), [&] {
    pendingInside = handle.pending();
    handle.cancel();  // too late: a no-op
  });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_FALSE(pendingInside);
}

TEST(SimulatorTest, RandomScheduleCancelRunMatchesOrderedModel) {
  // Reference model: live events keyed by (time, scheduling sequence),
  // which is exactly the order the simulator promises.
  std::mt19937_64 rng(20261017);
  Simulator sim;
  std::multimap<std::pair<std::int64_t, std::uint64_t>, int> model;
  std::vector<std::pair<EventHandle, std::pair<std::int64_t, std::uint64_t>>> handles;
  std::vector<int> fired;
  std::vector<int> expected;
  std::uint64_t seq = 0;
  std::int64_t now = 0;
  int nextId = 0;

  for (int op = 0; op < 10'000; ++op) {
    const auto kind = rng() % 10;
    if (kind < 6) {
      // Up to 5 ms in the past (clamped to now) to 50 ms ahead.
      const std::int64_t at = now + static_cast<std::int64_t>(rng() % 55'000'000) - 5'000'000;
      const std::pair<std::int64_t, std::uint64_t> key{std::max(at, now), seq++};
      const int id = nextId++;
      EventHandle handle;
      if (rng() % 4 == 0) {
        std::array<std::uint8_t, 2 * Callback::kInlineBytes> bulk{};
        handle = sim.scheduleAt(Time::fromNanos(at),
                                [&fired, id, bulk] { fired.push_back(id + bulk[0]); });
      } else {
        handle = sim.scheduleAt(Time::fromNanos(at), [&fired, id] { fired.push_back(id); });
      }
      model.emplace(key, id);
      handles.emplace_back(std::move(handle), key);
    } else if (kind < 8 && !handles.empty()) {
      const std::size_t pick = rng() % handles.size();
      auto& [handle, key] = handles[pick];
      const bool live = model.count(key) > 0;
      ASSERT_EQ(handle.pending(), live);
      handle.cancel();
      model.erase(key);
      ASSERT_FALSE(handle.pending());
    } else {
      const std::size_t steps = rng() % 8;
      ASSERT_EQ(sim.runSteps(steps), std::min(steps, model.size()));
      for (std::size_t i = 0; i < steps && !model.empty(); ++i) {
        now = model.begin()->first.first;
        expected.push_back(model.begin()->second);
        model.erase(model.begin());
      }
      ASSERT_EQ(sim.now().toNanos(), now);
    }
  }
  sim.run();
  for (const auto& [key, id] : model) expected.push_back(id);
  EXPECT_EQ(fired, expected);
  EXPECT_GT(fired.size(), 1000u);
}

}  // namespace
}  // namespace lidc::sim
