#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

namespace streamha {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.runAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, TieBreaksByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(10, [&order, i] { order.push_back(i); });
  }
  sim.runAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventHandle handle = sim.schedule(10, [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  sim.runAll();
  EXPECT_FALSE(fired);
}

TEST(Simulator, HandleNotPendingAfterFiring) {
  Simulator sim;
  EventHandle handle = sim.schedule(5, [] {});
  sim.runAll();
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // No-op, must be safe.
}

TEST(Simulator, DefaultHandleIsInert) {
  EventHandle handle;
  EXPECT_FALSE(handle.pending());
  handle.cancel();
}

TEST(Simulator, RunUntilStopsAndAdvancesTime) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&] { ++fired; });
  sim.schedule(100, [&] { ++fired; });
  sim.runUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);
  sim.runUntil(200);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 200);
}

TEST(Simulator, NestedSchedulingFromCallback) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.schedule(10, [&] {
    times.push_back(sim.now());
    sim.schedule(5, [&] { times.push_back(sim.now()); });
  });
  sim.runAll();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(Simulator, ScheduleAtAbsoluteTime) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.scheduleAt(42, [&] { fired_at = sim.now(); });
  sim.runAll();
  EXPECT_EQ(fired_at, 42);
}

TEST(Simulator, StepExecutesOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1, [&] { ++fired; });
  sim.schedule(2, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, FiredEventCountSkipsCancelled) {
  Simulator sim;
  auto h = sim.schedule(1, [] {});
  sim.schedule(2, [] {});
  h.cancel();
  sim.runAll();
  EXPECT_EQ(sim.firedEvents(), 1u);
}

TEST(Simulator, SlotReuseDoesNotResurrectOldHandles) {
  Simulator sim;
  bool a_fired = false;
  bool b_fired = false;
  EventHandle a = sim.schedule(1, [&] { a_fired = true; });
  sim.runAll();
  // B reuses A's pooled slot; A's handle must stay dead and must not be able
  // to cancel B.
  EventHandle b = sim.schedule(1, [&] { b_fired = true; });
  EXPECT_FALSE(a.pending());
  EXPECT_TRUE(b.pending());
  a.cancel();
  EXPECT_TRUE(b.pending());
  sim.runAll();
  EXPECT_TRUE(a_fired);
  EXPECT_TRUE(b_fired);
}

TEST(Simulator, HandleSafeAfterSimulatorDestroyed) {
  EventHandle handle;
  {
    Simulator sim;
    handle = sim.schedule(10, [] {});
    EXPECT_TRUE(handle.pending());
  }
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // Must not crash or touch freed memory.
}

TEST(Simulator, HandleNotPendingDuringOwnCallback) {
  Simulator sim;
  EventHandle handle;
  bool pending_inside = true;
  handle = sim.schedule(5, [&] { pending_inside = handle.pending(); });
  sim.runAll();
  EXPECT_FALSE(pending_inside);
}

TEST(Simulator, CancelFromAnotherCallback) {
  Simulator sim;
  bool fired = false;
  EventHandle victim = sim.schedule(20, [&] { fired = true; });
  sim.schedule(10, [&] { victim.cancel(); });
  sim.runAll();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.firedEvents(), 1u);
}

TEST(Simulator, SteadyStateReusesOneSlot) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    sim.schedule(1, [&] { ++fired; });
    sim.runAll();
  }
  EXPECT_EQ(fired, 1000);
  EXPECT_EQ(sim.slotCapacity(), 1u);
}

TEST(Simulator, CancelDestroysClosurePromptly) {
  Simulator sim;
  auto token = std::make_shared<int>(7);
  EventHandle handle = sim.schedule(1000, [token] {});
  EXPECT_EQ(token.use_count(), 2);
  handle.cancel();
  // The capture must be released at cancel time, not when the dead queue
  // entry is eventually popped.
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Simulator, LargeClosureFiresViaHeapFallback) {
  Simulator sim;
  std::array<std::uint64_t, 32> payload{};  // > EventFn::kInlineBytes.
  payload[0] = 11;
  payload[31] = 42;
  std::uint64_t sum = 0;
  sim.schedule(1, [payload, &sum] { sum = payload[0] + payload[31]; });
  sim.runAll();
  EXPECT_EQ(sum, 53u);
}

TEST(Simulator, RunUntilDoesNotFirePastHorizonAcrossCancelled) {
  Simulator sim;
  bool far_fired = false;
  EventHandle near = sim.schedule(10, [] {});
  sim.schedule(100, [&] { far_fired = true; });
  near.cancel();
  sim.runUntil(50);
  EXPECT_FALSE(far_fired);
  EXPECT_EQ(sim.now(), 50);
}

TEST(Simulator, ZeroDelayRunsAtCurrentTime) {
  Simulator sim;
  sim.schedule(10, [] {});
  sim.runAll();
  bool fired = false;
  sim.schedule(0, [&] { fired = true; });
  sim.runAll();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), 10);
}

}  // namespace
}  // namespace streamha
