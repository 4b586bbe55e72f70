#include "src/sim/engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace faucets::sim {
namespace {

TEST(Engine, StartsAtZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0.0);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(2.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 3.0);
}

TEST(Engine, TiesBreakInSchedulingOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(5.0, [&, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, ScheduleAfterUsesRelativeDelay) {
  Engine e;
  double fired_at = -1.0;
  e.schedule_at(10.0, [&] {
    e.schedule_after(5.0, [&] { fired_at = e.now(); });
  });
  e.run();
  EXPECT_EQ(fired_at, 15.0);
}

TEST(Engine, PastSchedulingClampsToNow) {
  Engine e;
  double fired_at = -1.0;
  e.schedule_at(10.0, [&] {
    e.schedule_at(2.0, [&] { fired_at = e.now(); });  // in the past
  });
  e.run();
  EXPECT_EQ(fired_at, 10.0);
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  EventHandle h = e.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(h.active());
  h.cancel();
  EXPECT_FALSE(h.active());
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelAfterFireIsSafe) {
  Engine e;
  EventHandle h = e.schedule_at(1.0, [] {});
  e.run();
  h.cancel();  // no-op
  h.cancel();
}

TEST(Engine, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.active());
  h.cancel();
}

TEST(Engine, RunUntilStopsBeforeLaterEvents) {
  Engine e;
  int count = 0;
  e.schedule_at(1.0, [&] { ++count; });
  e.schedule_at(10.0, [&] { ++count; });
  const auto executed = e.run(5.0);
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(e.now(), 5.0);  // clock advanced to the horizon
  e.run();
  EXPECT_EQ(count, 2);
}

TEST(Engine, StepExecutesOneEvent) {
  Engine e;
  int count = 0;
  e.schedule_at(1.0, [&] { ++count; });
  e.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
  EXPECT_EQ(count, 2);
}

TEST(Engine, EventsMayScheduleMoreEvents) {
  Engine e;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) e.schedule_after(1.0, chain);
  };
  e.schedule_at(0.0, chain);
  e.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(e.now(), 99.0);
  EXPECT_EQ(e.executed(), 100u);
}

TEST(Engine, PendingCountsUncancelledEvents) {
  Engine e;
  e.schedule_at(1.0, [] {});
  e.schedule_at(2.0, [] {});
  EXPECT_EQ(e.pending(), 2u);
}

TEST(Engine, HandleInactiveAfterFire) {
  // Regression: a handle used to stay "active" after its event executed,
  // so a later cancel() could hit an unrelated event reusing the storage.
  Engine e;
  EventHandle h = e.schedule_at(1.0, [] {});
  EXPECT_TRUE(h.active());
  e.run();
  EXPECT_FALSE(h.active()) << "a fired event is spent; its handle must go inert";
}

TEST(Engine, StaleHandleCannotCancelRecycledSlot) {
  Engine e;
  EventHandle first = e.schedule_at(1.0, [] {});
  first.cancel();
  // The pool reuses the freed slot for the next event; the generation bump
  // must keep the old handle from touching it.
  bool fired = false;
  EventHandle second = e.schedule_at(2.0, [&] { fired = true; });
  EXPECT_EQ(e.pool_slots(), 1u) << "cancelled slot should be recycled";
  first.cancel();  // stale: must be a no-op
  EXPECT_TRUE(second.active());
  e.run();
  EXPECT_TRUE(fired);
}

TEST(Engine, StaleHandleAfterFireCannotCancelRecycledSlot) {
  Engine e;
  EventHandle first = e.schedule_at(1.0, [] {});
  e.run();
  bool fired = false;
  EventHandle second = e.schedule_at(2.0, [&] { fired = true; });
  first.cancel();  // refers to the same slot, older generation
  EXPECT_FALSE(first.active());
  EXPECT_TRUE(second.active());
  e.run();
  EXPECT_TRUE(fired);
}

TEST(Engine, CancelRemovesFromPending) {
  Engine e;
  EventHandle h = e.schedule_at(1.0, [] {});
  e.schedule_at(2.0, [] {});
  EXPECT_EQ(e.pending(), 2u);
  h.cancel();
  EXPECT_EQ(e.pending(), 1u) << "cancel removes the event eagerly";
}

TEST(Engine, CallbackMayCancelItsOwnHandle) {
  // The slot is retired before the callback runs, so self-cancel is inert.
  Engine e;
  EventHandle h;
  h = e.schedule_at(1.0, [&] { h.cancel(); });
  e.run();
  EXPECT_EQ(e.executed(), 1u);
  EXPECT_FALSE(h.active());
}

TEST(Engine, MoveOnlyCapturesWork) {
  Engine e;
  auto payload = std::make_unique<int>(7);
  int seen = 0;
  e.schedule_at(1.0, [p = std::move(payload), &seen] { seen = *p; });
  e.run();
  EXPECT_EQ(seen, 7);
}

TEST(Engine, LargeCapturesFallBackToHeapAndStillRun) {
  Engine e;
  std::array<double, 16> big{};  // 128 bytes: over the inline buffer
  big[15] = 3.5;
  double seen = 0.0;
  e.schedule_at(1.0, [big, &seen] { seen = big[15]; });
  e.run();
  EXPECT_EQ(seen, 3.5);
}

// --- event identity: the (rank, creator, cseq) stamp trace records carry --

TEST(Engine, PerEntityCreationCountersAreIndependent) {
  Engine engine;
  std::vector<Engine::ExecStamp> seen;
  const auto record = [&] { seen.push_back(engine.exec_stamp()); };
  engine.set_current_entity(2);
  engine.schedule_at(1.0, record);
  engine.set_current_entity(9);
  engine.schedule_at(1.0, record);
  engine.set_current_entity(2);
  engine.schedule_at(1.0, record);
  engine.run();
  // Same-time events fire in insertion order; each entity counts its own
  // creations from zero.
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].creator, 2u);
  EXPECT_EQ(seen[0].cseq, 0u);
  EXPECT_EQ(seen[1].creator, 9u);
  EXPECT_EQ(seen[1].cseq, 0u);
  EXPECT_EQ(seen[2].creator, 2u);
  EXPECT_EQ(seen[2].cseq, 1u);
}

TEST(Engine, ExecStampFollowsExecution) {
  Engine engine;
  engine.set_current_entity(4);
  Engine::ExecStamp first{};
  Engine::ExecStamp second{};
  engine.schedule_at(3.0, [&] {
    first = engine.exec_stamp();
    // Rank is the scheduling time: this creation happens at t = 3.
    engine.schedule_at(5.0, [&] { second = engine.exec_stamp(); });
  });
  engine.run();
  EXPECT_EQ(first.rank, 0.0);
  EXPECT_EQ(first.creator, 4u);
  EXPECT_EQ(first.cseq, 0u);
  EXPECT_EQ(second.rank, 3.0);
  EXPECT_EQ(second.creator, 4u);
  EXPECT_EQ(second.cseq, 1u);
}

TEST(Engine, TimersInheritTheSchedulersAttribution) {
  Engine engine;
  engine.set_current_entity(6);
  std::uint64_t inner_creator = Engine::kNoEntity;
  engine.schedule_at(1.0, [&] {
    // Inside entity 6's timer: creations are attributed to entity 6.
    engine.schedule_at(2.0, [&] { inner_creator = engine.exec_stamp().creator; });
  });
  engine.set_current_entity(Engine::kNoEntity);
  engine.run();
  EXPECT_EQ(inner_creator, 6u);
}

}  // namespace
}  // namespace faucets::sim
