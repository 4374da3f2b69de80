#include "sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace coopnet::sim {
namespace {

TEST(SimEngine, StartsAtZero) {
  SimEngine e;
  EXPECT_EQ(e.now(), 0.0);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(e.events_processed(), 0u);
}

TEST(SimEngine, RunsEventsInTimeOrder) {
  SimEngine e;
  std::vector<int> order;
  e.schedule(3.0, [&] { order.push_back(3); });
  e.schedule(1.0, [&] { order.push_back(1); });
  e.schedule(2.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 3.0);
  EXPECT_EQ(e.events_processed(), 3u);
}

TEST(SimEngine, TiesBreakInSchedulingOrder) {
  SimEngine e;
  std::vector<int> order;
  e.schedule(1.0, [&] { order.push_back(1); });
  e.schedule(1.0, [&] { order.push_back(2); });
  e.schedule(1.0, [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimEngine, EventsCanScheduleEvents) {
  SimEngine e;
  int fired = 0;
  e.schedule(1.0, [&] {
    ++fired;
    e.schedule(1.0, [&] { ++fired; });
  });
  e.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.now(), 2.0);
}

TEST(SimEngine, RunUntilLeavesLaterEventsQueued) {
  SimEngine e;
  int fired = 0;
  e.schedule(1.0, [&] { ++fired; });
  e.schedule(5.0, [&] { ++fired; });
  e.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), 2.0);  // clock advances to the deadline
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimEngine, StopHaltsTheLoop) {
  SimEngine e;
  int fired = 0;
  e.schedule(1.0, [&] {
    ++fired;
    e.stop();
  });
  e.schedule(2.0, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(e.stopped());
  EXPECT_EQ(e.pending(), 1u);
}

TEST(SimEngine, StopIsStickyUntilReset) {
  SimEngine e;
  e.schedule(1.0, [&] { e.stop(); });
  e.run();
  ASSERT_TRUE(e.stopped());

  // A stop raised inside an event must not be swallowed by the next run:
  // both run() and run_until() return immediately without executing events
  // or advancing the clock.
  int fired = 0;
  e.schedule(1.0, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 0);
  e.run_until(10.0);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(e.now(), 1.0);
  EXPECT_EQ(e.pending(), 1u);

  // Only an explicit reset lets the engine run again.
  e.reset_stop();
  EXPECT_FALSE(e.stopped());
  e.run_until(10.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), 10.0);
}

TEST(SimEngine, RejectsBadScheduling) {
  SimEngine e;
  EXPECT_THROW(e.schedule(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(e.schedule(1.0, SimEngine::EventFn{}), std::invalid_argument);
  e.schedule(5.0, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(1.0, [] {}), std::invalid_argument);

  // Non-finite delays and times: NaN (which compares false against
  // everything, so no range check catches it), and both infinities.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const EventTag tag{1};
  for (double bad : {nan, inf, -inf}) {
    EXPECT_THROW(e.schedule(bad, [] {}), std::invalid_argument) << bad;
    EXPECT_THROW(e.schedule_at(bad, [] {}), std::invalid_argument) << bad;
    EXPECT_THROW(e.schedule_tagged(bad, tag, [] {}), std::invalid_argument)
        << bad;
    EXPECT_THROW(e.schedule_at_tagged(bad, tag, [] {}),
                 std::invalid_argument)
        << bad;
  }
  // A finite delay whose due time overflows is just as unrunnable.
  e.set_now(std::numeric_limits<double>::max() / 2.0 * 1.5);
  EXPECT_THROW(e.schedule(std::numeric_limits<double>::max(), [] {}),
               std::invalid_argument);
  e.set_now(5.0);

  // Nothing rejected was queued, and the clock and seq are untouched.
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(e.now(), 5.0);
  EXPECT_EQ(e.next_seq(), 1u);
  e.run();
  EXPECT_EQ(e.now(), 5.0);

  // A restored entry's time comes from a checkpoint file: same rule.
  SimEngine restored;
  restored.enable_tags();
  for (double bad : {nan, inf}) {
    EXPECT_THROW(restored.restore_entry({bad, 0, tag}, [] {}),
                 std::invalid_argument)
        << bad;
  }
  EXPECT_EQ(restored.pending(), 0u);
}

TEST(SimEngine, RunUntilWithEmptyQueueAdvancesClock) {
  SimEngine e;
  e.run_until(7.0);
  EXPECT_EQ(e.now(), 7.0);
}

// A self-rescheduling chain that would run forever without supervision.
// (EventFn is move-only, so the recursion goes through a functor that
// schedules a fresh copy of itself.)
struct Ticker {
  SimEngine* e;
  void operator()() const { e->schedule(1.0, Ticker{e}); }
};

TEST(SimEngine, EventLimitStopsAfterExactlyNEvents) {
  SimEngine e;
  e.schedule(1.0, Ticker{&e});
  e.set_event_limit(5);
  e.run();
  EXPECT_EQ(e.events_processed(), 5u);
  EXPECT_TRUE(e.event_limit_hit());
  EXPECT_TRUE(e.stopped());

  // Sticky like stop(): another run() without a reset does nothing.
  e.run();
  EXPECT_EQ(e.events_processed(), 5u);

  // Raising the limit and clearing the stop resumes the same chain; the
  // new limit is again exact.
  e.set_event_limit(8);
  EXPECT_FALSE(e.event_limit_hit());
  e.reset_stop();
  e.run();
  EXPECT_EQ(e.events_processed(), 8u);
  EXPECT_TRUE(e.event_limit_hit());
}

TEST(SimEngine, GuardRunsAtItsCadenceAndCanStopTheRun) {
  SimEngine e;
  e.schedule(1.0, Ticker{&e});
  int guard_calls = 0;
  e.set_guard(3, [&] {
    if (++guard_calls == 4) e.stop();
  });
  e.run();
  // Guard fires after events 3, 6, 9, 12; the fourth call stops the run.
  EXPECT_EQ(guard_calls, 4);
  EXPECT_EQ(e.events_processed(), 12u);
  // A guard-initiated stop is a plain stop, not an event-limit hit.
  EXPECT_FALSE(e.event_limit_hit());
}

TEST(SimEngine, GuardDoesNotPerturbEventOrderOrClock) {
  // Identical schedules with and without an (inert) guard must pop in the
  // same order at the same times -- supervision must be invisible when it
  // does not fire.
  const auto run_trace = [](bool with_guard) {
    SimEngine e;
    if (with_guard) e.set_guard(2, [] {});
    std::vector<std::pair<double, int>> trace;
    for (int i = 0; i < 6; ++i) {
      // Ties at t=1.0 and t=2.0 exercise the seq tie-break.
      e.schedule(1.0 + (i % 2), [&trace, &e, i] {
        trace.emplace_back(e.now(), i);
      });
    }
    e.run();
    return trace;
  };
  EXPECT_EQ(run_trace(false), run_trace(true));
}

// --- fixed-delay lanes ------------------------------------------------------
// A delay takes a lane on its second sighting; pop order must be the plain
// (time, seq) order whatever the split between heap and lanes.

TEST(SimEngine, PendingCountsLaneEntries) {
  SimEngine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(e.pending(), 5u);
  EXPECT_EQ(e.lane_pending(), 4u);  // the first sighting went to the heap
  e.schedule_at(0.5, [&order] { order.push_back(-1); });
  EXPECT_EQ(e.pending(), 6u);
  e.run_until(0.75);
  EXPECT_EQ(e.pending(), 5u);
  EXPECT_EQ(e.lane_pending(), 4u);
  e.run();
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(e.lane_pending(), 0u);
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4}));
}

TEST(SimEngine, LaneIsReusedAfterItDrains) {
  SimEngine e;
  std::vector<double> fired;
  auto note = [&fired, &e] { fired.push_back(e.now()); };
  // Key every lane: each delay's second schedule opens one.
  for (std::size_t k = 0; k < SimEngine::kLanes; ++k) {
    e.schedule(1.0 + static_cast<double>(k), note);
    e.schedule(1.0 + static_cast<double>(k), note);
  }
  EXPECT_EQ(e.lane_pending(), SimEngine::kLanes);
  // All lanes are keyed and busy, so a further recurring delay stays in
  // the heap.
  const double extra = 0.5;
  e.schedule(extra, note);
  e.schedule(extra, note);
  EXPECT_EQ(e.lane_pending(), SimEngine::kLanes);
  e.run();
  ASSERT_EQ(fired.size(), 2 * SimEngine::kLanes + 2);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));

  // Drained lanes are re-keyed for the delay that was turned away.
  e.schedule(extra, note);
  e.schedule(extra, note);
  e.schedule(extra, note);
  EXPECT_GE(e.lane_pending(), 2u);
  e.run();
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(fired.size(), 2 * SimEngine::kLanes + 5);
}

TEST(SimEngine, RandomDelaysNeverTakeALane) {
  // Random delays never repeat bit for bit, so however many there are,
  // each is seen once and goes to the heap.
  SimEngine e;
  util::Rng rng(17);
  std::uint64_t fired = 0;
  struct Churn {
    SimEngine* e;
    util::Rng* rng;
    std::uint64_t* fired;
    void operator()() const {
      if (++*fired < 20000) e->schedule(rng->uniform(0.0, 2.0), *this);
    }
  };
  for (int i = 0; i < 1000; ++i) {
    e.schedule(rng.uniform(0.0, 2.0), Churn{&e, &rng, &fired});
  }
  std::size_t max_lane = 0;
  e.set_guard(1, [&] { max_lane = std::max(max_lane, e.lane_pending()); });
  e.run();
  EXPECT_EQ(fired, 20000u + 999u);
  EXPECT_EQ(max_lane, 0u);
  // A recurring delay still gets a lane alongside them.
  e.schedule(1.0, [] {});
  e.schedule(1.0, [] {});
  EXPECT_EQ(e.lane_pending(), 1u);
}

TEST(SimEngine, ClockSurgeryNeverMisordersALane) {
  // set_now() may move the clock backward (restore-only); an event that
  // would then sort before its lane's tail must go to the heap instead.
  SimEngine e;
  std::vector<char> order;
  e.schedule(2.0, [&order] { order.push_back('A'); });  // heap, t=2
  e.schedule(2.0, [&order] { order.push_back('B'); });  // lane, t=2
  e.run_until(1.0);
  e.schedule(2.0, [&order] { order.push_back('C'); });  // lane, t=3
  e.set_now(0.0);
  e.schedule(2.0, [&order] { order.push_back('D'); });  // t=2 < tail's 3
  EXPECT_EQ(e.lane_pending(), 2u);
  e.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'D', 'C'}));
}

// A tagged event chain whose callback is rebuilt from its tag alone, as a
// checkpoint restore rebuilds it: tag.a is the chain id, tag.n the firings
// left, tag.x the fixed delay (0 = a pseudo-random delay per firing).
struct Chain {
  SimEngine* e;
  std::vector<std::pair<std::uint32_t, double>>* log;
  EventTag tag;
  void operator()() const {
    log->emplace_back(tag.a, e->now());
    if (tag.n == 0) return;
    EventTag next = tag;
    --next.n;
    e->schedule_tagged(delay(), next, Chain{e, log, next});
  }
  double delay() const {
    if (tag.x > 0.0) return tag.x;
    // Continuous, non-repeating values in [0, 2).
    util::Rng rng(tag.a * 100003u + static_cast<std::uint64_t>(tag.n));
    return rng.uniform(0.0, 2.0);
  }
};

void start_chains(SimEngine& e,
                  std::vector<std::pair<std::uint32_t, double>>& log) {
  const double delays[] = {1.0, 0.5, 1e-6, 0.25, 0.0};
  std::uint32_t id = 1;
  // Several chains per recurring delay (ties at equal times), plus
  // random-delay chains and absolute-time events for the heap.
  for (double d : delays) {
    for (int k = 0; k < 3; ++k, ++id) {
      EventTag tag{1};
      tag.a = id;
      tag.n = d == 0.0 ? 4 : 40;
      tag.x = d;
      e.schedule_tagged(d, tag, Chain{&e, &log, tag});
    }
  }
  for (int k = 0; k < 4; ++k, ++id) {
    EventTag tag{1};
    tag.a = id;
    tag.n = 30;
    e.schedule_at_tagged(0.1 * k, tag, Chain{&e, &log, tag});
  }
}

TEST(SimEngine, SnapshotQueueIsSortedAcrossHeapAndLanes) {
  SimEngine e;
  e.enable_tags();
  std::vector<std::pair<std::uint32_t, double>> log;
  start_chains(e, log);
  e.run_until(3.3);
  ASSERT_GT(e.lane_pending(), 0u);
  ASSERT_GT(e.pending(), e.lane_pending());  // the heap holds some too
  const auto snap = e.snapshot_queue();
  ASSERT_EQ(snap.size(), e.pending());
  for (std::size_t i = 1; i < snap.size(); ++i) {
    const bool ordered =
        snap[i - 1].time < snap[i].time ||
        (snap[i - 1].time == snap[i].time && snap[i - 1].seq < snap[i].seq);
    EXPECT_TRUE(ordered) << "entries " << i - 1 << " and " << i;
  }
  // Every queued chain is due exactly once; firing order follows the
  // snapshot (each chain's next firing is its snapshot entry).
  log.clear();
  e.run();
  std::vector<std::uint32_t> first_fire;
  for (const auto& [id, t] : log) {
    if (std::find(first_fire.begin(), first_fire.end(), id) ==
        first_fire.end()) {
      first_fire.push_back(id);
    }
  }
  ASSERT_EQ(first_fire.size(), snap.size());
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(first_fire[i], snap[i].tag.a) << "position " << i;
  }
}

TEST(SimEngine, RestoredEngineContinuesInTheUninterruptedOrder) {
  using Log = std::vector<std::pair<std::uint32_t, double>>;
  Log whole;
  SimEngine uninterrupted;
  uninterrupted.enable_tags();
  start_chains(uninterrupted, whole);
  uninterrupted.run();

  for (double cut : {0.0, 1e-6, 0.5, 2.75, 7.0}) {
    Log log;
    SimEngine first;
    first.enable_tags();
    start_chains(first, log);
    first.run_until(cut);

    // Rebuild the queue in a fresh engine from the snapshot's tags.
    SimEngine second;
    second.enable_tags();
    second.set_now(first.now());
    for (const auto& entry : first.snapshot_queue()) {
      second.restore_entry(entry, Chain{&second, &log, entry.tag});
    }
    second.set_next_seq(first.next_seq());
    second.set_processed(first.events_processed());
    EXPECT_EQ(second.pending(), first.pending());
    EXPECT_EQ(second.lane_pending(), 0u);  // restored entries are heap-only
    second.run();
    EXPECT_EQ(log, whole) << "cut at " << cut;
    EXPECT_EQ(second.events_processed(), uninterrupted.events_processed());
    EXPECT_EQ(second.now(), uninterrupted.now());
  }
}

}  // namespace
}  // namespace coopnet::sim
