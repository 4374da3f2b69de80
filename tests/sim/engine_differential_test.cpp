// Differential test: the heap-and-lanes engine (sim/engine.h) against
// the seed std::priority_queue model (sim/reference_engine.h), driven
// side-by-side through randomized schedule/schedule_at/run/run_until/stop/
// reset_stop sequences. The engines must agree on everything observable:
// pop order (via a shared label log), the clock, pending counts, and
// events_processed -- including same-time ties, events scheduled from
// inside events, stop() raised mid-run, and self-rescheduling chains on
// recurring delays (the traffic the engine's FIFO lanes carry) mixed with
// random delays that must stay in the heap.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "sim/reference_engine.h"
#include "util/rng.h"

namespace coopnet::sim {
namespace {

// One operation of the randomized schedule; both engines replay the same
// tape so their callback side effects are structurally identical.
struct Op {
  enum class Kind {
    kSchedule,     // relative delay
    kScheduleAt,   // absolute time (>= now at execution)
    kNested,       // event that schedules two more events when it fires
    kStopper,      // event that calls stop() when it fires
    kRun,          // run()
    kRunUntil,     // run_until(deadline)
    kResetStop,    // reset_stop()
    kChain,        // event that reschedules itself `count` more times
  };
  Kind kind;
  double a = 0.0;  // delay / absolute offset / deadline; chain: its delay
                   // (negative: a fresh pseudo-random delay per step)
  double b = 0.0;  // nested: inner delays
  int count = 0;   // chain: reschedules left
  int label = 0;
};

// One link of a kChain: logs, then reschedules a copy of itself with one
// fewer step left. The step's delay is a function of (label, left) only,
// so both engines see the same delays.
template <typename Engine>
struct ChainStep {
  Engine* engine;
  const std::function<void(const std::string&)>* note;
  int label;
  double delay;
  int left;

  void operator()() const {
    (*note)("chain " + std::to_string(label) + " left " +
            std::to_string(left));
    if (left == 0) return;
    engine->schedule(step_delay(), ChainStep{engine, note, label, delay,
                                             left - 1});
  }
  double step_delay() const {
    if (delay >= 0.0) return delay;
    util::Rng rng(static_cast<std::uint64_t>(label) * 1009u +
                  static_cast<std::uint64_t>(left));
    return rng.uniform(0.0, 3.0);
  }
};

std::vector<Op> random_tape(std::uint64_t seed, std::size_t n_ops) {
  util::Rng rng(seed);
  std::vector<Op> tape;
  tape.reserve(n_ops);
  int label = 0;
  for (std::size_t i = 0; i < n_ops; ++i) {
    Op op;
    const std::uint64_t k = rng.uniform_u64(16);
    if (k < 6) {
      op.kind = Op::Kind::kSchedule;
      // Coarse quantization forces plenty of exact same-time ties.
      op.a = static_cast<double>(rng.uniform_u64(8));
    } else if (k < 8) {
      op.kind = Op::Kind::kScheduleAt;
      op.a = static_cast<double>(rng.uniform_u64(12));
    } else if (k < 10) {
      op.kind = Op::Kind::kNested;
      op.a = static_cast<double>(rng.uniform_u64(6));
      op.b = static_cast<double>(rng.uniform_u64(4));
    } else if (k < 11) {
      op.kind = Op::Kind::kStopper;
      op.a = static_cast<double>(rng.uniform_u64(6));
    } else if (k < 13) {
      op.kind = Op::Kind::kRun;
    } else if (k < 15) {
      op.kind = Op::Kind::kRunUntil;
      op.a = static_cast<double>(rng.uniform_u64(20));
    } else {
      op.kind = Op::Kind::kResetStop;
    }
    op.label = label++;
    tape.push_back(op);
  }
  return tape;
}

// Lane-shaped tapes: chains on a few recurring delays (1e-6 refills,
// 0.5 s and 1 s ticks, zero-delay cascades) interleaved with continuous
// random delays, quantized same-time ties, absolute times, chunked
// run_until windows, and stop/reset.
std::vector<Op> lane_tape(std::uint64_t seed, std::size_t n_ops) {
  static constexpr double kRecurring[] = {1.0, 0.5, 1e-6, 0.25, 0.0, 3.0};
  util::Rng rng(seed);
  std::vector<Op> tape;
  tape.reserve(n_ops);
  int label = 0;
  for (std::size_t i = 0; i < n_ops; ++i) {
    Op op;
    const std::uint64_t k = rng.uniform_u64(20);
    if (k < 6) {
      op.kind = Op::Kind::kChain;
      op.a = kRecurring[rng.uniform_u64(6)];
      op.count = static_cast<int>(rng.uniform_u64(30));
    } else if (k < 8) {
      op.kind = Op::Kind::kChain;
      op.a = -1.0;
      op.count = static_cast<int>(rng.uniform_u64(20));
    } else if (k < 10) {
      op.kind = Op::Kind::kSchedule;
      op.a = rng.uniform(0.0, 5.0);  // continuous: never recurs
    } else if (k < 12) {
      op.kind = Op::Kind::kSchedule;
      op.a = static_cast<double>(rng.uniform_u64(4));  // ties with chains
    } else if (k < 13) {
      op.kind = Op::Kind::kScheduleAt;
      op.a = static_cast<double>(rng.uniform_u64(12));
    } else if (k < 14) {
      op.kind = Op::Kind::kNested;
      op.a = 0.5 * static_cast<double>(rng.uniform_u64(4));
      op.b = 1.0;
    } else if (k < 15) {
      op.kind = Op::Kind::kStopper;
      op.a = static_cast<double>(rng.uniform_u64(6));
    } else if (k < 18) {
      op.kind = Op::Kind::kRunUntil;
      op.a = rng.uniform(0.0, 4.0);
    } else if (k < 19) {
      op.kind = Op::Kind::kRun;
    } else {
      op.kind = Op::Kind::kResetStop;
    }
    op.label = label++;
    tape.push_back(op);
  }
  return tape;
}

// Replays the tape against any engine with the SimEngine interface,
// recording fired-event labels, clocks, and counters into a transcript.
template <typename Engine>
std::vector<std::string> replay(const std::vector<Op>& tape) {
  Engine engine;
  std::vector<std::string> transcript;
  std::function<void(const std::string&)> note =
      [&transcript, &engine](const std::string& what) {
    transcript.push_back(what + " now=" + std::to_string(engine.now()) +
                         " pending=" + std::to_string(engine.pending()) +
                         " processed=" +
                         std::to_string(engine.events_processed()) +
                         (engine.stopped() ? " stopped" : ""));
  };
  for (const Op& op : tape) {
    const std::string tag = std::to_string(op.label);
    switch (op.kind) {
      case Op::Kind::kSchedule:
        engine.schedule(op.a, [&note, tag] { note("fire " + tag); });
        break;
      case Op::Kind::kScheduleAt:
        engine.schedule_at(engine.now() + op.a,
                           [&note, tag] { note("fire " + tag); });
        break;
      case Op::Kind::kNested: {
        const double inner = op.b;
        engine.schedule(op.a, [&note, &engine, tag, inner] {
          note("fire " + tag);
          engine.schedule(inner, [&note, tag] { note("inner1 " + tag); });
          engine.schedule(inner + 1.0,
                          [&note, tag] { note("inner2 " + tag); });
        });
        break;
      }
      case Op::Kind::kStopper:
        engine.schedule(op.a, [&note, &engine, tag] {
          note("stop " + tag);
          engine.stop();
        });
        break;
      case Op::Kind::kRun:
        engine.run();
        note("ran");
        break;
      case Op::Kind::kRunUntil:
        engine.run_until(engine.now() + op.a);
        note("ran-until");
        break;
      case Op::Kind::kResetStop:
        engine.reset_stop();
        break;
      case Op::Kind::kChain: {
        const ChainStep<Engine> first{&engine, &note, op.label, op.a,
                                      op.count};
        engine.schedule(first.step_delay(), first);
        break;
      }
    }
  }
  engine.reset_stop();
  engine.run();
  note("drained");
  return transcript;
}

TEST(EngineDifferential, RandomTapesMatchReferenceModel) {
  // ~10k operations across seeds; every transcript line must match, which
  // pins pop order, tie-breaks, clock movement, and the counters.
  constexpr std::size_t kSeeds = 20;
  constexpr std::size_t kOpsPerSeed = 500;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto tape = random_tape(seed, kOpsPerSeed);
    const auto optimized = replay<SimEngine>(tape);
    const auto reference = replay<ReferenceEngine>(tape);
    ASSERT_EQ(optimized.size(), reference.size()) << "seed " << seed;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(optimized[i], reference[i])
          << "seed " << seed << " transcript line " << i;
    }
  }
}

TEST(EngineDifferential, LaneTapesMatchReferenceModel) {
  // Recurring-delay chains (lane traffic) against random delays, ties,
  // absolute times, run_until windows and stop/reset.
  constexpr std::size_t kSeeds = 20;
  constexpr std::size_t kOpsPerSeed = 400;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto tape = lane_tape(seed, kOpsPerSeed);
    const auto optimized = replay<SimEngine>(tape);
    const auto reference = replay<ReferenceEngine>(tape);
    ASSERT_EQ(optimized.size(), reference.size()) << "seed " << seed;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(optimized[i], reference[i])
          << "seed " << seed << " transcript line " << i;
    }
  }
}

TEST(EngineDifferential, ManyRecurringDelaysOutnumberTheLanes) {
  // More recurring delays than lanes, all live at once: lanes are keyed,
  // drained and re-keyed while the overflow rides in the heap.
  auto chains = [](auto&& engine) {
    std::vector<std::pair<int, double>> fired;
    struct Step {
      std::decay_t<decltype(engine)>* e;
      std::vector<std::pair<int, double>>* fired;
      int id;
      int left;
      void operator()() const {
        fired->push_back({id, e->now()});
        if (left > 0) {
          e->schedule(0.125 * (id % 13 + 1), Step{e, fired, id, left - 1});
        }
      }
    };
    for (int id = 0; id < 40; ++id) {
      engine.schedule(0.125 * (id % 13 + 1), Step{&engine, &fired, id,
                                                  20 + id % 7});
    }
    for (double t = 0.3; t < 40.0; t += 0.7) engine.run_until(t);
    engine.run();
    return fired;
  };
  SimEngine optimized;
  ReferenceEngine reference;
  EXPECT_EQ(chains(optimized), chains(reference));
  EXPECT_EQ(optimized.events_processed(), reference.events_processed());
}

TEST(EngineDifferential, DenseTieStorm) {
  // All events at one timestamp: order must be pure scheduling order, in
  // both engines, even when events keep piling onto the same instant.
  auto storm = [](auto&& engine) {
    std::vector<int> order;
    for (int i = 0; i < 100; ++i) {
      engine.schedule(1.0, [&order, &engine, i] {
        order.push_back(i);
        if (i < 50) {
          engine.schedule(0.0, [&order, i] { order.push_back(1000 + i); });
        }
      });
    }
    engine.run();
    return order;
  };
  SimEngine optimized;
  ReferenceEngine reference;
  EXPECT_EQ(storm(optimized), storm(reference));
}

TEST(EngineDifferential, InterleavedRunUntilWindows) {
  auto windows = [](auto&& engine) {
    std::vector<std::pair<int, double>> fired;
    util::Rng rng(99);
    for (int i = 0; i < 200; ++i) {
      engine.schedule_at(static_cast<double>(rng.uniform_u64(50)),
                         [&fired, &engine, i] {
                           fired.push_back({i, engine.now()});
                         });
    }
    for (double t = 5.0; t <= 60.0; t += 5.0) {
      engine.run_until(t);
      fired.push_back({-1, engine.now()});
    }
    return fired;
  };
  SimEngine optimized;
  ReferenceEngine reference;
  EXPECT_EQ(windows(optimized), windows(reference));
}

}  // namespace
}  // namespace coopnet::sim
