// The seed event engine, preserved verbatim as a differential oracle.
//
// This is the pre-optimization SimEngine: a std::priority_queue of
// heap-allocating std::function events. It is deliberately NOT used by the
// simulator -- sim/engine.h's indexed 4-ary heap replaced it -- but it
// stays in the tree as the executable specification of the scheduler's
// semantics:
//
//   * tests/sim/engine_differential_test.cpp drives both engines through
//     identical randomized schedule/run/stop sequences and asserts
//     identical pop order, clocks, and counters;
//   * bench/micro_engine runs the same workloads against both and reports
//     the optimized/reference throughput ratio in BENCH_engine.json, so
//     the speedup claim is measured by one binary on one machine.
//
// Any behavioural change to SimEngine must either reproduce here or be an
// intentional, documented semantics change in both.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/types.h"

namespace coopnet::sim {

/// The seed discrete-event engine (binary heap over (time, seq) keys,
/// std::function callbacks). Same public surface as SimEngine.
class ReferenceEngine {
 public:
  using EventFn = std::function<void()>;

  Seconds now() const { return now_; }

  void schedule(Seconds delay, EventFn fn) {
    if (delay < 0.0) {
      throw std::invalid_argument("ReferenceEngine: negative delay");
    }
    schedule_at(now_ + delay, std::move(fn));
  }

  void schedule_at(Seconds at, EventFn fn) {
    if (!std::isfinite(at)) {
      throw std::invalid_argument("ReferenceEngine: non-finite event time");
    }
    if (at < now_) {
      throw std::invalid_argument("ReferenceEngine: scheduling into the past");
    }
    if (!fn) throw std::invalid_argument("ReferenceEngine: empty event");
    queue_.push(Event{at, next_seq_++, std::move(fn)});
  }

  void run() {
    while (!queue_.empty() && !stopped_) {
      // Copy out before pop: the callback may schedule new events.
      Event ev = queue_.top();
      queue_.pop();
      now_ = ev.time;
      ++processed_;
      ev.fn();
    }
  }

  void run_until(Seconds deadline) {
    while (!queue_.empty() && !stopped_ && queue_.top().time <= deadline) {
      Event ev = queue_.top();
      queue_.pop();
      now_ = ev.time;
      ++processed_;
      ev.fn();
    }
    if (!stopped_ && now_ < deadline) now_ = deadline;
  }

  void stop() { stopped_ = true; }
  void reset_stop() { stopped_ = false; }
  bool stopped() const { return stopped_; }
  std::size_t pending() const { return queue_.size(); }
  std::uint64_t events_processed() const { return processed_; }

 private:
  struct Event {
    Seconds time;
    std::uint64_t seq;
    EventFn fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  bool stopped_ = false;
};

}  // namespace coopnet::sim
