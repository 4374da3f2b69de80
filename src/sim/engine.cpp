#include "sim/engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace coopnet::sim {

namespace {
/// Tag written for untagged schedules while tags are enabled: kind 0
/// poisons a later snapshot_queue() with an actionable error instead of
/// silently checkpointing an event that cannot be rebuilt.
const EventTag kUntagged{};

/// An empty lane's head: later than every real (finite) entry.
constexpr Seconds kNoTime = std::numeric_limits<Seconds>::infinity();
constexpr std::uint64_t kNoSeq = std::numeric_limits<std::uint64_t>::max();

/// Initial ring capacity of a lane (a power of two, like every later one).
constexpr std::size_t kLaneInitialCapacity = 16;
}  // namespace

SimEngine::SimEngine() {
  lane_head_time_.fill(kNoTime);
  lane_head_seq_.fill(kNoSeq);
  lane_key_.fill(kNoKey);
  seen_.fill(kNoKey);
}

// The per-event helpers from here to pop_from are `inline` so that -O2
// builds fold them into schedule*() and the run loops instead of calling
// them once per event.
inline void SimEngine::check_schedule(Seconds at,
                                      const EventFn& fn) const {
  // A NaN or infinite time would freeze the clock at a value no later
  // event can follow (and a NaN delay would key a lane).
  if (!std::isfinite(at)) {
    throw std::invalid_argument("SimEngine: non-finite event time");
  }
  if (at < now_) {
    throw std::invalid_argument("SimEngine: scheduling into the past");
  }
  if (!fn) throw std::invalid_argument("SimEngine: empty event");
}

void SimEngine::schedule(Seconds delay, EventFn fn) {
  if (delay < 0.0) throw std::invalid_argument("SimEngine: negative delay");
  const Seconds at = now_ + delay;
  check_schedule(at, fn);
  push_delayed(at, delay, store(std::move(fn), kUntagged));
}

void SimEngine::schedule_at(Seconds at, EventFn fn) {
  check_schedule(at, fn);
  heap_push(at, next_seq_++, store(std::move(fn), kUntagged));
}

void SimEngine::schedule_tagged(Seconds delay, const EventTag& tag,
                                EventFn fn) {
  if (delay < 0.0) throw std::invalid_argument("SimEngine: negative delay");
  const Seconds at = now_ + delay;
  check_schedule(at, fn);
  if (tags_enabled_ && tag.kind == 0) {
    throw std::invalid_argument("SimEngine: tagged schedule with kind 0");
  }
  push_delayed(at, delay, store(std::move(fn), tag));
}

void SimEngine::schedule_at_tagged(Seconds at, const EventTag& tag,
                                   EventFn fn) {
  check_schedule(at, fn);
  if (tags_enabled_ && tag.kind == 0) {
    throw std::invalid_argument("SimEngine: tagged schedule with kind 0");
  }
  heap_push(at, next_seq_++, store(std::move(fn), tag));
}

inline std::uint32_t SimEngine::store(EventFn&& fn, const EventTag& tag) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    pool_[slot] = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(std::move(fn));
  }
  if (tags_enabled_) {
    // Every push overwrites the slot's tag (untagged pushes with the
    // poison kind-0 tag), so a reused slot can never leak a stale tag
    // into a snapshot.
    if (slot >= tags_.size()) tags_.resize(pool_.size());
    tags_[slot] = tag;
  }
  return slot;
}

inline void SimEngine::push_delayed(Seconds at, Seconds delay,
                                    std::uint32_t slot) {
  const std::uint64_t seq = next_seq_++;
  const std::size_t lane = lane_for(std::bit_cast<std::uint64_t>(delay));
  if (lane == kLanes || !lane_push(lane, at, seq, slot)) {
    heap_push(at, seq, slot);
  }
}

inline std::size_t SimEngine::lane_for(std::uint64_t bits) {
  for (std::size_t i = 0; i < lanes_open_; ++i) {
    if (lane_key_[i] == bits) return i;
  }
  // Top six bits of a Fibonacci hash index the 64-slot memory.
  const std::size_t h = (bits * 0x9E3779B97F4A7C15ull) >> 58;
  if (seen_[h] != bits) {
    seen_[h] = bits;
    return kLanes;
  }
  if (lanes_open_ < kLanes) {
    lane_key_[lanes_open_] = bits;
    return lanes_open_++;
  }
  // Every lane is keyed: re-key a drained one, if any.
  for (std::size_t i = 0; i < kLanes; ++i) {
    if (lane_head_seq_[i] == kNoSeq) {
      lane_key_[i] = bits;
      return i;
    }
  }
  return kLanes;
}

inline bool SimEngine::lane_push(std::size_t lane_index, Seconds at,
                                 std::uint64_t seq, std::uint32_t slot) {
  Lane& lane = lanes_[lane_index];
  if (lane.count == 0) {
    if (lane.ring.empty()) lane.ring.resize(kLaneInitialCapacity);
    lane.head = 0;
    lane_head_time_[lane_index] = at;
    lane_head_seq_[lane_index] = seq;
  } else {
    // Sorted by construction for a fixed delay; checked anyway, so that
    // restore-time clock or seq surgery can only divert an event to the
    // heap, never misorder a lane.
    const LaneEntry& tail =
        lane.ring[(lane.head + lane.count - 1) & (lane.ring.size() - 1)];
    if (at < tail.time || (at == tail.time && seq <= tail.seq)) return false;
    if (lane.count == lane.ring.size()) {
      std::vector<LaneEntry> grown(2 * lane.ring.size());
      for (std::size_t k = 0; k < lane.count; ++k) {
        grown[k] = lane.ring[(lane.head + k) & (lane.ring.size() - 1)];
      }
      lane.ring = std::move(grown);
      lane.head = 0;
    }
  }
  lane.ring[(lane.head + lane.count) & (lane.ring.size() - 1)] =
      LaneEntry{at, seq, slot};
  ++lane.count;
  ++lane_pending_;
  return true;
}

inline void SimEngine::heap_push(Seconds at, std::uint64_t seq,
                                 std::uint32_t slot) {
  const Meta m{seq, slot};
  // Grow both halves, then sift the new entry up from the first free leaf.
  times_.push_back(at);
  meta_.push_back(m);
  sift_up(times_.size() - 1, at, m);
}

inline std::size_t SimEngine::next_source() const {
  std::size_t best = kLanes;
  Seconds best_time = kNoTime;
  std::uint64_t best_seq = kNoSeq;
  if (times_.size() > kRoot) {
    best_time = times_[kRoot];
    best_seq = meta_[kRoot].seq;
  }
  for (std::size_t i = 0; i < lanes_open_; ++i) {
    const Seconds t = lane_head_time_[i];
    if (t < best_time || (t == best_time && lane_head_seq_[i] < best_seq)) {
      best = i;
      best_time = t;
      best_seq = lane_head_seq_[i];
    }
  }
  return best;
}

inline SimEngine::EventFn SimEngine::pop_from(std::size_t source,
                                              Seconds& top_time) {
  std::uint32_t slot;
  if (source == kLanes) {
    top_time = times_[kRoot];
    slot = meta_[kRoot].slot;
    // Staged prefetch: the popped callback was written at schedule time,
    // typically megabytes of event traffic ago. Request its pool line now
    // so it travels while the sift-down runs, then (once that line is
    // here) request any spilled capture block before the caller invokes.
    __builtin_prefetch(&pool_[slot]);
    const Seconds last_time = times_.back();
    const Meta last_meta = meta_.back();
    times_.pop_back();
    meta_.pop_back();
    if (times_.size() > kRoot) sift_down_from_root(last_time, last_meta);
  } else {
    Lane& lane = lanes_[source];
    const LaneEntry& e = lane.ring[lane.head];
    top_time = e.time;
    slot = e.slot;
    __builtin_prefetch(&pool_[slot]);
    lane.head = (lane.head + 1) & (lane.ring.size() - 1);
    --lane_pending_;
    if (--lane.count == 0) {
      lane_head_time_[source] = kNoTime;
      lane_head_seq_[source] = kNoSeq;
    } else {
      const LaneEntry& next = lane.ring[lane.head];
      lane_head_time_[source] = next.time;
      lane_head_seq_[source] = next.seq;
    }
  }
  pool_[slot].prefetch_target();
  EventFn fn = std::move(pool_[slot]);
  free_slots_.push_back(slot);
  return fn;
}

void SimEngine::sift_up(std::size_t i, Seconds time, Meta m) {
  while (i > kRoot) {
    const std::size_t parent = i / 4 + 2;
    const Seconds pt = times_[parent];
    if (pt < time || (pt == time && meta_[parent].seq < m.seq)) break;
    times_[i] = pt;
    meta_[i] = meta_[parent];
    i = parent;
  }
  times_[i] = time;
  meta_[i] = m;
}

void SimEngine::sift_down_from_root(Seconds time, Meta m) {
  const std::size_t n = times_.size();
  std::size_t i = kRoot;
  for (;;) {
    const std::size_t first = 4 * i - 8;
    if (first >= n) break;
    // Min of up to four sibling keys -- one aligned 32-byte span of times_.
    std::size_t best = first;
    Seconds bt = times_[first];
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      const Seconds ct = times_[c];
      if (ct < bt || (ct == bt && meta_[c].seq < meta_[best].seq)) {
        best = c;
        bt = ct;
      }
    }
    if (time < bt || (time == bt && m.seq < meta_[best].seq)) break;
    times_[i] = bt;
    meta_[i] = meta_[best];
    i = best;
  }
  times_[i] = time;
  meta_[i] = m;
}

void SimEngine::set_event_limit(std::uint64_t limit) {
  event_limit_ = limit;
  limit_hit_ = false;
  supervised_ = event_limit_ != 0 || guard_every_ != 0;
}

void SimEngine::set_guard(std::uint64_t every, std::function<void()> fn) {
  if (every == 0 || !fn) {
    guard_every_ = 0;
    guard_fn_ = nullptr;
  } else {
    guard_every_ = every;
    guard_fn_ = std::move(fn);
  }
  guard_tick_ = 0;
  supervised_ = event_limit_ != 0 || guard_every_ != 0;
}

void SimEngine::after_event() {
  if (event_limit_ != 0 && processed_ >= event_limit_) {
    limit_hit_ = true;
    stopped_ = true;  // sticky, like stop(): later runs stay cancelled
    return;
  }
  if (guard_every_ != 0 && ++guard_tick_ >= guard_every_) {
    guard_tick_ = 0;
    guard_fn_();
  }
}

void SimEngine::enable_tags() {
  if (tags_enabled_) return;
  if (pending() != 0) {
    throw std::logic_error(
        "SimEngine::enable_tags: events are already queued; tags for "
        "them cannot be reconstructed, so checkpointing must be enabled "
        "before any scheduling");
  }
  tags_.assign(pool_.size(), EventTag{});
  tags_enabled_ = true;
}

std::vector<SimEngine::QueueEntry> SimEngine::snapshot_queue() const {
  if (!tags_enabled_) {
    throw std::logic_error(
        "SimEngine::snapshot_queue: tags were never enabled");
  }
  std::vector<QueueEntry> entries;
  entries.reserve(pending());
  auto add = [this, &entries](Seconds time, std::uint64_t seq,
                              std::uint32_t slot) {
    const EventTag& tag = tags_[slot];
    if (tag.kind == 0) {
      throw std::logic_error(
          "SimEngine::snapshot_queue: queued event seq " +
          std::to_string(seq) + " at t=" + std::to_string(time) +
          " was scheduled without a tag and cannot be rebuilt on "
          "restore");
    }
    entries.push_back(QueueEntry{time, seq, tag});
  };
  for (std::size_t i = kRoot; i < times_.size(); ++i) {
    add(times_[i], meta_[i].seq, meta_[i].slot);
  }
  for (const Lane& lane : lanes_) {
    for (std::size_t k = 0; k < lane.count; ++k) {
      const LaneEntry& e = lane.ring[(lane.head + k) & (lane.ring.size() - 1)];
      add(e.time, e.seq, e.slot);
    }
  }
  // Heap layout and the lane split depend on insertion history, which
  // chunked runs and restores may vary; (time, seq) order is the
  // canonical, history-free form every equivalent run serializes
  // identically.
  std::sort(entries.begin(), entries.end(),
            [](const QueueEntry& a, const QueueEntry& b) {
              return a.time < b.time ||
                     (a.time == b.time && a.seq < b.seq);
            });
  return entries;
}

void SimEngine::restore_entry(const QueueEntry& entry, EventFn fn) {
  if (!tags_enabled_) {
    throw std::logic_error(
        "SimEngine::restore_entry: tags must be enabled before restore");
  }
  if (!fn) throw std::invalid_argument("SimEngine: empty restored event");
  if (entry.tag.kind == 0) {
    throw std::invalid_argument(
        "SimEngine::restore_entry: kind-0 tag");
  }
  if (!std::isfinite(entry.time)) {
    throw std::invalid_argument(
        "SimEngine::restore_entry: non-finite event time");
  }
  // The ORIGINAL seq, not next_seq_: a restored entry must sort exactly
  // where it did in the snapshotted run.
  heap_push(entry.time, entry.seq, store(std::move(fn), entry.tag));
}

void SimEngine::run() {
  while (pending() > 0 && !stopped_) {
    Seconds at;
    // The slot is freed inside pop_from before the call: the callback may
    // schedule new events (growing the pool), so it runs from this local.
    EventFn fn = pop_from(next_source(), at);
    now_ = at;
    ++processed_;
    fn();
    if (supervised_) after_event();
  }
}

void SimEngine::run_until(Seconds deadline) {
  while (pending() > 0 && !stopped_) {
    const std::size_t source = next_source();
    if (!(head_time(source) <= deadline)) break;
    Seconds at;
    EventFn fn = pop_from(source, at);
    now_ = at;
    ++processed_;
    fn();
    if (supervised_) after_event();
  }
  if (!stopped_ && now_ < deadline) now_ = deadline;
}

}  // namespace coopnet::sim
