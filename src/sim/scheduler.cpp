#include "sim/scheduler.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "obs/metrics.h"

namespace snake::sim {

namespace {

// Ascending (at, seq) — the execution order the wheel must realize.
bool entry_less(const Scheduler::HeapEntry& a, const Scheduler::HeapEntry& b) {
  return b > a;
}

}  // namespace

const char* to_string(WatchdogTrip trip) {
  switch (trip) {
    case WatchdogTrip::kNone: return "none";
    case WatchdogTrip::kEventBudget: return "event-budget";
    case WatchdogTrip::kWallClock: return "wall-clock";
  }
  return "?";
}

// --- Ready queue -----------------------------------------------------------

void Scheduler::queue_push(const HeapEntry& entry) {
  ++queued_;
  wheel_insert(entry);
}

const Scheduler::HeapEntry* Scheduler::queue_front() {
  if (ready_pos_ >= ready_.size() && !wheel_refill()) return nullptr;
  return &ready_[ready_pos_];
}

void Scheduler::queue_pop_front() {
  --queued_;
  ++ready_pos_;  // queue_front() established ready_[ready_pos_]
}

void Scheduler::queue_clear() {
  ready_.clear();
  ready_pos_ = 0;
  far_.clear();
  for (int level = 0; level < kWheelLevels; ++level) {
    for (std::size_t word = 0; word < kWheelSlots / 64; ++word) {
      std::uint64_t bits = occupancy_[level][word];
      while (bits != 0) {
        int bit = std::countr_zero(bits);
        bits &= bits - 1;
        buckets_[level][(word << 6) + static_cast<std::size_t>(bit)].clear();
      }
      occupancy_[level][word] = 0;
    }
  }
  cur_tick_ = 0;
  queued_ = 0;
}

template <typename Fn>
void Scheduler::for_each_queued(Fn&& fn) const {
  for (std::size_t i = ready_pos_; i < ready_.size(); ++i) fn(ready_[i]);
  for (int level = 0; level < kWheelLevels; ++level) {
    for (std::size_t word = 0; word < kWheelSlots / 64; ++word) {
      std::uint64_t bits = occupancy_[level][word];
      while (bits != 0) {
        int bit = std::countr_zero(bits);
        bits &= bits - 1;
        for (const HeapEntry& e : buckets_[level][(word << 6) + static_cast<std::size_t>(bit)])
          fn(e);
      }
    }
  }
  for (const HeapEntry& e : far_) fn(e);
}

void Scheduler::wheel_insert(const HeapEntry& entry) {
  std::uint64_t t = tick_of(entry.at);
  if (t <= cur_tick_) {
    ready_insert(entry);
    return;
  }
  // Highest byte in which t differs from the cursor picks the level; since
  // all bytes above it match the cursor and that byte is strictly greater
  // (t > cur_tick_), the bucket index is strictly ahead of the cursor's byte
  // at that level — buckets never wrap.
  std::uint64_t x = t ^ cur_tick_;
  int level = (63 - std::countl_zero(x)) >> 3;
  if (level >= kWheelLevels) {
    far_.push_back(entry);
    return;
  }
  std::size_t idx = (t >> (8 * level)) & (kWheelSlots - 1);
  buckets_[level][idx].push_back(entry);
  occupancy_[level][idx >> 6] |= 1ULL << (idx & 63);
}

void Scheduler::ready_insert(const HeapEntry& entry) {
  // Sorted insert into the undrained tail. The tail only holds the rest of
  // the current L0 span (a couple hundred microseconds of events), so the
  // upper_bound plus memmove touch a handful of 24-byte records; a callback
  // scheduling at the far end of the span still appends in O(1).
  auto it = std::upper_bound(ready_.begin() + static_cast<std::ptrdiff_t>(ready_pos_),
                             ready_.end(), entry, entry_less);
  ready_.insert(it, entry);
}

bool Scheduler::wheel_refill() {
  ready_.clear();  // caller guarantees the previous run was fully drained
  ready_pos_ = 0;
  for (;;) {
    // Drain every occupied level-0 bucket ahead of the cursor into ready_ in
    // one pass and advance the cursor to the end of the span. Every level>=1
    // entry differs from the cursor in a higher byte, so the whole L0 span is
    // the global minimum prefix of the queue — sorting the batch by (at, seq)
    // realizes exactly the order a tick-at-a-time drain would have. Batching
    // matters: trial workloads average one event per ~100 ticks, so a
    // tick-at-a-time refill pays a full scan per pop.
    int idx = scan_occupancy(0, (cur_tick_ & (kWheelSlots - 1)) + 1);
    while (idx >= 0) {
      std::vector<HeapEntry>& bucket = buckets_[0][static_cast<std::size_t>(idx)];
      occupancy_[0][idx >> 6] &= ~(1ULL << (idx & 63));
      ready_.insert(ready_.end(), bucket.begin(), bucket.end());
      bucket.clear();
      idx = scan_occupancy(0, static_cast<std::size_t>(idx) + 1);
    }
    // The span is now fully in ready_; parking the cursor on its last tick
    // routes same-span schedules from draining callbacks into ready_ (sorted
    // insert) instead of behind the cursor where they would be missed.
    cur_tick_ |= kWheelSlots - 1;
    if (!ready_.empty()) {
      std::sort(ready_.begin(), ready_.end(), entry_less);
      return true;
    }
    bool advanced = false;
    for (int level = 1; level < kWheelLevels; ++level) {
      std::size_t from = ((cur_tick_ >> (8 * level)) & (kWheelSlots - 1)) + 1;
      int i = scan_occupancy(level, from);
      if (i >= 0) {
        wheel_cascade(level, static_cast<std::size_t>(i));
        advanced = true;
        break;
      }
    }
    if (advanced) continue;  // re-scan L0: the cascade refined one span
    if (!far_.empty()) {
      wheel_reanchor_to_far();
      continue;
    }
    return false;  // queue genuinely empty
  }
}

void Scheduler::wheel_cascade(int level, std::size_t idx) {
  // Advance the cursor to the span start of this bucket (bytes above `level`
  // unchanged, byte `level` = idx, lower bytes zero) and re-place its
  // entries one level of resolution finer. Entries landing exactly on the
  // span start drop straight into ready_. The entries are copied out, not
  // swapped out, so every bucket keeps its own capacity: a swap would hand
  // buckets each other's storage and make later inserts reallocate.
  std::vector<HeapEntry>& bucket = buckets_[level][idx];
  cascade_scratch_.assign(bucket.begin(), bucket.end());
  bucket.clear();
  occupancy_[level][idx >> 6] &= ~(1ULL << (idx & 63));
  std::uint64_t above_mask = ~((1ULL << (8 * (level + 1))) - 1);
  cur_tick_ = (cur_tick_ & above_mask) |
              (static_cast<std::uint64_t>(idx) << (8 * level));
  for (const HeapEntry& e : cascade_scratch_) wheel_insert(e);
  cascade_scratch_.clear();
}

void Scheduler::wheel_reanchor_to_far() {
  // Only reached with every wheel level empty, so re-anchoring the cursor to
  // the earliest far entry cannot strand anything behind it.
  std::uint64_t min_tick = tick_of(far_.front().at);
  for (const HeapEntry& e : far_) min_tick = std::min(min_tick, tick_of(e.at));
  cur_tick_ = min_tick;
  cascade_scratch_.assign(far_.begin(), far_.end());
  far_.clear();
  for (const HeapEntry& e : cascade_scratch_) wheel_insert(e);
  cascade_scratch_.clear();
}

int Scheduler::scan_occupancy(int level, std::size_t from) const {
  if (from >= kWheelSlots) return -1;
  std::size_t word = from >> 6;
  std::uint64_t bits = occupancy_[level][word] & (~0ULL << (from & 63));
  for (;;) {
    if (bits != 0)
      return static_cast<int>((word << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
    if (++word >= kWheelSlots / 64) return -1;
    bits = occupancy_[level][word];
  }
}

// --- Scheduling ------------------------------------------------------------

Timer Scheduler::do_schedule(TimePoint at, SmallFunction fn, EventClass cls) {
  if (at < now_) at = now_;
  std::uint32_t slot = acquire_slot();
  EventSlot& event = slots_[slot];
  event.fn = std::move(fn);
  event.at = at;
  event.stamp = next_stamp_++;
  event.armed = true;
  event.lazy = cls == EventClass::kLazy;
  if (!event.lazy && at <= horizon_) ++active_in_horizon_;
  queue_push(HeapEntry{at, next_seq_++, slot});
  return Timer(this, slot, event.generation);
}

std::uint32_t Scheduler::acquire_slot() {
  if (!free_.empty()) {
    std::uint32_t index = free_.back();
    free_.pop_back();
    return index;
  }
  slots_.emplace_back();
  // reset() refills the free list with every slot; growing it alongside the
  // slab keeps that refill from allocating.
  free_.reserve(slots_.capacity());
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Scheduler::release_slot(std::uint32_t index) {
  EventSlot& event = slots_[index];
  event.fn.reset();
  event.armed = false;
  event.stamp = 0;  // slot content no longer matches any snapshot
  ++event.generation;  // invalidates every outstanding Timer for this slot
  free_.push_back(index);
}

void Scheduler::arm_watchdog(const WatchdogConfig& config) {
  watchdog_event_limit_ =
      config.max_events == 0 ? 0 : executed_ + cancelled_ + config.max_events;
  watchdog_wall_seconds_ = config.wall_seconds;
  watchdog_wall_armed_ = config.wall_seconds > 0.0;
  if (watchdog_wall_armed_) {
    watchdog_deadline_ = std::chrono::steady_clock::now() +
                         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                             std::chrono::duration<double>(config.wall_seconds));
    watchdog_wall_countdown_ = kWallCheckInterval;
  }
  watchdog_trip_ = WatchdogTrip::kNone;
}

void Scheduler::set_quiescence_horizon(TimePoint horizon) {
  horizon_ = horizon;
  std::uint64_t count = 0;
  for_each_queued([&](const HeapEntry& e) {
    const EventSlot& slot = slots_[e.slot];
    if (slot.armed && !slot.lazy && e.at <= horizon_) ++count;
  });
  active_in_horizon_ = count;
}

// --- Execution -------------------------------------------------------------

void Scheduler::fire_or_discard(const HeapEntry& entry) {
  now_ = entry.at;
  EventSlot& event = slots_[entry.slot];
  if (event.armed) {
    if (!event.lazy && entry.at <= horizon_) --active_in_horizon_;
    // Move the callback out and recycle the slot *before* invoking, so the
    // callback observes its own timer as !pending() and may immediately
    // reuse the slot for a rescheduled event (the retransmit pattern).
    SmallFunction fn = std::move(event.fn);
    release_slot(entry.slot);
    ++executed_;
    fn();
  } else {
    // timer_cancel already settled the quiescence count.
    ++cancelled_;
    release_slot(entry.slot);
  }
}

template <bool Quiescent>
bool Scheduler::run_until_impl(TimePoint until) {
  bool cut = false;
  const HeapEntry* front = nullptr;
  while ((front = queue_front()) != nullptr) {
    // Watchdog gate: a tripped run stays stopped (so nested run_until calls
    // from callbacks unwind too) until re-armed or reset.
    if (watchdog_trip_ != WatchdogTrip::kNone) return false;
    if (watchdog_event_limit_ != 0 && executed_ + cancelled_ >= watchdog_event_limit_) {
      watchdog_trip_ = WatchdogTrip::kEventBudget;
      ++watchdog_trips_total_;
      return false;
    }
    if (watchdog_wall_armed_ && --watchdog_wall_countdown_ == 0) {
      watchdog_wall_countdown_ = kWallCheckInterval;
      if (std::chrono::steady_clock::now() >= watchdog_deadline_) {
        watchdog_trip_ = WatchdogTrip::kWallClock;
        ++watchdog_trips_total_;
        return false;
      }
    }
    if constexpr (Quiescent) {
      if (active_in_horizon_ == 0) {
        cut = !(front->at > until);  // did the cut skip in-horizon entries?
        break;
      }
    }
    if (front->at > until) break;
    HeapEntry entry = *front;
    queue_pop_front();
    fire_or_discard(entry);
  }
  // Advance the clock to the horizon so "run for N seconds" works even when
  // the queue drains early — but not when draining completely (run_all).
  if (until != TimePoint::max() && now_ < until) now_ = until;
  return cut;
}

void Scheduler::run_until(TimePoint until) { run_until_impl<false>(until); }

bool Scheduler::run_until_quiescent(TimePoint until) {
  return run_until_impl<true>(until);
}

void Scheduler::run_all() { run_until(TimePoint::max()); }

std::uint64_t Scheduler::run_events(std::uint64_t count) {
  // Same gate order and pop mechanics as run_until, but bounded by pop count
  // instead of a time horizon: the snapshot layer replays a verified prefix
  // of a deterministic run and must stop on an exact event boundary.
  std::uint64_t popped = 0;
  const HeapEntry* front = nullptr;
  while (popped < count && (front = queue_front()) != nullptr) {
    if (watchdog_trip_ != WatchdogTrip::kNone) break;
    if (watchdog_event_limit_ != 0 && executed_ + cancelled_ >= watchdog_event_limit_) {
      watchdog_trip_ = WatchdogTrip::kEventBudget;
      ++watchdog_trips_total_;
      break;
    }
    if (watchdog_wall_armed_ && --watchdog_wall_countdown_ == 0) {
      watchdog_wall_countdown_ = kWallCheckInterval;
      if (std::chrono::steady_clock::now() >= watchdog_deadline_) {
        watchdog_trip_ = WatchdogTrip::kWallClock;
        ++watchdog_trips_total_;
        break;
      }
    }
    HeapEntry entry = *front;
    queue_pop_front();
    fire_or_discard(entry);
    ++popped;
  }
  return popped;
}

// --- Snapshot --------------------------------------------------------------

bool Scheduler::capture(Snapshot& out) const {
  if (watchdog_trip_ != WatchdogTrip::kNone) return false;
  for (const EventSlot& slot : slots_) {
    if (slot.armed && !slot.fn.clonable()) return false;
  }
  out.slots.clear();
  out.slots.reserve(slots_.size());
  for (const EventSlot& slot : slots_) {
    Snapshot::Slot copy;
    copy.generation = slot.generation;
    copy.armed = slot.armed;
    copy.stamp = slot.stamp;
    copy.lazy = slot.lazy;
    if (slot.armed) copy.fn = slot.fn.clone();
    out.slots.push_back(std::move(copy));
  }
  out.heap.clear();
  out.heap.reserve(queued_);
  for_each_queued([&](const HeapEntry& e) { out.heap.push_back(e); });
  std::sort(out.heap.begin(), out.heap.end(), entry_less);  // canonical encoding
  out.free_slots = free_;
  out.now = now_;
  out.quiescence_horizon = horizon_;
  out.next_seq = next_seq_;
  out.executed = executed_;
  out.cancelled = cancelled_;
  out.buffers = buffers_.stats();
  out.watchdog_event_limit = watchdog_event_limit_;
  out.watchdog_wall_seconds = watchdog_wall_seconds_;
  out.watchdog_wall_armed = watchdog_wall_armed_;
  return true;
}

void Scheduler::restore(const Snapshot& snap) {
  // Shrinking the slab destroys callbacks scheduled after the capture point;
  // any Timer handle still naming a dropped slot reports !pending() via the
  // slot-bounds check.
  slots_.resize(snap.slots.size());
  for (std::size_t i = 0; i < snap.slots.size(); ++i) {
    const Snapshot::Slot& from = snap.slots[i];
    EventSlot& into = slots_[i];
    if (from.armed && into.stamp == from.stamp && into.fn) {
      // Copy-on-write: the stamp proves this slot was never fired, cancelled
      // away or re-armed since the capture, so the live callback IS the
      // captured one — keep it instead of destroy + re-clone.
    } else {
      into.fn = from.armed ? from.fn.clone() : SmallFunction();
    }
    into.stamp = from.stamp;
    into.generation = from.generation;
    into.armed = from.armed;
    into.lazy = from.lazy;
  }
  queue_clear();
  cur_tick_ = tick_of(snap.now);
  for (const HeapEntry& e : snap.heap) queue_push(e);  // ascending: appends O(1)
  for (const HeapEntry& e : snap.heap) slots_[e.slot].at = e.at;
  free_ = snap.free_slots;
  now_ = snap.now;
  next_seq_ = snap.next_seq;
  executed_ = snap.executed;
  cancelled_ = snap.cancelled;
  buffers_.set_stats(snap.buffers);
  horizon_ = snap.quiescence_horizon;
  std::uint64_t active = 0;
  for (const HeapEntry& e : snap.heap) {
    const EventSlot& slot = slots_[e.slot];
    if (slot.armed && !slot.lazy && e.at <= horizon_) ++active;
  }
  active_in_horizon_ = active;
  watchdog_event_limit_ = snap.watchdog_event_limit;
  watchdog_wall_seconds_ = snap.watchdog_wall_seconds;
  watchdog_wall_armed_ = snap.watchdog_wall_armed;
  if (watchdog_wall_armed_) {
    watchdog_deadline_ = std::chrono::steady_clock::now() +
                         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                             std::chrono::duration<double>(watchdog_wall_seconds_));
  }
  watchdog_wall_countdown_ = kWallCheckInterval;
  watchdog_trip_ = WatchdogTrip::kNone;
  watchdog_trips_total_ = 0;
}

void Scheduler::reset() {
  queue_clear();
  free_.clear();
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    EventSlot& event = slots_[i];
    event.fn.reset();  // destroys any still-pending callback
    event.armed = false;
    event.stamp = 0;
    ++event.generation;
    free_.push_back(i);
  }
  buffers_.reset_stats();
  now_ = TimePoint::origin();
  next_seq_ = 0;
  // next_stamp_ is deliberately NOT rewound: stamps stay globally unique so
  // a stale snapshot can never false-match a recycled slot (see restore()).
  executed_ = 0;
  cancelled_ = 0;
  horizon_ = TimePoint::max();
  active_in_horizon_ = 0;
  watchdog_event_limit_ = 0;
  watchdog_wall_armed_ = false;
  watchdog_wall_countdown_ = kWallCheckInterval;
  watchdog_trip_ = WatchdogTrip::kNone;
  watchdog_trips_total_ = 0;
}

void Scheduler::export_metrics(obs::MetricsRegistry& registry) const {
  registry.counter("sim.events_executed") += executed_;
  registry.counter("sim.events_cancelled") += cancelled_;
  registry.gauge_max("sim.virtual_time_seconds", now_.to_seconds());
  registry.counter("sim.buffers_acquired") += buffers_.acquired();
  registry.counter("sim.buffers_reused") += buffers_.reused();
  registry.counter("sim.buffers_released") += buffers_.released();
  registry.counter("sim.watchdog_trips") += watchdog_trips_total_;
  registry.gauge_max("sim.event_pool_slots", static_cast<double>(slots_.size()));
}

}  // namespace snake::sim
