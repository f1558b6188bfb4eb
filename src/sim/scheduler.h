// Discrete-event scheduler — the heart of the network emulator substrate.
//
// The paper runs SNAKE scenarios inside NS-3; this scheduler plays NS-3's
// role. Events execute in strict (time, insertion-order) order, which makes
// every scenario bit-for-bit reproducible for a given seed. Timers are
// cancellable handles so protocol endpoints can manage retransmission and
// delayed-ACK timers naturally.
//
// Memory model: events live in a slab of pooled slots recycled through a
// free list, callbacks are stored in place (util::SmallFunction), and the
// ready queue is a hierarchical timing wheel of plain {time, seq, slot}
// records — the common schedule/fire/cancel cycle allocates nothing once
// the slab and wheel buckets are warm, and costs O(1) instead of a binary
// heap's O(log n). The property tests replay random scripts against a small
// (time, seq) reference model kept on the test side (see DESIGN.md, "Event
// engine"). The scheduler also owns the scenario's packet BufferPool so
// every component on the data path (links, nodes, transport stacks) can
// recycle wire buffers without a second ownership channel. reset() rewinds
// the scheduler to its initial state while keeping slab and buffer
// capacity, which is what lets a campaign executor's ScenarioArena reuse
// one scheduler across thousands of strategy trials.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/pool.h"
#include "util/time.h"

namespace snake::obs {
class MetricsRegistry;
}

namespace snake::sim {

class Scheduler;

/// How an event relates to a trial's observable outcome. kActive (the
/// default) marks events that can emit packets or otherwise change what a
/// scenario measures. kLazy marks pure bookkeeping whose effects are
/// invisible to detection when skipped at the end of a trial — today that is
/// exactly the TIME_WAIT expiry timers, which release a socket without
/// sending anything. The deterministic early-exit cut (see
/// run_until_quiescent) stops a run once no armed kActive event remains at
/// or before the horizon; misclassifying an effectful event as kLazy would
/// break the early-exit-on == early-exit-off equality the campaign tests
/// enforce, so when in doubt an event is kActive.
enum class EventClass : std::uint8_t { kActive, kLazy };

/// Trial watchdog limits for one run_until episode. A runaway scenario (event
/// storm, virtual clock that stops advancing while callbacks burn wall time)
/// is cut off instead of hanging its executor; the campaign layer records the
/// trial as aborted and moves on.
struct WatchdogConfig {
  /// Abort after this many events (executed + cancelled) since arming.
  /// 0 = no event budget.
  std::uint64_t max_events = 0;
  /// Abort once this much wall-clock time has elapsed since arming, checked
  /// every kWallCheckInterval events so the hot loop never pays a clock read
  /// per event. 0 = no wall deadline.
  double wall_seconds = 0.0;
};

/// Why (whether) the armed watchdog stopped a run.
enum class WatchdogTrip : std::uint8_t { kNone, kEventBudget, kWallClock };

const char* to_string(WatchdogTrip trip);

/// Cancellable handle to a scheduled event. Copies share the same underlying
/// event; cancelling any copy cancels the event. Default-constructed handles
/// are inert. A handle refers to its slot by (index, generation), so handles
/// that outlive their event — or whose slot was recycled for a newer event —
/// safely report !pending(). Handles must not outlive the scheduler itself
/// (endpoints and apps are always torn down or reset before it).
class Timer {
 public:
  Timer() = default;

  inline void cancel();
  inline bool pending() const;

 private:
  friend class Scheduler;
  Timer(Scheduler* scheduler, std::uint32_t slot, std::uint32_t generation)
      : scheduler_(scheduler), slot_(slot), generation_(generation) {}

  Scheduler* scheduler_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class Scheduler {
 public:
  TimePoint now() const { return now_; }

  /// Schedules `fn` at absolute time `at` (clamped to now if in the past).
  template <typename F>
  Timer schedule_at(TimePoint at, F&& fn) {
    return do_schedule(at, SmallFunction(std::forward<F>(fn)), EventClass::kActive);
  }

  /// Schedules `fn` after `delay` of virtual time.
  template <typename F>
  Timer schedule_in(Duration delay, F&& fn) {
    return do_schedule(now_ + delay, SmallFunction(std::forward<F>(fn)),
                       EventClass::kActive);
  }

  /// Schedules a kLazy event (see EventClass): bookkeeping that a
  /// deterministic early-exit may leave unfired without changing any
  /// detector-visible outcome.
  template <typename F>
  Timer schedule_lazy_in(Duration delay, F&& fn) {
    return do_schedule(now_ + delay, SmallFunction(std::forward<F>(fn)),
                       EventClass::kLazy);
  }

  /// Runs events until the queue is empty, virtual time would pass `until`,
  /// or the armed watchdog trips (see arm_watchdog).
  void run_until(TimePoint until);

  /// Like run_until, but additionally stops as soon as the world is
  /// quiescent: no armed kActive event remains at or before the quiescence
  /// horizon (set_quiescence_horizon, normally the trial end). Nothing that
  /// could move a packet or change measured state can fire between the cut
  /// and the horizon, so stopping here is observationally equivalent to
  /// running out the clock — except that still-pending kLazy events (TIME_WAIT
  /// expiries) never fire. Returns true when the cut actually skipped queued
  /// in-horizon events (the run "exited early"), false when the run ended the
  /// way run_until would have. Virtual time still advances to `until` on a
  /// quiescent stop, so clock-derived metrics match the full run.
  bool run_until_quiescent(TimePoint until);

  /// Runs until the event queue drains completely.
  void run_all();

  /// Pops exactly `count` queue entries (executed or cancelled both count)
  /// with no time horizon, stopping early only if the queue drains or the
  /// watchdog trips. Returns the number of entries actually popped. The
  /// clock is left at the last popped event's time — never advanced past it
  /// — so the scheduler sits exactly on an event boundary, which is what the
  /// snapshot layer needs to checkpoint between two events of a
  /// deterministic run.
  std::uint64_t run_events(std::uint64_t count);

  /// Sets the quiescence horizon used by run_until_quiescent and recomputes
  /// the armed-active-event count for it (O(queue)). The count is maintained
  /// incrementally afterwards; it is a pure function of the event history,
  /// so the early-exit cut point is deterministic and identical between a
  /// from-zero run and a snapshot-forked run (restore() carries the horizon).
  void set_quiescence_horizon(TimePoint horizon);
  /// Armed kActive events with time <= the quiescence horizon.
  std::uint64_t active_events_in_horizon() const { return active_in_horizon_; }

  /// Arms (or, with a default-constructed config, disarms) the watchdog for
  /// subsequent run_until work. Budgets count from the moment of arming; any
  /// previous trip is cleared. Disarmed costs the hot loop two predictable
  /// branches per event.
  void arm_watchdog(const WatchdogConfig& config);

  /// Why the last run_until stopped early (kNone when it ran to its horizon).
  /// Once tripped, further run_until calls return immediately until the
  /// watchdog is re-armed or the scheduler reset.
  WatchdogTrip watchdog_trip() const { return watchdog_trip_; }

  /// How often (in events) the wall-clock deadline is polled.
  static constexpr std::uint32_t kWallCheckInterval = 64;

  bool empty() const { return queued_ == 0; }
  std::uint64_t events_executed() const { return executed_; }
  /// Events popped whose timer had been cancelled before they fired.
  std::uint64_t events_cancelled() const { return cancelled_; }

  /// The scenario-wide recycled packet-buffer pool. Links, nodes and
  /// transport stacks acquire wire buffers here and release them at the
  /// point a packet dies (delivery or drop).
  BufferPool& buffer_pool() { return buffers_; }

  /// The scenario-wide pool for the bytes transports hold between packets:
  /// TCP send-queue blocks (util/byte_queue.h), out-of-order segments
  /// waiting for a hole to fill, and queued DCCP datagrams. Kept apart from
  /// buffer_pool() so the wire-buffer counters count packets only.
  BufferPool& queue_pool() { return queue_buffers_; }

  /// Event-slot slab size / current free-list depth (pool observability).
  std::size_t event_pool_slots() const { return slots_.size(); }
  std::size_t event_pool_free() const { return free_.size(); }

  /// Rewinds to a just-constructed state — pending events destroyed, clock
  /// at origin, counters zeroed — while keeping the event slab and buffer
  /// pool capacity warm. Outstanding Timer handles become inert.
  void reset();

  /// Queue record: 24 bytes, trivially copyable, no ownership. Public only
  /// so Snapshot can embed the pending-event set.
  struct HeapEntry {
    TimePoint at;
    std::uint64_t seq;
    std::uint32_t slot;
    bool operator>(const HeapEntry& o) const {
      if (at != o.at) return at > o.at;
      return seq > o.seq;
    }
  };

  /// Deep-frozen scheduler state captured between two events. A Snapshot
  /// preserves slot indices and generations bit-for-bit, so Timer handles
  /// captured alongside it (inside endpoint/app state) remain valid against
  /// the restored slot table. Armed callbacks are stored as clones and are
  /// re-cloned on every restore, so one Snapshot can seed many forked runs.
  /// Move-only (SmallFunction is move-only).
  ///
  /// The pending-event set (`heap`) is stored sorted by (at, seq) — the
  /// canonical encoding, independent of where the wheel happened to hold
  /// each entry. restore() re-places the entries in ascending order, which
  /// appends each one in O(1).
  struct Snapshot {
    struct Slot {
      SmallFunction fn;  ///< clone of the armed callback; empty when !armed
      std::uint64_t stamp = 0;  ///< schedule id of the armed event (see EventSlot)
      std::uint32_t generation = 0;
      bool armed = false;
      bool lazy = false;
    };
    std::vector<Slot> slots;
    std::vector<HeapEntry> heap;  ///< pending entries, sorted by (at, seq)
    std::vector<std::uint32_t> free_slots;
    TimePoint now = TimePoint::origin();
    TimePoint quiescence_horizon = TimePoint::max();
    std::uint64_t next_seq = 0;
    std::uint64_t executed = 0;
    std::uint64_t cancelled = 0;
    BufferPool::Stats buffers;  ///< pool counters; the free list is not state
    std::uint64_t watchdog_event_limit = 0;
    double watchdog_wall_seconds = 0.0;  ///< wall deadline is re-armed fresh
    bool watchdog_wall_armed = false;
  };

  /// Captures the full scheduler state into `out`. Returns false (leaving
  /// `out` unspecified) when the state cannot be checkpointed: the watchdog
  /// has tripped, or some armed callback holds a non-copyable capture.
  bool capture(Snapshot& out) const;

  /// Restores state captured by capture(). The wall-clock watchdog deadline
  /// is re-armed relative to the current wall time (virtual state is exact;
  /// wall budgets are per-episode by design). Timer handles referring to
  /// slots beyond the snapshot's slab safely report !pending() afterwards.
  ///
  /// Copy-on-write fast path: a slot whose stamp still matches the
  /// snapshot's holds the very callback that was captured (stamps are unique
  /// per schedule call and zeroed on slot release, so a match proves the
  /// slot was never fired, released or re-armed since the capture) — the
  /// callback is kept in place instead of destroyed and re-cloned. Repeated
  /// restores of a mostly-idle world touch only the slots that changed.
  void restore(const Snapshot& snap);

  /// Dumps scheduler counters (events executed/cancelled, virtual time
  /// advanced, pool activity) into the registry under the "sim." prefix.
  void export_metrics(obs::MetricsRegistry& registry) const;

 private:
  friend class Timer;

  /// One pooled event. `generation` increments on every release, so stale
  /// Timer handles (and queue entries, though those can't outlive the slot
  /// in practice) never touch a recycled event. `stamp` is the globally
  /// unique id of the schedule call that armed this slot (never reused, not
  /// rewound by restore) — the snapshot layer's proof that a slot is
  /// unchanged since a capture. `at`/`lazy` duplicate the queue entry so
  /// cancellation can maintain the quiescence count without a queue lookup.
  struct EventSlot {
    SmallFunction fn;
    TimePoint at = TimePoint::origin();
    std::uint64_t stamp = 0;
    std::uint32_t generation = 0;
    bool armed = false;
    bool lazy = false;
  };

  Timer do_schedule(TimePoint at, SmallFunction fn, EventClass cls);
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);

  bool timer_pending(std::uint32_t slot, std::uint32_t generation) const {
    return slot < slots_.size() && slots_[slot].generation == generation &&
           slots_[slot].armed;
  }
  void timer_cancel(std::uint32_t slot, std::uint32_t generation) {
    if (!timer_pending(slot, generation)) return;
    EventSlot& event = slots_[slot];
    event.armed = false;
    if (!event.lazy && event.at <= horizon_) --active_in_horizon_;
  }

  // --- Ready queue ----------------------------------------------------------
  // The wheel places an entry by the highest byte in which its tick differs
  // from cur_tick_ (the wheel cursor): level = that byte's index, bucket =
  // the entry's tick byte at that level. Because the entry's higher bytes
  // equal the cursor's and its level byte is strictly greater, every bucket
  // insertion lands strictly ahead of the cursor at its level — buckets
  // never wrap, and a forward bitmap scan per level is a complete search for
  // the next pending tick. Entries due at or before the cursor go straight
  // into `ready_`, kept sorted by (at, seq); entries differing above the top
  // level (≈19 h ahead, e.g. TimePoint::max() sentinels) wait in `far_`
  // until the wheels drain and the cursor re-anchors. See DESIGN.md, "Event
  // engine".
  static constexpr int kTickShift = 14;   ///< 2^14 ns ≈ 16 µs per tick
  static constexpr int kWheelLevels = 4;  ///< 256^4 ticks ≈ 19 h coverage
  static constexpr std::size_t kWheelSlots = 256;  ///< buckets per level

  static std::uint64_t tick_of(TimePoint at) {
    return static_cast<std::uint64_t>(at.ns()) >> kTickShift;
  }

  void queue_push(const HeapEntry& entry);
  /// The earliest pending entry, or nullptr when the queue is empty. Wheel:
  /// refills ready_ from the buckets as needed (amortized O(1)).
  const HeapEntry* queue_front();
  void queue_pop_front();
  void queue_clear();
  /// Visits every pending entry in unspecified order.
  template <typename Fn>
  void for_each_queued(Fn&& fn) const;

  void wheel_insert(const HeapEntry& entry);
  void ready_insert(const HeapEntry& entry);
  bool wheel_refill();
  void wheel_cascade(int level, std::size_t idx);
  void wheel_reanchor_to_far();
  int scan_occupancy(int level, std::size_t from) const;

  void fire_or_discard(const HeapEntry& entry);
  template <bool Quiescent>
  bool run_until_impl(TimePoint until);

  std::uint64_t queued_ = 0;  ///< entries pending across ready/buckets/far

  std::vector<HeapEntry> ready_;  ///< due entries, sorted by (at, seq)
  std::size_t ready_pos_ = 0;     ///< drain cursor into ready_
  std::uint64_t cur_tick_ = 0;    ///< wheel cursor (tick units)
  std::array<std::array<std::vector<HeapEntry>, kWheelSlots>, kWheelLevels> buckets_;
  std::uint64_t occupancy_[kWheelLevels][kWheelSlots / 64] = {};
  std::vector<HeapEntry> far_;  ///< beyond wheel coverage; re-placed on drain
  std::vector<HeapEntry> cascade_scratch_;  ///< reused by cascade/re-anchor

  std::vector<EventSlot> slots_;
  std::vector<std::uint32_t> free_;
  BufferPool buffers_;
  BufferPool queue_buffers_;
  TimePoint now_ = TimePoint::origin();
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_stamp_ = 1;  ///< 0 is "never scheduled"; never rewound
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;

  // Quiescence tracking for deterministic early-exit: armed kActive events
  // with time <= horizon_. Maintained on schedule/fire/cancel; recomputed by
  // set_quiescence_horizon and restore().
  TimePoint horizon_ = TimePoint::max();
  std::uint64_t active_in_horizon_ = 0;

  // Watchdog state: event_limit is an absolute (executed_ + cancelled_)
  // threshold computed at arm time, 0 when disarmed.
  std::uint64_t watchdog_event_limit_ = 0;
  std::chrono::steady_clock::time_point watchdog_deadline_{};
  double watchdog_wall_seconds_ = 0.0;  ///< last armed wall budget, for capture()
  bool watchdog_wall_armed_ = false;
  std::uint32_t watchdog_wall_countdown_ = kWallCheckInterval;
  WatchdogTrip watchdog_trip_ = WatchdogTrip::kNone;
  std::uint64_t watchdog_trips_total_ = 0;  ///< for export_metrics
};

inline void Timer::cancel() {
  if (scheduler_ != nullptr) scheduler_->timer_cancel(slot_, generation_);
}

inline bool Timer::pending() const {
  return scheduler_ != nullptr && scheduler_->timer_pending(slot_, generation_);
}

}  // namespace snake::sim
