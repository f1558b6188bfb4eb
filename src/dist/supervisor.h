// Fleet supervision: per-slot respawn scheduling for worker processes.
//
// The coordinator owns a fixed number of worker *slots*. A slot's process can
// die at any time — killed by chaos, crashed, or quarantined for returning
// byzantine results — and the Supervisor decides, per slot, whether and when
// to fork a replacement:
//
//     live ──death──▶ backoff ──eligible──▶ respawning ──handshake──▶ live
//                        │                        │
//                        │ (N failures in window, └──failure──▶ backoff
//                        │  or respawn budget spent,
//                        │  or byzantine divergence)
//                        ▼
//                    quarantined  (terminal: never respawned, reported)
//
// Backoff is exponential and *jitterless*: the spread between slots comes
// from hashing (seed, slot, failure count), not from a clock or global RNG,
// so a campaign's respawn schedule is a pure function of its seed and the
// observed failure sequence. Quarantine triggers on a crash-loop (too many
// failures inside a sliding window), on an exhausted respawn budget, or
// immediately when the coordinator proves a slot returned divergent results.
//
// The Supervisor is bookkeeping only — it never forks or kills. The
// coordinator asks `respawn_due()` on its poll ticks and reports outcomes
// back via `record_*`. Single-threaded (coordinator thread) by design.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace snake::dist {

struct SupervisorOptions {
  /// Respawns allowed per slot before it is quarantined as exhausted.
  int respawn_limit = 8;
  /// First-failure backoff; doubles per consecutive failure up to the cap.
  int backoff_base_ms = 50;
  int backoff_cap_ms = 5000;
  /// Crash-loop detector: this many failures inside the window quarantines
  /// the slot even if the respawn budget is not yet spent.
  int crash_loop_failures = 5;
  int crash_loop_window_ms = 10000;
  /// Keys the deterministic backoff spread between slots.
  std::uint64_t seed = 0;
};

class Supervisor {
 public:
  using Clock = std::chrono::steady_clock;

  Supervisor() = default;
  Supervisor(int slots, SupervisorOptions options);

  int slots() const { return static_cast<int>(slots_.size()); }

  /// The slot's process died (or its handshake failed). Starts the backoff
  /// clock; may quarantine on crash-loop or budget exhaustion.
  void record_failure(int slot, Clock::time_point now, std::string reason);

  /// The slot returned provably divergent results: terminal quarantine, no
  /// respawn, regardless of budget.
  void record_quarantine(int slot, std::string reason);

  /// A replacement process completed its handshake.
  void record_respawn(int slot);

  /// Whether the slot may be respawned now (not quarantined, budget left,
  /// backoff elapsed).
  bool respawn_due(int slot, Clock::time_point now) const;

  /// Whether the slot could ever be respawned (now or after backoff).
  bool respawnable(int slot) const;

  /// True while any dead slot still has respawn budget — the coordinator must
  /// keep waiting instead of degrading to inline execution.
  bool any_respawnable() const;

  bool quarantined(int slot) const { return slots_[slot].quarantined; }
  Clock::time_point next_eligible(int slot) const { return slots_[slot].eligible_at; }

  int failures(int slot) const { return slots_[slot].failures; }
  const std::string& last_reason(int slot) const { return slots_[slot].last_reason; }
  const std::string& quarantine_reason(int slot) const { return slots_[slot].quarantine_reason; }

  std::uint64_t total_failures() const;
  int total_respawns() const;
  int quarantined_slots() const;

  /// Human-readable per-slot summary for logs and bench output, e.g.
  /// "slot 0: 3 failures, 2 respawns, quarantined (crash-loop: ...)".
  std::string report() const;

  /// Deterministic backoff: min(cap, base << (failures-1)) plus a seed-keyed
  /// spread in [0, base) so slots never all retry at once. Pure function —
  /// exposed for tests.
  static std::int64_t backoff_ms(const SupervisorOptions& options, int slot, int failures);

 private:
  struct Slot {
    int failures = 0;
    int respawns = 0;
    bool dead = false;
    bool quarantined = false;
    std::string last_reason;
    std::string quarantine_reason;
    Clock::time_point eligible_at{};
    std::deque<Clock::time_point> recent;  // failure times inside the window
  };

  void quarantine_slot(Slot& slot, std::string reason);

  SupervisorOptions options_;
  std::vector<Slot> slots_;
};

}  // namespace snake::dist
