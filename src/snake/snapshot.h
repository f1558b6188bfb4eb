// Snapshot-forked trial execution — the reproduction of the paper's executor
// trick of restoring VM snapshots instead of rebooting the testbed: "we use
// the snapshot feature ... to revert the VMs to a clean state" — applied one
// level deeper. For a fixed (config seed, topology), every kStateBased trial
// replays the exact same prefix of the simulation up to the first moment its
// strategy can act (the first entry of the targeted protocol state). A
// SnapshotSession runs that prefix once, checkpoints the full world at every
// state-entry boundary, and each subsequent trial forks from the checkpoint
// instead of re-simulating from t=0.
//
// Correctness contract: a forked trial must be *bit-identical* to the same
// trial replayed from zero (the distributed backend's cross-process
// determinism check and the result cache both depend on it). The store
// therefore only serves configurations it can prove safe — everything else
// returns nullopt and the caller falls back to plain run_scenario:
//
//   - any non-state-based strategy component (packet-index and time-window
//     matches can act before any state entry);
//   - a target state that is the watched endpoint's *initial* state (the
//     proxy arms such strategies immediately at t=0; the discovery pass only
//     observes entries, so the fork point would be too late);
//   - fault injection or a run inspector on the config (faults perturb the
//     prefix; inspectors need the packet trace, which snapshots don't carry);
//   - a session whose discovery or capture failed (watchdog trip,
//     non-clonable callback).
//
// Not installed API: include only from src/snake, src/dist, tests, bench.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "snake/arena.h"
#include "snake/scenario.h"
#include "snake/scenario_world.h"

namespace snake::core {

/// One prepared fork source: the frozen world of one ScenarioConfig seed,
/// with a checkpoint at every distinct first-entry event boundary observed
/// during an unarmed discovery run.
///
/// The session owns a private ScenarioArena: its snapshots hold cloned
/// closures referencing the arena's live network/stack objects, so the world
/// must never be reset or re-initialised once the first checkpoint exists.
/// (Fallback trials run in the executor's own arena, never in this one.)
class SnapshotSession {
 public:
  /// Runs discovery (pass 1, unarmed, enter-hooks installed) and capture
  /// (pass 2, re-run to each discovered boundary). On any failure the
  /// session is marked bad and serve() always declines.
  explicit SnapshotSession(const ScenarioConfig& config);
  ~SnapshotSession();

  SnapshotSession(const SnapshotSession&) = delete;
  SnapshotSession& operator=(const SnapshotSession&) = delete;

  bool bad() const { return bad_; }

  /// Serves one trial from the nearest checkpoint at or before the first
  /// moment `attacks` can act, runs the tail live, and returns its metrics.
  /// nullopt when the session is bad or the request is not servable (the
  /// caller must then run the trial from zero). `config` must be the same
  /// scenario the session was built from (same seed); only its metrics /
  /// bookkeeping fields may differ.
  std::optional<RunMetrics> serve(const ScenarioConfig& config,
                                  const std::vector<strategy::Strategy>& attacks);

  /// Snapshots held (one per distinct first-entry boundary, plus t=0).
  std::size_t snapshot_count() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  bool bad_ = false;
};

/// Campaign-level front end: keys session pools by config seed and applies
/// the eligibility gates.
///
/// Thread-safe and designed to be *shared by every executor of a campaign*
/// (one store per ThreadBackend / worker process instead of one per
/// executor thread): a session is the expensive part — two full prefix runs
/// plus a resident frozen world — and per-executor stores built N identical
/// copies of it. A session serves one trial at a time (serve mutates its
/// world), so the store keeps a small per-seed pool: an executor borrows an
/// idle session, or triggers a build (outside the lock, concurrently with
/// other executors' trials) while the pool is below max_sessions_per_seed,
/// or — when every session is busy and the pool is full — gets nullopt and
/// falls back to a from-zero run. Falling back is always correct (forked ==
/// from-zero, bit for bit), so contention degrades only wall-clock, never
/// results. The store must outlive any trial it serves and is scoped to one
/// campaign: sessions are keyed by seed only, so reusing a store across
/// campaigns with different scenarios would serve stale worlds.
class SnapshotStore {
 public:
  SnapshotStore();
  ~SnapshotStore();

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// Cap on resident sessions per seed (default 2). More sessions = more
  /// concurrent forked trials but a full frozen world of RSS each; past the
  /// cap, contended trials fall back to from-zero runs. Not thread-safe;
  /// set before sharing the store.
  void set_max_sessions_per_seed(std::size_t cap);

  /// Runs one trial via snapshot forking when eligible. nullopt = not
  /// eligible / session bad / pool contended; the caller runs the trial from
  /// zero itself. Counters (snapshot.forked_runs, snapshot.fallback_runs,
  /// snapshot.sessions_built, snapshot.pool_exhausted) and the
  /// snapshot.session_build_seconds stage timer land in `config.metrics`
  /// when set.
  std::optional<RunMetrics> run_trial(const ScenarioConfig& config,
                                      const std::vector<strategy::Strategy>& attacks);

  /// The eligibility predicate alone (exposed for tests).
  static bool eligible(const ScenarioConfig& config,
                       const std::vector<strategy::Strategy>& attacks);

 private:
  struct SeedPool;

  SnapshotSession* acquire(std::uint64_t seed, const ScenarioConfig& config);
  void release(std::uint64_t seed, SnapshotSession* session);

  mutable std::mutex mutex_;  ///< guards pools_ and each pool's bookkeeping
  std::map<std::uint64_t, std::unique_ptr<SeedPool>> pools_;
  std::size_t max_sessions_per_seed_ = 2;
};

}  // namespace snake::core
