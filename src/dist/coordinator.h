// Coordinator side of the distributed campaign (see DESIGN.md,
// "Distribution architecture").
//
// DistributedBackend is a core::TrialBackend that runs trial shards on a
// fleet of forked worker *processes* instead of in-process threads. The
// campaign controller stays the single deterministic coordinator: it
// dispatches numbered trials, this backend spreads them across workers
// (least-loaded first, rebalanced by work-stealing), and outcomes flow back
// to be committed in dispatch order — so `bench_table1 --workers 4` produces
// the byte-identical report of the single-process run for equal seeds.
//
// Resilience: a worker that dies (EOF), wedges (heartbeat silence past the
// timeout), or desyncs (malformed frame, failed result checksum) is
// SIGKILLed and reaped, its in-flight shard is requeued, and its slot is
// handed to the Supervisor for a backed-off respawn — campaigns run at full
// parallelism through repeated worker deaths. Only when a slot crash-loops
// or exhausts its respawn budget is it quarantined; only with the *whole*
// fleet quarantined/exhausted does the backend execute the remainder
// inline, so a campaign never loses trials to worker failure (kill-a-worker
// and chaos-soak tests in dist_test.cpp).
//
// Byzantine defence: every result frame carries an integrity checksum
// (transport corruption = malformed frame), and a deterministic sample of
// results — plus any result conflicting with the cross-campaign cache — is
// re-executed by the coordinator; a worker whose record diverges from the
// re-execution is quarantined and the re-executed record committed, so the
// bit-identical-to-single-process guarantee survives even a lying worker.
//
// Metrics: each result frame carries the registry its trial recorded, and
// the outcome hands it to the controller, which merges it only when it
// commits the trial. A committed record always comes with the registry of
// the run that produced it (a worker's, an inline fallback's, or a
// byzantine re-execution's); work that is not a committed trial, such as a
// re-execution that vindicates its worker, lands under `dist.*` at finish().
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dist/supervisor.h"
#include "snake/backend.h"
#include "snake/journal.h"

namespace snake::dist {

struct DistOptions {
  int workers = 2;

  /// Worker liveness cadence. A worker heartbeats from a dedicated thread,
  /// so the timeout bounds coordinator reaction to a *dead* process, not the
  /// duration of a trial.
  int heartbeat_interval_ms = 250;
  int heartbeat_timeout_ms = 5000;

  /// Ask workers to attach the embedding executable's oracle inspector
  /// (WorkerHooks::make_inspector) to every run; violation counts come back
  /// in the bye message and sum into selfcheck_violations().
  bool selfcheck = false;

  /// Test-only fault injection: worker i exits abruptly (no bye, SIGKILL
  /// semantics) after entry i results. Empty = never. Applies to a slot's
  /// first incarnation only, so the respawned replacement finishes the job.
  std::vector<std::uint64_t> exit_after_results;

  /// Test-only byzantine fault: worker i corrupts the entry-i-th and every
  /// later result before sending — with a valid checksum, the way a
  /// genuinely divergent worker would. 0/empty = never; first incarnation
  /// only.
  std::vector<std::uint64_t> corrupt_after_results;

  /// Fleet supervision (see dist/supervisor.h): respawn budget, backoff and
  /// crash-loop window per worker slot. `supervision.seed` 0 keys the
  /// deterministic backoff spread by the campaign seed.
  SupervisorOptions supervision;

  // ---- byzantine result verification ----

  /// Re-execute roughly one in N worker results on the coordinator and
  /// compare records byte-for-byte (0 = off). Selection is a pure function
  /// of the trial seq, so it is identical across runs. A divergent worker is
  /// quarantined and the re-executed record committed.
  std::uint64_t verify_sample = 0;
  /// Cross-check worker results against this cache (normally the same
  /// cross-campaign result-cache view the controller uses): a result whose
  /// key hits the cache with a *different* record triggers re-execution and,
  /// if the worker was wrong, quarantine. Borrowed; may be null.
  core::TrialCache* verify_cache = nullptr;

  // ---- wire chaos (tests/CI; see core::WireFaultPlan) ----

  /// Chaos schedule applied to both ends of every worker socket (mask 0 =
  /// off). Workers get the full mask; the coordinator's own send path strips
  /// the worker-only faults (die-mid-write, stalled heartbeats).
  std::uint64_t wire_fault_seed = 0;
  std::uint32_t wire_fault_mask = 0;
  std::uint32_t wire_fault_period = 0;
};

class DistributedBackend : public core::TrialBackend {
 public:
  explicit DistributedBackend(DistOptions options);
  ~DistributedBackend() override;

  /// Spawns and handshakes the fleet. Fails (-> controller falls back to the
  /// in-process pool) when: the campaign carries a fault plan or inspector
  /// (neither crosses a process boundary), no worker completes the
  /// handshake, or any worker's baseline RunMetrics differ from the
  /// coordinator's (cross-process determinism guard — a silently divergent
  /// worker must never contribute verdicts).
  bool start(const core::CampaignConfig& config, const core::RunMetrics& baseline,
             const core::RunMetrics& retest_baseline) override;
  std::size_t capacity() const override;
  void submit(core::TrialTask task) override;
  core::TrialOutcome wait_outcome() override;
  void on_feedback(const std::vector<core::JournalObservation>& pairs) override;
  void finish(obs::MetricsRegistry* into) override;

  // ---- post-campaign accessors (valid after finish()) ----

  /// Sum of oracle violations reported by workers' bye messages.
  std::uint64_t selfcheck_violations() const;
  /// Fleet accounting: processes spawned / declared dead mid-campaign /
  /// trials the coordinator ran inline after losing workers.
  int workers_spawned() const;
  int workers_lost() const;
  std::uint64_t inline_trials() const;
  /// Trials reassigned between workers by the steal protocol.
  std::uint64_t trials_stolen() const;
  /// Supervision accounting: replacement processes that completed the full
  /// handshake / slots quarantined (crash-loop, exhausted budget, or
  /// byzantine divergence).
  int workers_respawned() const;
  int slots_quarantined() const;
  /// Frames dropped as malformed (parse failure or bad result checksum);
  /// each one also cost the sending worker its life.
  std::uint64_t frames_rejected() const;
  /// Byzantine verification: results re-executed on the coordinator, and how
  /// many of those diverged from the worker's record.
  std::uint64_t trials_verified() const;
  std::uint64_t results_divergent() const;
  /// Human-readable per-slot supervision summary ("" when nothing failed).
  std::string fleet_report() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace snake::dist
