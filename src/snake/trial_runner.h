// The campaign's trial recipe (baseline_templates, make_trial_context) and
// the guarded trial body shared by every TrialBackend, plus the default
// in-process thread-pool backend.
//
// execute_trial() is the exact per-strategy protocol of the paper's
// executor: run the attack scenario, compare against the non-attack
// baseline, retest candidates under a different seed, retry failed attempts
// under a perturbed seed, and fold it all into one TrialRecord. Pulling it
// out of the controller lets worker *processes* (src/dist) run the identical
// code path — determinism across backends falls out of sharing the body.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "packet/header_format.h"
#include "snake/backend.h"
#include "snake/scenario.h"
#include "snake/snapshot.h"

namespace snake::core {

/// A campaign's two scenario templates: `run` drives attack runs, `retest`
/// the repeatability runs (`run` under seed + retest_seed_offset). Both take
/// the campaign's early-exit cut and carry no metrics registry; whoever runs
/// one attaches its own to the copy it runs.
struct RunTemplates {
  ScenarioConfig run;
  ScenarioConfig retest;
};

/// The non-attack baseline configs ("an executor first runs a non-attack
/// test"): the trial templates with faults nulled. The controller's
/// baselines and every worker's own come from here, so the worker's
/// determinism guard compares two runs of one recipe.
RunTemplates baseline_templates(const CampaignConfig& config);

/// Everything a trial body needs besides the strategy and the executor's
/// registry: the paper's executor procedure for one campaign, derived once
/// by make_trial_context and shared read-only by every executor.
struct TrialContext {
  RunTemplates templates;  ///< faults kept: trials are what fault rules target
  RunMetrics baseline;
  RunMetrics retest_baseline;
  const packet::HeaderFormat* format = nullptr;
  double threshold = 0.5;
  std::uint32_t max_attempts = 1;  ///< CampaignConfig::trial_attempts, at least 1
  std::uint64_t retry_seed_offset = 7919;
  /// Snapshot-fork layer (optional). When set, first-attempt runs are
  /// served from checkpoints where eligible (see snapshot.h); retries and
  /// ineligible runs replay from zero.
  std::unique_ptr<SnapshotStore> snapshots;
};

/// Builds the context for one campaign from its config and the non-attack
/// baselines run under baseline_templates(config). No snapshot store; a
/// backend that forks trials attaches its own.
TrialContext make_trial_context(const CampaignConfig& config, RunMetrics baseline,
                                RunMetrics retest_baseline);

/// Converts a run's raw observation stream into the journaled form: the
/// deduplicated (state, packet type) *send* pairs in first-occurrence order.
/// This is exactly the subset StrategyGenerator::on_observations consumes
/// (it ignores receive-events and dedups via its covered set), so feeding
/// these pairs back — live, from a journal, or over a wire — reproduces the
/// generator's output verbatim.
std::vector<JournalObservation> journal_observations(
    const std::vector<statemachine::EndpointTracker::Observation>& obs);

/// Runs one strategy to a terminal TrialRecord: completed (with detection
/// payload when found and retest-confirmed) or failed-every-attempt
/// (aborted/errored — the caller quarantines it). Every run records into
/// `reg`, which may be null.
TrialRecord execute_trial(ScenarioArena& arena, const TrialContext& ctx,
                          const strategy::Strategy& strat, obs::MetricsRegistry* reg);

/// The default backend: `executors` in-process threads, each owning a
/// ScenarioArena. Each trial records into its outcome's own registry (when
/// metrics are on), so no metrics slot is shared across threads and nothing
/// is merged at finish(). With the coordinator's in-order commits, campaigns
/// are deterministic for any executor count.
class ThreadBackend : public TrialBackend {
 public:
  explicit ThreadBackend(int executors);
  ~ThreadBackend() override;

  bool start(const CampaignConfig& config, const RunMetrics& baseline,
             const RunMetrics& retest_baseline) override;
  std::size_t capacity() const override;
  void submit(TrialTask task) override;
  TrialOutcome wait_outcome() override;
  void finish(obs::MetricsRegistry* into) override;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace snake::core
