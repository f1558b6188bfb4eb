// Pluggable trial execution for the campaign controller.
//
// The controller is a deterministic coordinator: it walks the strategy queue
// in a fixed order, hands numbered trials to a TrialBackend, and commits the
// outcomes strictly in dispatch order. The backend only decides *where* a
// trial body runs — on a pool of in-process executor threads (the default,
// see trial_runner.h) or on a fleet of worker processes (src/dist) — and may
// finish trials in any order; the commit discipline makes the campaign
// result a pure function of the seed either way, which is what lets a
// distributed campaign be compared bit-for-bit against its single-process
// twin (dist_test.cpp).
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "snake/journal.h"
#include "strategy/strategy.h"

namespace snake::core {

struct CampaignConfig;
struct RunMetrics;

/// One dispatched trial. `seq` is the dispatch ordinal (0-based): outcomes
/// are committed in `seq` order no matter when they finish.
struct TrialTask {
  std::uint64_t seq = 0;
  strategy::Strategy strat;
};

/// What comes back from the backend for one task: the full trial record
/// (verdict, detection payload, failure tallies) plus the deduplicated
/// send-observations that feed the strategy generator, and the metrics the
/// trial recorded ("reports performance information back"). `metrics` is a
/// fresh registry per execute_trial, empty when the campaign runs without
/// metrics; the coordinator merges it in commit order, so a campaign's
/// metrics are a function of the trials it commits.
struct TrialOutcome {
  std::uint64_t seq = 0;
  TrialRecord record;
  obs::MetricsRegistry metrics;
};

/// Executes trials on behalf of the campaign coordinator. Implementations
/// are used from the coordinating thread only; they may run trials
/// anywhere, in any order, but must eventually return one outcome per
/// submitted task (recovering internally from worker loss — see
/// dist::DistributedBackend).
class TrialBackend {
 public:
  virtual ~TrialBackend() = default;

  /// Prepares the backend for one campaign. `baseline` / `retest_baseline`
  /// are the coordinator's non-attack runs; backends that compute their own
  /// (worker processes do, "an executor first runs a non-attack test") use
  /// them to cross-check determinism. Returns false when the backend cannot
  /// start (the campaign then falls back to in-process execution).
  virtual bool start(const CampaignConfig& config, const RunMetrics& baseline,
                     const RunMetrics& retest_baseline) = 0;

  /// Max trials usefully in flight; the coordinator dispatches ahead up to
  /// this depth so executors never starve while it commits.
  virtual std::size_t capacity() const = 0;

  /// Hands one trial to the backend. Never blocks for trial completion.
  virtual void submit(TrialTask task) = 0;

  /// Blocks until some submitted trial finishes and returns its outcome.
  /// Must only be called while trials are in flight.
  virtual TrialOutcome wait_outcome() = 0;

  /// Newly covered (state, packet type) send-pairs, committed by the
  /// coordinator. Distributed backends broadcast these to workers so result
  /// payloads shrink as the search-space reduction converges; the default
  /// backend needs no such hint.
  virtual void on_feedback(const std::vector<JournalObservation>& pairs) { (void)pairs; }

  /// Tears the backend down and adds the backend's own tallies to `into`
  /// (nullptr when the campaign runs without metrics): work that is not a
  /// committed trial, such as a distributed backend's `dist.*` fleet
  /// accounting. Trial metrics never pass through here; they travel with
  /// each TrialOutcome.
  virtual void finish(obs::MetricsRegistry* into) = 0;
};

}  // namespace snake::core
