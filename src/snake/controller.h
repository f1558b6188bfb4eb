// The SNAKE controller: strategy scheduling, parallel executors, attack
// detection, repeatability retesting, and result classification — the
// in-process equivalent of the paper's controller + executor processes
// ("An executor first runs a non-attack test and then, for each strategy,
// runs the attack scenario and reports performance information back ...
// Attack strategies that appear successful are tested a second time to
// ensure repeatability.").
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "search/search.h"
#include "snake/detector.h"
#include "snake/journal.h"
#include "snake/scenario.h"
#include "strategy/generator.h"

namespace snake::core {

class TrialBackend;

struct CampaignConfig {
  ScenarioConfig scenario;
  strategy::GeneratorConfig generator;

  int executors = 4;  ///< parallel worker threads ("we ran five executors")
  /// Retest seed: a candidate must reproduce under a different seed to count.
  std::uint64_t retest_seed_offset = 1000003;
  /// Optional cap on strategies tried (0 = unlimited); lets tests and quick
  /// demos run bounded campaigns.
  std::uint64_t max_strategies = 0;

  // --- Strategy search (see DESIGN.md, "Strategy search") ------------------
  /// How the campaign walks its strategy space. kGrid (default) enumerates
  /// the generator's output exhaustively — the paper's behaviour. kGreybox
  /// runs the fitness-guided pool search from src/search: generator output
  /// becomes the unexplored universe, trials feed tracker state-coverage and
  /// detector margin back into the pool, and promising strategies spawn
  /// mutated children under a power-schedule energy budget. Both modes run
  /// through the same dispatch/commit loop, so a greybox campaign is as
  /// bit-identical across backends, executor counts, snapshots and caches as
  /// a grid one (enforced in tests/search_test.cpp). Like the generator
  /// config, the mode only changes *which* strategies get tried — it stays
  /// out of the campaign identity hash, so grid and greybox campaigns share
  /// result-cache entries and resume journals.
  search::SearchMode search_mode = search::SearchMode::kGrid;
  /// Greybox knobs (ignored in grid mode).
  search::SearchConfig search;

  /// Combination phase (the paper's future work, with Turret's greedy
  /// flavour): after the single-strategy sweep, pair up to this many of the
  /// strongest distinct true-attack strategies and test each pair as a
  /// combined strategy. 0 disables the phase.
  std::size_t combine_top = 0;

  /// Detection threshold: a run is flagged when a throughput ratio leaves
  /// [threshold, 1 + threshold] (the paper's "at least 50%" criterion at the
  /// default). Used consistently by detection *and* signature/effect
  /// classification.
  double detect_threshold = 0.5;

  /// When true (default), the campaign records counters, stage timings and
  /// per-attack-action counts into CampaignResult::metrics. Each trial
  /// records into its own registry, which travels with its outcome (across
  /// the wire too) and is merged when the trial commits, so the sim hot path
  /// never takes a lock. Instrumentation does not perturb results: identical
  /// seeds give identical outcomes either way (enforced by the determinism
  /// test in observability_test.cpp).
  bool collect_metrics = true;

  /// Trials always stop at the deterministic quiescence cut instead of
  /// simulating out the fixed horizon (see ScenarioConfig::early_exit), and
  /// executors always serve eligible trials from the campaign's snapshot
  /// store (snake/snapshot.h). Neither changes a detection, classification
  /// or signature; the tests compare both against from-zero, full-horizon
  /// references. Inside src the cut is read in one place: the template
  /// derivation behind baseline_templates() and make_trial_context()
  /// (trial_runner.h), which every baseline and every executor — thread,
  /// worker process, or the distributed coordinator's own re-executions —
  /// runs from. It stays a named constant because code that runs a
  /// campaign's scenarios outside the controller copies it into its
  /// ScenarioConfig — campbench/traced.cpp does so when it replays
  /// journaled trials.
  static constexpr bool early_exit = true;

  /// Progress callback (strategies committed, total queued so far). Invoked
  /// from the coordinating thread, in commit order, with no campaign lock
  /// held — both arguments are monotonically non-decreasing across calls
  /// regardless of executor/worker interleaving (regression-tested in
  /// dist_test.cpp). It may block without stalling the executor pool.
  std::function<void(std::uint64_t, std::uint64_t)> on_progress;

  // --- Resilience layer ----------------------------------------------------
  /// Total attempts per trial (min 1). An attempt that fails — watchdog
  /// abort (scenario.event_budget / scenario.wall_limit_seconds) or an
  /// exception escaping the trial body — is retried with a perturbed seed; a
  /// strategy whose every attempt fails is quarantined and excluded from
  /// results (but listed in CampaignResult::quarantined).
  std::uint32_t trial_attempts = 2;
  /// Per-retry seed perturbation. A pure function of the retry index, so
  /// campaigns stay reproducible for equal seeds.
  std::uint64_t retry_seed_offset = 7919;
  /// Optional checkpoint journal (not owned). Every committed strategy,
  /// whichever backend ran it, is appended as one trial-log line stamped
  /// with campaign_identity_hash;
  /// append failures increment campaign.journal_errors and never fail the
  /// campaign.
  TrialJournal* journal = nullptr;
  /// Optional resume log (not owned), read at this campaign's identity.
  /// Strategies found there are not re-run: their outcome, failure tallies
  /// and generator feedback are replayed, so a resumed campaign reproduces
  /// the uninterrupted campaign's result for equal seeds. A non-empty log
  /// with no line of this identity is ignored (campaign.resume_incompatible).
  const TrialLog* resume = nullptr;

  // --- Distribution layer (see DESIGN.md, "Distribution architecture") -----
  /// Optional trial-execution backend (not owned). Null runs the default
  /// in-process thread pool (`executors` threads); dist::DistributedBackend
  /// runs the same campaign across worker *processes*. Outcomes are
  /// committed in dispatch order whatever the backend, so the result is a
  /// pure function of the seed — a distributed campaign equals its
  /// single-process twin bit for bit (enforced in dist_test.cpp). A backend
  /// whose start() fails is abandoned for the in-process pool
  /// (campaign.backend_fallback).
  TrialBackend* backend = nullptr;
  /// Optional cross-campaign result cache (not owned), pre-bound to this
  /// campaign's identity hash (see TrialLog::View). A hit skips the
  /// simulation and replays the memoized record exactly like a journal
  /// resume; cached and uncached campaigns produce equal results.
  TrialCache* cache = nullptr;
};

/// Outcome of one successful (detected + repeatable) strategy.
struct StrategyOutcome {
  strategy::Strategy strat;
  Detection detection;
  AttackClass cls = AttackClass::kTrueAttack;
  std::string signature;
};

/// Outcome of one combined (pair) strategy from the combination phase.
struct CombinedOutcome {
  strategy::Strategy first;
  strategy::Strategy second;
  Detection detection;
  double impact_score = 0;       ///< see impact_score() in the detector
  double best_single_score = 0;  ///< max impact of the two components alone
  bool stronger_than_parts = false;
};

struct CampaignResult {
  std::string implementation;
  Protocol protocol = Protocol::kTcp;

  std::uint64_t strategies_tried = 0;
  std::vector<StrategyOutcome> found;  ///< all detected+repeatable strategies

  // --- Strategy search ------------------------------------------------------
  search::SearchMode search_mode = search::SearchMode::kGrid;
  /// 1-based commit index of the first found strategy (0 = none found). The
  /// bench's search-efficiency metric: how many trials a mode spends before
  /// its first confirmed attack.
  std::uint64_t trials_to_first_attack = 0;
  std::uint64_t search_rounds = 0;     ///< greybox rounds emitted (0 in grid)
  std::uint64_t search_mutations = 0;  ///< mutation children spawned

  // Table I columns.
  std::uint64_t attack_strategies_found = 0;
  std::uint64_t on_path = 0;
  std::uint64_t false_positives = 0;
  std::uint64_t true_attack_strategies = 0;
  std::uint64_t unique_true_attacks = 0;
  std::vector<std::string> unique_signatures;

  // Combination phase (when enabled).
  std::vector<CombinedOutcome> combined;
  std::uint64_t combinations_tried = 0;
  std::uint64_t combinations_stronger = 0;

  RunMetrics baseline;

  // --- Resilience tallies (see DESIGN.md, "Resilience architecture") -------
  std::uint64_t trials_aborted = 0;  ///< attempts cut off by the watchdog
  std::uint64_t trials_errored = 0;  ///< attempts that threw
  std::uint64_t trials_retried = 0;  ///< retry attempts performed
  /// Trials replayed from the resume snapshot instead of run. The only
  /// resilience field that legitimately differs between a resumed campaign
  /// and its uninterrupted twin (which has 0).
  std::uint64_t resume_skipped = 0;
  std::uint64_t journal_errors = 0;  ///< journal appends that threw
  /// Trials whose verdict was replayed from the cross-campaign result cache
  /// instead of simulated (CampaignConfig::cache). Like resume_skipped, a
  /// legitimate difference between warm- and cold-cache twins.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_stores = 0;  ///< fresh verdicts written to the cache

  /// A strategy excluded from results because every attempt failed.
  struct Quarantined {
    strategy::Strategy strat;
    std::string key;  ///< strategy::canonical_key(strat)
    TrialVerdict verdict = TrialVerdict::kErrored;  ///< final attempt's fate
    std::uint32_t attempts = 1;
    std::string reason;  ///< last abort/error reason
  };
  /// Sorted by canonical key so the list is independent of executor
  /// interleaving.
  std::vector<Quarantined> quarantined;

  /// Campaign observability (stage timings, scheduler/link/proxy/tracker
  /// counters, retest outcomes, detection reasons): the coordinator's
  /// baselines, plus every committed trial's registry in commit order, plus
  /// the backend's own tallies (`dist.*`). Its counters are a function of
  /// the committed trials, so they match across executor counts and
  /// backends, worker deaths included; only snapshot.sessions_built and
  /// sim.buffers_reused depend on which executor ran a trial. Empty when
  /// CampaignConfig::collect_metrics was false.
  obs::MetricsRegistry metrics;

  /// Renders a Table-I-style row.
  std::string summary_row() const;

  /// Structured machine-readable report: Table-I columns, baseline metrics,
  /// every outcome with detection ratios + signature, combination-phase
  /// results, and the full metrics snapshot. Schema tag:
  /// "snake-campaign-report/v1" (see observability_test.cpp).
  std::string to_json() const;

  /// Streaming variant: writes the same document as one JSON value into `w`
  /// (which may be a sink-backed writer flushed between campaigns, so a long
  /// bench run never holds every report in memory at once).
  void write_json(obs::JsonWriter& w) const;
};

/// Runs a full campaign for one implementation. Throws
/// std::invalid_argument, before the baselines, when a trace workload's
/// text does not parse (the message is parse_trace's line-numbered error).
CampaignResult run_campaign(const CampaignConfig& config);

/// Renders the Table I header matching CampaignResult::summary_row.
std::string table1_header();

/// Shared protocol plumbing, used by the controller, the in-process trial
/// runner and the distributed worker (src/dist) so every backend builds the
/// campaign from identical pieces.
const packet::HeaderFormat& format_for_protocol(Protocol protocol);
const statemachine::StateMachine& machine_for_protocol(Protocol protocol);

/// Tallies *why* a run was flagged, using the same threshold detection used.
/// The reason strings in Detection are for humans; these counters are the
/// machine-readable aggregate.
void count_detection_reasons(obs::MetricsRegistry* reg, const Detection& d,
                             double threshold);

}  // namespace snake::core
