// The campaign benchmark's workloads and the one measured unit they share:
// a full run of core::run_campaign, timed from the driver's campaign call.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "snake/controller.h"
#include "stats.h"

namespace campbench {

struct Workload {
  const char* name;
  snake::core::Protocol protocol;
  const char* tcp_profile;  ///< "" for DCCP
  bool trace_replay;        ///< target connection replays a generated trace
  bool greybox;             ///< --search greybox instead of the grid
  bool fleet;               ///< forked worker processes (dist::DistributedBackend)
  bool prefilled_cache;     ///< dist::ResultCache pre-filled with part of the universe
  std::uint64_t max_strategies;  ///< 0 = the whole universe
  double virtual_seconds;        ///< ScenarioConfig::test_duration
  /// Campaigns in one measured set, each on its own seed derived from the
  /// run's seed; the set's attack counts are summed. More than one only
  /// where a single campaign's counts vary too much from seed to seed.
  int seeds_per_set;
};

/// The seed of campaign `index` of a set.
std::uint64_t set_seed(const Workload& w, std::uint64_t seed, int index);

const Workload* find_workload(const std::string& name);

/// Executor threads or worker processes: one fewer than the usable cores,
/// so the coordinating thread keeps a core of its own.
int load_width();

/// Inputs generated from the seed before anything is timed.
struct Inputs {
  std::string trace_path;        ///< trace workloads: tools/trace_gen output
  std::string cache_seed_path;   ///< cache workloads: pre-filled verdicts
  std::string cache_work_path;   ///< the copy a timed campaign loads and extends
};

/// Generates the seed's inputs under `work_dir`. Throws std::runtime_error
/// when a tool or file operation fails.
Inputs prepare_inputs(const Workload& w, std::uint64_t seed, const std::string& work_dir,
                      const std::string& trace_gen);

/// Deletes the generated files.
void remove_inputs(const Inputs& in);

/// The campaign configuration of one workload (production defaults: wheel
/// engine, snapshots on, early exit on). `trace_text` is used by trace
/// workloads only.
snake::core::CampaignConfig make_config(const Workload& w, std::uint64_t seed,
                                        const std::string& trace_text);

std::string read_file(const std::string& path);

/// Extra instrumentation for the traced run. All of it sits in the
/// benchmark: a journal sink, and spans around the cache and backend calls
/// the campaign makes through their public interfaces.
struct RepHooks {
  snake::core::TrialJournal* journal = nullptr;
  SpanLog* spans = nullptr;
};

struct Rep {
  double setup_s = 0.0;             ///< campaign call -> first committed trial
  double strategies_per_s = 0.0;    ///< commits after the first / first to last commit
  double teardown_s = 0.0;          ///< last commit -> campaign call returns
  std::uint64_t commits = 0;        ///< commits after the first
  double commit_s = 0.0;            ///< first commit -> last commit
  double cpu_s = 0.0;               ///< process + reaped-worker CPU of the campaign
  double cpu_ms_per_strategy = 0.0; ///< process + reaped-worker CPU
  double wall_s = 0.0;
  ResultFacts facts;
  std::uint64_t failed = 0;  ///< aborted/errored/quarantined, workers lost, inline
  snake::core::CampaignResult result;
  int workers_lost = 0;
  std::uint64_t trials_stolen = 0;
  std::uint64_t inline_trials = 0;
};

Rep run_rep(const Workload& w, const Inputs& in, std::uint64_t seed,
            const RepHooks* hooks = nullptr);

/// A campaign cut short once every executor slot has had a trial: it goes
/// through the same set-up and first dispatch as a full one, so its set-up
/// time is a sample of the same quantity at a fraction of the cost.
Rep run_setup_rep(const Workload& w, const Inputs& in, std::uint64_t seed);

/// Restarts this process's peak-RSS record, so input generation does not
/// count towards peak_rss_mib. False when the kernel refused.
bool reset_peak_rss();

/// Peak RSS of the coordinator since reset_peak_rss() plus its workers, in
/// MiB. Workers are charged at the largest reaped child's peak each.
double peak_rss_mib(int workers);

}  // namespace campbench
