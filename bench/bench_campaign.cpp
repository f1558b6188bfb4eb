// Campaign throughput benchmark: how many attack-strategy trials per second
// the engine sustains end to end (controller + executors + simulator).
//
//   bench_campaign [--cap N] [--duration SECONDS] [--executors N]
//                  [--protocol tcp|dccp] [--json PATH] [--baseline PATH]
//                  [--selfcheck] [--workers N] [--result-cache PATH]
//                  [--result-cache-compact] [--search grid|greybox]
//                  [--space default|enlarged]
//                  [--tcp-profile NAME] [--workload bulk|trace:FILE]
//                  [--trace-flows N]
//                  [--heartbeat-timeout-ms N] [--respawn-limit N]
//                  [--verify-sample N] [--chaos SEED] [--chaos-period N]
//
// --tcp-profile swaps the implementation under test (default linux-3.13;
// see tcp::all_tcp_profiles). SACK-negotiating profiles automatically widen
// the injection universe with forged-SACK strategies
// (strategy::tcp_sack_generator_config) so the campaign can reach the
// SACK-specific attack surface. --workload trace:FILE replays a
// snake-trace/v1 file (src/trace) as the target-connection workload instead
// of the synthetic bulk download; --trace-flows caps the deterministic
// down-sample. The trace text folds into the campaign identity hash and
// travels over the dist wire, so trace campaigns stay bit-identical across
// executors, workers and cache temperature.
//
// --search greybox runs the campaign under the feedback-guided strategy
// search (src/search) instead of the exhaustive grid order, then runs an
// in-process grid twin of the same scenario and reports attacks-found and
// trials-to-first-attack for both — the search-efficiency headline. The twin
// is a fair comparison because trial *outcomes* are mode-invariant (the mode
// only reorders which strategies get tried; search_test.cpp enforces it),
// and because greybox campaigns are bit-identical across backends the twin
// can run in-process even when the main campaign used --workers.
// --space enlarged widens the delivery-attack parameter ladders (drop
// probabilities, duplicate counts, delays, batch windows) to the richer
// sweep the search exists for; the CI smoke pins this scenario and asserts
// greybox reaches its first attack in strictly fewer trials than the grid.
//
// Every campaign runs the one production execution path: the timer-wheel
// event engine, snapshot-forked trials and the deterministic early-exit cut.
// None of them is a switch; the tests compare each against its reference
// (a (time, seq) queue model, from-zero runs, full-horizon runs).
//
// The command line is strict (bench/cli.h): an unknown flag, a missing
// value, a malformed or out-of-range number, or a word outside a flag's
// choices prints the flag and exits with status 2.
//
// --selfcheck attaches the property-suite invariant oracles (clock
// monotonicity, TCP sequence space, tracker legality, pool balance; see
// src/testing/oracles.h) to every trial. It costs a packet trace per run, so
// throughput numbers from a selfcheck bench are not comparable to plain
// ones; the exit code turns nonzero if any trial violates an invariant.
//
// --workers N runs the campaign on N forked worker processes instead of the
// in-process executor pool (src/dist; the result is bit-identical either
// way). With --selfcheck the oracles run inside each worker and violation
// tallies come back over the wire. --result-cache PATH memoizes trial
// verdicts in a cross-campaign JSONL cache; a re-run with the same
// configuration replays from the cache instead of simulating.
// --result-cache-compact rewrites that file crash-safely before loading it,
// dropping poisoned/torn/duplicate lines accumulated by crashed runs.
//
// Fleet robustness knobs (distributed mode; see DESIGN.md "Fleet supervision
// & chaos"): --heartbeat-timeout-ms and --respawn-limit tune how fast dead
// workers are declared and how many respawns a slot gets before quarantine;
// --verify-sample N re-executes ~one in N worker results on the coordinator
// and quarantines divergent (byzantine) workers. --chaos SEED arms the
// seed-keyed wire fault injector on every worker socket (torn/garbage/
// duplicated/delayed frames, stalled heartbeats, mid-write deaths) firing
// about once per --chaos-period sends — the CI smoke proves a chaos
// campaign still completes at full parallelism with results identical to a
// clean run.
//
// Test throughput is the bottleneck for stateful protocol testing at scale
// (the paper spends ~2 minutes of wall clock per strategy; ProFuzzBench ranks
// stateful fuzzers by executions/sec), so this bench is the perf north-star
// gauge: it runs one bounded campaign, measures wall time, and reports
//
//   strategies/sec  - strategy trials completed per wall second (headline)
//   runs/sec        - scenario executions (baselines + trials + retests)
//   events/sec      - simulator events executed across all executors
//   peak RSS        - max resident set, so memory-pooling work stays honest
//
// The JSON report (schema "snake-bench-campaign/v1", default path
// BENCH_campaign.json) records config + results. When --baseline points at a
// previous report (bench/BENCH_campaign_baseline.json holds the checked-in
// pre-optimization run), the report embeds the baseline numbers and the
// speedup so the perf trajectory is tracked PR over PR. Speedups are only
// meaningful against a baseline recorded on the same machine.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "cli.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "obs/json.h"
#include "search/search.h"
#include "snake/controller.h"
#include "snake/faultpoint.h"
#include "statemachine/protocol_specs.h"
#include "strategy/generator.h"
#include "tcp/profile.h"
#include "testing/oracles.h"
#include "trace/trace.h"

using namespace snake;
using namespace snake::core;

namespace {

double peak_rss_mib() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB -> MiB
}

std::uint64_t metric_counter(const obs::MetricsRegistry& reg, const std::string& name) {
  auto it = reg.counters().find(name);
  return it == reg.counters().end() ? 0 : it->second;
}

/// Quantile estimate from a fixed-bucket histogram: linear interpolation
/// inside the bucket the target rank lands in; the +inf tail is pinned to
/// the observed maximum. Good to bucket resolution, which is all a perf
/// report needs.
double histogram_quantile(const obs::Histogram& h, double q) {
  if (h.count == 0) return 0.0;
  const double target = q * static_cast<double>(h.count);
  std::uint64_t cum = 0;
  double lo = 0.0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    const double hi = i < h.bounds.size() ? std::min(h.bounds[i], h.max) : h.max;
    if (static_cast<double>(cum + h.counts[i]) >= target && h.counts[i] > 0) {
      const double frac = (target - static_cast<double>(cum)) /
                          static_cast<double>(h.counts[i]);
      return lo + frac * (std::max(hi, lo) - lo);
    }
    cum += h.counts[i];
    lo = std::max(hi, lo);
  }
  return h.max;
}

// Oracle wiring for worker processes: snake_dist cannot link the testing
// layer, so the worker re-entry hands these hooks down and each worker
// builds its own protocol-appropriate oracle bundle.
dist::WorkerHooks oracle_hooks() {
  dist::WorkerHooks hooks;
  hooks.make_inspector = [](const ScenarioConfig& sc) -> std::unique_ptr<RunInspector> {
    return std::make_unique<testing::ScenarioOracles>(
        sc.protocol == Protocol::kTcp ? statemachine::tcp_state_machine()
                                      : statemachine::dccp_state_machine(),
        sc.protocol == Protocol::kTcp);
  };
  hooks.violations = [](RunInspector& inspector) {
    return static_cast<std::uint64_t>(
        static_cast<testing::ScenarioOracles&>(inspector).report().violations.size());
  };
  return hooks;
}

}  // namespace

int main(int argc, char** argv) {
  // Worker re-entry: when the coordinator forked us with
  // --snake-worker-child, run the worker loop and exit — before touching
  // anything else.
  if (auto code = dist::maybe_run_worker(argc, argv, oracle_hooks())) return *code;

  std::uint64_t cap = 64;
  double duration = 5.0;
  unsigned hc = std::thread::hardware_concurrency();
  int executors = hc > 4 ? static_cast<int>(hc) - 2 : 2;
  Protocol protocol = Protocol::kTcp;
  const char* json_path = "BENCH_campaign.json";
  const char* baseline_path = nullptr;
  const char* cache_path = nullptr;
  bool selfcheck = false;
  int workers = 0;
  bool compact_cache = false;
  int heartbeat_timeout_ms = 0;  // 0 = DistOptions default
  int respawn_limit = -1;        // <0 = DistOptions default
  std::uint64_t verify_sample = 0;
  std::uint64_t chaos_seed = 0;
  std::uint32_t chaos_period = 7;
  search::SearchMode search_mode = search::SearchMode::kGrid;
  bool enlarged_space = false;
  tcp::TcpProfile tcp_profile = tcp::linux_3_13_profile();
  const char* trace_path = nullptr;
  std::size_t trace_flows = 8;

  std::vector<std::pair<std::string, tcp::TcpProfile>> profiles;
  for (const tcp::TcpProfile& p : tcp::all_tcp_profiles()) profiles.emplace_back(p.name, p);
  bench::Cli cli("bench_campaign");
  cli.integer("--cap", cap)
      .number("--duration", duration, 0.001, 1e6)
      .integer("--executors", executors, 1, 1024)
      .choice("--protocol", protocol, {{"tcp", Protocol::kTcp}, {"dccp", Protocol::kDccp}})
      .text("--json", json_path)
      .text("--baseline", baseline_path)
      .flag("--selfcheck", selfcheck)
      .integer("--workers", workers, 0, 1024)
      .text("--result-cache", cache_path)
      .flag("--result-cache-compact", compact_cache)
      .integer("--heartbeat-timeout-ms", heartbeat_timeout_ms, 1)
      .integer("--respawn-limit", respawn_limit, 0)
      .integer("--verify-sample", verify_sample)
      .integer("--chaos", chaos_seed)
      .integer("--chaos-period", chaos_period, 1u)
      .choice("--search", search_mode,
              {{"grid", search::SearchMode::kGrid}, {"greybox", search::SearchMode::kGreybox}})
      .choice("--space", enlarged_space, {{"default", false}, {"enlarged", true}})
      .choice("--tcp-profile", tcp_profile, std::move(profiles))
      .custom("--workload",
              [&](std::string_view v) -> std::string {
                if (v.substr(0, 6) == "trace:" && v.size() > 6) {
                  trace_path = v.data() + 6;
                  return "";
                }
                return v == "bulk" ? "" : "expected bulk|trace:FILE, got '" + std::string(v) + "'";
              })
      .integer("--trace-flows", trace_flows);
  if (!cli.parse(argc, argv)) return 2;
  const bool chaos = cli.given("--chaos");

  CampaignConfig config;
  config.scenario.protocol = protocol;
  config.scenario.tcp_profile =
      protocol == Protocol::kTcp ? tcp_profile : tcp::linux_3_13_profile();
  config.scenario.test_duration = Duration::seconds(duration);
  config.scenario.seed = 7;
  if (trace_path != nullptr) {
    std::ifstream trace_in(trace_path);
    if (!trace_in) {
      std::fprintf(stderr, "--workload trace: cannot read %s\n", trace_path);
      return 1;
    }
    std::stringstream trace_buf;
    trace_buf << trace_in.rdbuf();
    std::string trace_error;
    if (!trace::parse_trace(trace_buf.str(), &trace_error).has_value()) {
      std::fprintf(stderr, "--workload trace: %s: %s\n", trace_path, trace_error.c_str());
      return 1;
    }
    config.scenario.workload = Workload::kTrace;
    config.scenario.trace_text = trace_buf.str();
    config.scenario.trace_max_flows = trace_flows;
  }
  // SACK-negotiating profiles need forged-SACK injections in the universe to
  // reach their extra attack surface; everything else keeps the historic
  // space so existing results stay reproducible.
  config.generator = protocol != Protocol::kTcp       ? strategy::dccp_generator_config()
                     : config.scenario.tcp_profile.sack ? strategy::tcp_sack_generator_config()
                                                        : strategy::tcp_generator_config();
  config.generator.hitseq_max_packets = 4000;  // partial sweeps: bounded bench
  if (enlarged_space) {
    // --space enlarged: the richer parameter sweep the greybox search exists
    // for. The grid visits these ladders in shuffled order; the search
    // prioritizes by coverage and refines what scored, which is where the
    // trials-to-first-attack gap opens up.
    config.generator.drop_probabilities = {100.0, 75.0, 50.0, 25.0, 12.5};
    config.generator.duplicate_counts = {1, 2, 5, 10, 32};
    config.generator.delay_seconds = {0.05, 0.1, 0.5, 1.0, 3.0};
    config.generator.batch_seconds = {0.5, 2.0, 4.0};
  }
  config.executors = executors;
  config.max_strategies = cap;
  config.search_mode = search_mode;
  const bool greybox = search_mode == search::SearchMode::kGreybox;

  // --selfcheck: one oracle bundle shared by every executor (thread-safe).
  // In workers mode the inspector pointer cannot cross the process boundary;
  // each worker builds its own bundle via oracle_hooks() and the violation
  // tallies come back in the bye messages instead.
  testing::ScenarioOracles oracles(protocol == Protocol::kTcp
                                       ? statemachine::tcp_state_machine()
                                       : statemachine::dccp_state_machine(),
                                   protocol == Protocol::kTcp);
  if (selfcheck && workers <= 0) config.scenario.inspector = &oracles;

  // --result-cache: cross-campaign memoized verdicts, scoped to this
  // campaign's identity hash so a config change can never replay stale
  // records. Set up before the backend so the same view can double as the
  // coordinator's byzantine verify_cache.
  std::optional<core::TrialLog> cache;
  std::optional<core::TrialLog::View> cache_view;
  if (cache_path != nullptr) {
    cache.emplace(cache_path);
    if (compact_cache) {
      core::TrialLog::CompactStats st = cache->compact();
      if (!st.ok)
        std::fprintf(stderr, "result cache %s: compaction failed, loading as-is\n", cache_path);
      else
        std::printf("result cache %s: compacted to %zu line(s), dropped %llu invalid + "
                    "%llu duplicate\n",
                    cache_path, st.kept, (unsigned long long)st.dropped_invalid,
                    (unsigned long long)st.dropped_duplicate);
    }
    if (!cache->load())
      std::fprintf(stderr, "result cache %s unreadable; starting cold\n", cache_path);
    if (cache->rejected() > 0)
      std::fprintf(stderr, "result cache %s: dropped %llu invalid line(s)\n", cache_path,
                   (unsigned long long)cache->rejected());
    cache_view.emplace(cache->view(campaign_identity_hash(config)));
    config.cache = &*cache_view;
  } else if (compact_cache) {
    std::fprintf(stderr, "--result-cache-compact needs --result-cache PATH\n");
    return 1;
  }

  std::optional<dist::DistributedBackend> backend;
  if (workers > 0) {
    dist::DistOptions opt;
    opt.workers = workers;
    opt.selfcheck = selfcheck;
    if (heartbeat_timeout_ms > 0) opt.heartbeat_timeout_ms = heartbeat_timeout_ms;
    if (respawn_limit >= 0) opt.respawn_limit = respawn_limit;
    opt.verify_sample = verify_sample;
    if (cache_view.has_value()) opt.verify_cache = &*cache_view;
    if (chaos) {
      opt.wire_fault_seed = chaos_seed;
      opt.wire_fault_mask = core::kAllWireFaults;
      opt.wire_fault_period = chaos_period;
      opt.supervisor_seed = chaos_seed;
      // Injected mid-write deaths are *supposed* to kill workers repeatedly;
      // the crash-loop detector would read that as a broken host and
      // quarantine every slot. Under chaos only the respawn budget bounds
      // the fleet, same as the chaos-soak suite.
      opt.crash_loop_failures = 1 << 20;
      if (respawn_limit < 0) opt.respawn_limit = 64;
      opt.respawn_backoff_ms = 5;
      opt.respawn_backoff_cap_ms = 50;
    }
    backend.emplace(std::move(opt));
    config.backend = &*backend;
  } else if (chaos) {
    std::fprintf(stderr, "--chaos needs --workers N (wire faults live on worker sockets)\n");
    return 1;
  }

  std::printf(
      "== Campaign throughput: %llu strategies, %.0fs virtual, %d executors "
      "(%s, %s search%s%s%s) ==\n",
      (unsigned long long)cap, duration, executors, to_string(protocol),
      search::to_string(search_mode),
      selfcheck ? ", selfcheck" : "",
      workers > 0 ? ", distributed" : "",
      chaos ? ", wire chaos on" : "");
  if (chaos)
    std::printf("  wire chaos ........... seed=%llu period=%u (all faults)\n",
                (unsigned long long)chaos_seed, chaos_period);

  auto t0 = std::chrono::steady_clock::now();
  CampaignResult result = run_campaign(config);
  double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  std::uint64_t events = metric_counter(result.metrics, "sim.events_executed");
  std::uint64_t runs = metric_counter(result.metrics, "scenario.baseline_runs") +
                       metric_counter(result.metrics, "scenario.attack_runs");
  double strategies_per_sec = wall > 0 ? static_cast<double>(result.strategies_tried) / wall : 0;
  double runs_per_sec = wall > 0 ? static_cast<double>(runs) / wall : 0;
  double events_per_sec = wall > 0 ? static_cast<double>(events) / wall : 0;
  double rss = peak_rss_mib();

  std::printf("  wall time ............ %.3f s\n", wall);
  std::printf("  strategies tried ..... %llu (%.2f strategies/sec)\n",
              (unsigned long long)result.strategies_tried, strategies_per_sec);
  std::printf("  scenario runs ........ %llu (%.2f runs/sec)\n", (unsigned long long)runs,
              runs_per_sec);
  std::printf("  simulator events ..... %llu (%.3g events/sec)\n", (unsigned long long)events,
              events_per_sec);
  std::printf("  peak RSS ............. %.1f MiB\n", rss);

  const auto& hists = result.metrics.histograms();
  auto hist = [&](const char* name) -> const obs::Histogram* {
    auto it = hists.find(name);
    return it == hists.end() || it->second.count == 0 ? nullptr : &it->second;
  };
  double trial_p50 = 0.0, trial_p99 = 0.0;
  if (const obs::Histogram* lat = hist("campaign.strategy_seconds")) {
    trial_p50 = histogram_quantile(*lat, 0.50);
    trial_p99 = histogram_quantile(*lat, 0.99);
    std::printf("  trial latency ........ p50 %.2f ms, p99 %.2f ms (%llu trials)\n",
                trial_p50 * 1e3, trial_p99 * 1e3, (unsigned long long)lat->count);
  }
  std::uint64_t early_cuts = metric_counter(result.metrics, "scenario.early_exit_runs");
  std::printf("  early exit ........... %llu runs cut at quiescence\n",
              (unsigned long long)early_cuts);
  // Stage sums are cpu-seconds across all executors (and retests nest inside
  // strategy time), so they are a *where does the time go* profile, not a
  // partition of the wall clock.
  static const char* kStages[] = {
      "campaign.baseline_seconds",     "campaign.strategy_seconds",
      "campaign.retest_seconds",       "campaign.combination_seconds",
      "scenario.run_seconds",          "snapshot.session_build_seconds",
      "snapshot.restore_seconds"};
  std::printf("  stage breakdown (cpu-seconds / samples):\n");
  for (const char* name : kStages)
    if (const obs::Histogram* h = hist(name))
      std::printf("    %-30s %9.3f s / %llu\n", name, h->sum,
                  (unsigned long long)h->count);

  std::uint64_t forked = metric_counter(result.metrics, "snapshot.forked_runs");
  std::uint64_t snap_fallback = metric_counter(result.metrics, "snapshot.fallback_runs");
  std::uint64_t sessions = metric_counter(result.metrics, "snapshot.sessions_built");
  std::uint64_t pool_exhausted = metric_counter(result.metrics, "snapshot.pool_exhausted");
  if (workers <= 0)
    std::printf("  snapshot forking ..... %llu forked, %llu fallback, %llu sessions, "
                "%llu pool-exhausted\n",
                (unsigned long long)forked, (unsigned long long)snap_fallback,
                (unsigned long long)sessions, (unsigned long long)pool_exhausted);

  std::uint64_t fallback = metric_counter(result.metrics, "campaign.backend_fallback");
  if (workers > 0) {
    std::printf("  distribution ......... %d workers spawned, %d lost, "
                "%llu trials stolen, %llu run inline\n",
                backend->workers_spawned(), backend->workers_lost(),
                (unsigned long long)backend->trials_stolen(),
                (unsigned long long)backend->inline_trials());
    std::printf("  fleet supervision .... %d respawned, %d slots quarantined, "
                "%llu frames rejected\n",
                backend->workers_respawned(), backend->slots_quarantined(),
                (unsigned long long)backend->frames_rejected());
    if (verify_sample > 0 || cache_view.has_value())
      std::printf("  byzantine verify ..... %llu re-executed, %llu divergent\n",
                  (unsigned long long)backend->trials_verified(),
                  (unsigned long long)backend->results_divergent());
    const std::string report = backend->fleet_report();
    if (!report.empty()) std::fprintf(stderr, "%s\n", report.c_str());
    if (fallback > 0)
      std::fprintf(stderr,
                   "  (distributed backend failed to start; campaign ran in-process%s)\n",
                   selfcheck ? ", selfcheck skipped" : "");
  }
  if (cache_path != nullptr)
    std::printf("  result cache ......... %llu hits, %llu stores (%s)\n",
                (unsigned long long)result.cache_hits,
                (unsigned long long)result.cache_stores, cache_path);

  // --search greybox: attacks-found-per-N-trials vs the exhaustive grid on
  // the identical scenario. The twin runs in-process (mode order is
  // backend-invariant) and shares the result cache when one is attached, so
  // on a warm cache the comparison costs almost nothing.
  std::optional<CampaignResult> grid_twin;
  if (greybox) {
    std::printf("  search ............... greybox: %llu rounds, %llu mutation children\n",
                (unsigned long long)result.search_rounds,
                (unsigned long long)result.search_mutations);
    CampaignConfig twin = config;
    twin.backend = nullptr;
    twin.scenario.inspector = nullptr;
    twin.search_mode = search::SearchMode::kGrid;
    grid_twin = run_campaign(twin);
    auto first = [](const CampaignResult& r) {
      return r.trials_to_first_attack == 0
                 ? std::string("none found")
                 : "first attack at trial " + std::to_string(r.trials_to_first_attack);
    };
    std::printf("== Search comparison (same scenario, %llu-trial budget each) ==\n",
                (unsigned long long)cap);
    std::printf("  greybox .............. %llu attacks in %llu trials, %s\n",
                (unsigned long long)result.attack_strategies_found,
                (unsigned long long)result.strategies_tried, first(result).c_str());
    std::printf("  grid ................. %llu attacks in %llu trials, %s\n",
                (unsigned long long)grid_twin->attack_strategies_found,
                (unsigned long long)grid_twin->strategies_tried, first(*grid_twin).c_str());
  }

  std::uint64_t violations = 0;
  if (selfcheck) {
    if (workers > 0 && fallback == 0) {
      violations = backend->selfcheck_violations();
      std::printf("  selfcheck ............ distributed, %llu violations\n",
                  (unsigned long long)violations);
    } else {
      testing::OracleReport report = oracles.report();
      violations = report.violations.size();
      std::printf("  selfcheck ............ %llu runs, %zu violations\n",
                  (unsigned long long)oracles.runs_checked(), report.violations.size());
      if (!report.ok()) std::fprintf(stderr, "%s\n", report.summary().c_str());
    }
  }
  bool oracles_ok = violations == 0;

  // Baseline comparison (same-machine trajectories only).
  double baseline_sps = 0;
  bool have_baseline = false;
  if (baseline_path != nullptr) {
    std::ifstream in(baseline_path);
    if (in) {
      std::stringstream buf;
      buf << in.rdbuf();
      if (auto doc = obs::parse_json(buf.str())) {
        if (const obs::JsonValue* results = doc->find("results"))
          if (const obs::JsonValue* sps = results->find("strategies_per_sec")) {
            baseline_sps = sps->number_or(0);
            have_baseline = baseline_sps > 0;
          }
      }
    }
    if (have_baseline) {
      std::printf("  baseline ............. %.2f strategies/sec (speedup %.2fx)\n",
                  baseline_sps, strategies_per_sec / baseline_sps);
    } else {
      std::printf("  baseline ............. %s unreadable, no comparison\n", baseline_path);
    }
  }

  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value("snake-bench-campaign/v1");
  w.key("config").begin_object();
  w.key("protocol").value(to_string(protocol));
  w.key("cap").value(cap);
  w.key("duration_seconds").value(duration);
  w.key("executors").value(executors);
  w.key("workers").value(workers);
  w.key("seed").value(config.scenario.seed);
  w.key("search").value(search::to_string(search_mode));
  w.key("space").value(enlarged_space ? "enlarged" : "default");
  if (protocol == Protocol::kTcp) w.key("tcp_profile").value(config.scenario.tcp_profile.name);
  w.key("workload").value(to_string(config.scenario.workload));
  if (trace_path != nullptr) {
    w.key("trace_file").value(trace_path);
    w.key("trace_flows").value(static_cast<std::uint64_t>(trace_flows));
    w.key("trace_hash").value(trace::trace_text_hash(config.scenario.trace_text));
  }
  if (cache_path != nullptr) w.key("result_cache").value(cache_path);
  if (workers > 0) {
    if (heartbeat_timeout_ms > 0) w.key("heartbeat_timeout_ms").value(heartbeat_timeout_ms);
    if (respawn_limit >= 0) w.key("respawn_limit").value(respawn_limit);
    if (verify_sample > 0) w.key("verify_sample").value(verify_sample);
    if (chaos) {
      w.key("chaos_seed").value(chaos_seed);
      w.key("chaos_period").value(chaos_period);
    }
  }
  w.end_object();
  w.key("results").begin_object();
  w.key("wall_seconds").value(wall);
  w.key("strategies_tried").value(result.strategies_tried);
  w.key("strategies_per_sec").value(strategies_per_sec);
  w.key("scenario_runs").value(runs);
  w.key("runs_per_sec").value(runs_per_sec);
  w.key("events_executed").value(events);
  w.key("events_per_sec").value(events_per_sec);
  w.key("peak_rss_mib").value(rss);
  w.key("attack_strategies_found").value(result.attack_strategies_found);
  w.key("early_exit_runs").value(early_cuts);
  w.key("search").begin_object();
  w.key("mode").value(search::to_string(result.search_mode));
  w.key("trials_to_first_attack").value(result.trials_to_first_attack);
  w.key("rounds").value(result.search_rounds);
  w.key("mutations").value(result.search_mutations);
  w.end_object();
  w.key("trial_latency").begin_object();
  w.key("p50_seconds").value(trial_p50);
  w.key("p99_seconds").value(trial_p99);
  w.end_object();
  w.key("stages").begin_object();
  for (const char* name : kStages)
    if (const obs::Histogram* h = hist(name)) {
      w.key(name).begin_object();
      w.key("count").value(h->count);
      w.key("sum_seconds").value(h->sum);
      w.end_object();
    }
  w.end_object();
  if (workers <= 0) {
    w.key("snapshots").begin_object();
    w.key("forked_runs").value(forked);
    w.key("fallback_runs").value(snap_fallback);
    w.key("sessions_built").value(sessions);
    w.key("pool_exhausted").value(pool_exhausted);
    w.end_object();
  }
  if (workers > 0) {
    w.key("distribution").begin_object();
    w.key("workers_spawned").value(backend->workers_spawned());
    w.key("workers_lost").value(backend->workers_lost());
    w.key("trials_stolen").value(backend->trials_stolen());
    w.key("inline_trials").value(backend->inline_trials());
    w.key("backend_fallback").value(fallback);
    w.key("workers_respawned").value(backend->workers_respawned());
    w.key("slots_quarantined").value(backend->slots_quarantined());
    w.key("frames_rejected").value(backend->frames_rejected());
    w.key("trials_verified").value(backend->trials_verified());
    w.key("results_divergent").value(backend->results_divergent());
    w.end_object();
  }
  if (cache_path != nullptr) {
    w.key("result_cache").begin_object();
    w.key("hits").value(result.cache_hits);
    w.key("stores").value(result.cache_stores);
    w.end_object();
  }
  if (selfcheck) {
    w.key("selfcheck").begin_object();
    if (workers <= 0) w.key("runs_checked").value(oracles.runs_checked());
    w.key("violations").value(violations);
    w.end_object();
  }
  w.end_object();
  if (grid_twin.has_value()) {
    w.key("search_comparison").begin_object();
    w.key("trial_budget").value(cap);
    w.key("greybox").begin_object();
    w.key("attacks_found").value(result.attack_strategies_found);
    w.key("strategies_tried").value(result.strategies_tried);
    w.key("trials_to_first_attack").value(result.trials_to_first_attack);
    w.end_object();
    w.key("grid").begin_object();
    w.key("attacks_found").value(grid_twin->attack_strategies_found);
    w.key("strategies_tried").value(grid_twin->strategies_tried);
    w.key("trials_to_first_attack").value(grid_twin->trials_to_first_attack);
    w.end_object();
    w.end_object();
  }
  if (have_baseline) {
    w.key("baseline").begin_object();
    w.key("path").value(baseline_path);
    w.key("strategies_per_sec").value(baseline_sps);
    w.key("speedup").value(strategies_per_sec / baseline_sps);
    w.end_object();
  }
  w.end_object();

  std::FILE* f = std::fopen(json_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path);
    return 1;
  }
  std::fputs(w.str().c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("  wrote %s\n", json_path);
  return oracles_ok ? 0 : 2;
}
