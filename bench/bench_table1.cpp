// Table I reproduction: full SNAKE campaigns against each implementation.
// This is the repo's one campaign CLI: the CI smokes drive it too.
//
//   bench_table1 [--full] [--cap N] [--duration SECONDS] [--executors N]
//                [--protocol tcp|dccp] [--tcp-profile NAME]
//                [--json PATH] [--journal PREFIX] [--resume]
//                [--workers N] [--result-cache PATH] [--result-cache-compact]
//                [--heartbeat-timeout-ms N] [--respawn-limit N]
//                [--verify-sample N] [--chaos SEED] [--chaos-period N]
//                [--search grid|greybox] [--space default|enlarged]
//                [--workload bulk|trace:FILE] [--trace-flows N] [--selfcheck]
//
// The command line is strict (bench/cli.h): an unknown flag, a missing
// value, a malformed or out-of-range number, or a word outside a flag's
// choices prints the flag and exits with status 2.
//
// Rows: every TCP profile (tcp::all_tcp_profiles) plus DCCP/Linux-3.13.
// --protocol keeps the rows of one protocol; --tcp-profile keeps the one
// TCP row of that profile.
//
// --workload trace:FILE replays a snake-trace/v1 file (src/trace) as every
// TCP campaign's target-connection workload instead of the synthetic bulk
// download (DCCP keeps its iperf stream). The trace folds into each
// campaign's identity hash, so journals/--resume/result-cache entries from
// different traces never cross-contaminate.
//
// --search greybox walks each implementation's strategy space with the
// feedback-guided pool search (src/search) instead of exhaustive grid order.
// Under a --cap budget that front-loads the high-yield strategies, so the
// capped Table-I rows fill in far fewer trials; an uncapped run visits the
// same universe either way. Deterministic per seed like the grid: journals,
// --resume and the result cache work unchanged (search mode is not part of
// the campaign identity). --space enlarged widens the delivery-attack
// ladders (strategy::enlarge_delivery_ladders) to the richer sweep the
// search exists for; search_test pins that greybox reaches its first attack
// there in fewer trials than the grid.
//
// --workers N runs each campaign on N forked worker processes (src/dist)
// instead of the in-process executor pool; results are bit-identical either
// way, so the distributed run produces the exact Table-I rows of the
// single-process one. --result-cache PATH memoizes trial verdicts across
// campaigns and process runs in a checksummed JSONL file: re-running the
// bench with the same configuration replays cached verdicts instead of
// re-simulating (cache entries are scoped per campaign identity, so the
// implementation sweeps never cross-contaminate). --result-cache-compact
// rewrites that file crash-safely before loading it, dropping torn,
// poisoned and duplicate lines left by crashed runs.
//
// Fleet supervision (DESIGN.md "Fleet supervision & chaos"):
// --heartbeat-timeout-ms bounds how long a silent worker stays trusted,
// --respawn-limit caps replacement processes per slot before quarantine, and
// --verify-sample N re-executes ~one in N worker results on the coordinator
// (byzantine defence; the result cache, when given, is also cross-checked
// against worker results). --chaos SEED arms the seed-keyed wire fault
// injector on every worker socket (torn/garbage/duplicated/delayed frames,
// stalled heartbeats, mid-write deaths), firing about once per
// --chaos-period sends; a chaos campaign must still finish on the fleet
// with the results of a clean one.
//
// --selfcheck attaches the property-suite invariant oracles (clock
// monotonicity, TCP sequence space, tracker legality, pool balance; see
// src/testing/oracles.h) to every trial, in process or inside each worker.
// Each campaign's report counts them as selfcheck.violations, and the exit
// status is 2 if any trial violated an invariant.
//
// --journal PREFIX checkpoints every finished trial to a per-campaign JSONL
// journal (PREFIX.<implementation>.<protocol>.jsonl); --resume loads those
// journals back and skips the trials they already record, so a killed bench
// restarted with the same configuration picks up where it died and still
// produces the exact results of an uninterrupted run. Journals and result
// caches share one line format, so the concatenated journals of a run are a
// valid --result-cache file.
//
// --json records the whole bench trajectory as a structured report (schema
// "snake-bench-table1/v1"): run configuration plus one full campaign report
// per implementation — Table-I columns, every outcome with detection ratios
// and signature, cache hits and stores, and the merged metrics snapshot
// (per-stage timings, per-layer work counters, the dist.* fleet counters and
// campaign.backend_fallback).
//
// The default is a bounded campaign (250 strategies per implementation,
// 10 s virtual tests, partial hitseqwindow sweeps) sized for a laptop core;
// --full runs every generated strategy with full-fidelity sweeps.
//
// For every implementation this runs the whole pipeline — baseline,
// incremental state-based strategy generation, parallel executors,
// detection vs baseline, repeatability retest, classification — and prints
// the Table I columns: strategies tried, attack strategies found, on-path,
// false positives, true attack strategies, unique true attacks.
//
// Absolute counts depend on the strategy budget (the paper spent 60 hours
// per implementation; see EXPERIMENTS.md for the expected shape: a few
// percent of tried strategies are flagged, most flagged ones are on-path,
// a handful of unique true attacks remain).
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "cli.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "obs/json.h"
#include "search/search.h"
#include "snake/controller.h"
#include "snake/faultpoint.h"
#include "snake/journal.h"
#include "statemachine/protocol_specs.h"
#include "strategy/generator.h"
#include "tcp/profile.h"
#include "testing/oracles.h"
#include "trace/trace.h"

using namespace snake;
using namespace snake::core;

namespace {

std::optional<std::string> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

std::unique_ptr<testing::ScenarioOracles> make_oracles(Protocol protocol) {
  return std::make_unique<testing::ScenarioOracles>(
      protocol == Protocol::kTcp ? statemachine::tcp_state_machine()
                                 : statemachine::dccp_state_machine(),
      protocol == Protocol::kTcp);
}

// --selfcheck inside worker processes: snake_dist cannot link the testing
// layer, so the worker re-entry hands these hooks down and each worker
// builds its own protocol-appropriate oracle bundle.
dist::WorkerHooks oracle_hooks() {
  dist::WorkerHooks hooks;
  hooks.make_inspector = [](const ScenarioConfig& sc) -> std::unique_ptr<RunInspector> {
    return make_oracles(sc.protocol);
  };
  hooks.violations = [](RunInspector& inspector) {
    return static_cast<std::uint64_t>(
        static_cast<testing::ScenarioOracles&>(inspector).report().violations.size());
  };
  return hooks;
}

}  // namespace

int main(int argc, char** argv) {
  // Worker re-entry: when a coordinator forked us with --snake-worker-child,
  // run the worker loop and exit — before parsing anything else.
  if (auto code = dist::maybe_run_worker(argc, argv, oracle_hooks())) return *code;

  std::uint64_t cap = 250;
  std::uint64_t hitseq_cap = 8000;  // partial sweeps: probabilistic hits
  double duration = 10.0;
  unsigned hc = std::thread::hardware_concurrency();
  int executors = hc > 4 ? static_cast<int>(hc) - 2 : 2;
  const char* json_path = nullptr;
  const char* journal_prefix = nullptr;
  const char* cache_path = nullptr;
  bool compact_cache = false;
  bool resume = false;
  int workers = 0;
  int heartbeat_timeout_ms = 0;  // 0 = DistOptions default
  int respawn_limit = -1;        // <0 = SupervisorOptions default
  std::uint64_t verify_sample = 0;
  std::uint64_t chaos_seed = 0;
  std::uint32_t chaos_period = 7;
  search::SearchMode search_mode = search::SearchMode::kGrid;
  bool enlarged_space = false;
  const char* trace_path = nullptr;
  std::size_t trace_flows = 8;
  bool selfcheck = false;
  Protocol only_protocol = Protocol::kTcp;
  std::string only_profile;
  std::vector<std::pair<std::string, std::string>> profile_names;
  for (const tcp::TcpProfile& p : tcp::all_tcp_profiles())
    profile_names.emplace_back(p.name, p.name);
  bench::Cli cli("bench_table1");
  cli.flag("--full",
           [&] {
             cap = 0;         // every generated strategy
             hitseq_cap = 0;  // full-fidelity sweeps
             duration = 15.0;
           })
      .integer("--cap", cap)
      .number("--duration", duration, 0.001, 1e6)
      .integer("--executors", executors, 1, 1024)
      .choice("--protocol", only_protocol,
              {{"tcp", Protocol::kTcp}, {"dccp", Protocol::kDccp}})
      .choice("--tcp-profile", only_profile, std::move(profile_names))
      .text("--json", json_path)
      .text("--journal", journal_prefix)
      .flag("--resume", resume)
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
      .custom("--workload",
              [&](std::string_view v) -> std::string {
                if (v.substr(0, 6) == "trace:" && v.size() > 6) {
                  trace_path = v.data() + 6;
                  return "";
                }
                return v == "bulk" ? "" : "expected bulk|trace:FILE, got '" + std::string(v) + "'";
              })
      .integer("--trace-flows", trace_flows)
      .flag("--selfcheck", selfcheck);
  if (!cli.parse(argc, argv)) return 2;
  const bool chaos = cli.given("--chaos");
  // Which Table I rows run: both protocols unless --protocol narrows them,
  // one TCP row when --tcp-profile names it.
  const bool run_tcp = !cli.given("--protocol") || only_protocol == Protocol::kTcp;
  const bool run_dccp = !cli.given("--protocol") || only_protocol == Protocol::kDccp;
  if (!run_tcp && !only_profile.empty()) {
    std::fprintf(stderr, "bench_table1: --tcp-profile: names a TCP row, but --protocol is dccp\n");
    return 2;
  }
  // Parsed once here; every TCP row's config shares this parse.
  trace::TraceText trace_text;
  if (trace_path != nullptr) {
    std::optional<std::string> text = read_file(trace_path);
    if (!text.has_value()) {
      std::fprintf(stderr, "--workload trace: cannot read %s\n", trace_path);
      return 1;
    }
    trace_text = std::move(*text);
    if (!trace_text.error().empty()) {
      std::fprintf(stderr, "--workload trace: %s: %s\n", trace_path,
                   trace_text.error().c_str());
      return 1;
    }
  }
  if (resume && journal_prefix == nullptr) {
    std::fprintf(stderr, "--resume requires --journal PREFIX\n");
    return 1;
  }
  if (compact_cache && cache_path == nullptr) {
    std::fprintf(stderr, "--result-cache-compact needs --result-cache PATH\n");
    return 1;
  }
  if (chaos && workers <= 0) {
    std::fprintf(stderr, "--chaos needs --workers N (wire faults live on worker sockets)\n");
    return 1;
  }

  // One cross-campaign result cache shared by every implementation sweep; each campaign binds a view scoped to its own identity hash.
  std::optional<TrialLog> result_cache;
  if (cache_path != nullptr) {
    result_cache.emplace(cache_path);
    if (compact_cache) {
      TrialLog::CompactStats st = result_cache->compact();
      if (!st.ok)
        std::fprintf(stderr, "result cache %s: compaction failed, loading as-is\n", cache_path);
      else
        std::printf("result cache %s: compacted to %zu line(s), dropped %llu invalid + "
                    "%llu duplicate\n",
                    cache_path, st.kept, (unsigned long long)st.dropped_invalid,
                    (unsigned long long)st.dropped_duplicate);
    }
    if (!result_cache->load())
      std::fprintf(stderr, "result cache %s unreadable; starting cold\n", cache_path);
    if (result_cache->rejected() > 0)
      std::fprintf(stderr, "result cache %s: dropped %llu invalid line(s)\n", cache_path,
                   (unsigned long long)result_cache->rejected());
  }

  std::printf("== Table I: SNAKE campaign summary ==\n");
  std::printf("(%s strategy budget, %.0fs virtual per test, %d executors, "
              "%s search; counts scale with the budget — see EXPERIMENTS.md)\n",
              cap == 0 ? "full" : "capped", duration, executors,
              search::to_string(search_mode));
  if (workers > 0)
    std::printf("(distributed: %d worker processes per campaign)\n", workers);
  if (chaos)
    std::printf("(wire chaos: seed %llu, about one fault per %u sends)\n",
                (unsigned long long)chaos_seed, chaos_period);
  std::printf("\n");
  std::printf("%s\n", table1_header().c_str());

  std::uint64_t selfcheck_violations = 0;
  auto run_one = [&](Protocol protocol, const tcp::TcpProfile& profile) {
    CampaignConfig config;
    config.scenario.protocol = protocol;
    config.scenario.tcp_profile = profile;
    config.scenario.test_duration = Duration::seconds(duration);
    config.scenario.seed = 5;
    if (protocol == Protocol::kTcp && !trace_text.empty()) {
      config.scenario.workload = Workload::kTrace;
      config.scenario.trace_text = trace_text;
      config.scenario.trace_max_flows = trace_flows;
    }
    // SACK-negotiating profiles search the SACK-aware strategy universe so
    // the generated attacks can reach the scoreboard/DSACK machinery.
    config.generator = protocol != Protocol::kTcp ? strategy::dccp_generator_config()
                       : profile.sack             ? strategy::tcp_sack_generator_config()
                                                  : strategy::tcp_generator_config();
    if (hitseq_cap != 0) config.generator.hitseq_max_packets = hitseq_cap;
    if (enlarged_space) strategy::enlarge_delivery_ladders(config.generator);
    config.executors = executors;
    config.max_strategies = cap;
    config.search_mode = search_mode;

    // --selfcheck in process: one thread-safe oracle bundle shared by every
    // executor. A fleet builds its own bundles through oracle_hooks().
    std::unique_ptr<testing::ScenarioOracles> oracles;
    if (selfcheck && workers <= 0) {
      oracles = make_oracles(protocol);
      config.scenario.inspector = oracles.get();
    }

    // Per-campaign checkpoint journal. Each finished trial is appended and
    // flushed immediately, so a killed bench leaves every complete line
    // behind; --resume replays them instead of re-running the trials.
    const std::uint64_t identity = journal_prefix != nullptr || result_cache.has_value()
                                       ? campaign_identity_hash(config)
                                       : 0;
    std::FILE* journal_file = nullptr;
    std::unique_ptr<TrialJournal> journal;
    std::optional<TrialLog> resume_log;
    if (journal_prefix != nullptr) {
      std::string path = std::string(journal_prefix) + "." + profile.name + "." +
                         (protocol == Protocol::kTcp ? "tcp" : "dccp") + ".jsonl";
      if (resume) {
        resume_log.emplace();
        if (!resume_log->ingest_file(path))
          std::fprintf(stderr, "  (journal %s unreadable; starting fresh)\n", path.c_str());
        else if (resume_log->rejected() > 0)
          std::fprintf(stderr, "  (journal %s: skipped %llu invalid line(s))\n", path.c_str(),
                       static_cast<unsigned long long>(resume_log->rejected()));
        if (!resume_log->holds(identity)) {
          if (!resume_log->empty())
            std::fprintf(stderr,
                         "  (journal %s was recorded by a different configuration; "
                         "starting fresh)\n", path.c_str());
          resume_log.reset();
        }
      }
      // Resumable log: append new trials after the recorded ones. Fresh (or
      // unusable) journal: truncate.
      journal_file = std::fopen(path.c_str(), resume_log.has_value() ? "a" : "w");
      if (journal_file == nullptr) {
        std::fprintf(stderr, "cannot open journal %s\n", path.c_str());
        std::exit(1);
      }
      journal = std::make_unique<TrialJournal>([journal_file](std::string_view line) {
        std::fwrite(line.data(), 1, line.size(), journal_file);
        std::fflush(journal_file);
      });
      config.journal = journal.get();
      if (resume_log.has_value()) config.resume = &*resume_log;
    }

    // Cache view first: the same view doubles as the coordinator's
    // byzantine verify_cache below.
    std::optional<TrialLog::View> cache_view;
    if (result_cache.has_value()) {
      cache_view.emplace(result_cache->view(identity));
      config.cache = &*cache_view;
    }

    // Distribution: a fresh worker fleet per campaign (spawned in start(),
    // torn down in finish()); the coordinator-side journal above keeps
    // working unchanged since trials are committed coordinator-side.
    std::optional<dist::DistributedBackend> backend;
    if (workers > 0) {
      dist::DistOptions opt;
      opt.workers = workers;
      opt.selfcheck = selfcheck;
      if (heartbeat_timeout_ms > 0) opt.heartbeat_timeout_ms = heartbeat_timeout_ms;
      if (respawn_limit >= 0) opt.supervision.respawn_limit = respawn_limit;
      opt.verify_sample = verify_sample;
      if (cache_view.has_value()) opt.verify_cache = &*cache_view;
      if (chaos) {
        opt.wire_fault_seed = chaos_seed;
        opt.wire_fault_mask = core::kAllWireFaults;
        opt.wire_fault_period = chaos_period;
        opt.supervision.seed = chaos_seed;
        // Injected mid-write deaths are *supposed* to kill workers
        // repeatedly; the crash-loop detector would read that as a broken
        // host and quarantine every slot. Under chaos only the respawn
        // budget bounds the fleet, same as the chaos-soak suite.
        opt.supervision.crash_loop_failures = 1 << 20;
        if (respawn_limit < 0) opt.supervision.respawn_limit = 64;
        opt.supervision.backoff_base_ms = 5;
        opt.supervision.backoff_cap_ms = 50;
      }
      backend.emplace(std::move(opt));
      config.backend = &*backend;
    }

    CampaignResult result = run_campaign(config);
    if (journal_file != nullptr) std::fclose(journal_file);
    const auto fallback = result.metrics.counters().find("campaign.backend_fallback");
    const bool fell_back = fallback != result.metrics.counters().end() && fallback->second > 0;
    if (fell_back)
      std::fprintf(stderr, "  (distributed backend failed to start; campaign ran in-process%s)\n",
                   selfcheck ? ", selfcheck skipped" : "");
    if (selfcheck) {
      std::uint64_t violations = 0;
      if (oracles != nullptr) {
        const testing::OracleReport report = oracles->report();
        violations = report.violations.size();
        if (!report.ok()) std::fprintf(stderr, "%s\n", report.summary().c_str());
      } else if (!fell_back) {
        violations = backend->selfcheck_violations();
      }
      result.metrics.counter("selfcheck.violations") += violations;
      selfcheck_violations += violations;
    }
    if (result.cache_hits > 0)
      std::printf("  (result cache: %llu of %llu trials replayed)\n",
                  static_cast<unsigned long long>(result.cache_hits),
                  static_cast<unsigned long long>(result.strategies_tried));
    if (result.resume_skipped > 0)
      std::printf("  (resumed: %llu of %llu trials replayed from the journal)\n",
                  static_cast<unsigned long long>(result.resume_skipped),
                  static_cast<unsigned long long>(result.strategies_tried));
    std::printf("%s\n", result.summary_row().c_str());
    std::fflush(stdout);
    return result;
  };

  // With --json each campaign's report is appended to the file as soon as
  // the campaign finishes (JsonWriter in streaming mode, flushed per
  // document), so the process never holds more than one report in memory
  // and a killed run leaves the completed campaigns on disk.
  std::FILE* json_file = nullptr;
  std::unique_ptr<obs::JsonWriter> json;
  if (json_path != nullptr) {
    json_file = std::fopen(json_path, "w");
    if (json_file == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path);
      return 1;
    }
    json = std::make_unique<obs::JsonWriter>(
        [json_file](std::string_view chunk) {
          std::fwrite(chunk.data(), 1, chunk.size(), json_file);
        });
    json->begin_object();
    json->key("schema").value("snake-bench-table1/v1");
    json->key("config").begin_object();
    json->key("cap").value(cap);
    json->key("hitseq_cap").value(hitseq_cap);
    json->key("duration_seconds").value(duration);
    json->key("executors").value(executors);
    json->key("workers").value(workers);
    json->key("search").value(search::to_string(search_mode));
    json->key("space").value(enlarged_space ? "enlarged" : "default");
    json->key("selfcheck").value(selfcheck);
    if (chaos) {
      json->key("chaos_seed").value(chaos_seed);
      json->key("chaos_period").value(chaos_period);
    }
    json->key("workload").value(trace_path != nullptr ? "trace" : "bulk");
    if (trace_path != nullptr) {
      json->key("trace_file").value(trace_path);
      json->key("trace_flows").value(static_cast<std::uint64_t>(trace_flows));
      json->key("trace_hash").value(trace::trace_text_hash(trace_text.text()));
    }
    json->end_object();
    json->key("campaigns").begin_array();
    json->flush();
  }

  std::vector<CampaignResult> results;
  auto record = [&](CampaignResult r) {
    if (json != nullptr) {
      r.write_json(*json);
      json->flush();
    }
    results.push_back(std::move(r));
  };
  for (const tcp::TcpProfile& profile : tcp::all_tcp_profiles())
    if (run_tcp && (only_profile.empty() || profile.name == only_profile))
      record(run_one(Protocol::kTcp, profile));
  if (run_dccp && only_profile.empty())
    record(run_one(Protocol::kDccp, tcp::linux_3_13_profile()));

  std::printf("\nUnique true attacks per implementation (deduplicated signatures):\n");
  for (const CampaignResult& r : results) {
    std::printf("  %s (%s):\n", r.implementation.c_str(),
                r.protocol == Protocol::kTcp ? "TCP" : "DCCP");
    for (const std::string& sig : r.unique_signatures) std::printf("    %s\n", sig.c_str());
  }

  if (json != nullptr) {
    json->end_array();
    json->end_object();
    json->flush();
    json.reset();
    std::fputc('\n', json_file);
    std::fclose(json_file);
    std::printf("\nwrote JSON report to %s\n", json_path);
  }
  if (selfcheck)
    std::printf("\nselfcheck: %llu invariant violation(s)\n",
                (unsigned long long)selfcheck_violations);
  return selfcheck_violations == 0 ? 0 : 2;
}
