// Distributed campaign orchestration tests (src/dist):
//  - determinism: a campaign run across worker processes produces the same
//    CampaignResult as its single-process twin for equal seeds, including
//    with a worker killed mid-campaign and with a warm result cache;
//  - the coordinator's progress callback stays sequential and monotonic
//    whatever the fleet does;
//  - the wire protocol: exact round-trips for Strategy / Detection /
//    TrialRecord, baseline renderings in the ready frame, frame codec
//    behaviour, worker-side steal handling driven by a hand-rolled
//    coordinator;
//  - the trial-record log as cross-campaign result cache: hit/miss scoping
//    by campaign identity, checksum rejection of tampered (poisoned) lines,
//    persistence, compaction;
//  - fleet metrics: a campaign's counters are a function of its committed
//    trials, so they match the in-process campaign's line for line, worker
//    deaths included;
//  - the campaign identity's field coverage;
//  - trial logs read from several files into one, with truncated tails,
//    duplicates and mismatched identities.
//
// This binary supplies its own main(): a worker re-entered through
// /proc/self/exe must take the --snake-worker-child branch before gtest
// parses argv.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dist/coordinator.h"
#include "dist/supervisor.h"
#include "dist/wire.h"
#include "dist/worker.h"
#include "obs/json.h"
#include "snake/controller.h"
#include "snake/faultpoint.h"
#include "snake/trial_runner.h"
#include "strategy/generator.h"
#include "tcp/profile.h"
#include "testing/property.h"
#include "util/strings.h"

namespace snake {
namespace {

namespace fs = std::filesystem;

core::CampaignConfig small_campaign() {
  core::CampaignConfig config;
  config.scenario.protocol = core::Protocol::kTcp;
  config.scenario.tcp_profile = tcp::linux_3_13_profile();
  config.scenario.test_duration = Duration::seconds(5.0);
  config.scenario.seed = 7;
  config.generator = strategy::tcp_generator_config();
  config.generator.hitseq_max_packets = 2000;
  config.executors = 2;
  config.max_strategies = 14;
  return config;
}

/// A campaign over a SACK-negotiating profile, narrowed to the
/// SACK-relevant universe (drop-100 plus SACK mirror-bit lies, no
/// off-path). Mirrors sack_campaign() in snake_test.cpp, which asserts the
/// discovery side; here it checks the distributed backend reproduces the
/// thread pool bit for bit on the SACK-era universe too.
core::CampaignConfig sack_campaign() {
  core::CampaignConfig config;
  config.scenario.protocol = core::Protocol::kTcp;
  config.scenario.tcp_profile = tcp::sack_rfc2018_profile();
  config.scenario.test_duration = Duration::seconds(8.0);
  config.scenario.seed = 5;
  config.generator = strategy::tcp_sack_generator_config();
  config.generator.inject_packet_types.clear();
  config.generator.drop_probabilities = {100.0};
  config.generator.duplicate_counts.clear();
  config.generator.delay_seconds.clear();
  config.generator.batch_seconds.clear();
  config.generator.enable_reflect = false;
  config.generator.lie_exclude_fields = {"src_port", "dst_port", "seq",
                                         "ack",      "data_offset", "reserved",
                                         "flags",    "window",   "urgent_ptr"};
  config.executors = 2;
  return config;
}

/// The deterministic surface of a CampaignResult, as one comparable string.
/// Metrics are excluded on purpose: wall-clock histograms never repeat, and
/// workers legitimately run extra baselines. Everything else must match.
std::string result_fingerprint(const core::CampaignResult& r) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("summary").value(r.summary_row());
  w.key("tried").value(r.strategies_tried);
  w.key("found").begin_array();
  for (const core::StrategyOutcome& o : r.found) {
    w.begin_object();
    w.key("key").value(strategy::canonical_key(o.strat));
    w.key("signature").value(o.signature);
    w.key("cls").value(static_cast<int>(o.cls));
    w.key("target_ratio").value(o.detection.target_ratio);
    w.key("competing_ratio").value(o.detection.competing_ratio);
    w.end_object();
  }
  w.end_array();
  w.key("signatures").begin_array();
  for (const std::string& s : r.unique_signatures) w.value(s);
  w.end_array();
  w.key("quarantined").begin_array();
  for (const auto& q : r.quarantined) {
    w.begin_object();
    w.key("key").value(q.key);
    w.key("verdict").value(core::to_string(q.verdict));
    w.end_object();
  }
  w.end_array();
  w.key("baseline_target").value(r.baseline.target_bytes);
  w.key("baseline_competing").value(r.baseline.competing_bytes);
  w.key("aborted").value(r.trials_aborted);
  w.key("errored").value(r.trials_errored);
  w.key("retried").value(r.trials_retried);
  w.end_object();
  return w.take();
}

/// Runs `config` with a TrialJournal attached as its journal, and checks
/// that the journal holds one valid line per trial the campaign tried,
/// under the campaign's identity, whichever backend ran them. `log`
/// receives the journal when given.
core::CampaignResult run_journaled(core::CampaignConfig config, core::TrialLog* log = nullptr) {
  std::string text;
  core::TrialJournal journal([&](std::string_view line) { text.append(line); });
  config.journal = &journal;
  core::CampaignResult result = core::run_campaign(config);
  core::TrialLog local;
  core::TrialLog& read = log != nullptr ? *log : local;
  read.ingest(text);
  EXPECT_EQ(read.rejected(), 0u);
  EXPECT_EQ(read.count(core::campaign_identity_hash(config)), result.strategies_tried);
  EXPECT_EQ(read.size(), result.strategies_tried);
  return result;
}

/// The registry counters that must not depend on where trials ran, one
/// "name value" line each: everything except the fleet's own dist.*
/// tallies, and the two counters that depend on which executor ran a
/// trial (sessions built per snapshot store, buffers reused per arena).
std::string trial_counter_lines(const core::CampaignResult& r) {
  std::string out;
  for (const auto& [name, v] : r.metrics.counters()) {
    if (name.starts_with("dist.") || name == "snapshot.sessions_built" ||
        name == "sim.buffers_reused")
      continue;
    out += name + " " + std::to_string(v) + "\n";
  }
  return out;
}

/// Options for a fleet under every wire fault at once, with a supervision
/// budget generous enough that the fleet outruns the chaos: nothing may
/// quarantine and nothing may run inline.
dist::DistOptions chaos_options(std::uint64_t seed) {
  dist::DistOptions options;
  options.workers = 2;
  options.wire_fault_seed = seed;
  options.wire_fault_mask = core::kAllWireFaults;
  options.wire_fault_period = 7;
  options.heartbeat_timeout_ms = 1500;
  options.supervision.respawn_limit = 64;
  options.supervision.backoff_base_ms = 5;
  options.supervision.backoff_cap_ms = 50;
  options.supervision.crash_loop_failures = 1000;
  return options;
}

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("snake-dist-" + std::to_string(::getpid()) + "-" + std::to_string(counter()++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  static int& counter() {
    static int n = 0;
    return n;
  }
};

core::TrialRecord sample_record() {
  core::TrialRecord record;
  record.key = "drop|ESTABLISHED|ACK|client->server";
  record.verdict = core::TrialVerdict::kCompleted;
  record.attempts = 2;
  record.aborted_attempts = 1;
  record.failure_reason = "event-budget";
  record.found = true;
  record.detection.is_attack = true;
  record.detection.target_ratio = 0.125;
  record.detection.competing_ratio = 1.0625;
  record.detection.resource_exhaustion = false;
  record.detection.reasons = {"target throughput 0.125x baseline"};
  record.cls = core::AttackClass::kTrueAttack;
  record.signature = "target=degraded";
  record.client_obs = {{"ESTABLISHED", "ACK"}, {"FIN_WAIT_1", "FIN"}};
  record.server_obs = {{"CLOSE_WAIT", "ACK"}};
  return record;
}

std::string render_record(const core::TrialRecord& r) {
  obs::JsonWriter w;
  core::write_json(w, r);
  return w.take();
}

// ---------------------------------------------------------------------------
// Tentpole: distributed == single-process, bit for bit.

TEST(Distributed, MatchesSingleProcessCampaignExactly) {
  core::CampaignConfig config = small_campaign();
  core::CampaignResult single = core::run_campaign(config);

  dist::DistOptions options;
  options.workers = 2;
  dist::DistributedBackend backend(options);
  config.backend = &backend;

  std::uint64_t last_done = 0, last_queued = 0;
  bool monotonic = true;
  config.on_progress = [&](std::uint64_t done, std::uint64_t queued) {
    if (done != last_done + 1 || queued < last_queued) monotonic = false;
    last_done = done;
    last_queued = queued;
  };

  // The coordinator's journal records every trial the fleet committed.
  core::CampaignResult distributed = run_journaled(config);

  EXPECT_EQ(result_fingerprint(single), result_fingerprint(distributed));
  EXPECT_EQ(distributed.metrics.counter("campaign.backend_fallback"), 0u)
      << "distributed backend fell back to the in-process pool";
  EXPECT_TRUE(monotonic) << "coordinator progress regressed or skipped";
  EXPECT_EQ(last_done, distributed.strategies_tried);
  EXPECT_EQ(backend.workers_spawned(), 2);
  EXPECT_EQ(backend.workers_lost(), 0);
}

TEST(Distributed, SackCampaignMatchesSingleProcessExactly) {
  // The SACK-profile campaign (tcp_sack_generator_config universe, SACK
  // strategies in play) is as backend-independent as the classic one: the
  // worker fleet reproduces the thread pool's discoveries — including the
  // drop/SACK scoreboard-starvation attack — bit for bit.
  core::CampaignConfig config = sack_campaign();
  core::CampaignResult single = core::run_campaign(config);

  bool sack_attack = false;
  for (const core::StrategyOutcome& o : single.found)
    if (o.strat.packet_type == "SACK") sack_attack = true;
  EXPECT_TRUE(sack_attack) << "SACK campaign lost its SACK-specific discovery";

  dist::DistOptions options;
  options.workers = 2;
  dist::DistributedBackend backend(options);
  config.backend = &backend;
  core::CampaignResult distributed = core::run_campaign(config);

  EXPECT_EQ(result_fingerprint(single), result_fingerprint(distributed));
  EXPECT_EQ(distributed.metrics.counter("campaign.backend_fallback"), 0u);
}

TEST(Distributed, EditedProfileMatchesSingleProcess) {
  // Workers run the coordinator's TCP profile by content: an edited
  // linux-3.13 under its stock name, and the same profile under a name no
  // stock profile has, both reproduce the in-process campaign on the fleet.
  for (const char* name : {"linux-3.13", "custom-3.13"}) {
    core::CampaignConfig config = small_campaign();
    config.scenario.tcp_profile.min_rto = Duration::seconds(1.0);
    config.scenario.tcp_profile.name = name;
    const core::CampaignResult single = core::run_campaign(config);

    dist::DistOptions options;
    options.workers = 2;
    dist::DistributedBackend backend(options);
    config.backend = &backend;
    core::CampaignResult distributed = core::run_campaign(config);
    EXPECT_EQ(result_fingerprint(distributed), result_fingerprint(single)) << name;
    EXPECT_EQ(distributed.metrics.counter("campaign.backend_fallback"), 0u) << name;
  }
}

TEST(Distributed, SurvivesWorkerKilledMidCampaign) {
  core::CampaignConfig config = small_campaign();
  core::CampaignResult single = core::run_campaign(config);

  dist::DistOptions options;
  options.workers = 2;
  options.exit_after_results = {2, 0};  // worker 0 dies abruptly after 2 trials
  options.heartbeat_timeout_ms = 2000;
  options.supervision.backoff_base_ms = 10;
  options.supervision.backoff_cap_ms = 100;
  dist::DistributedBackend backend(options);
  config.backend = &backend;
  core::CampaignResult distributed = core::run_campaign(config);

  EXPECT_EQ(result_fingerprint(single), result_fingerprint(distributed));
  EXPECT_GE(backend.workers_lost(), 1);
  EXPECT_EQ(distributed.metrics.counter("campaign.backend_fallback"), 0u);
  // The fault applies to the slot's first incarnation only, so the
  // supervisor's replacement finishes the campaign without inline fallback.
  EXPECT_GE(backend.workers_respawned(), 1);
  EXPECT_EQ(backend.slots_quarantined(), 0);
  EXPECT_EQ(backend.inline_trials(), 0u);
}

TEST(Distributed, RespawnsEveryKilledSlotAndKeepsFullParallelism) {
  // BOTH workers die mid-campaign. Pre-supervision this meant inline
  // fallback; now each slot is respawned after backoff and the campaign
  // finishes on a full-width fleet, bit-identical to single-process.
  core::CampaignConfig config = small_campaign();
  core::CampaignResult single = core::run_campaign(config);

  dist::DistOptions options;
  options.workers = 2;
  options.exit_after_results = {2, 2};
  options.heartbeat_timeout_ms = 2000;
  options.supervision.backoff_base_ms = 10;
  options.supervision.backoff_cap_ms = 100;
  dist::DistributedBackend backend(options);
  config.backend = &backend;
  core::CampaignResult distributed = core::run_campaign(config);

  EXPECT_EQ(result_fingerprint(single), result_fingerprint(distributed));
  EXPECT_EQ(distributed.metrics.counter("campaign.backend_fallback"), 0u);
  EXPECT_GE(backend.workers_lost(), 2);
  EXPECT_GE(backend.workers_respawned(), 2);
  EXPECT_EQ(backend.slots_quarantined(), 0);
  EXPECT_EQ(backend.inline_trials(), 0u) << "degraded to inline despite respawn budget";
  EXPECT_EQ(distributed.metrics.counter("dist.workers_respawned"),
            static_cast<std::uint64_t>(backend.workers_respawned()));
}

TEST(Distributed, ByzantineWorkerIsQuarantinedAndResultsRepaired) {
  core::CampaignConfig config = small_campaign();
  core::CampaignResult single = core::run_campaign(config);

  dist::DistOptions options;
  options.workers = 2;
  // Worker 0 lies about every result from the first one on — with valid
  // checksums, so only re-execution can expose it.
  options.corrupt_after_results = {1, 0};
  options.verify_sample = 1;  // re-execute every result
  dist::DistributedBackend backend(options);
  config.backend = &backend;
  core::CampaignResult distributed = core::run_campaign(config);

  // Every lie was caught and replaced by the coordinator's re-execution, so
  // the campaign still reproduces the single-process run bit for bit.
  EXPECT_EQ(result_fingerprint(single), result_fingerprint(distributed));
  EXPECT_EQ(distributed.metrics.counter("campaign.backend_fallback"), 0u);
  EXPECT_GT(backend.trials_verified(), 0u);
  EXPECT_GE(backend.results_divergent(), 1u);
  EXPECT_GE(backend.slots_quarantined(), 1);
  EXPECT_NE(backend.fleet_report().find("divergent result"), std::string::npos)
      << backend.fleet_report();
}

TEST(Distributed, CacheConflictTriggersVerificationWithoutQuarantine) {
  core::CampaignConfig config = small_campaign();
  const std::uint64_t identity = core::campaign_identity_hash(config);

  // Honest first run; its journal supplies a real (key, record) pair.
  dist::DistOptions options;
  options.workers = 2;
  std::string honest_fp;
  core::TrialRecord truth;
  {
    dist::DistributedBackend backend(options);
    config.backend = &backend;
    core::TrialLog journaled;
    core::CampaignResult result = run_journaled(config, &journaled);
    honest_fp = result_fingerprint(result);
    ASSERT_GT(journaled.count(identity), 0u);
    truth = journaled.entries().begin()->second;
  }

  // A cross-campaign cache carrying a *forged* version of that record: the
  // worker's honest result conflicts, which must trigger re-execution — and
  // the re-execution vindicates the worker (cache poison never quarantines
  // an honest slot, and never leaks into the committed results).
  core::TrialRecord forged = truth;
  forged.attempts += 7;
  forged.failure_reason = "forged-cache-line";
  core::TrialLog poisoned;
  auto poisoned_view = poisoned.view(identity);
  poisoned_view.store(forged);

  dist::DistOptions verify_options;
  verify_options.workers = 2;
  verify_options.verify_cache = &poisoned_view;
  dist::DistributedBackend backend(verify_options);
  config.backend = &backend;
  core::CampaignResult result = core::run_campaign(config);

  EXPECT_EQ(honest_fp, result_fingerprint(result));
  EXPECT_GE(backend.trials_verified(), 1u);
  EXPECT_EQ(backend.results_divergent(), 0u);
  EXPECT_EQ(backend.slots_quarantined(), 0);
}

TEST(Distributed, CoordinatorReexecutionsTakeTheWorkersEarlyExitCut) {
  // The trials the coordinator runs itself (byzantine re-executions here,
  // the inline fallback likewise) come from the same trial context as the
  // workers' runs, early-exit cut included. DCCP runs reach quiescence
  // before the horizon, so counting cut runs tells the two drivers apart.
  core::CampaignConfig config;
  config.scenario.protocol = core::Protocol::kDccp;
  config.scenario.test_duration = Duration::seconds(4.0);
  config.scenario.seed = 7;
  config.executors = 2;
  config.max_strategies = 10;
  const char* cut = "scenario.early_exit_runs";

  // Cuts taken by one baseline pair, and by one campaign's trials (a
  // campaign's metrics hold one baseline pair plus every committed trial).
  obs::MetricsRegistry base_reg;
  core::RunTemplates base = core::baseline_templates(config);
  base.run.metrics = &base_reg;
  base.retest.metrics = &base_reg;
  core::run_scenario(base.run, std::nullopt);
  core::run_scenario(base.retest, std::nullopt);
  const std::uint64_t baseline_cuts = base_reg.counter(cut);
  core::CampaignResult single = core::run_campaign(config);
  ASSERT_GE(single.metrics.counter(cut), baseline_cuts);
  const std::uint64_t trial_cuts = single.metrics.counter(cut) - baseline_cuts;
  ASSERT_GT(trial_cuts, 0u) << "no DCCP trial took the cut; the test would be vacuous";

  dist::DistOptions options;
  options.workers = 2;
  options.verify_sample = 1;  // the coordinator re-executes every result
  dist::DistributedBackend backend(options);
  config.backend = &backend;
  core::CampaignResult fleet = core::run_campaign(config);
  EXPECT_EQ(result_fingerprint(fleet), result_fingerprint(single));
  EXPECT_EQ(fleet.metrics.counter("campaign.backend_fallback"), 0u);
  EXPECT_EQ(backend.trials_verified(), fleet.strategies_tried);
  EXPECT_EQ(backend.results_divergent(), 0u);
  // The committed runs are the coordinator's baselines and the workers'
  // trials. Every re-execution vindicated its worker, so each counts apart,
  // under dist.verify.*, and took the cut exactly as the worker's run did.
  EXPECT_EQ(fleet.metrics.counter(cut), baseline_cuts + trial_cuts);
  EXPECT_EQ(fleet.metrics.counter(std::string("dist.verify.") + cut), trial_cuts);
}

TEST(Distributed, CountersMatchInProcessLineForLine) {
  // A campaign's metrics are its coordinator's baselines plus the registry
  // of every trial it commits, so a fleet's counters equal the in-process
  // campaign's line for line: a worker's own baselines are not the
  // campaign's, and a worker that dies loses nothing that was committed.
  core::CampaignConfig config = small_campaign();
  const std::string expected = trial_counter_lines(core::run_campaign(config));
  ASSERT_NE(expected.find("scenario.attack_runs "), std::string::npos) << expected;

  dist::DistOptions options;
  options.workers = 2;
  dist::DistributedBackend clean(options);
  config.backend = &clean;
  core::CampaignResult clean_result = core::run_campaign(config);
  EXPECT_EQ(trial_counter_lines(clean_result), expected);
  EXPECT_EQ(clean_result.metrics.counter("campaign.backend_fallback"), 0u);

  dist::DistributedBackend chaos(chaos_options(0x5eedc0de));
  config.backend = &chaos;
  core::CampaignResult chaos_result = core::run_campaign(config);
  EXPECT_EQ(trial_counter_lines(chaos_result), expected) << chaos.fleet_report();
  EXPECT_EQ(chaos_result.metrics.counter("campaign.backend_fallback"), 0u);
  EXPECT_GT(chaos_result.metrics.counter("dist.workers_lost"), 0u)
      << "chaos never cost a worker; the test would be vacuous";
}

TEST(Distributed, ChaosSoakBitIdenticalUnderFullFaultLoad) {
  // Every wire fault enabled at once on both socket ends: torn and garbage
  // frames, duplicates, delays, stalled heartbeats, workers dying mid-write.
  // The recovery machinery (malformed-frame kills, requeue, supervised
  // respawn, starvation detection) must absorb all of it with the
  // CampaignResult still bit-identical to the fault-free single-process run
  // and no inline degradation. Seeds print so a failure is replayable:
  // SNAKE_PROPERTY_SEED / SNAKE_PROPERTY_ITERS scale the soak (CI nightly).
  core::CampaignConfig config = small_campaign();
  const std::string expected = result_fingerprint(core::run_campaign(config));

  const auto pc = testing::PropertyConfig::from_env(/*default_iterations=*/2,
                                                    /*default_seed=*/0x5eedc0de);
  for (int i = 0; i < pc.iterations; ++i) {
    const std::uint64_t seed = pc.base_seed + static_cast<std::uint64_t>(i);
    std::printf("chaos soak round %d: wire_fault_seed=%llu\n", i,
                static_cast<unsigned long long>(seed));
    std::fflush(stdout);

    dist::DistributedBackend backend(chaos_options(seed));
    config.backend = &backend;
    core::CampaignResult result = core::run_campaign(config);

    EXPECT_EQ(expected, result_fingerprint(result)) << "seed " << seed;
    EXPECT_EQ(result.metrics.counter("campaign.backend_fallback"), 0u) << "seed " << seed;
    EXPECT_EQ(backend.inline_trials(), 0u)
        << "seed " << seed << "\n" << backend.fleet_report();
    EXPECT_EQ(backend.slots_quarantined(), 0) << backend.fleet_report();
  }
}

// ---------------------------------------------------------------------------
// Worker protocol, driven by a hand-rolled coordinator over a socketpair.

class FakeCoordinator {
 public:
  FakeCoordinator() {
    int sv[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    ::fcntl(sv[0], F_SETFD, FD_CLOEXEC);
    pid_ = ::fork();
    if (pid_ == 0) {
      std::string fd_arg = std::to_string(sv[1]);
      const char* argv[] = {"/proc/self/exe", "--snake-worker-child", fd_arg.c_str(), nullptr};
      ::execv("/proc/self/exe", const_cast<char**>(argv));
      ::_exit(127);
    }
    ::close(sv[1]);
    ch_ = std::make_unique<dist::Channel>(sv[0]);
  }

  ~FakeCoordinator() {
    ch_.reset();
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

  dist::Channel& ch() { return *ch_; }

  /// Receives frames until one parses to `want` (skipping heartbeats etc.).
  std::optional<dist::Message> expect(dist::MsgType want, int timeout_ms = 60000) {
    for (int i = 0; i < 200; ++i) {
      auto frame = ch_->recv_frame(timeout_ms);
      if (!frame.has_value()) return std::nullopt;
      auto m = dist::parse_message(*frame);
      if (m.has_value() && m->type == want) return m;
    }
    return std::nullopt;
  }

 private:
  pid_t pid_ = -1;
  std::unique_ptr<dist::Channel> ch_;
};

dist::WorkerCampaign tiny_worker_campaign() {
  dist::WorkerCampaign wc;
  wc.campaign.scenario.protocol = core::Protocol::kTcp;
  wc.campaign.scenario.tcp_profile = tcp::linux_3_13_profile();
  wc.campaign.scenario.test_duration = Duration::seconds(3.0);
  wc.campaign.scenario.seed = 11;
  wc.heartbeat_interval_ms = 50;
  return wc;
}

TEST(WorkerProtocol, HandshakeBaselinesMatchCoordinatorsOwn) {
  FakeCoordinator fc;
  auto hello = fc.expect(dist::MsgType::kHello);
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->version, dist::kWireVersion);

  dist::WorkerCampaign wc = tiny_worker_campaign();
  ASSERT_TRUE(fc.ch().send_frame(dist::encode_campaign(wc)));
  auto ready = fc.expect(dist::MsgType::kReady, 300000);
  ASSERT_TRUE(ready.has_value());

  // Cross-process determinism: the worker's baselines, rendered, equal
  // ours byte for byte — both sides run the campaign's one baseline recipe.
  const core::RunTemplates base = core::baseline_templates(wc.campaign);
  EXPECT_TRUE(base.run.early_exit);
  EXPECT_EQ(ready->baseline, dist::render_baseline(core::run_scenario(base.run, std::nullopt)));
  EXPECT_EQ(ready->retest_baseline,
            dist::render_baseline(core::run_scenario(base.retest, std::nullopt)));

  ASSERT_TRUE(fc.ch().send_frame(dist::encode_shutdown()));
  EXPECT_TRUE(fc.expect(dist::MsgType::kBye).has_value());
}

TEST(WorkerProtocol, StealHandsBackUnstartedTailAndKeepsRunning) {
  FakeCoordinator fc;
  ASSERT_TRUE(fc.expect(dist::MsgType::kHello).has_value());
  dist::WorkerCampaign wc = tiny_worker_campaign();
  ASSERT_TRUE(fc.ch().send_frame(dist::encode_campaign(wc)));
  ASSERT_TRUE(fc.expect(dist::MsgType::kReady, 300000).has_value());

  // Queue four trials, then demand three back: the worker must keep at
  // least its current head, so at most three of the *tail* return.
  core::CampaignConfig cc = small_campaign();
  strategy::StrategyGenerator generator(core::format_for_protocol(cc.scenario.protocol),
                                        core::machine_for_protocol(cc.scenario.protocol),
                                        cc.generator);
  std::vector<strategy::Strategy> pool = generator.off_path_strategies();
  ASSERT_GE(pool.size(), 4u);
  std::vector<dist::WireTrial> shard;
  for (std::uint64_t i = 0; i < 4; ++i) shard.push_back({i, pool[i]});

  // Both frames go out in ONE send syscall so the worker's next pump sees
  // the steal together with the shard — otherwise a scheduling hiccup
  // between two separate sends lets the worker burn through trials first
  // and the steal legitimately (but flakily) comes back smaller.
  auto framed = [](const std::string& payload) {
    std::uint32_t n = static_cast<std::uint32_t>(payload.size());
    std::string out;
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((n >> (8 * i)) & 0xff));
    out += payload;
    return out;
  };
  std::string batch = framed(dist::encode_trials(shard)) + framed(dist::encode_steal(3));
  ASSERT_EQ(::send(fc.ch().fd(), batch.data(), batch.size(), 0),
            static_cast<ssize_t>(batch.size()));

  auto stolen = fc.expect(dist::MsgType::kStolen, 300000);
  ASSERT_TRUE(stolen.has_value());
  EXPECT_FALSE(stolen->seqs.empty());
  EXPECT_LE(stolen->seqs.size(), 3u);
  // The hand-back is the unstarted *tail* of the shard: a suffix of the
  // queue (highest seqs), never the running head.
  std::set<std::uint64_t> stolen_set(stolen->seqs.begin(), stolen->seqs.end());
  ASSERT_EQ(stolen_set.size(), stolen->seqs.size()) << "duplicate stolen seq";
  EXPECT_EQ(stolen_set.count(0), 0u) << "stole the running head";
  for (std::uint64_t seq = *stolen_set.begin(); seq < 4; ++seq)
    EXPECT_EQ(stolen_set.count(seq), 1u) << "stolen seqs are not a tail suffix";

  // Everything not stolen still completes, each seq exactly once.
  std::set<std::uint64_t> outstanding;
  for (std::uint64_t i = 0; i < 4; ++i) outstanding.insert(i);
  for (std::uint64_t seq : stolen->seqs) outstanding.erase(seq);
  while (!outstanding.empty()) {
    auto result = fc.expect(dist::MsgType::kResult, 300000);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(outstanding.erase(result->seq), 1u);
  }
  ASSERT_TRUE(fc.ch().send_frame(dist::encode_shutdown()));
  EXPECT_TRUE(fc.expect(dist::MsgType::kBye).has_value());
}

// ---------------------------------------------------------------------------
// Wire serialization: exact round-trips.

TEST(WireRoundTrip, StrategyExact) {
  core::CampaignConfig cc = small_campaign();
  strategy::StrategyGenerator generator(core::format_for_protocol(cc.scenario.protocol),
                                        core::machine_for_protocol(cc.scenario.protocol),
                                        cc.generator);
  std::vector<strategy::Strategy> pool = generator.off_path_strategies();
  ASSERT_FALSE(pool.empty());
  // Cover every action kind the generator emits, plus a hand-built lie.
  strategy::Strategy lie;
  lie.id = 99;
  lie.action = strategy::AttackAction::kLie;
  lie.target_state = "ESTABLISHED";
  lie.packet_type = "ACK";
  lie.lie = strategy::LieSpec{};
  lie.lie->field = "window";
  lie.lie->mode = strategy::LieSpec::Mode::kDivide;
  lie.lie->operand = 4;
  pool.push_back(lie);

  for (const strategy::Strategy& s : pool) {
    obs::JsonWriter w;
    strategy::write_json(w, s);
    std::string doc = w.take();
    auto parsed = obs::parse_json(doc);
    ASSERT_TRUE(parsed.has_value()) << doc;
    auto back = strategy::strategy_from_json(*parsed);
    ASSERT_TRUE(back.has_value()) << doc;
    EXPECT_EQ(strategy::canonical_key(s), strategy::canonical_key(*back));
    obs::JsonWriter w2;
    strategy::write_json(w2, *back);
    EXPECT_EQ(doc, w2.take()) << "re-render differs: not an exact round-trip";
  }
}

TEST(WireRoundTrip, DetectionAndTrialRecordExact) {
  core::TrialRecord record = sample_record();
  std::string doc = render_record(record);
  auto parsed = obs::parse_json(doc);
  ASSERT_TRUE(parsed.has_value());
  auto back = core::trial_record_from_json(*parsed);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(doc, render_record(*back));
  EXPECT_EQ(back->key, record.key);
  EXPECT_TRUE(back->found);
  EXPECT_DOUBLE_EQ(back->detection.target_ratio, 0.125);
  EXPECT_EQ(back->detection.reasons, record.detection.reasons);
  EXPECT_EQ(back->client_obs, record.client_obs);
}

TEST(WireRoundTrip, EveryMessageTypeSurvivesEncodeDecode) {
  auto check = [](const std::string& payload, dist::MsgType want) {
    auto m = dist::parse_message(payload);
    ASSERT_TRUE(m.has_value()) << payload;
    EXPECT_EQ(m->type, want);
  };
  check(dist::encode_hello(), dist::MsgType::kHello);
  check(dist::encode_campaign(tiny_worker_campaign()), dist::MsgType::kCampaign);
  check(dist::encode_steal(5), dist::MsgType::kSteal);
  check(dist::encode_stolen({3, 4, 5}), dist::MsgType::kStolen);
  check(dist::encode_feedback({{"ESTABLISHED", "ACK"}}), dist::MsgType::kFeedback);
  check(dist::encode_heartbeat(7), dist::MsgType::kHeartbeat);
  check(dist::encode_shutdown(), dist::MsgType::kShutdown);
  check(dist::encode_bye(2), dist::MsgType::kBye);
  check(dist::encode_result(9, sample_record()), dist::MsgType::kResult);

  core::RunMetrics baseline;
  baseline.target_bytes = 123456;
  baseline.client_observations.push_back(
      {"ESTABLISHED", "ACK", statemachine::TriggerKind::kSend});
  core::RunMetrics retest = baseline;
  retest.target_bytes += 1;
  auto ready = dist::parse_message(dist::encode_ready(baseline, retest));
  ASSERT_TRUE(ready.has_value());
  EXPECT_EQ(ready->type, dist::MsgType::kReady);
  EXPECT_EQ(ready->baseline, dist::render_baseline(baseline));
  EXPECT_EQ(ready->retest_baseline, dist::render_baseline(retest));
  // The baselines travel as renderings: an inline object (the v3 form) or a
  // missing rendering is malformed.
  EXPECT_FALSE(
      dist::parse_message(R"({"type":"ready","baseline":{},"retest_baseline":{}})").has_value());
  EXPECT_FALSE(dist::parse_message(R"({"type":"ready","baseline":"{}"})").has_value());

  auto campaign = dist::parse_message(dist::encode_campaign(tiny_worker_campaign()));
  ASSERT_TRUE(campaign.has_value());
  EXPECT_EQ(campaign->campaign.campaign.scenario.seed, 11u);
  EXPECT_EQ(campaign->campaign.campaign.scenario.tcp_profile.name, "linux-3.13");

  auto result = dist::parse_message(dist::encode_result(9, sample_record()));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->seq, 9u);
  EXPECT_EQ(render_record(result->record), render_record(sample_record()));
  EXPECT_TRUE(result->metrics.empty());  // metrics off: no registry travels

  // A trial's registry travels with its result and comes back exactly.
  obs::MetricsRegistry trial;
  trial.counter("sim.events_executed") = 1234567;
  trial.gauge_max("sim.virtual_time_seconds", 4.125);
  trial.histogram("scenario.run_seconds", obs::default_time_bounds(), true).record(0.0042);
  trial.histogram("snapshot.restore_seconds");  // created, never recorded
  auto with_metrics = dist::parse_message(dist::encode_result(9, sample_record(), &trial));
  ASSERT_TRUE(with_metrics.has_value());
  EXPECT_EQ(render_record(with_metrics->record), render_record(sample_record()));
  EXPECT_EQ(with_metrics->metrics.to_json(), trial.to_json());

  EXPECT_FALSE(dist::parse_message("{}").has_value());
  EXPECT_FALSE(dist::parse_message(R"({"type":"warp"})").has_value());
  EXPECT_FALSE(dist::parse_message("not json").has_value());
  EXPECT_FALSE(dist::parse_message(R"({"type":"result","seq":1})").has_value());
}

TEST(WireRoundTrip, CampaignFieldEditedUnderStaleIdentityIsRejected) {
  dist::WorkerCampaign wc = tiny_worker_campaign();
  wc.campaign.scenario.tcp_profile = tcp::sack_renege_profile();
  const std::string frame = dist::encode_campaign(wc);
  ASSERT_TRUE(dist::parse_message(frame).has_value());
  auto edit = [&](const std::string& from, const std::string& to) {
    std::string edited = frame;
    const std::size_t at = edited.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) edited.replace(at, from.size(), to);
    return dist::parse_message(edited);
  };
  // Outcome fields are covered by the frame's identity_hash...
  EXPECT_FALSE(edit("\"seed\":11", "\"seed\":12").has_value());
  EXPECT_FALSE(edit("\"sack_renege\":true", "\"sack_renege\":false").has_value());
  EXPECT_FALSE(edit("\"tcp_profile\":\"sack-renege\"", "\"tcp_profile\":\"custom\"").has_value());
  EXPECT_FALSE(edit("\"protocol\":\"tcp\"", "\"protocol\":\"dccp\"").has_value());
  // ...worker options are not.
  EXPECT_TRUE(
      edit("\"heartbeat_interval_ms\":50", "\"heartbeat_interval_ms\":75").has_value());
}

// ---------------------------------------------------------------------------
// Frame codec.

TEST(FrameCodec, ReassemblesSplitAndBatchedFrames) {
  int sv[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  dist::Channel a(sv[0]);
  dist::Channel b(sv[1]);

  // Two frames written back-to-back arrive as two frames.
  ASSERT_TRUE(a.send_frame("first"));
  ASSERT_TRUE(a.send_frame(std::string(100000, 'x')));
  auto f1 = b.recv_frame(5000);
  auto f2 = b.recv_frame(5000);
  ASSERT_TRUE(f1.has_value() && f2.has_value());
  EXPECT_EQ(*f1, "first");
  EXPECT_EQ(f2->size(), 100000u);

  // A frame delivered byte-by-byte still reassembles.
  std::string payload = "split-delivery";
  std::uint32_t n = static_cast<std::uint32_t>(payload.size());
  std::string framed;
  for (int i = 0; i < 4; ++i) framed.push_back(static_cast<char>((n >> (8 * i)) & 0xff));
  framed += payload;
  for (char c : framed) ASSERT_EQ(::send(sv[0], &c, 1, 0), 1);
  auto f3 = b.recv_frame(5000);
  ASSERT_TRUE(f3.has_value());
  EXPECT_EQ(*f3, payload);
}

TEST(FrameCodec, OversizedLengthPrefixBreaksChannel) {
  int sv[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  dist::Channel b(sv[1]);
  unsigned char evil[4] = {0xff, 0xff, 0xff, 0xff};  // ~4GB frame
  ASSERT_EQ(::send(sv[0], evil, 4, 0), 4);
  EXPECT_FALSE(b.recv_frame(1000).has_value());
  EXPECT_FALSE(b.alive());
  EXPECT_FALSE(b.eof()) << "protocol violation misreported as orderly EOF";
  ::close(sv[0]);
}

TEST(FrameCodec, PipeChannelSurvivesOneByteReadsAndDistinguishesEof) {
  // EINTR/short-read audit harness: a plain pipe (no socket semantics, so
  // send/recv fall back to write/read) with every read syscall capped at ONE
  // byte — the maximal short-read torture. Frames must reassemble exactly;
  // closing the write end must surface as orderly EOF, not a wire error.
  ::signal(SIGPIPE, SIG_IGN);
  int down[2] = {-1, -1};  // writer -> reader
  ASSERT_EQ(::pipe(down), 0);
  dist::Channel writer(down[1]);
  dist::Channel reader(down[0]);
  reader.set_read_chunk_limit(1);

  ASSERT_TRUE(writer.send_frame("pipe-one"));
  ASSERT_TRUE(writer.send_frame(std::string(3000, 'z') + "tail"));
  auto f1 = reader.recv_frame(5000);
  auto f2 = reader.recv_frame(5000);
  ASSERT_TRUE(f1.has_value() && f2.has_value());
  EXPECT_EQ(*f1, "pipe-one");
  EXPECT_EQ(f2->size(), 3004u);
  EXPECT_EQ(f2->substr(3000), "tail");

  // A structured message survives the same byte-at-a-time delivery.
  ASSERT_TRUE(writer.send_frame(dist::encode_result(3, sample_record())));
  auto f3 = reader.recv_frame(5000);
  ASSERT_TRUE(f3.has_value());
  auto m = dist::parse_message(*f3);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->seq, 3u);
  EXPECT_EQ(render_record(m->record), render_record(sample_record()));

  // Orderly close: recv reports death, and eof() says it was clean.
  writer.close();
  EXPECT_FALSE(reader.recv_frame(1000).has_value());
  EXPECT_FALSE(reader.alive());
  EXPECT_TRUE(reader.eof());
}

TEST(FrameCodec, LargeFrameCrossesPipeCapacityViaPartialWrites) {
  // A frame larger than the kernel pipe buffer forces write() to go partial:
  // write_all must loop while a reader thread drains one byte at a time on
  // the other end.
  ::signal(SIGPIPE, SIG_IGN);
  int down[2] = {-1, -1};
  ASSERT_EQ(::pipe(down), 0);
  dist::Channel writer(down[1]);
  const std::string big(256 * 1024, 'q');  // > default 64KB pipe buffer

  std::string received;
  std::thread drain([&] {
    dist::Channel reader(down[0]);
    reader.set_read_chunk_limit(4096);
    auto frame = reader.recv_frame(30000);
    if (frame.has_value()) received = std::move(*frame);
  });
  EXPECT_TRUE(writer.send_frame(big));
  drain.join();
  EXPECT_EQ(received, big);
}

// ---------------------------------------------------------------------------
// Wire chaos schedules and result integrity.

TEST(WireChaos, PlanIsDeterministicMaskGatedAndCountsFires) {
  const std::uint64_t seed = 0xfeedface;
  core::WireFaultPlan a(seed, core::kAllWireFaults, 5);
  core::WireFaultPlan b(seed, core::kAllWireFaults, 5);
  std::uint64_t fired = 0;
  for (std::uint64_t op = 0; op < 2000; ++op) {
    for (std::size_t f = 0; f < core::kWireFaultCount; ++f) {
      const auto fault = static_cast<core::WireFault>(f);
      const bool hit = a.should_fire(fault, op);
      EXPECT_EQ(hit, b.should_fire(fault, op)) << "schedule not a pure function of the seed";
      fired += hit ? 1 : 0;
    }
  }
  EXPECT_GT(fired, 0u) << "period 5 never fired in 2000 ops";
  EXPECT_EQ(a.total_fires(), fired);
  EXPECT_EQ(a.total_fires(), b.total_fires());

  // Mask gating: a fault outside the mask never fires, whatever the seed.
  core::WireFaultPlan torn_only(seed, core::wire_fault_bit(core::WireFault::kTornFrame), 2);
  for (std::uint64_t op = 0; op < 500; ++op)
    EXPECT_FALSE(torn_only.should_fire(core::WireFault::kDieMidWrite, op));
  EXPECT_EQ(torn_only.fires(core::WireFault::kDieMidWrite), 0u);

  // Worker-only faults strip out of the coordinator-side mask.
  EXPECT_EQ(core::kAllWireFaults & ~core::kWorkerOnlyWireFaults &
                core::wire_fault_bit(core::WireFault::kDieMidWrite),
            0u);
  core::WireFaultPlan off(seed, 0, 5);
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.should_fire(core::WireFault::kTornFrame, 0));
}

TEST(WireChaos, ResultChecksumRejectsTamperAndOmission) {
  const std::string good = dist::encode_result(9, sample_record());
  ASSERT_TRUE(dist::parse_message(good).has_value());

  // Flip the verdict inside an otherwise well-formed frame: the checksum no
  // longer validates, so the frame is malformed (and costs the sender its
  // connection in the coordinator).
  std::string tampered = good;
  auto pos = tampered.find("\"found\":true");
  ASSERT_NE(pos, std::string::npos);
  tampered.replace(pos, 12, "\"found\":false");
  EXPECT_FALSE(dist::parse_message(tampered).has_value());

  // v2 made the checksum mandatory: a result frame without one (a v1 peer,
  // or a stripped field) is rejected outright.
  std::string stripped = good;
  auto cpos = stripped.find(",\"check\":\"");
  ASSERT_NE(cpos, std::string::npos);
  stripped.erase(cpos, 10 + 16 + 1);  // ,"check":"<16 hex>"
  EXPECT_FALSE(dist::parse_message(stripped).has_value());

  // The checksum is scoped by seq: re-homing a record under another seq
  // (a replay of a stale result) also fails validation.
  const std::uint64_t c9 = core::scoped_record_checksum(9, sample_record());
  const std::uint64_t c10 = core::scoped_record_checksum(10, sample_record());
  EXPECT_NE(c9, c10);

  // The checksum covers the trial's registry too: an edited counter, or a
  // registry stripped from its frame, fails validation like an edited
  // record.
  obs::MetricsRegistry trial;
  trial.counter("campaign.retest_confirmed") = 1;
  const std::string with_metrics = dist::encode_result(9, sample_record(), &trial);
  ASSERT_TRUE(dist::parse_message(with_metrics).has_value());
  std::string edited = with_metrics;
  pos = edited.find("campaign.retest_confirmed\\\":1");
  ASSERT_NE(pos, std::string::npos);
  edited.replace(pos, 29, "campaign.retest_confirmed\\\":2");
  EXPECT_FALSE(dist::parse_message(edited).has_value());
  std::string dropped = with_metrics;
  pos = dropped.find(",\"metrics\":");
  ASSERT_NE(pos, std::string::npos);
  dropped.erase(pos, dropped.size() - 1 - pos);  // keep the closing brace
  EXPECT_FALSE(dist::parse_message(dropped).has_value());
}

// ---------------------------------------------------------------------------
// Fleet supervision bookkeeping.

TEST(Supervision, BackoffGrowsExponentiallyWithDeterministicSpread) {
  dist::SupervisorOptions opts;
  opts.backoff_base_ms = 50;
  opts.backoff_cap_ms = 5000;
  opts.seed = 42;

  std::int64_t prev = 0;
  for (int failures = 1; failures <= 12; ++failures) {
    const std::int64_t d = dist::Supervisor::backoff_ms(opts, /*slot=*/0, failures);
    const std::int64_t d_again = dist::Supervisor::backoff_ms(opts, 0, failures);
    EXPECT_EQ(d, d_again) << "backoff is not a pure function";
    // min(cap, base << (failures-1)) plus a spread in [0, base).
    const std::int64_t floor = std::min<std::int64_t>(5000, 50ll << std::min(failures - 1, 20));
    EXPECT_GE(d, floor);
    EXPECT_LT(d, floor + 50);
    EXPECT_GE(d, prev - 50) << "backoff shrank by more than the spread";
    prev = d;
  }

  // Slots spread out: not every slot lands on the same instant.
  std::set<std::int64_t> spreads;
  for (int slot = 0; slot < 8; ++slot) spreads.insert(dist::Supervisor::backoff_ms(opts, slot, 1));
  EXPECT_GT(spreads.size(), 1u) << "seed-keyed spread degenerated to lockstep";
}

TEST(Supervision, RespawnLifecycleBudgetAndCrashLoopQuarantine) {
  using Clock = dist::Supervisor::Clock;
  dist::SupervisorOptions opts;
  opts.respawn_limit = 2;
  opts.backoff_base_ms = 10;
  opts.backoff_cap_ms = 100;
  opts.crash_loop_failures = 5;
  opts.crash_loop_window_ms = 10000;
  const auto t0 = Clock::now();

  dist::Supervisor sup(2, opts);
  EXPECT_FALSE(sup.any_respawnable());

  // Failure -> backoff: not due immediately, due after the backoff elapses.
  sup.record_failure(0, t0, "worker eof");
  EXPECT_TRUE(sup.respawnable(0));
  EXPECT_TRUE(sup.any_respawnable());
  EXPECT_FALSE(sup.respawn_due(0, t0));
  EXPECT_TRUE(sup.respawn_due(0, t0 + std::chrono::seconds(5)));
  sup.record_respawn(0);
  EXPECT_FALSE(sup.respawnable(0));
  EXPECT_EQ(sup.total_respawns(), 1);

  // Budget exhaustion: respawn_limit=2 respawns spent -> third failure
  // quarantines.
  sup.record_failure(0, t0 + std::chrono::seconds(20), "wire error");
  sup.record_respawn(0);
  sup.record_failure(0, t0 + std::chrono::seconds(40), "wire error");
  EXPECT_TRUE(sup.quarantined(0));
  EXPECT_FALSE(sup.respawnable(0));
  EXPECT_EQ(sup.quarantined_slots(), 1);
  EXPECT_NE(sup.quarantine_reason(0).find("budget exhausted"), std::string::npos);

  // Crash loop: rapid-fire failures inside the window quarantine slot 1
  // even with budget left.
  dist::SupervisorOptions loop_opts = opts;
  loop_opts.respawn_limit = 100;
  loop_opts.crash_loop_failures = 3;
  dist::Supervisor sup2(1, loop_opts);
  sup2.record_failure(0, t0, "boom");
  sup2.record_respawn(0);
  sup2.record_failure(0, t0 + std::chrono::milliseconds(100), "boom");
  sup2.record_respawn(0);
  EXPECT_FALSE(sup2.quarantined(0));
  sup2.record_failure(0, t0 + std::chrono::milliseconds(200), "boom");
  EXPECT_TRUE(sup2.quarantined(0));
  EXPECT_NE(sup2.quarantine_reason(0).find("crash-loop"), std::string::npos);

  // Byzantine quarantine is immediate and terminal.
  dist::Supervisor sup3(1, opts);
  sup3.record_quarantine(0, "divergent result for seq 4");
  EXPECT_TRUE(sup3.quarantined(0));
  EXPECT_FALSE(sup3.any_respawnable());
  EXPECT_NE(sup3.report().find("divergent result"), std::string::npos);
  EXPECT_EQ(dist::Supervisor(2, opts).report(), "") << "healthy fleet must report nothing";
}

// ---------------------------------------------------------------------------
// Result cache: the trial-record log read across identities.

TEST(ResultCache, HitMissAndIdentityScoping) {
  core::TrialLog cache;
  auto view_a = cache.view(0xAAAA);
  auto view_b = cache.view(0xBBBB);
  core::TrialRecord record = sample_record();

  EXPECT_EQ(view_a.lookup(record.key), nullptr);
  view_a.store(record);
  const core::TrialRecord* hit = view_a.lookup(record.key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(render_record(*hit), render_record(record));
  EXPECT_EQ(view_a.lookup("some-other-key"), nullptr);
  // The identity hash scopes everything: same key, different campaign — no
  // hit. Any config change that alters outcomes changes the hash, so stale
  // entries are never replayed into a differing campaign.
  EXPECT_EQ(view_b.lookup(record.key), nullptr);
}

TEST(ResultCache, PoisonedLinesAreRejected) {
  core::TrialRecord record = sample_record();
  std::string good = core::encode_trial_line(0x1234, record);

  {
    core::TrialLog cache;
    cache.ingest(good);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.rejected(), 0u);
  }
  {
    // Tampered canonical key: checksum mismatch, line dropped.
    std::string bad = good;
    auto pos = bad.find("drop|ESTABLISHED");
    ASSERT_NE(pos, std::string::npos);
    bad.replace(pos, 4, "lie!");
    core::TrialLog cache;
    cache.ingest(bad);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.rejected(), 1u);
  }
  {
    // Re-homed under a different campaign hash: checksum covers the
    // identity, so pasting a line under a new identity fails too.
    std::string bad = good;
    auto pos = bad.find("0000000000001234");
    ASSERT_NE(pos, std::string::npos);
    bad.replace(pos, 16, "00000000deadbeef");
    core::TrialLog cache;
    cache.ingest(bad);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.rejected(), 1u);
  }
  {
    // Forged verdict inside the record: same story.
    std::string bad = good;
    auto pos = bad.find("\"found\":true");
    ASSERT_NE(pos, std::string::npos);
    bad.replace(pos, 12, "\"found\":false");
    core::TrialLog cache;
    cache.ingest(bad);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.rejected(), 1u);
  }
  {
    // Torn tail (crash mid-append) is skipped without losing earlier lines.
    core::TrialLog cache;
    cache.ingest(good + good.substr(0, good.size() / 2));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.rejected(), 1u);
  }
}

TEST(ResultCache, CompactRewritesDroppingPoisonedAndDuplicateLines) {
  TempDir dir;
  const std::string path = (dir.path / "cache.jsonl").string();

  core::TrialRecord a = sample_record();
  core::TrialRecord b = sample_record();
  b.key = "delay|SYN_SENT|SYN|client->server";
  b.found = false;
  const std::string line_a = core::encode_trial_line(0x1234, a);
  const std::string line_b = core::encode_trial_line(0x1234, b);
  std::string poisoned = line_a;
  auto pos = poisoned.find("drop|ESTABLISHED");
  ASSERT_NE(pos, std::string::npos);
  poisoned.replace(pos, 4, "lie!");

  {
    // Accumulated damage: a duplicate append (two writers), a poisoned line,
    // and a torn tail from a killed writer.
    std::ofstream out(path, std::ios::binary);
    out << line_a << poisoned << line_b << line_a << line_b.substr(0, line_b.size() / 2);
  }

  core::TrialLog cache(path);
  auto stats = cache.compact();
  EXPECT_TRUE(stats.ok);
  EXPECT_EQ(stats.kept, 2u);
  EXPECT_EQ(stats.dropped_invalid, 2u);    // poisoned + torn tail
  EXPECT_EQ(stats.dropped_duplicate, 1u);  // second copy of line_a
  ASSERT_TRUE(cache.load());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.rejected(), 0u) << "compacted file still contains damage";
  auto view = cache.view(0x1234);
  EXPECT_NE(view.lookup(a.key), nullptr);
  EXPECT_NE(view.lookup(b.key), nullptr);

  // The rewrite is canonical: every surviving line re-validates and the tmp
  // file is gone (rename is the commit point).
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  // Compacting an already-clean file is a no-op that keeps everything.
  auto again = core::TrialLog(path).compact();
  EXPECT_TRUE(again.ok);
  EXPECT_EQ(again.kept, 2u);
  EXPECT_EQ(again.dropped_invalid, 0u);
  EXPECT_EQ(again.dropped_duplicate, 0u);
  // Missing file / memory-only caches: trivially ok.
  EXPECT_TRUE(core::TrialLog((dir.path / "absent.jsonl").string()).compact().ok);
  EXPECT_TRUE(core::TrialLog().compact().ok);
}

TEST(ResultCache, WarmCacheReproducesColdCampaignAndPersists) {
  TempDir dir;
  const std::string cache_path = (dir.path / "cache.jsonl").string();

  core::CampaignConfig config = small_campaign();
  config.max_strategies = 10;
  const std::uint64_t identity = core::campaign_identity_hash(config);

  core::TrialLog cold_cache(cache_path);
  ASSERT_TRUE(cold_cache.load());
  EXPECT_EQ(cold_cache.size(), 0u);
  auto cold_view = cold_cache.view(identity);
  config.cache = &cold_view;
  core::CampaignResult cold = core::run_campaign(config);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_stores, cold.strategies_tried);

  // Fresh cache object, loaded from disk: the campaign replays entirely
  // from memoized verdicts and still produces the identical result.
  core::TrialLog warm_cache(cache_path);
  ASSERT_TRUE(warm_cache.load());
  EXPECT_EQ(warm_cache.size(), cold.cache_stores);
  EXPECT_EQ(warm_cache.rejected(), 0u);
  auto warm_view = warm_cache.view(identity);
  config.cache = &warm_view;
  core::CampaignResult warm = core::run_campaign(config);

  EXPECT_EQ(result_fingerprint(cold), result_fingerprint(warm));
  EXPECT_EQ(warm.cache_hits, warm.strategies_tried);
  EXPECT_EQ(warm.cache_stores, 0u);

  // A different campaign identity (different seed) gets no hits from it.
  config.scenario.seed += 1;
  auto other_view = warm_cache.view(core::campaign_identity_hash(config));
  config.cache = &other_view;
  core::CampaignResult other = core::run_campaign(config);
  EXPECT_EQ(other.cache_hits, 0u);
}

TEST(ResultCache, EditedProfileUnderSameNameMissesWarmCache) {
  // The identity hashes a TCP profile by content: a linux-3.13 copy with a
  // different min_rto, still under the same name, is another implementation
  // and must not replay the original's memoized verdicts.
  core::CampaignConfig config = small_campaign();
  config.max_strategies = 6;
  core::TrialLog cache;
  auto original_view = cache.view(core::campaign_identity_hash(config));
  config.cache = &original_view;
  ASSERT_EQ(core::run_campaign(config).cache_stores, 6u);

  core::CampaignConfig edited = small_campaign();
  edited.max_strategies = 6;
  edited.scenario.tcp_profile.min_rto = Duration::seconds(1.0);
  ASSERT_EQ(edited.scenario.tcp_profile.name, tcp::linux_3_13_profile().name);
  const core::CampaignResult fresh = core::run_campaign(edited);
  auto edited_view = cache.view(core::campaign_identity_hash(edited));
  edited.cache = &edited_view;
  const core::CampaignResult cached = core::run_campaign(edited);
  EXPECT_EQ(cached.cache_hits, 0u);
  EXPECT_EQ(cached.cache_stores, cached.strategies_tried);
  EXPECT_EQ(result_fingerprint(cached), result_fingerprint(fresh));
}

// ---------------------------------------------------------------------------
// Campaign identity hash.

/// One perturbation of a campaign config and what it must do to the hash.
struct IdentityRow {
  const char* field;
  bool trace_base;  ///< perturb a trace-workload campaign instead of a bulk one
  bool sensitive;   ///< must change the hash; otherwise must leave it unchanged
  std::function<void(core::CampaignConfig&)> perturb;
};

struct NullInspector : core::RunInspector {
  void on_run_complete(sim::Dumbbell&, proxy::AttackProxy&, const core::RunMetrics&) override {}
};

TEST(CampaignIdentity, GoldenValuesStayPinned) {
  // Journals and result caches on disk are keyed by these values: a change
  // to how the identity is computed must not move them.
  auto identity = [](const core::CampaignConfig& c) {
    return hex16(core::campaign_identity_hash(c));
  };
  core::CampaignConfig dccp = small_campaign();
  dccp.scenario.protocol = core::Protocol::kDccp;
  core::CampaignConfig traced = small_campaign();
  traced.scenario.workload = core::Workload::kTrace;
  traced.scenario.trace_text =
      "# snake-trace/v1\n0.0 web open\n0.2 web recv 80000\n2.0 web close\n";
  traced.scenario.trace_max_flows = 3;
  traced.scenario.trace_time_scale = 0.5;
  EXPECT_EQ(identity(small_campaign()), "24ae242e6b8a201d");
  EXPECT_EQ(identity(sack_campaign()), "7edbe9682c84af92");
  EXPECT_EQ(identity(dccp), "d00aed8eb4feddff");
  EXPECT_EQ(identity(traced), "cae00a6dc9ed9224");
}

TEST(CampaignIdentity, SensitiveToOutcomeFieldsOnly) {
  using core::CampaignConfig;
  obs::MetricsRegistry registry;
  NullInspector inspector;
  core::FaultPlan faults;
  core::TrialJournal journal([](std::string_view) {});
  core::TrialLog log;
  core::TrialLog::View view = log.view(1);
  dist::DistributedBackend backend{dist::DistOptions{}};
  const std::string trace =
      "# snake-trace/v1\n0.0 web open\n0.2 web recv 80000\n1.0 web recv 120000\n"
      "2.0 web close\n";

  const std::vector<IdentityRow> rows = {
      // ScenarioConfig.
      {"protocol", false, true, [](auto& c) { c.scenario.protocol = core::Protocol::kDccp; }},
      {"test_duration", false, true,
       [](auto& c) { c.scenario.test_duration = Duration::seconds(9.0); }},
      {"download_bytes", false, true, [](auto& c) { c.scenario.download_bytes = 200000; }},
      {"client1_exit_fraction", false, true,
       [](auto& c) { c.scenario.client1_exit_fraction = 0.5; }},
      {"workload", false, true, [&](auto& c) {
         c.scenario.workload = core::Workload::kTrace;
         c.scenario.trace_text = trace;
       }},
      {"dccp_offer_rate_pps", false, true, [](auto& c) { c.scenario.dccp_offer_rate_pps = 1000; }},
      {"dccp_payload_bytes", false, true, [](auto& c) { c.scenario.dccp_payload_bytes = 500; }},
      {"dccp_data_fraction", false, true, [](auto& c) { c.scenario.dccp_data_fraction = 0.3; }},
      {"dccp_tx_queue_packets", false, true,
       [](auto& c) { c.scenario.dccp_tx_queue_packets = 10; }},
      {"dccp_ccid", false, true, [](auto& c) { c.scenario.dccp_ccid = 3; }},
      {"seed", false, true, [](auto& c) { c.scenario.seed += 1; }},
      {"event_budget", false, true, [](auto& c) { c.scenario.event_budget = 400000; }},
      {"wall_limit_seconds", false, true, [](auto& c) { c.scenario.wall_limit_seconds = 60; }},
      {"faults (a plan is attached)", false, true, [&](auto& c) { c.scenario.faults = &faults; }},
      // Trace fields count only under the trace workload.
      {"trace_text", true, true, [](auto& c) {
         c.scenario.trace_text = c.scenario.trace_text.text() + "\n# comment";
       }},
      {"trace_max_flows", true, true, [](auto& c) { c.scenario.trace_max_flows = 2; }},
      {"trace_time_scale", true, true, [](auto& c) { c.scenario.trace_time_scale = 0.5; }},
      {"workload (trace to bulk)", true, true,
       [](auto& c) { c.scenario.workload = core::Workload::kBulk; }},
      {"trace_text under bulk", false, false, [](auto& c) { c.scenario.trace_text = "leftover"; }},
      {"trace_max_flows under bulk", false, false, [](auto& c) { c.scenario.trace_max_flows = 2; }},
      {"trace_time_scale under bulk", false, false,
       [](auto& c) { c.scenario.trace_time_scale = 0.5; }},
      // tcp::TcpProfile, by content.
      {"tcp_profile (another profile)", false, true,
       [](auto& c) { c.scenario.tcp_profile = tcp::linux_3_0_profile(); }},
      {"tcp_profile.name", false, true, [](auto& c) { c.scenario.tcp_profile.name = "edited"; }},
      {"tcp_profile.invalid_flags", false, true,
       [](auto& c) { c.scenario.tcp_profile.invalid_flags = tcp::InvalidFlagPolicy::kRstFirst; }},
      {"tcp_profile.naive_cwnd_per_ack", false, true,
       [](auto& c) { c.scenario.tcp_profile.naive_cwnd_per_ack ^= true; }},
      {"tcp_profile.fast_retransmit", false, true,
       [](auto& c) { c.scenario.tcp_profile.fast_retransmit ^= true; }},
      {"tcp_profile.dsack_dupack_suppression", false, true,
       [](auto& c) { c.scenario.tcp_profile.dsack_dupack_suppression ^= true; }},
      {"tcp_profile.rst_data_after_fin", false, true,
       [](auto& c) { c.scenario.tcp_profile.rst_data_after_fin ^= true; }},
      {"tcp_profile.sack", false, true, [](auto& c) { c.scenario.tcp_profile.sack ^= true; }},
      {"tcp_profile.dsack_blocks", false, true,
       [](auto& c) { c.scenario.tcp_profile.dsack_blocks ^= true; }},
      {"tcp_profile.sack_renege", false, true,
       [](auto& c) { c.scenario.tcp_profile.sack_renege ^= true; }},
      {"tcp_profile.max_retries", false, true,
       [](auto& c) { c.scenario.tcp_profile.max_retries += 1; }},
      {"tcp_profile.min_rto", false, true,
       [](auto& c) { c.scenario.tcp_profile.min_rto = Duration::seconds(1.0); }},
      {"tcp_profile.initial_cwnd_segments", false, true,
       [](auto& c) { c.scenario.tcp_profile.initial_cwnd_segments += 1; }},
      {"tcp_profile.initial_ssthresh", false, true,
       [](auto& c) { c.scenario.tcp_profile.initial_ssthresh += 1; }},
      {"tcp_profile.max_cwnd", false, true, [](auto& c) { c.scenario.tcp_profile.max_cwnd += 1; }},
      // sim::DumbbellConfig.
      {"topology.access_rate_bps", false, true,
       [](auto& c) { c.scenario.topology.access_rate_bps = 50e6; }},
      {"topology.access_delay", false, true,
       [](auto& c) { c.scenario.topology.access_delay = Duration::millis(2); }},
      {"topology.access_queue_packets", false, true,
       [](auto& c) { c.scenario.topology.access_queue_packets = 500; }},
      {"topology.bottleneck_rate_bps", false, true,
       [](auto& c) { c.scenario.topology.bottleneck_rate_bps = 2e6; }},
      {"topology.bottleneck_delay", false, true,
       [](auto& c) { c.scenario.topology.bottleneck_delay = Duration::millis(20); }},
      {"topology.bottleneck_queue_packets", false, true,
       [](auto& c) { c.scenario.topology.bottleneck_queue_packets = 80; }},
      {"topology.bottleneck_drop_policy", false, true,
       [](auto& c) { c.scenario.topology.bottleneck_drop_policy = sim::DropPolicy::kTail; }},
      // CampaignConfig.
      {"retest_seed_offset", false, true, [](auto& c) { c.retest_seed_offset += 1; }},
      {"detect_threshold", false, true, [](auto& c) { c.detect_threshold = 0.3; }},
      {"trial_attempts", false, true, [](auto& c) { c.trial_attempts = 3; }},
      {"retry_seed_offset", false, true, [](auto& c) { c.retry_seed_offset += 1; }},
      // The allow-list: fields that only change which strategies run, how
      // and where — never a single trial's outcome.
      {"executors", false, false, [](auto& c) { c.executors = 13; }},
      {"max_strategies", false, false, [](auto& c) { c.max_strategies = 500; }},
      {"combine_top", false, false, [](auto& c) { c.combine_top = 3; }},
      {"collect_metrics", false, false, [](auto& c) { c.collect_metrics = false; }},
      {"search_mode", false, false, [](auto& c) { c.search_mode = search::SearchMode::kGreybox; }},
      {"search", false, false, [](auto& c) { c.search.round_size += 1; }},
      {"generator", false, false, [](auto& c) { c.generator.hitseq_max_packets = 7; }},
      {"on_progress", false, false,
       [](auto& c) { c.on_progress = [](std::uint64_t, std::uint64_t) {}; }},
      {"journal", false, false, [&](auto& c) { c.journal = &journal; }},
      {"resume", false, false, [&](auto& c) { c.resume = &log; }},
      {"backend", false, false, [&](auto& c) { c.backend = &backend; }},
      {"cache", false, false, [&](auto& c) { c.cache = &view; }},
      {"scenario.metrics", false, false, [&](auto& c) { c.scenario.metrics = &registry; }},
      {"scenario.inspector", false, false, [&](auto& c) { c.scenario.inspector = &inspector; }},
      {"scenario.early_exit", false, false, [](auto& c) { c.scenario.early_exit ^= true; }},
      {"scenario.fault_key", false, false, [](auto& c) { c.scenario.fault_key = 99; }},
      {"scenario.fault_attempt", false, false, [](auto& c) { c.scenario.fault_attempt = 1; }},
  };

  CampaignConfig bulk = small_campaign();
  CampaignConfig traced = small_campaign();
  traced.scenario.workload = core::Workload::kTrace;
  traced.scenario.trace_text = trace;
  for (const CampaignConfig* base : {&bulk, &traced}) {
    const CampaignConfig copy = *base;
    EXPECT_EQ(core::campaign_identity_hash(*base), core::campaign_identity_hash(copy));
  }
  EXPECT_NE(core::campaign_identity_hash(bulk), core::campaign_identity_hash(traced));

  for (const IdentityRow& row : rows) {
    const CampaignConfig& base = row.trace_base ? traced : bulk;
    CampaignConfig changed = base;
    row.perturb(changed);
    const bool moved = core::campaign_identity_hash(changed) != core::campaign_identity_hash(base);
    EXPECT_EQ(moved, row.sensitive) << row.field << (row.sensitive ? " must" : " must not")
                                    << " change the campaign identity";
    // The campaign frame carries the config by content: the worker decodes
    // the same identity. A fault plan cannot cross the wire (such campaigns
    // refuse distribution), so its frame fails the decoder's identity check.
    dist::WorkerCampaign wc;
    wc.campaign = changed;
    const std::optional<dist::Message> decoded = dist::parse_message(dist::encode_campaign(wc));
    if (changed.scenario.faults != nullptr) {
      EXPECT_FALSE(decoded.has_value()) << row.field;
    } else {
      ASSERT_TRUE(decoded.has_value()) << row.field;
      EXPECT_EQ(core::campaign_identity_hash(decoded->campaign.campaign),
                core::campaign_identity_hash(changed))
          << row.field << " must survive the campaign frame";
    }
  }
}

// ---------------------------------------------------------------------------
// Trial logs read from several files into one (journals concatenated into a
// result cache): every part is a trial-log file.

std::string journal_text(std::uint64_t identity, const std::vector<core::TrialRecord>& records) {
  std::string text;
  core::TrialJournal journal([&](std::string_view line) { text.append(line); });
  for (const core::TrialRecord& r : records) journal.append(identity, r);
  return text;
}

TEST(JournalMerge, InterleavedPartsUnionWithTruncatedTails) {
  const std::uint64_t identity = core::campaign_identity_hash(small_campaign());
  core::TrialRecord a = sample_record();
  core::TrialRecord b = sample_record();
  b.key = "delay|SYN_SENT|SYN|client->server";
  b.found = false;
  core::TrialRecord c = sample_record();
  c.key = "duplicate|LAST_ACK|ACK|server->client";
  c.verdict = core::TrialVerdict::kQuarantined;
  c.found = false;

  std::string part1 = journal_text(identity, {a, b});
  std::string part2 = journal_text(identity, {c});
  // Crash-truncate part2 mid-line: the complete lines must survive.
  std::string part2_torn = part2 + journal_text(identity, {a}).substr(0, 40);

  core::TrialLog merged;
  merged.ingest(part1);
  merged.ingest(part2_torn);
  EXPECT_EQ(merged.count(identity), 3u);
  EXPECT_EQ(merged.rejected(), 1u);
  EXPECT_NE(merged.find(identity, a.key), nullptr);
  EXPECT_NE(merged.find(identity, b.key), nullptr);
  ASSERT_NE(merged.find(identity, c.key), nullptr);
  EXPECT_EQ(merged.find(identity, c.key)->verdict, core::TrialVerdict::kQuarantined);

  // Duplicate keys across parts keep the first occurrence.
  core::TrialRecord a2 = a;
  a2.found = false;
  core::TrialLog first_wins;
  first_wins.ingest(part1);
  first_wins.ingest(journal_text(identity, {a2}));
  EXPECT_EQ(first_wins.rejected(), 0u);
  EXPECT_TRUE(first_wins.find(identity, a.key)->found) << "later part overwrote earlier record";
}

TEST(JournalMerge, MismatchedIdentityRejected) {
  // A part recorded under another identity merges into the log but stays
  // scoped to that identity: the campaign's lookups never see its lines.
  core::CampaignConfig config = small_campaign();
  core::CampaignConfig other = config;
  other.scenario.seed += 5;
  const std::uint64_t identity = core::campaign_identity_hash(config);
  const std::uint64_t other_identity = core::campaign_identity_hash(other);
  core::TrialRecord foreign = sample_record();
  foreign.key = "foreign|key";

  core::TrialLog merged;
  merged.ingest(journal_text(identity, {sample_record()}));
  merged.ingest(journal_text(other_identity, {sample_record(), foreign}));
  merged.ingest("no identity\n");
  EXPECT_EQ(merged.count(identity), 1u);
  EXPECT_EQ(merged.count(other_identity), 2u);
  EXPECT_EQ(merged.rejected(), 1u);
  EXPECT_EQ(merged.find(identity, foreign.key), nullptr);

  core::TrialLog only_other;
  only_other.ingest(journal_text(other_identity, {sample_record()}));
  EXPECT_FALSE(only_other.holds(identity));
}

}  // namespace
}  // namespace snake

int main(int argc, char** argv) {
  // Worker re-entry MUST come before gtest sees argv: when this binary is
  // exec'd as a campaign worker, it is not a test run at all.
  if (auto code = snake::dist::maybe_run_worker(argc, argv)) return *code;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
