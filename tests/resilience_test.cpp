// Campaign resilience layer tests: trial watchdogs (event budget +
// wall-clock deadline), deterministic fault injection, the trial guard with
// retry/quarantine, and the JSONL checkpoint journal. Every degradation
// path the layer exists to contain is driven here on purpose:
//   - event storm       -> event-budget abort
//   - clock stall       -> wall-clock abort
//   - throw-in-trial    -> errored attempt, retry or quarantine
//   - serialize failure -> journal_errors, campaign unharmed
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <string_view>

#include "obs/json.h"
#include "search/search.h"
#include "sim/scheduler.h"
#include "snake/controller.h"
#include "snake/faultpoint.h"
#include "snake/journal.h"
#include "tcp/profile.h"
#include "util/strings.h"

namespace snake::core {
namespace {

// A 5s TCP run executes ~46k scheduler events; this budget never cuts a
// real trial but stops an event storm within tens of milliseconds.
constexpr std::uint64_t kGenerousEventBudget = 400000;

ScenarioConfig short_tcp_scenario() {
  ScenarioConfig c;
  c.protocol = Protocol::kTcp;
  c.tcp_profile = tcp::linux_3_13_profile();
  c.test_duration = Duration::seconds(5.0);
  c.seed = 3;
  return c;
}

CampaignConfig small_campaign() {
  CampaignConfig c;
  c.scenario = short_tcp_scenario();
  c.generator = strategy::tcp_generator_config();
  c.generator.hitseq_max_packets = 2000;
  c.executors = 2;
  c.max_strategies = 12;
  return c;
}

// ------------------------------------------------------ scheduler watchdog

TEST(Watchdog, EventBudgetLatchesAndStopsRun) {
  sim::Scheduler sched;
  int fires = 0;
  std::function<void()> tick = [&] {
    ++fires;
    sched.schedule_in(Duration::seconds(0.001), [&] { tick(); });
  };
  sched.schedule_in(Duration::seconds(0.001), [&] { tick(); });

  sim::WatchdogConfig w;
  w.max_events = 100;
  sched.arm_watchdog(w);
  sched.run_until(TimePoint::origin() + Duration::seconds(10.0));
  EXPECT_EQ(sched.watchdog_trip(), sim::WatchdogTrip::kEventBudget);
  EXPECT_LE(fires, 101);
  // A tripped watchdog latches: further run_until calls do nothing, and the
  // clock was not advanced to the horizon.
  int fires_at_trip = fires;
  sched.run_until(TimePoint::origin() + Duration::seconds(20.0));
  EXPECT_EQ(fires, fires_at_trip);
  EXPECT_LT(sched.now().to_seconds(), 10.0);

  // Re-arming (even disarmed) clears the trip and the run resumes.
  sched.arm_watchdog(sim::WatchdogConfig{});
  EXPECT_EQ(sched.watchdog_trip(), sim::WatchdogTrip::kNone);
  sched.run_until(sched.now() + Duration::seconds(0.01));
  EXPECT_GT(fires, fires_at_trip);
}

TEST(Watchdog, WallClockDeadlineCatchesStalledClock) {
  sim::Scheduler sched;
  arm_clock_stall(sched, Duration::seconds(0.0));
  sim::WatchdogConfig w;
  w.wall_seconds = 0.05;
  sched.arm_watchdog(w);
  // 1 s of virtual time would need ~1e6 stalled events (~17 min of wall
  // sleep); the deadline must cut it off after ~kWallCheckInterval events.
  sched.run_until(TimePoint::origin() + Duration::seconds(1.0));
  EXPECT_EQ(sched.watchdog_trip(), sim::WatchdogTrip::kWallClock);
  EXPECT_LT(sched.now().to_seconds(), 1.0);
}

TEST(Watchdog, ResetClearsTripAndBudget) {
  sim::Scheduler sched;
  std::function<void()> tick = [&] {
    sched.schedule_in(Duration::seconds(0.001), [&] { tick(); });
  };
  sched.schedule_in(Duration::seconds(0.001), [&] { tick(); });
  sim::WatchdogConfig w;
  w.max_events = 50;
  sched.arm_watchdog(w);
  sched.run_until(TimePoint::origin() + Duration::seconds(10.0));
  ASSERT_EQ(sched.watchdog_trip(), sim::WatchdogTrip::kEventBudget);

  sched.reset();
  EXPECT_EQ(sched.watchdog_trip(), sim::WatchdogTrip::kNone);
  // Post-reset runs are unconstrained by the stale budget.
  int hits = 0;
  for (int i = 0; i < 200; ++i)
    sched.schedule_in(Duration::seconds(0.001), [&hits] { ++hits; });
  sched.run_until(TimePoint::origin() + Duration::seconds(1.0));
  EXPECT_EQ(hits, 200);
}

// ----------------------------------------------------------- fault rules

TEST(FaultPlan, RulesMatchByKindKeyAndAttempt) {
  FaultPlan plan;
  FaultRule transient;
  transient.kind = FaultKind::kThrowInTrial;
  transient.modulus = 3;
  transient.remainder = 1;
  transient.attempts = 1;
  plan.add(transient);
  FaultRule persistent;
  persistent.kind = FaultKind::kEventStorm;
  persistent.modulus = 4;
  persistent.remainder = 2;
  plan.add(persistent);

  EXPECT_TRUE(plan.should_fire(FaultKind::kThrowInTrial, 7, 0));
  EXPECT_FALSE(plan.should_fire(FaultKind::kThrowInTrial, 7, 1));  // transient
  EXPECT_FALSE(plan.should_fire(FaultKind::kThrowInTrial, 8, 0));  // wrong key
  EXPECT_TRUE(plan.should_fire(FaultKind::kEventStorm, 6, 0));
  EXPECT_TRUE(plan.should_fire(FaultKind::kEventStorm, 6, 5));  // persistent
  EXPECT_FALSE(plan.should_fire(FaultKind::kClockStall, 6, 0));  // no rule

  EXPECT_EQ(plan.fires(FaultKind::kThrowInTrial), 1u);
  EXPECT_EQ(plan.fires(FaultKind::kEventStorm), 2u);
  EXPECT_EQ(plan.fires(FaultKind::kSerializeFailure), 0u);
}

// ------------------------------------------------- scenario-level guards

TEST(ScenarioGuards, EventBudgetAbortsRunaway) {
  ScenarioConfig c = short_tcp_scenario();
  c.event_budget = 1000;  // far below what 5s of simulation needs
  RunMetrics m = run_scenario(c, std::nullopt);
  EXPECT_TRUE(m.aborted);
  EXPECT_EQ(m.abort_reason, "event-budget");
}

TEST(ScenarioGuards, GenerousBudgetDoesNotPerturbResults) {
  ScenarioConfig c = short_tcp_scenario();
  RunMetrics unguarded = run_scenario(c, std::nullopt);
  c.event_budget = kGenerousEventBudget;
  c.wall_limit_seconds = 120.0;
  RunMetrics guarded = run_scenario(c, std::nullopt);
  EXPECT_FALSE(guarded.aborted);
  EXPECT_EQ(guarded.target_bytes, unguarded.target_bytes);
  EXPECT_EQ(guarded.competing_bytes, unguarded.competing_bytes);
}

TEST(ScenarioGuards, EventStormIsCutByBudget) {
  FaultPlan plan;
  plan.add(FaultRule{FaultKind::kEventStorm, 1, 0, FaultRule::kAllAttempts});
  ScenarioConfig c = short_tcp_scenario();
  c.event_budget = kGenerousEventBudget;
  c.faults = &plan;
  RunMetrics m = run_scenario(c, std::nullopt);
  EXPECT_TRUE(m.aborted);
  EXPECT_EQ(m.abort_reason, "event-budget");
  EXPECT_GE(plan.fires(FaultKind::kEventStorm), 1u);
}

TEST(ScenarioGuards, ClockStallIsCutByWallDeadline) {
  FaultPlan plan;
  plan.add(FaultRule{FaultKind::kClockStall, 1, 0, FaultRule::kAllAttempts});
  ScenarioConfig c = short_tcp_scenario();
  c.wall_limit_seconds = 0.05;
  c.faults = &plan;
  RunMetrics m = run_scenario(c, std::nullopt);
  EXPECT_TRUE(m.aborted);
  EXPECT_EQ(m.abort_reason, "wall-clock");
}

TEST(ScenarioGuards, ThrowInTrialEscapesAsFaultInjectedError) {
  FaultPlan plan;
  plan.add(FaultRule{FaultKind::kThrowInTrial, 1, 0, FaultRule::kAllAttempts});
  ScenarioConfig c = short_tcp_scenario();
  c.faults = &plan;
  EXPECT_THROW(run_scenario(c, std::nullopt), FaultInjectedError);
}

// ------------------------------------------------ campaign guard + retry

TEST(CampaignResilience, TransientFaultIsRetriedNotQuarantined) {
  FaultPlan plan;
  // Odd strategy ids throw on their first attempt only.
  plan.add(FaultRule{FaultKind::kThrowInTrial, 2, 1, 1});
  CampaignConfig config = small_campaign();
  config.scenario.faults = &plan;

  CampaignResult result = run_campaign(config);
  EXPECT_EQ(result.strategies_tried, 12u);
  EXPECT_GT(result.trials_errored, 0u);
  EXPECT_EQ(result.trials_retried, result.trials_errored);  // one retry each
  EXPECT_TRUE(result.quarantined.empty());
  EXPECT_EQ(result.metrics.counter("campaign.trials_errored"), result.trials_errored);
  EXPECT_EQ(result.metrics.counter("campaign.trials_retried"), result.trials_retried);
}

TEST(CampaignResilience, PersistentThrowQuarantinesStrategy) {
  FaultPlan plan;
  plan.add(FaultRule{FaultKind::kThrowInTrial, 3, 1, FaultRule::kAllAttempts});
  CampaignConfig config = small_campaign();
  config.scenario.faults = &plan;

  CampaignResult result = run_campaign(config);
  ASSERT_FALSE(result.quarantined.empty());
  for (const CampaignResult::Quarantined& q : result.quarantined) {
    EXPECT_EQ(q.strat.id % 3, 1u);
    EXPECT_EQ(q.verdict, TrialVerdict::kErrored);
    EXPECT_EQ(q.attempts, 2u);
    EXPECT_NE(q.reason.find("throw-in-trial"), std::string::npos);
    for (const StrategyOutcome& o : result.found)
      EXPECT_NE(strategy::canonical_key(o.strat), q.key);
  }
  // Every quarantined strategy burned all its attempts.
  EXPECT_EQ(result.trials_errored, 2 * result.quarantined.size());
  EXPECT_EQ(result.metrics.counter("campaign.strategies_quarantined"),
            result.quarantined.size());
  // Quarantined strategies still count as tried.
  EXPECT_EQ(result.strategies_tried, 12u);
}

TEST(CampaignResilience, WatchdogAbortQuarantinesAndExecutorStaysClean) {
  FaultPlan plan;
  plan.add(FaultRule{FaultKind::kEventStorm, 2, 1, FaultRule::kAllAttempts});
  CampaignConfig config = small_campaign();
  config.executors = 1;
  config.max_strategies = 8;
  config.scenario.faults = &plan;
  config.scenario.event_budget = kGenerousEventBudget;

  CampaignResult result = run_campaign(config);
  ASSERT_FALSE(result.quarantined.empty());
  for (const CampaignResult::Quarantined& q : result.quarantined) {
    EXPECT_EQ(q.verdict, TrialVerdict::kAborted);
    EXPECT_EQ(q.reason, "event-budget");
  }
  EXPECT_EQ(result.trials_aborted, 2 * result.quarantined.size());
  EXPECT_EQ(result.metrics.counter("campaign.trials_aborted"), result.trials_aborted);
  // Aborted trials shared one executor (and its arena) with the clean ones:
  // a second identical campaign must reproduce the first exactly, which
  // fails if an abort leaks state into the next trial.
  CampaignResult again = run_campaign(config);
  EXPECT_EQ(result.summary_row(), again.summary_row());
  EXPECT_EQ(result.unique_signatures, again.unique_signatures);
  ASSERT_EQ(result.quarantined.size(), again.quarantined.size());
  for (std::size_t i = 0; i < result.quarantined.size(); ++i)
    EXPECT_EQ(result.quarantined[i].key, again.quarantined[i].key);
}

// ------------------------------------------------------------- journal

TrialRecord sample_found_record() {
  TrialRecord r;
  r.key = "drop|state-based|RST|FIN_WAIT_2|client->server";
  r.verdict = TrialVerdict::kCompleted;
  r.attempts = 2;
  r.errored_attempts = 1;
  r.failure_reason = "fault point: throw-in-trial";
  r.found = true;
  r.detection.is_attack = true;
  r.detection.target_ratio = 0.12;
  r.detection.competing_ratio = 1.01;
  r.detection.resource_exhaustion = true;
  r.detection.reasons = {"target down", "stuck sockets"};
  r.cls = AttackClass::kTrueAttack;
  r.signature = "drop/RST effect=resource_exhaustion";
  r.client_obs = {{"ESTABLISHED", "ACK"}, {"FIN_WAIT_1", "FIN+ACK"}};
  r.server_obs = {{"CLOSE_WAIT", "ACK"}};
  return r;
}

TEST(Journal, RoundTripsIdentityAndRecords) {
  std::string text;
  TrialJournal journal([&](std::string_view line) { text.append(line); });
  CampaignConfig config = small_campaign();
  const std::uint64_t identity = campaign_identity_hash(config);
  journal.append(identity, sample_found_record());
  TrialRecord quarantined;
  quarantined.key = "inject|...|SYN";
  quarantined.verdict = TrialVerdict::kAborted;
  quarantined.attempts = 2;
  quarantined.aborted_attempts = 2;
  quarantined.failure_reason = "event-budget";
  journal.append(identity, quarantined);

  TrialLog log;
  log.ingest(text);
  EXPECT_EQ(log.rejected(), 0u);
  EXPECT_TRUE(log.holds(identity));
  ASSERT_EQ(log.count(identity), 2u);

  const TrialRecord* f = log.find(identity, sample_found_record().key);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->verdict, TrialVerdict::kCompleted);
  EXPECT_EQ(f->attempts, 2u);
  EXPECT_EQ(f->errored_attempts, 1u);
  EXPECT_TRUE(f->found);
  EXPECT_TRUE(f->detection.is_attack);
  EXPECT_DOUBLE_EQ(f->detection.target_ratio, 0.12);
  EXPECT_TRUE(f->detection.resource_exhaustion);
  EXPECT_EQ(f->detection.reasons.size(), 2u);
  EXPECT_EQ(f->cls, AttackClass::kTrueAttack);
  EXPECT_EQ(f->signature, "drop/RST effect=resource_exhaustion");
  EXPECT_EQ(f->client_obs, sample_found_record().client_obs);
  EXPECT_EQ(f->server_obs, sample_found_record().server_obs);

  const TrialRecord* q = log.find(identity, "inject|...|SYN");
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->verdict, TrialVerdict::kAborted);
  EXPECT_EQ(q->aborted_attempts, 2u);
  EXPECT_EQ(q->failure_reason, "event-budget");
  EXPECT_FALSE(q->found);

  // A differently-seeded campaign is a different identity.
  CampaignConfig other = config;
  other.scenario.seed += 1;
  EXPECT_FALSE(log.holds(campaign_identity_hash(other)));
  EXPECT_EQ(log.find(campaign_identity_hash(other), sample_found_record().key), nullptr);
}

TEST(Journal, JournalLineIsByteIdenticalToLogStoreLine) {
  // One format: what the journal sink receives and what a file-backed log
  // appends on store() are the same bytes for the same (identity, record).
  std::string journal_text;
  TrialJournal journal([&](std::string_view line) { journal_text.append(line); });
  journal.append(0x5eed, sample_found_record());

  const std::string path = ::testing::TempDir() + "journal_line_identity.jsonl";
  std::remove(path.c_str());
  TrialLog log(path);
  log.store(0x5eed, sample_found_record());
  std::ifstream in(path, std::ios::binary);
  const std::string stored((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::remove(path.c_str());

  EXPECT_EQ(journal_text, stored);
  EXPECT_EQ(journal_text, encode_trial_line(0x5eed, sample_found_record()));
  // Still a plain record document: the record reader sees through the two
  // log keys.
  auto doc = obs::parse_json(journal_text);
  ASSERT_TRUE(doc.has_value());
  auto rec = trial_record_from_json(*doc);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->signature, sample_found_record().signature);
}

TEST(Journal, ToleratesTruncatedTailFromKilledRun) {
  std::string text;
  TrialJournal journal([&](std::string_view line) { text.append(line); });
  const std::uint64_t identity = campaign_identity_hash(small_campaign());
  journal.append(identity, sample_found_record());
  TrialRecord second = sample_found_record();
  second.key = "another|key";
  journal.append(identity, second);

  // Kill the writer mid-line: the last record loses its tail.
  TrialLog log;
  log.ingest(text.substr(0, text.size() - 25));
  EXPECT_EQ(log.count(identity), 1u);
  EXPECT_EQ(log.rejected(), 1u);
  EXPECT_NE(log.find(identity, sample_found_record().key), nullptr);

  // A complete line whose newline never reached the disk is a torn tail too.
  TrialLog unterminated;
  unterminated.ingest(text.substr(0, text.size() - 1));
  EXPECT_EQ(unterminated.count(identity), 1u);
  EXPECT_EQ(unterminated.rejected(), 1u);

  // Garbage and bare records without identity/check are noise, not a log.
  TrialLog noise;
  noise.ingest("not json\n{\"key\":\"x\",\"verdict\":\"completed\"}\n");
  EXPECT_TRUE(noise.empty());
  EXPECT_EQ(noise.rejected(), 2u);
}

TEST(Journal, SerializeFailureCountsErrorsButCampaignSurvives) {
  FaultPlan plan;
  plan.add(FaultRule{FaultKind::kSerializeFailure, 2, 0, FaultRule::kAllAttempts});
  std::uint64_t appended = 0;
  std::uint64_t seq = 0;
  TrialJournal journal([&](std::string_view) {
    // The sink consults the plan the way a failing disk would: every other
    // line fails to persist.
    if (plan.should_fire(FaultKind::kSerializeFailure, seq++))
      throw FaultInjectedError("fault point: serialize-failure");
    ++appended;
  });

  CampaignConfig config = small_campaign();
  config.journal = &journal;
  CampaignResult with_journal = run_campaign(config);
  config.journal = nullptr;
  CampaignResult without_journal = run_campaign(config);

  EXPECT_GT(with_journal.journal_errors, 0u);
  EXPECT_GT(appended, 0u);
  // Checkpointing is best-effort: a failing journal never changes results.
  EXPECT_EQ(with_journal.summary_row(), without_journal.summary_row());
  EXPECT_EQ(with_journal.unique_signatures, without_journal.unique_signatures);
}

TEST(Journal, IncompatibleResumeSnapshotIsIgnored) {
  std::string text;
  TrialJournal journal([&](std::string_view line) { text.append(line); });
  CampaignConfig recorded = small_campaign();
  recorded.scenario.seed = 777;  // journal from a different campaign
  journal.append(campaign_identity_hash(recorded), sample_found_record());
  TrialLog log;
  log.ingest(text);
  ASSERT_FALSE(log.empty());

  CampaignConfig config = small_campaign();
  config.resume = &log;
  CampaignResult result = run_campaign(config);
  EXPECT_EQ(result.resume_skipped, 0u);
  EXPECT_EQ(result.metrics.counter("campaign.resume_incompatible"), 1u);
  EXPECT_EQ(result.strategies_tried, 12u);
}

/// A campaign's report without its metrics (which carry the resume
/// counters and wall-clock timings).
std::string report_without_metrics(CampaignResult r) {
  r.metrics = obs::MetricsRegistry();
  return r.to_json();
}

/// Records a full journal under `recorded`, resumes small_campaign() from it
/// and checks the journal is refused: every line carries
/// campaign_identity_hash, so any config field that can change a verdict
/// leaves the log without a line of the resuming identity, and the resumed
/// campaign equals a fresh one.
void expect_resume_refused(const CampaignConfig& recorded) {
  std::string text;
  TrialJournal journal([&](std::string_view line) { text.append(line); });
  CampaignConfig recording = recorded;
  recording.journal = &journal;
  run_campaign(recording);
  TrialLog log;
  log.ingest(text);
  ASSERT_GT(log.count(campaign_identity_hash(recorded)), 0u);

  const CampaignConfig config = small_campaign();
  EXPECT_FALSE(log.holds(campaign_identity_hash(config)));
  CampaignConfig resumed = config;
  resumed.resume = &log;
  CampaignResult result = run_campaign(resumed);
  EXPECT_EQ(result.metrics.counter("campaign.resume_incompatible"), 1u);
  EXPECT_EQ(result.resume_skipped, 0u);
  EXPECT_EQ(report_without_metrics(result), report_without_metrics(run_campaign(config)));
}

TEST(Journal, ResumeUnderDifferentDownloadSizeIsRefused) {
  CampaignConfig recorded = small_campaign();
  recorded.scenario.download_bytes = 200000;
  expect_resume_refused(recorded);
}

TEST(Journal, ResumeUnderDifferentBottleneckRateIsRefused) {
  CampaignConfig recorded = small_campaign();
  recorded.scenario.topology.bottleneck_rate_bps = 2e6;
  expect_resume_refused(recorded);
}

TEST(Journal, ResumeOfTraceJournalIntoBulkCampaignIsRefused) {
  CampaignConfig recorded = small_campaign();
  recorded.scenario.workload = Workload::kTrace;
  recorded.scenario.trace_text =
      "# snake-trace/v1\n"
      "0.0 web open\n"
      "0.2 web recv 80000\n"
      "1.0 web recv 120000\n"
      "2.0 web close\n";
  expect_resume_refused(recorded);
}

// ------------------------------------------------- greybox search resume

CampaignConfig greybox_campaign() {
  CampaignConfig c = small_campaign();
  c.max_strategies = 14;
  c.search_mode = search::SearchMode::kGreybox;
  c.search.round_size = 4;  // several refill barriers in 14 trials
  c.search.max_mutations = 12;
  return c;
}

TEST(Journal, GreyboxResumedCampaignEqualsUninterruptedTwin) {
  // "Interrupted" campaign: dies after 7 of the 14 trials, leaving a torn
  // line behind the way a killed process would.
  std::string journal_text;
  {
    TrialJournal journal([&](std::string_view line) { journal_text.append(line); });
    CampaignConfig interrupted = greybox_campaign();
    interrupted.max_strategies = 7;
    interrupted.journal = &journal;
    run_campaign(interrupted);
  }
  journal_text += journal_text.substr(0, 40);
  const std::uint64_t identity = campaign_identity_hash(greybox_campaign());
  TrialLog snapshot;
  snapshot.ingest(journal_text);
  EXPECT_EQ(snapshot.count(identity), 7u);

  CampaignConfig full = greybox_campaign();
  CampaignResult uninterrupted = run_campaign(full);
  full.resume = &snapshot;
  CampaignResult resumed = run_campaign(full);

  // Resume correctness comes from deterministic replay — every journaled
  // verdict feeds the engine in commit order — so the resumed campaign must
  // equal its uninterrupted twin bit for bit, search trajectory included.
  EXPECT_EQ(resumed.resume_skipped, 7u);
  EXPECT_EQ(uninterrupted.resume_skipped, 0u);
  EXPECT_EQ(resumed.summary_row(), uninterrupted.summary_row());
  EXPECT_EQ(resumed.unique_signatures, uninterrupted.unique_signatures);
  EXPECT_EQ(resumed.strategies_tried, uninterrupted.strategies_tried);
  EXPECT_EQ(resumed.trials_to_first_attack, uninterrupted.trials_to_first_attack);
  EXPECT_EQ(resumed.search_rounds, uninterrupted.search_rounds);
  EXPECT_EQ(resumed.search_mutations, uninterrupted.search_mutations);
  ASSERT_EQ(resumed.found.size(), uninterrupted.found.size());
  for (std::size_t i = 0; i < resumed.found.size(); ++i) {
    EXPECT_EQ(strategy::canonical_key(resumed.found[i].strat),
              strategy::canonical_key(uninterrupted.found[i].strat));
    EXPECT_EQ(resumed.found[i].signature, uninterrupted.found[i].signature);
  }
}

TEST(Journal, PoolCheckpointLinesFromEarlierBuildsAreRejectedAndCompactedAway) {
  // Earlier builds interleaved "snake-search-pool/v1" checkpoint lines with
  // a greybox campaign's trial records. Such a file still resumes: every
  // trial line replays, and each pool line is an ordinary rejected line
  // that compaction drops.
  std::string records;
  {
    TrialJournal journal([&](std::string_view line) { records.append(line); });
    CampaignConfig interrupted = greybox_campaign();
    interrupted.max_strategies = 7;
    interrupted.journal = &journal;
    run_campaign(interrupted);
  }
  const std::uint64_t identity = campaign_identity_hash(greybox_campaign());
  const std::string pool_line = "{\"identity\":\"" + hex16(identity) +
                                "\",\"schema\":\"snake-search-pool/v1\",\"seed\":3,"
                                "\"mutation_counter\":0,\"trials_seen\":4,"
                                "\"attacks_seen\":0,\"rounds\":1,\"mutations_spawned\":0,"
                                "\"universe_size\":90,\"pool\":[]}\n";
  const std::size_t mid = records.find('\n', records.size() / 2) + 1;
  const std::string text = records.substr(0, mid) + pool_line + records.substr(mid) + pool_line;

  const std::string path = ::testing::TempDir() + "journal_with_pool_lines.jsonl";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  TrialLog log(path);
  ASSERT_TRUE(log.load());
  EXPECT_EQ(log.count(identity), 7u);
  EXPECT_EQ(log.rejected(), 2u);

  CampaignConfig full = greybox_campaign();
  const CampaignResult uninterrupted = run_campaign(full);
  full.resume = &log;
  const CampaignResult resumed = run_campaign(full);
  EXPECT_EQ(resumed.resume_skipped, 7u);
  EXPECT_EQ(resumed.summary_row(), uninterrupted.summary_row());
  EXPECT_EQ(resumed.search_rounds, uninterrupted.search_rounds);
  EXPECT_EQ(resumed.search_mutations, uninterrupted.search_mutations);

  const TrialLog::CompactStats stats = TrialLog(path).compact();
  EXPECT_TRUE(stats.ok);
  EXPECT_EQ(stats.kept, 7u);
  EXPECT_EQ(stats.dropped_invalid, 2u);
  EXPECT_EQ(stats.dropped_duplicate, 0u);
  std::ifstream in(path, std::ios::binary);
  const std::string compacted((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
  EXPECT_EQ(compacted, records);
  std::remove(path.c_str());
}

TEST(Journal, TamperedVerdictLineIsRerunLive) {
  std::string text;
  TrialJournal journal([&](std::string_view line) { text.append(line); });
  CampaignConfig recording = small_campaign();
  recording.journal = &journal;
  const CampaignResult fresh = run_campaign(recording);
  const std::uint64_t identity = campaign_identity_hash(recording);

  // Flip one line's verdict and leave its check stale: the loader must
  // reject that line, and the resumed campaign must run the trial live.
  const std::string completed = "\"verdict\":\"completed\"";
  const std::size_t pos = text.find(completed);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, completed.size(), "\"verdict\":\"quarantined\"");
  TrialLog log;
  log.ingest(text);
  EXPECT_EQ(log.rejected(), 1u);
  EXPECT_EQ(log.count(identity), fresh.strategies_tried - 1);

  CampaignConfig config = small_campaign();
  config.resume = &log;
  CampaignResult resumed = run_campaign(config);
  EXPECT_EQ(resumed.resume_skipped, fresh.strategies_tried - 1);
  EXPECT_TRUE(resumed.quarantined.empty());
  resumed.resume_skipped = 0;  // the one field a resume legitimately changes
  EXPECT_EQ(report_without_metrics(resumed), report_without_metrics(fresh));
}

// ----------------------------------------------------- canonical identity

TEST(CanonicalKey, IgnoresGenerationOrderIdOnly) {
  strategy::Strategy a;
  a.id = 7;
  a.action = strategy::AttackAction::kDrop;
  a.packet_type = "RST";
  a.target_state = "FIN_WAIT_2";
  strategy::Strategy b = a;
  b.id = 99;  // same content, different emission order
  EXPECT_EQ(strategy::canonical_key(a), strategy::canonical_key(b));

  b.packet_type = "SYN";
  EXPECT_NE(strategy::canonical_key(a), strategy::canonical_key(b));
  b = a;
  b.lie = strategy::LieSpec{"window", strategy::LieSpec::Mode::kSet, 0};
  EXPECT_NE(strategy::canonical_key(a), strategy::canonical_key(b));
}

}  // namespace
}  // namespace snake::core
