// Seed-sweep property tests: the scenario invariants the whole detection
// method rests on must hold across seeds, not just at one lucky value —
// baseline fairness, clean teardown, attack repeatability.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "snake/controller.h"
#include "snake/detector.h"
#include "snake/faultpoint.h"
#include "snake/journal.h"
#include "snake/scenario.h"
#include "tcp/profile.h"

namespace snake::core {
namespace {

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, TcpBaselineInvariants) {
  ScenarioConfig c;
  c.protocol = Protocol::kTcp;
  c.tcp_profile = tcp::linux_3_13_profile();
  c.test_duration = Duration::seconds(15.0);
  c.client1_exit_fraction = 1.0;
  c.seed = GetParam();
  RunMetrics m = run_scenario(c, std::nullopt);
  EXPECT_TRUE(m.target_established);
  EXPECT_TRUE(m.competing_established);
  EXPECT_FALSE(m.target_reset);
  EXPECT_FALSE(m.competing_reset);
  double ratio = static_cast<double>(m.target_bytes) / static_cast<double>(m.competing_bytes);
  EXPECT_GT(ratio, 0.5) << "seed " << GetParam();
  EXPECT_LT(ratio, 2.0) << "seed " << GetParam();
  // Utilization: the pair moves at least half the bottleneck's capacity.
  double total_mbps = (m.target_bytes + m.competing_bytes) * 8 / 15.0 / 1e6;
  EXPECT_GT(total_mbps, 5.0) << "seed " << GetParam();
}

TEST_P(SeedSweep, TcpCleanTeardownAfterClientExit) {
  ScenarioConfig c;
  c.protocol = Protocol::kTcp;
  c.tcp_profile = tcp::linux_3_0_profile();
  c.test_duration = Duration::seconds(15.0);
  c.seed = GetParam();
  RunMetrics m = run_scenario(c, std::nullopt);
  EXPECT_EQ(m.server1_stuck_sockets, 0u) << "seed " << GetParam();
}

TEST_P(SeedSweep, DccpBaselineInvariants) {
  ScenarioConfig c;
  c.protocol = Protocol::kDccp;
  c.test_duration = Duration::seconds(15.0);
  c.seed = GetParam();
  RunMetrics m = run_scenario(c, std::nullopt);
  EXPECT_TRUE(m.target_established);
  EXPECT_EQ(m.server1_stuck_sockets, 0u) << "seed " << GetParam();
  // Unreliable protocol: goodput can never exceed the offered load.
  double offered_bytes =
      c.dccp_offer_rate_pps * c.dccp_payload_bytes * 15.0 * c.dccp_data_fraction;
  EXPECT_LE(static_cast<double>(m.target_bytes), offered_bytes * 1.01);
  EXPECT_GT(m.target_bytes, 500000u);
}

TEST_P(SeedSweep, CloseWaitAttackRepeatsAcrossSeeds) {
  // The paper retests candidates for repeatability; the flagship attack
  // must fire under every seed, not only the demo one.
  ScenarioConfig c;
  c.protocol = Protocol::kTcp;
  c.tcp_profile = tcp::linux_3_13_profile();
  c.test_duration = Duration::seconds(15.0);
  c.seed = GetParam();
  strategy::Strategy s;
  s.action = strategy::AttackAction::kDrop;
  s.packet_type = "RST";
  s.target_state = "FIN_WAIT_2";
  s.direction = strategy::TrafficDirection::kClientToServer;
  RunMetrics baseline = run_scenario(c, std::nullopt);
  RunMetrics attacked = run_scenario(c, s);
  Detection d = detect(baseline, attacked);
  EXPECT_TRUE(d.is_attack) << "seed " << GetParam();
  EXPECT_TRUE(d.resource_exhaustion) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Values(1, 7, 42, 1234, 99991));

// --------------------------------------------------- resilience seed sweep
// The resilience layer must not cost the campaign its determinism contract:
// watchdog-aborted campaigns reproduce exactly for equal seeds, and a
// journaled campaign resumed after an interrupt equals its uninterrupted
// twin field by field.

class ResilienceSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static CampaignConfig campaign(std::uint64_t seed) {
    CampaignConfig c;
    c.scenario.protocol = Protocol::kTcp;
    c.scenario.tcp_profile = tcp::linux_3_13_profile();
    c.scenario.test_duration = Duration::seconds(5.0);
    c.scenario.seed = seed;
    c.generator = strategy::tcp_generator_config();
    c.generator.hitseq_max_packets = 2000;
    c.executors = 1;  // single executor: the schedule is fully deterministic
    c.max_strategies = 12;
    c.collect_metrics = false;
    return c;
  }

  static void expect_equal_results(const CampaignResult& a, const CampaignResult& b) {
    EXPECT_EQ(a.summary_row(), b.summary_row());
    EXPECT_EQ(a.strategies_tried, b.strategies_tried);
    EXPECT_EQ(a.unique_signatures, b.unique_signatures);
    ASSERT_EQ(a.found.size(), b.found.size());
    for (std::size_t i = 0; i < a.found.size(); ++i) {
      EXPECT_EQ(a.found[i].strat.describe(), b.found[i].strat.describe());
      EXPECT_EQ(a.found[i].signature, b.found[i].signature);
      EXPECT_EQ(a.found[i].cls, b.found[i].cls);
      EXPECT_DOUBLE_EQ(a.found[i].detection.target_ratio, b.found[i].detection.target_ratio);
      EXPECT_DOUBLE_EQ(a.found[i].detection.competing_ratio,
                       b.found[i].detection.competing_ratio);
    }
    ASSERT_EQ(a.quarantined.size(), b.quarantined.size());
    for (std::size_t i = 0; i < a.quarantined.size(); ++i) {
      EXPECT_EQ(a.quarantined[i].key, b.quarantined[i].key);
      EXPECT_EQ(a.quarantined[i].verdict, b.quarantined[i].verdict);
      EXPECT_EQ(a.quarantined[i].attempts, b.quarantined[i].attempts);
      EXPECT_EQ(a.quarantined[i].reason, b.quarantined[i].reason);
    }
    EXPECT_EQ(a.trials_aborted, b.trials_aborted);
    EXPECT_EQ(a.trials_errored, b.trials_errored);
    EXPECT_EQ(a.trials_retried, b.trials_retried);
  }
};

TEST_P(ResilienceSweep, WatchdogAbortedCampaignsAreDeterministic) {
  // Half the strategies flood the event queue and get cut by the budget; the
  // campaign around them must still be a pure function of the seed.
  FaultPlan faults;
  faults.add(FaultRule{FaultKind::kEventStorm, 2, 1, FaultRule::kAllAttempts});
  CampaignConfig config = campaign(GetParam());
  config.scenario.faults = &faults;
  config.scenario.event_budget = 400000;

  CampaignResult a = run_campaign(config);
  CampaignResult b = run_campaign(config);
  EXPECT_FALSE(a.quarantined.empty()) << "seed " << GetParam();
  expect_equal_results(a, b);
}

TEST_P(ResilienceSweep, ResumedCampaignEqualsUninterruptedRun) {
  // Faults make the journal carry all verdict shapes: retried-then-completed
  // (transient throw) and quarantined (persistent throw).
  FaultPlan faults;
  faults.add(FaultRule{FaultKind::kThrowInTrial, 3, 1, 1});
  faults.add(FaultRule{FaultKind::kThrowInTrial, 5, 2, FaultRule::kAllAttempts});

  // "Interrupted" campaign: dies after 6 of the 12 trials, journal survives.
  std::string journal_text;
  {
    TrialJournal journal([&](std::string_view line) { journal_text.append(line); });
    CampaignConfig interrupted = campaign(GetParam());
    interrupted.scenario.faults = &faults;
    interrupted.max_strategies = 6;
    interrupted.journal = &journal;
    run_campaign(interrupted);
  }
  TrialLog snapshot;
  snapshot.ingest(journal_text);
  EXPECT_EQ(snapshot.rejected(), 0u) << "seed " << GetParam();
  EXPECT_EQ(snapshot.size(), 6u) << "seed " << GetParam();

  CampaignConfig full = campaign(GetParam());
  full.scenario.faults = &faults;
  CampaignResult uninterrupted = run_campaign(full);
  full.resume = &snapshot;
  CampaignResult resumed = run_campaign(full);

  // resume_skipped is the one field allowed to differ: it records that the
  // resumed run replayed the journaled prefix instead of re-running it.
  EXPECT_EQ(resumed.resume_skipped, 6u);
  EXPECT_EQ(uninterrupted.resume_skipped, 0u);
  expect_equal_results(resumed, uninterrupted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResilienceSweep, ::testing::Values(1, 42, 99991));

}  // namespace
}  // namespace snake::core
