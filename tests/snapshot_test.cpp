// Snapshot-forked trial execution: the bit-identity contract.
//
// A trial served from a SnapshotSession checkpoint must produce *byte
// identical* RunMetrics (JSON encoding) to the same trial replayed from
// t=0 — across TCP profiles, DCCP CCIDs, strategy shapes, and whole
// campaigns on the in-process backend. The distributed backend's
// cross-process determinism check and the result cache both lean on this.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "snake/arena.h"
#include "snake/controller.h"
#include "snake/snapshot.h"
#include "snake/scenario.h"
#include "tcp/profile.h"

namespace snake {
namespace {

using core::CampaignConfig;
using core::CampaignResult;
using core::Protocol;
using core::RunMetrics;
using core::ScenarioArena;
using core::ScenarioConfig;
using core::SnapshotSession;
using core::SnapshotStore;
using strategy::AttackAction;
using strategy::MatchMode;
using strategy::Strategy;

std::string metrics_json(const RunMetrics& m) {
  obs::JsonWriter w;
  core::write_json(w, m);
  return w.take();
}

ScenarioConfig tcp_config(std::uint64_t seed) {
  ScenarioConfig config;
  config.protocol = Protocol::kTcp;
  config.test_duration = Duration::seconds(6.0);
  config.seed = seed;
  return config;
}

ScenarioConfig dccp_config(std::uint64_t seed, int ccid) {
  ScenarioConfig config;
  config.protocol = Protocol::kDccp;
  config.test_duration = Duration::seconds(6.0);
  config.dccp_ccid = ccid;
  config.seed = seed;
  return config;
}

Strategy lie_strategy(std::uint64_t id, const std::string& type, const std::string& state,
                      strategy::TrafficDirection dir, const std::string& field,
                      strategy::LieSpec::Mode mode, std::uint64_t operand) {
  Strategy s;
  s.id = id;
  s.action = AttackAction::kLie;
  s.packet_type = type;
  s.target_state = state;
  s.direction = dir;
  s.lie = strategy::LieSpec{field, mode, operand};
  return s;
}

/// The strategy shapes exercised against each scenario: per-packet actions
/// in both directions, wildcard types, injections toward both endpoints,
/// and a hitseqwindow sweep.
std::vector<Strategy> tcp_strategies() {
  using D = strategy::TrafficDirection;
  using M = strategy::LieSpec::Mode;
  std::vector<Strategy> out;
  out.push_back(lie_strategy(1, "SYN+ACK", "SYN_RCVD", D::kServerToClient, "seq",
                             M::kSubtract, 1));
  out.push_back(lie_strategy(2, "PSH+ACK", "ESTABLISHED", D::kServerToClient, "flags",
                             M::kRandom, 0));
  Strategy drop;
  drop.id = 3;
  drop.action = AttackAction::kDrop;
  drop.packet_type = "*";
  drop.target_state = "ESTABLISHED";
  drop.direction = D::kClientToServer;
  out.push_back(drop);
  Strategy dup;
  dup.id = 4;
  dup.action = AttackAction::kDuplicate;
  dup.packet_type = "ACK";
  dup.target_state = "CLOSE_WAIT";
  dup.direction = D::kClientToServer;
  dup.duplicate_count = 4;
  out.push_back(dup);
  Strategy inj;
  inj.id = 5;
  inj.action = AttackAction::kInject;
  inj.packet_type = "RST";
  inj.target_state = "ESTABLISHED";
  inj.inject.emplace();
  inj.inject->packet_type = "RST";
  inj.inject->spoof_toward_client = false;
  inj.inject->target_competing = false;
  out.push_back(inj);
  Strategy sweep;
  sweep.id = 6;
  sweep.action = AttackAction::kHitSeqWindow;
  sweep.packet_type = "RST";
  sweep.target_state = "ESTABLISHED";
  sweep.inject.emplace();
  sweep.inject->packet_type = "RST";
  sweep.inject->spoof_toward_client = true;
  sweep.inject->target_competing = true;
  sweep.inject->count = 8;
  sweep.inject->seq_stride = 1 << 14;
  out.push_back(sweep);
  return out;
}

std::vector<Strategy> dccp_strategies() {
  using D = strategy::TrafficDirection;
  std::vector<Strategy> out;
  Strategy drop;
  drop.id = 1;
  drop.action = AttackAction::kDrop;
  drop.packet_type = "DCCP-Ack";
  drop.target_state = "OPEN";
  drop.direction = D::kClientToServer;
  out.push_back(drop);
  Strategy dup;
  dup.id = 2;
  dup.action = AttackAction::kDuplicate;
  dup.packet_type = "*";
  dup.target_state = "OPEN";
  dup.direction = D::kServerToClient;
  dup.duplicate_count = 3;
  out.push_back(dup);
  Strategy inj;
  inj.id = 3;
  inj.action = AttackAction::kInject;
  inj.packet_type = "DCCP-Reset";
  inj.target_state = "OPEN";
  inj.inject.emplace();
  inj.inject->packet_type = "DCCP-Reset";
  inj.inject->spoof_toward_client = true;
  inj.inject->target_competing = false;
  out.push_back(inj);
  return out;
}

/// Strategies in `declined_ids` target states entered during world init (the
/// client's connect pushes the handshake through the proxy synchronously, so
/// SYN_SENT / SYN_RCVD exist before the first event) — no between-events
/// checkpoint precedes those entries and the session must refuse to serve
/// them rather than fork unsoundly.
void expect_fork_equals_replay(const ScenarioConfig& config,
                               const std::vector<Strategy>& strategies,
                               const std::vector<std::uint64_t>& declined_ids = {}) {
  SnapshotSession session(config);
  ASSERT_FALSE(session.bad());
  EXPECT_GE(session.snapshot_count(), 1u);
  ScenarioArena replay_arena;
  for (const Strategy& s : strategies) {
    std::vector<Strategy> attacks{s};
    auto forked = session.serve(config, attacks);
    bool expect_decline = std::find(declined_ids.begin(), declined_ids.end(), s.id) !=
                          declined_ids.end();
    if (expect_decline) {
      EXPECT_FALSE(forked.has_value()) << "strategy " << s.id;
      continue;
    }
    ASSERT_TRUE(forked.has_value()) << "strategy " << s.id;
    RunMetrics plain = core::run_scenario(replay_arena, config, attacks);
    EXPECT_EQ(metrics_json(*forked), metrics_json(plain)) << "strategy " << s.id;
  }
}

TEST(SnapshotFork, TcpForkedTrialsMatchReplayAcrossProfiles) {
  for (const auto& profile :
       {tcp::linux_3_13_profile(), tcp::windows_8_1_profile(), tcp::windows_95_profile()}) {
    ScenarioConfig config = tcp_config(11);
    config.tcp_profile = profile;
    SCOPED_TRACE(profile.name);
    // Strategy 1 targets SYN_RCVD, entered while the world is constructed.
    expect_fork_equals_replay(config, tcp_strategies(), {1});
  }
}

TEST(SnapshotFork, DccpForkedTrialsMatchReplayAcrossCcids) {
  for (int ccid : {2, 3}) {
    SCOPED_TRACE(ccid);
    expect_fork_equals_replay(dccp_config(17, ccid), dccp_strategies());
  }
}

TEST(SnapshotFork, ServedTrialsInterleaveWithFallbackTrialsSafely) {
  // Fallback (plain) trials run in the executor's arena; served trials run in
  // the session's private arena. Interleaving them must not perturb either.
  ScenarioConfig config = tcp_config(23);
  SnapshotStore store;
  ScenarioArena executor_arena;
  std::vector<Strategy> strategies = tcp_strategies();
  std::vector<std::string> first_pass;
  std::size_t served = 0;
  for (const Strategy& s : strategies) {
    std::vector<Strategy> attacks{s};
    auto forked = store.run_trial(config, attacks);
    // Declined trials (pre-run targets) replay in the executor arena, exactly
    // as the trial runner would; both shapes must be stable across passes.
    RunMetrics run = forked.has_value()
                         ? *forked
                         : core::run_scenario(executor_arena, config, attacks);
    served += forked.has_value() ? 1 : 0;
    first_pass.push_back(metrics_json(run));
    // A plain trial in the executor arena between every served trial.
    core::run_scenario(executor_arena, config, attacks);
  }
  EXPECT_GE(served, strategies.size() - 1);
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    std::vector<Strategy> attacks{strategies[i]};
    auto again = store.run_trial(config, attacks);
    RunMetrics run = again.has_value()
                         ? *again
                         : core::run_scenario(executor_arena, config, attacks);
    EXPECT_EQ(metrics_json(run), first_pass[i]) << "strategy " << strategies[i].id;
  }
}

TEST(SnapshotFork, StoreSelfcheckReportsZeroViolations) {
  // Every trial the store serves equals its from-zero replay, byte for byte.
  SnapshotStore store;
  ScenarioConfig config = tcp_config(29);
  ScenarioArena replay_arena;
  std::size_t served = 0;
  for (const Strategy& s : tcp_strategies()) {
    std::vector<Strategy> attacks{s};
    auto forked = store.run_trial(config, attacks);
    if (!forked.has_value()) continue;
    ++served;
    RunMetrics plain = core::run_scenario(replay_arena, config, attacks);
    EXPECT_EQ(metrics_json(*forked), metrics_json(plain)) << "strategy " << s.id;
  }
  EXPECT_GE(served, 5u);  // all but the pre-run-target strategy fork
}

/// Registry counters of one trial, minus the ones that legitimately differ
/// between a forked trial and its from-zero replay: the snapshot layer's own
/// bookkeeping and buffer-pool reuse (the session's pool is warm).
std::map<std::string, std::uint64_t> trial_counters(const obs::MetricsRegistry& reg) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : reg.counters())
    if (name.rfind("snapshot.", 0) != 0 && name != "sim.buffers_reused") out[name] = value;
  return out;
}

void expect_fork_counters_equal_replay(const ScenarioConfig& base,
                                       const std::vector<Strategy>& strategies) {
  SnapshotStore store;
  ScenarioArena replay_arena;
  std::size_t served = 0;
  for (const Strategy& s : strategies) {
    std::vector<Strategy> attacks{s};
    obs::MetricsRegistry forked_reg, plain_reg;
    ScenarioConfig config = base;
    config.metrics = &forked_reg;
    if (!store.run_trial(config, attacks).has_value()) continue;
    ++served;
    config.metrics = &plain_reg;
    core::run_scenario(replay_arena, config, attacks);
    const auto forked = trial_counters(forked_reg);
    EXPECT_EQ(forked, trial_counters(plain_reg)) << "strategy " << s.id;
    EXPECT_GT(forked.count(base.protocol == Protocol::kTcp ? "tcp.endpoint.segments_sent"
                                                           : "dccp.endpoint.packets_sent"),
              0u);
  }
  EXPECT_EQ(served, strategies.size());
}

TEST(SnapshotFork, ForkedTrialCountersMatchReplay) {
  std::vector<Strategy> tcp = tcp_strategies();
  tcp.erase(tcp.begin());  // pre-run target: declined, never forked
  ScenarioConfig sack = tcp_config(37);
  sack.tcp_profile = tcp::sack_rfc2018_profile();
  {
    SCOPED_TRACE("sack-rfc2018");
    expect_fork_counters_equal_replay(sack, tcp);
  }
  {
    // Flows opening mid-run create endpoints after the early checkpoints,
    // so forks from those checkpoints zombify them.
    SCOPED_TRACE("sack-rfc2018 trace");
    sack.workload = core::Workload::kTrace;
    sack.trace_text =
        "# snake-trace/v1\n"
        "0.0 web1 open\n0.2 web1 recv 80000\n0.6 web1 send 1500\n2.0 web1 close\n"
        "0.3 web2 open\n0.8 web2 recv 50000\n2.5 web2 close\n"
        "1.2 api open\n1.4 api send 700\n1.6 api recv 25000\n";
    expect_fork_counters_equal_replay(sack, tcp);
  }
  {
    SCOPED_TRACE("ccid3");
    expect_fork_counters_equal_replay(dccp_config(41, 3), dccp_strategies());
  }
}

TEST(SnapshotFork, IneligibleRequestsDecline) {
  SnapshotStore store;
  ScenarioConfig config = tcp_config(31);
  // Baseline (no attacks).
  EXPECT_FALSE(store.run_trial(config, {}).has_value());
  // Non-state-based component.
  Strategy timed;
  timed.action = AttackAction::kDrop;
  timed.match_mode = MatchMode::kTimeWindow;
  timed.window_start_seconds = 1.0;
  timed.window_length_seconds = 1.0;
  EXPECT_FALSE(store.run_trial(config, {timed}).has_value());
  // Initial-state target: the proxy arms these at t=0.
  Strategy initial;
  initial.action = AttackAction::kDrop;
  initial.packet_type = "SYN";
  initial.target_state = "CLOSED";
  initial.direction = strategy::TrafficDirection::kClientToServer;
  EXPECT_FALSE(store.run_trial(config, {initial}).has_value());
  // Pre-run state target: SYN_SENT is entered during world construction
  // (the client's connect sends its SYN synchronously), so there is no
  // between-events checkpoint that precedes it.
  Strategy prerun;
  prerun.action = AttackAction::kDrop;
  prerun.packet_type = "SYN";
  prerun.target_state = "SYN_SENT";
  prerun.direction = strategy::TrafficDirection::kClientToServer;
  EXPECT_FALSE(store.run_trial(config, {prerun}).has_value());
  // Inspector-carrying configs (the dist selfcheck shape) decline too.
  class NullInspector : public core::RunInspector {
    void on_run_complete(sim::Dumbbell&, proxy::AttackProxy&, const RunMetrics&) override {}
  } inspector;
  ScenarioConfig with_inspector = config;
  with_inspector.inspector = &inspector;
  std::vector<Strategy> attacks = {tcp_strategies().front()};
  EXPECT_FALSE(store.run_trial(with_inspector, attacks).has_value());
}

/// Does nothing, but its presence makes every trial run from zero: stores
/// decline configs that carry an inspector.
class NoopInspector : public core::RunInspector {
 public:
  void on_run_complete(sim::Dumbbell&, proxy::AttackProxy&, const RunMetrics&) override {}
};

/// A campaign's report with its metrics dropped (registries legitimately
/// differ, see DESIGN.md), plus how many trials it forked from snapshots.
struct CampaignRun {
  std::string json;
  std::uint64_t forked_runs = 0;
};

CampaignRun small_campaign(Protocol protocol, core::RunInspector* inspector) {
  CampaignConfig config;
  config.scenario.protocol = protocol;
  config.scenario.test_duration = Duration::seconds(4.0);
  config.scenario.seed = 7;
  config.scenario.event_budget = 40'000'000;
  config.scenario.inspector = inspector;
  config.executors = 2;
  config.max_strategies = 20;
  CampaignResult result = core::run_campaign(config);
  CampaignRun run;
  run.forked_runs = result.metrics.counter("snapshot.forked_runs");
  result.metrics = obs::MetricsRegistry();
  run.json = result.to_json();
  return run;
}

TEST(SnapshotFork, CampaignResultsAreByteIdenticalWithSnapshotsOnAndOff) {
  // Reference: the from-zero twin, the same campaign with a no-op inspector.
  for (Protocol protocol : {Protocol::kTcp, Protocol::kDccp}) {
    SCOPED_TRACE(core::to_string(protocol));
    NoopInspector noop;
    const CampaignRun forked = small_campaign(protocol, nullptr);
    const CampaignRun from_zero = small_campaign(protocol, &noop);
    EXPECT_EQ(forked.json, from_zero.json);
    EXPECT_GT(forked.forked_runs, 0u) << "no trial was served from a snapshot";
    EXPECT_EQ(from_zero.forked_runs, 0u) << "the from-zero twin forked a trial";
  }
}

}  // namespace
}  // namespace snake
