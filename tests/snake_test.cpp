// SNAKE core tests: detector/classifier units, baseline scenario sanity,
// scenario-level reproductions of the paper's Table II attacks, and a small
// end-to-end campaign.
#include <gtest/gtest.h>

#include "packet/dccp_format.h"
#include "packet/tcp_format.h"
#include "snake/controller.h"
#include "snake/detector.h"
#include "snake/scenario.h"
#include "tcp/profile.h"
#include "tcp/segment.h"
#include "util/strings.h"

namespace snake::core {
namespace {

using strategy::AttackAction;
using strategy::InjectSpec;
using strategy::LieSpec;
using strategy::Strategy;
using strategy::TrafficDirection;

// ------------------------------------------------------------- detector

RunMetrics metrics(std::uint64_t target, std::uint64_t competing, std::size_t stuck = 0) {
  RunMetrics m;
  m.target_bytes = target;
  m.competing_bytes = competing;
  m.server1_stuck_sockets = stuck;
  return m;
}

TEST(Detector, NoChangeIsNoAttack) {
  Detection d = detect(metrics(1000, 1000), metrics(1050, 980));
  EXPECT_FALSE(d.is_attack);
}

TEST(Detector, ThroughputDropIsAttack) {
  Detection d = detect(metrics(1000, 1000), metrics(400, 1000));
  EXPECT_TRUE(d.is_attack);
  EXPECT_LE(d.target_ratio, 0.5);
}

TEST(Detector, ThroughputGainIsFairnessAttack) {
  Detection d = detect(metrics(1000, 1000), metrics(1600, 900));
  EXPECT_TRUE(d.is_attack);
  EXPECT_GE(d.target_ratio, 1.5);
}

TEST(Detector, CompetingConnectionImpactDetected) {
  Detection d = detect(metrics(1000, 1000), metrics(1000, 300));
  EXPECT_TRUE(d.is_attack);
}

TEST(Detector, StuckServerSocketIsResourceExhaustion) {
  Detection d = detect(metrics(1000, 1000, 0), metrics(1000, 1000, 1));
  EXPECT_TRUE(d.is_attack);
  EXPECT_TRUE(d.resource_exhaustion);
}

TEST(Detector, ExactlyAtThresholdCounts) {
  Detection d = detect(metrics(1000, 1000), metrics(500, 1000));
  EXPECT_TRUE(d.is_attack);
  Detection d2 = detect(metrics(1000, 1000), metrics(501, 1000));
  EXPECT_FALSE(d2.is_attack);
}

TEST(Detector, ConfigurableThresholdWidensAndNarrowsDetection) {
  // ratio 1.4: not an attack at the default 0.5 threshold, flagged at 0.3.
  Detection strict = detect(metrics(1000, 1000), metrics(1400, 1000));
  EXPECT_FALSE(strict.is_attack);
  Detection loose = detect(metrics(1000, 1000), metrics(1400, 1000), 0.3);
  EXPECT_TRUE(loose.is_attack);
  EXPECT_DOUBLE_EQ(loose.target_ratio, 1.4);

  // ratio 0.4: flagged at the default (cut-off 0.5) but not at 0.3, whose
  // down-side cut-off is 0.3 — the threshold moves both sides symmetrically.
  EXPECT_TRUE(detect(metrics(1000, 1000), metrics(400, 1000)).is_attack);
  EXPECT_FALSE(detect(metrics(1000, 1000), metrics(400, 1000), 0.3).is_attack);
  EXPECT_TRUE(detect(metrics(1000, 1000), metrics(250, 1000), 0.3).is_attack);
}

TEST(Detector, SignatureEffectClassUsesDetectionThreshold) {
  // Regression: effect_class hardcoded the 0.5 ratio cut-offs, so a campaign
  // run at threshold 0.3 could detect a fairness attack (ratio 1.4 >= 1.3)
  // that the signature then filed under the catch-all "performance-shift"
  // instead of "fairness-gain". Signature grouping must use the same
  // threshold detection used.
  Strategy s;
  s.action = AttackAction::kLie;
  s.packet_type = "ACK";
  s.direction = TrafficDirection::kClientToServer;
  s.lie = LieSpec{"window", LieSpec::Mode::kSet, 0};
  RunMetrics run = metrics(1400, 1000);
  run.target_established = true;
  run.competing_established = true;

  Detection d = detect(metrics(1000, 1000), run, 0.3);
  ASSERT_TRUE(d.is_attack);
  std::string sig = attack_signature(s, packet::tcp_format(), d, run, 0.3);
  EXPECT_NE(sig.find("fairness-gain"), std::string::npos) << sig;
  // The old behaviour (defaulted 0.5 cut-offs) cannot attribute the effect.
  std::string stale = attack_signature(s, packet::tcp_format(), d, run);
  EXPECT_NE(stale.find("performance-shift"), std::string::npos) << stale;
}

// ------------------------------------------------------------ classifier

TEST(Classifier, PortLieIsOnPath) {
  Strategy s;
  s.action = AttackAction::kLie;
  s.lie = LieSpec{"dst_port", LieSpec::Mode::kSet, 0};
  Detection d;
  d.is_attack = true;
  EXPECT_EQ(classify(s, packet::tcp_format(), d, RunMetrics{}), AttackClass::kOnPath);
  s.lie = LieSpec{"data_offset", LieSpec::Mode::kSet, 0};
  EXPECT_EQ(classify(s, packet::tcp_format(), d, RunMetrics{}), AttackClass::kOnPath);
}

TEST(Classifier, SeqLieIsNotOnPath) {
  Strategy s;
  s.action = AttackAction::kLie;
  s.lie = LieSpec{"seq", LieSpec::Mode::kAdd, 1};
  Detection d;
  d.is_attack = true;
  EXPECT_EQ(classify(s, packet::tcp_format(), d, RunMetrics{}), AttackClass::kTrueAttack);
}

TEST(Classifier, HitSeqWindowWithoutResetIsFalsePositive) {
  Strategy s;
  s.action = AttackAction::kHitSeqWindow;
  InjectSpec spec;
  spec.packet_type = "RST";
  spec.target_competing = true;
  s.inject = spec;
  Detection d;
  d.is_attack = true;
  RunMetrics slow_but_alive;
  slow_but_alive.competing_reset = false;
  EXPECT_EQ(classify(s, packet::tcp_format(), d, slow_but_alive),
            AttackClass::kFalsePositive);
  RunMetrics reset_hit;
  reset_hit.competing_reset = true;
  EXPECT_EQ(classify(s, packet::tcp_format(), d, reset_hit), AttackClass::kTrueAttack);
}

TEST(Classifier, SignaturesFoldEquivalentStrategies) {
  Detection d;
  d.target_ratio = 0.3;
  RunMetrics m;
  m.target_established = true;
  m.competing_established = true;
  Strategy a;
  a.action = AttackAction::kLie;
  a.packet_type = "ACK";
  a.direction = TrafficDirection::kClientToServer;
  a.lie = LieSpec{"seq", LieSpec::Mode::kAdd, 1};
  Strategy b = a;
  b.lie = LieSpec{"ack", LieSpec::Mode::kMultiply, 2};  // same field kind
  EXPECT_EQ(attack_signature(a, packet::tcp_format(), d, m),
            attack_signature(b, packet::tcp_format(), d, m));
  Strategy c = a;
  c.lie = LieSpec{"window", LieSpec::Mode::kSet, 0};  // different kind
  EXPECT_NE(attack_signature(a, packet::tcp_format(), d, m),
            attack_signature(c, packet::tcp_format(), d, m));
  // Same mechanism but different effect: distinct attacks.
  Detection d2 = d;
  d2.resource_exhaustion = true;
  EXPECT_NE(attack_signature(a, packet::tcp_format(), d, m),
            attack_signature(a, packet::tcp_format(), d2, m));
}

// ----------------------------------------------------- baseline scenarios

ScenarioConfig tcp_config(const tcp::TcpProfile& profile, std::uint64_t seed = 5) {
  ScenarioConfig c;
  c.protocol = Protocol::kTcp;
  c.tcp_profile = profile;
  c.test_duration = Duration::seconds(20.0);
  c.seed = seed;
  return c;
}

ScenarioConfig dccp_config(std::uint64_t seed = 5) {
  ScenarioConfig c;
  c.protocol = Protocol::kDccp;
  c.test_duration = Duration::seconds(20.0);
  c.seed = seed;
  return c;
}

// ------------------------------------- segment views over captured traffic

/// Every packet a run put on the wire, in send order.
class SendCapture : public RunInspector {
 public:
  std::vector<sim::Packet> packets;
  void on_run_complete(sim::Dumbbell& net, proxy::AttackProxy&, const RunMetrics&) override {
    for (const sim::TraceEntry& e : net.network().trace().entries())
      if (e.kind == sim::TraceKind::kSend) packets.push_back(e.packet);
  }
};

/// Parses every packet of a 3 s baseline: the payload must be a view into
/// the packet's own bytes, serializing the parse must give those bytes
/// back, and seq_len()/summary() must agree with the header fields the
/// codec reads.
void expect_baseline_segments_round_trip(const tcp::TcpProfile& profile) {
  ScenarioConfig c = tcp_config(profile);
  c.test_duration = Duration::seconds(3.0);
  SendCapture capture;
  c.inspector = &capture;
  run_scenario(c, std::nullopt);
  const packet::HeaderFormat& f = packet::tcp_format();
  auto field = [&](const sim::Packet& p, const char* name) {
    return f.read(p.bytes, *f.compiled(name));
  };
  std::size_t data_segments = 0;
  for (const sim::Packet& p : capture.packets) {
    ASSERT_EQ(p.protocol, sim::kProtoTcp);
    std::optional<tcp::Segment> s = tcp::parse_segment(p.bytes);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(tcp::serialize(*s), p.bytes);

    const std::size_t header_bytes = field(p, "data_offset") * 4;
    const std::uint64_t flags = field(p, "flags");
    const std::size_t len = p.bytes.size() - header_bytes;
    EXPECT_EQ(s->payload.size(), len);
    if (len > 0) {
      EXPECT_EQ(s->payload.data(), p.bytes.data() + header_bytes);
    }
    EXPECT_EQ(s->seq_len(), len + ((flags & packet::kTcpSyn) ? 1 : 0) +
                                ((flags & packet::kTcpFin) ? 1 : 0));
    std::string names;
    for (auto [bit, name] : {std::pair{packet::kTcpSyn, "SYN+"}, {packet::kTcpFin, "FIN+"},
                             {packet::kTcpRst, "RST+"}, {packet::kTcpPsh, "PSH+"},
                             {packet::kTcpAck, "ACK+"}, {packet::kTcpUrg, "URG+"}})
      if (flags & bit) names += name;
    names = names.empty() ? "none" : names.substr(0, names.size() - 1);
    const std::string header = str_format(
        "%s seq=%u ack=%u len=%zu win=%u", names.c_str(),
        static_cast<unsigned>(field(p, "seq")), static_cast<unsigned>(field(p, "ack")), len,
        static_cast<unsigned>(field(p, "window")));
    EXPECT_EQ(s->summary().rfind(header, 0), 0u) << s->summary() << " vs " << header;
    if (len > 0) ++data_segments;
  }
  EXPECT_GT(data_segments, 100u);
}

TEST(SegmentView, LinuxBaselinePacketsRoundTrip) {
  expect_baseline_segments_round_trip(tcp::linux_3_13_profile());
}

TEST(SegmentView, SackBaselinePacketsRoundTrip) {
  expect_baseline_segments_round_trip(tcp::sack_rfc2018_profile());
}

TEST(Scenario, TcpBaselineIsHealthy) {
  RunMetrics m = run_scenario(tcp_config(tcp::linux_3_13_profile()), std::nullopt);
  EXPECT_TRUE(m.target_established);
  EXPECT_TRUE(m.competing_established);
  EXPECT_FALSE(m.target_reset);
  EXPECT_FALSE(m.competing_reset);
  // Both connections move real data; the proxied client exits at 60% of the
  // test, so the competing one ends up with more.
  EXPECT_GT(m.target_bytes, 1000000u);
  EXPECT_GT(m.competing_bytes, m.target_bytes);
  // Normal teardown: nothing stuck on the attacked server.
  EXPECT_EQ(m.server1_stuck_sockets, 0u);
  // The tracker walked both endpoints into (and out of) ESTABLISHED.
  EXPECT_GT(m.client_state_stats.at("ESTABLISHED").visits, 0u);
}

TEST(Scenario, TcpBaselineFairWhileCompeting) {
  // "reasonable competition for network flows is achieving throughput
  // within a factor of two of each other" — compare the two downloads over
  // the window where both are active (before the client1 app exit).
  ScenarioConfig c = tcp_config(tcp::linux_3_13_profile());
  c.client1_exit_fraction = 1.0;  // run both the whole time
  RunMetrics m = run_scenario(c, std::nullopt);
  double ratio = static_cast<double>(m.target_bytes) / static_cast<double>(m.competing_bytes);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

class TcpBaselineAllProfiles : public ::testing::TestWithParam<int> {};

TEST_P(TcpBaselineAllProfiles, EstablishesAndTransfers) {
  const tcp::TcpProfile& profile = tcp::all_tcp_profiles()[GetParam()];
  RunMetrics m = run_scenario(tcp_config(profile), std::nullopt);
  EXPECT_TRUE(m.target_established) << profile.name;
  EXPECT_GT(m.target_bytes, 500000u) << profile.name;
}

// All seven profiles: the four classic stacks plus the three SACK variants
// (sack-rfc2018, sack-renege, sack-dsack).
INSTANTIATE_TEST_SUITE_P(Profiles, TcpBaselineAllProfiles,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6));

TEST(Scenario, DccpBaselineIsHealthy) {
  RunMetrics m = run_scenario(dccp_config(), std::nullopt);
  EXPECT_TRUE(m.target_established);
  EXPECT_TRUE(m.competing_established);
  EXPECT_GT(m.target_bytes, 500000u);
  double ratio = static_cast<double>(m.target_bytes) / static_cast<double>(m.competing_bytes);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
  // Sources close after the data phase; sockets clean up.
  EXPECT_EQ(m.server1_stuck_sockets, 0u);
}

// ------------------------------------------------ Table II attack scenarios

TEST(AttackScenario, CloseWaitResourceExhaustion) {
  // TCP #1: drop the exited client's RSTs -> server wedges in CLOSE_WAIT.
  ScenarioConfig c = tcp_config(tcp::linux_3_0_profile());
  Strategy s;
  s.action = AttackAction::kDrop;
  s.packet_type = "RST";
  s.target_state = "FIN_WAIT_2";
  s.direction = TrafficDirection::kClientToServer;
  s.drop_probability = 100;

  RunMetrics baseline = run_scenario(c, std::nullopt);
  RunMetrics attacked = run_scenario(c, s);
  Detection d = detect(baseline, attacked);
  EXPECT_TRUE(d.is_attack);
  EXPECT_TRUE(d.resource_exhaustion);
  EXPECT_EQ(attacked.server1_socket_states.at("CLOSE_WAIT"), 1);
  EXPECT_EQ(classify(s, packet::tcp_format(), d, attacked), AttackClass::kTrueAttack);
}

TEST(AttackScenario, CloseWaitDoesNotAffectWindowsClients) {
  // Windows clients keep acknowledging after app exit (no RSTs to block),
  // so the same strategy does nothing — matching the paper, which found the
  // attack only on Linux.
  ScenarioConfig c = tcp_config(tcp::windows_8_1_profile());
  Strategy s;
  s.action = AttackAction::kDrop;
  s.packet_type = "RST";
  s.target_state = "FIN_WAIT_2";
  s.direction = TrafficDirection::kClientToServer;
  RunMetrics baseline = run_scenario(c, std::nullopt);
  RunMetrics attacked = run_scenario(c, s);
  EXPECT_EQ(attacked.server1_stuck_sockets, baseline.server1_stuck_sockets);
}

TEST(AttackScenario, DuplicateAckSpoofingOnWindows95) {
  // TCP #3 (Savage et al.): duplicating the malicious client's own ACKs
  // inflates a naive sender's congestion window -> unfair throughput gain.
  ScenarioConfig c = tcp_config(tcp::windows_95_profile());
  Strategy s;
  s.action = AttackAction::kDuplicate;
  s.packet_type = "ACK";
  s.target_state = "ESTABLISHED";
  s.direction = TrafficDirection::kClientToServer;
  s.duplicate_count = 2;  // stays under the fast-retransmit threshold

  RunMetrics baseline = run_scenario(c, std::nullopt);
  RunMetrics attacked = run_scenario(c, s);
  Detection d = detect(baseline, attacked);
  EXPECT_TRUE(d.is_attack);
  EXPECT_GE(d.target_ratio, 1.5) << "malicious connection should gain >1.5x";

  // Modern stacks are immune (the dupacks do not grow the window).
  ScenarioConfig modern = tcp_config(tcp::linux_3_13_profile());
  RunMetrics mb = run_scenario(modern, std::nullopt);
  RunMetrics ma = run_scenario(modern, s);
  Detection dm = detect(mb, ma);
  EXPECT_LT(dm.target_ratio, 1.5);
}

Strategy hitseqwindow_strategy(const std::string& type) {
  Strategy s;
  s.action = AttackAction::kHitSeqWindow;
  s.packet_type = type;
  s.target_state = "ESTABLISHED";
  s.direction = TrafficDirection::kServerToClient;
  InjectSpec spec;
  spec.packet_type = type;
  spec.fields = {{"data_offset", 5}};
  spec.spoof_toward_client = true;
  spec.target_competing = true;  // off-path: the B-C connection of Fig 1(b)
  spec.seq_field = "seq";
  spec.seq_start = 7777;
  spec.seq_stride = 65535;
  spec.count = (1ULL << 32) / 65535 + 2;
  spec.pace_pps = 20000;
  s.inject = spec;
  return s;
}

TEST(AttackScenario, OffPathResetAttack) {
  // TCP #4 (Watson): sweep spoofed RSTs at receive-window intervals into
  // the competing connection; one lands in-window and kills it.
  ScenarioConfig c = tcp_config(tcp::linux_3_13_profile());
  Strategy s = hitseqwindow_strategy("RST");
  RunMetrics baseline = run_scenario(c, std::nullopt);
  RunMetrics attacked = run_scenario(c, s);
  Detection d = detect(baseline, attacked);
  EXPECT_TRUE(d.is_attack);
  EXPECT_TRUE(attacked.competing_reset);
  EXPECT_LE(d.competing_ratio, 0.5);
  EXPECT_EQ(classify(s, packet::tcp_format(), d, attacked), AttackClass::kTrueAttack);
}

TEST(AttackScenario, OffPathSynResetAttack) {
  // TCP #5: a sequence-valid SYN on an established connection forces a
  // reset, same sweep shape.
  ScenarioConfig c = tcp_config(tcp::linux_3_13_profile());
  Strategy s = hitseqwindow_strategy("SYN");
  RunMetrics baseline = run_scenario(c, std::nullopt);
  RunMetrics attacked = run_scenario(c, s);
  Detection d = detect(baseline, attacked);
  EXPECT_TRUE(d.is_attack);
  EXPECT_TRUE(attacked.competing_reset);
}

TEST(AttackScenario, DuplicateAckRateLimitingOnWindows81) {
  // TCP #6: duplicating the occasional PSH+ACK ten times makes the receiver
  // emit duplicate ACKs; a sender without DSACK suppression (Windows 8.1)
  // halves its window every time, degrading the malicious client's own
  // download -- while Linux senders shrug it off.
  Strategy s;
  s.action = AttackAction::kDuplicate;
  s.packet_type = "PSH+ACK";
  s.target_state = "ESTABLISHED";
  s.direction = TrafficDirection::kServerToClient;
  s.duplicate_count = 10;

  ScenarioConfig win = tcp_config(tcp::windows_8_1_profile());
  RunMetrics wb = run_scenario(win, std::nullopt);
  RunMetrics wa = run_scenario(win, s);
  Detection dw = detect(wb, wa);
  EXPECT_TRUE(dw.is_attack);
  EXPECT_LE(dw.target_ratio, 0.5) << "Windows 8.1 should degrade >2x";

  ScenarioConfig lin = tcp_config(tcp::linux_3_13_profile());
  RunMetrics lb = run_scenario(lin, std::nullopt);
  RunMetrics la = run_scenario(lin, s);
  Detection dl = detect(lb, la);
  EXPECT_GT(dl.target_ratio, 0.5) << "Linux shows approximately fair behaviour";
}

TEST(AttackScenario, DccpAcknowledgmentMungResourceExhaustion) {
  // DCCP #7: wrecking acknowledgment numbers pins the sender at minimum
  // rate; its queue never drains, close() never completes, and the server
  // holds the socket.
  ScenarioConfig c = dccp_config();
  Strategy s;
  s.action = AttackAction::kLie;
  s.packet_type = "DCCP-Ack";
  s.target_state = "OPEN";
  s.direction = TrafficDirection::kServerToClient;
  s.lie = LieSpec{"ack", LieSpec::Mode::kSet, 0x123456};

  RunMetrics baseline = run_scenario(c, std::nullopt);
  RunMetrics attacked = run_scenario(c, s);
  Detection d = detect(baseline, attacked);
  EXPECT_TRUE(d.is_attack);
  EXPECT_GT(attacked.server1_stuck_sockets, baseline.server1_stuck_sockets);
  EXPECT_EQ(classify(s, packet::dccp_format(), d, attacked), AttackClass::kTrueAttack);
}

TEST(AttackScenario, DccpInWindowAckSequenceModification) {
  // DCCP #8: +60 on acknowledgment sequence numbers (still in-window)
  // forces repeated Sync resynchronizations, throttling the connection.
  ScenarioConfig c = dccp_config();
  Strategy s;
  s.action = AttackAction::kLie;
  s.packet_type = "DCCP-Ack";
  s.target_state = "OPEN";
  s.direction = TrafficDirection::kServerToClient;
  s.lie = LieSpec{"seq", LieSpec::Mode::kAdd, 60};

  RunMetrics baseline = run_scenario(c, std::nullopt);
  RunMetrics attacked = run_scenario(c, s);
  Detection d = detect(baseline, attacked);
  EXPECT_TRUE(d.is_attack);
  EXPECT_LE(d.target_ratio, 0.5);
}

TEST(AttackScenario, DccpRequestStateTermination) {
  // DCCP #9: ANY non-Response packet with arbitrary sequence numbers resets
  // a connection in REQUEST state — connection establishment prevented.
  ScenarioConfig c = dccp_config();
  Strategy s;
  s.action = AttackAction::kInject;
  s.packet_type = "DCCP-Data";
  s.target_state = "REQUEST";
  s.direction = TrafficDirection::kServerToClient;
  InjectSpec spec;
  spec.packet_type = "DCCP-Data";
  spec.fields = {{"data_offset", 6}, {"x", 1}, {"seq", 424242}};
  spec.spoof_toward_client = true;
  spec.target_competing = false;
  s.inject = spec;

  RunMetrics baseline = run_scenario(c, std::nullopt);
  RunMetrics attacked = run_scenario(c, s);
  Detection d = detect(baseline, attacked);
  EXPECT_TRUE(d.is_attack);
  EXPECT_TRUE(attacked.target_reset);
  EXPECT_EQ(attacked.target_bytes, 0u);
}

TEST(AttackScenario, ReflectedAckStormIsBounded) {
  // Regression: reflecting a packet type the victim answers (here every
  // reflected ACK draws a challenge-ACK) creates a packet loop. The bounce
  // must go through the scheduler with a processing delay — a synchronous
  // bounce recursed without bound and crashed the executor.
  ScenarioConfig c = tcp_config(tcp::linux_3_13_profile());
  c.test_duration = Duration::seconds(10.0);
  Strategy s;
  s.action = AttackAction::kReflect;
  s.packet_type = "ACK";
  s.target_state = "ESTABLISHED";
  s.direction = TrafficDirection::kClientToServer;
  RunMetrics m = run_scenario(c, s);
  // The loop is paced at the reflect delay: ~1 bounce per ms for the test
  // duration, not millions.
  EXPECT_GT(m.proxy.reflected, 100u);
  EXPECT_LT(m.proxy.reflected, 50000u);
}

// ----------------------------------------------------------- mini campaign

TEST(Campaign, CombinationPhasePairsTopAttacks) {
  CampaignConfig config;
  config.scenario = tcp_config(tcp::linux_3_13_profile());
  config.scenario.test_duration = Duration::seconds(8.0);
  config.generator = strategy::tcp_generator_config();
  config.generator.hitseq_max_packets = 4000;
  config.executors = 2;
  config.max_strategies = 60;
  config.combine_top = 3;
  CampaignResult result = run_campaign(config);
  if (result.true_attack_strategies >= 2) {
    EXPECT_GT(result.combinations_tried, 0u);
    EXPECT_LE(result.combinations_tried, 3u);  // C(3,2)
    for (const CombinedOutcome& c : result.combined) {
      EXPECT_GE(c.impact_score, 0.0);
      EXPECT_GE(c.best_single_score, 0.0);
    }
    EXPECT_LE(result.combinations_stronger, result.combinations_tried);
  }
}

TEST(Detector, ImpactScoreOrdersSeverity) {
  Detection mild;
  mild.target_ratio = 0.8;
  mild.competing_ratio = 1.0;
  Detection severe;
  severe.target_ratio = 0.1;
  severe.competing_ratio = 1.0;
  Detection exhaustion;
  exhaustion.target_ratio = 1.0;
  exhaustion.competing_ratio = 1.0;
  exhaustion.resource_exhaustion = true;
  EXPECT_LT(impact_score(mild), impact_score(severe));
  EXPECT_LT(impact_score(severe), impact_score(exhaustion));
}

TEST(Campaign, BoundedCampaignRunsEndToEnd) {
  CampaignConfig config;
  config.scenario = tcp_config(tcp::linux_3_13_profile());
  config.scenario.test_duration = Duration::seconds(10.0);
  config.generator = strategy::tcp_generator_config();
  config.executors = 4;
  config.max_strategies = 40;

  CampaignResult result = run_campaign(config);
  EXPECT_EQ(result.strategies_tried, 40u);
  EXPECT_GT(result.baseline.target_bytes, 0u);
  EXPECT_EQ(result.attack_strategies_found,
            result.on_path + result.false_positives + result.true_attack_strategies);
  EXPECT_LE(result.unique_true_attacks, result.true_attack_strategies);
  EXPECT_FALSE(result.summary_row().empty());
}

/// A campaign over a SACK-negotiating profile whose universe is narrowed to
/// the SACK-relevant strategies: drop-100 per observed (state, type) pair
/// plus lies on the SACK mirror bits. Shared by the discovery and
/// determinism assertions below.
CampaignConfig sack_campaign() {
  CampaignConfig config;
  config.scenario = tcp_config(tcp::sack_rfc2018_profile());
  config.scenario.test_duration = Duration::seconds(8.0);
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
  config.executors = 4;
  return config;
}

TEST(Campaign, SackProfileCampaignFindsSackSpecificAttack) {
  // Acceptance: a campaign over a SACK profile discovers at least one
  // SACK-specific attack. The expected find is drop/SACK/ESTABLISHED —
  // dropping the SACK-carrying dupacks starves the sender's scoreboard, so
  // every loss recovers by RTO instead of fast retransmit and throughput
  // collapses. Classification must come out a repeatable true attack.
  CampaignResult result = run_campaign(sack_campaign());
  bool sack_attack = false;
  for (const StrategyOutcome& o : result.found) {
    if (o.strat.packet_type != "SACK" &&
        !(o.strat.lie.has_value() && (o.strat.lie->field == "sack_flag" ||
                                      o.strat.lie->field == "dsack_flag")))
      continue;
    EXPECT_EQ(o.cls, AttackClass::kTrueAttack) << strategy::canonical_key(o.strat);
    sack_attack = true;
  }
  EXPECT_TRUE(sack_attack) << "no SACK-specific strategy among " << result.found.size()
                           << " found attacks";
}

TEST(Campaign, SackProfileCampaignIsDeterministic) {
  // The SACK campaign is a pure function of its seed like every other: two
  // thread-pool runs agree on every outcome (the distributed twin is
  // checked in dist_test.cpp).
  CampaignResult a = run_campaign(sack_campaign());
  CampaignResult b = run_campaign(sack_campaign());
  EXPECT_EQ(a.summary_row(), b.summary_row());
  ASSERT_EQ(a.found.size(), b.found.size());
  for (std::size_t i = 0; i < a.found.size(); ++i) {
    EXPECT_EQ(strategy::canonical_key(a.found[i].strat),
              strategy::canonical_key(b.found[i].strat));
    EXPECT_EQ(a.found[i].signature, b.found[i].signature);
    EXPECT_EQ(a.found[i].detection.target_ratio, b.found[i].detection.target_ratio);
  }
}

}  // namespace
}  // namespace snake::core
