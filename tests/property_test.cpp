// Property-based tests: the shrinking engine itself, invariant oracles
// against hand-crafted violations, congestion-control bounds under random op
// sequences, randomized end-to-end scenarios checked by every oracle, and
// the acceptance demonstration that a deliberately seeded bug is caught and
// shrunk to a tiny reproducer.
//
// Depth knobs (see README "Running the property suite"):
//   SNAKE_PROPERTY_ITERS - iterations per property (default: PR depth)
//   SNAKE_PROPERTY_SEED  - base seed (default 1); failures print the seed
#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>

#include "packet/tcp_format.h"
#include "sim/trace.h"
#include "snake/scenario.h"
#include "statemachine/protocol_specs.h"
#include "tcp/congestion.h"
#include "tcp/profile.h"
#include "testing/oracles.h"
#include "testing/property.h"
#include "testing/scenario_gen.h"
#include "util/rng.h"

using namespace snake;
using namespace snake::testing;

// ---------------------------------------------------------------------------
// The shrinking engine.

TEST(ShrinkSequence, RemovesEverythingIrrelevant) {
  std::vector<int> steps(40);
  std::iota(steps.begin(), steps.end(), 0);
  auto fails = [](const std::vector<int>& s) {
    bool has3 = false, has7 = false;
    for (int v : s) {
      has3 = has3 || v == 3;
      has7 = has7 || v == 7;
    }
    return has3 && has7;
  };
  std::vector<int> minimal = shrink_sequence(steps, fails);
  EXPECT_EQ(minimal, (std::vector<int>{3, 7}));
}

TEST(ShrinkSequence, SimplifiesSurvivingSteps) {
  std::vector<int> steps = {900, 17, 54};
  auto fails = [](const std::vector<int>& s) {
    for (int v : s)
      if (v >= 10) return true;
    return false;
  };
  auto simplify = [](int v) {
    std::vector<int> out;
    if (v > 10) out.push_back(10);
    if (v > 0) out.push_back(v / 2);
    return out;
  };
  std::vector<int> minimal = shrink_sequence(steps, fails, simplify);
  // One step survives and is simplified to the smallest value still failing.
  EXPECT_EQ(minimal, (std::vector<int>{10}));
}

TEST(ShrinkSequence, ReturnsInputWhenNothingRemovable) {
  std::vector<int> steps = {1, 2};
  auto fails = [&](const std::vector<int>& s) { return s.size() == 2; };
  EXPECT_EQ(shrink_sequence(steps, fails), steps);
}

TEST(PropertyConfig, ReadsEnvironmentOverrides) {
  ::setenv("SNAKE_PROPERTY_ITERS", "123", 1);
  ::setenv("SNAKE_PROPERTY_SEED", "77", 1);
  PropertyConfig config = PropertyConfig::from_env(10);
  EXPECT_EQ(config.iterations, 123);
  EXPECT_EQ(config.base_seed, 77u);
  ::unsetenv("SNAKE_PROPERTY_ITERS");
  ::unsetenv("SNAKE_PROPERTY_SEED");
  config = PropertyConfig::from_env(10, 5);
  EXPECT_EQ(config.iterations, 10);
  EXPECT_EQ(config.base_seed, 5u);
}

TEST(PropertyConfig, ForEachSeedReportsFirstFailure) {
  PropertyConfig config;
  config.base_seed = 100;
  config.iterations = 10;
  auto failure = for_each_seed(config, [](std::uint64_t seed) -> std::optional<std::string> {
    if (seed >= 104) return "boom";
    return std::nullopt;
  });
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->seed, 104u);
  EXPECT_EQ(failure->message, "boom");
}

// ---------------------------------------------------------------------------
// Oracles must actually fire on violations (crafted traces).

namespace {

sim::Packet make_tcp_packet(std::uint32_t src, std::uint32_t dst, std::uint64_t seq,
                            std::uint64_t ack, std::uint64_t flags, std::size_t payload) {
  sim::Packet p;
  p.src = src;
  p.dst = dst;
  p.protocol = sim::kProtoTcp;
  p.bytes = packet::tcp_codec().build(
      "ACK", {{"src_port", 40000}, {"dst_port", 80}, {"seq", seq}, {"ack", ack}});
  packet::tcp_codec().set_fast(p.bytes, *packet::tcp_format().compiled("flags"), flags);
  p.bytes.resize(p.bytes.size() + payload);
  return p;
}

}  // namespace

TEST(Oracles, ClockMonotonicityViolationDetected) {
  sim::Trace trace;
  sim::Packet p = make_tcp_packet(1, 3, 0, 0, 0x10, 0);
  trace.record(TimePoint::origin() + Duration::seconds(2), sim::TraceKind::kSend, "client1", p);
  trace.record(TimePoint::origin() + Duration::seconds(1), sim::TraceKind::kSend, "client1", p);
  OracleReport report;
  check_clock_monotonic(trace, report);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("ran backwards"), std::string::npos);
}

TEST(Oracles, DelayedInjectionsAreExemptFromClockCheck) {
  sim::Trace trace;
  sim::Packet p = make_tcp_packet(1, 3, 0, 0, 0x10, 0);
  // An inject stamped in the future, then a send at the present: legal.
  trace.record(TimePoint::origin() + Duration::seconds(5), sim::TraceKind::kInject, "client1", p);
  trace.record(TimePoint::origin() + Duration::seconds(1), sim::TraceKind::kSend, "client1", p);
  OracleReport report;
  check_clock_monotonic(trace, report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Oracles, AckRegressionDetected) {
  sim::Trace trace;
  TimePoint t = TimePoint::origin();
  trace.record(t, sim::TraceKind::kSend, "client1", make_tcp_packet(1, 3, 0, 5000, 0x10, 0));
  trace.record(t, sim::TraceKind::kSend, "client1", make_tcp_packet(1, 3, 0, 1000, 0x10, 0));
  OracleReport report;
  check_tcp_sequence_space(trace, report);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("ACK regressed"), std::string::npos);
}

TEST(Oracles, AckRegressionAcrossWrapDetected) {
  sim::Trace trace;
  TimePoint t = TimePoint::origin();
  // ACK just past the wrap, then an ACK from before the wrap: regression.
  trace.record(t, sim::TraceKind::kSend, "client1", make_tcp_packet(1, 3, 0, 5, 0x10, 0));
  trace.record(t, sim::TraceKind::kSend, "client1",
               make_tcp_packet(1, 3, 0, 0xFFFFFF00ull, 0x10, 0));
  OracleReport report;
  check_tcp_sequence_space(trace, report);
  ASSERT_FALSE(report.ok());
}

TEST(Oracles, DataGapDetected) {
  sim::Trace trace;
  TimePoint t = TimePoint::origin();
  // 100 bytes at seq 0, then a send at seq 5000: a hole no honest sender makes.
  trace.record(t, sim::TraceKind::kSend, "client1", make_tcp_packet(1, 3, 0, 0, 0x10, 100));
  trace.record(t, sim::TraceKind::kSend, "client1", make_tcp_packet(1, 3, 5000, 0, 0x10, 100));
  OracleReport report;
  check_tcp_sequence_space(trace, report);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("past contiguous end"), std::string::npos);
}

TEST(Oracles, RetransmissionsAndContiguousSendsAreLegal) {
  sim::Trace trace;
  TimePoint t = TimePoint::origin();
  trace.record(t, sim::TraceKind::kSend, "client1", make_tcp_packet(1, 3, 0, 0, 0x10, 100));
  trace.record(t, sim::TraceKind::kSend, "client1", make_tcp_packet(1, 3, 100, 0, 0x10, 100));
  trace.record(t, sim::TraceKind::kSend, "client1", make_tcp_packet(1, 3, 0, 0, 0x10, 100));
  OracleReport report;
  check_tcp_sequence_space(trace, report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Oracles, NewIncarnationAfterResetIsLegal) {
  sim::Trace trace;
  TimePoint t = TimePoint::origin();
  // A server mid-download is reset, then answers a new SYN on the same
  // 4-tuple with a SYN+ACK under a fresh ISN: a new sequence space.
  trace.record(t, sim::TraceKind::kSend, "server1", make_tcp_packet(3, 1, 1000, 0, 0x10, 100));
  trace.record(t, sim::TraceKind::kSend, "server1", make_tcp_packet(3, 1, 900000000, 7, 0x12, 0));
  trace.record(t, sim::TraceKind::kSend, "server1", make_tcp_packet(3, 1, 900000001, 7, 0x10, 100));
  OracleReport report;
  check_tcp_sequence_space(trace, report);
  EXPECT_TRUE(report.ok()) << report.summary();

  // The new incarnation's own sequence space is still checked.
  trace.record(t, sim::TraceKind::kSend, "server1", make_tcp_packet(3, 1, 900005000, 7, 0x10, 100));
  check_tcp_sequence_space(trace, report);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("past contiguous end"), std::string::npos);
}

TEST(Oracles, TrackerLegalityRejectsUnknownState) {
  core::RunMetrics metrics;
  metrics.client_observations.push_back({"NOT_A_STATE", "ACK", statemachine::TriggerKind::kSend});
  OracleReport report;
  check_tracker_legality(statemachine::tcp_state_machine(), metrics, report);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("NOT_A_STATE"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Congestion control: bounds hold for every profile under random op streams.

namespace {

constexpr std::size_t kMss = 1460;

// One random op applied to a controller; deterministic given (cc state, op).
struct CcOp {
  int kind = 0;           // 0 new_ack, 1 dup_ack, 2 partial, 3 full, 4 rto
  std::size_t acked = 0;  // for new_ack / partial
  bool dsack = false;

  std::string describe() const {
    switch (kind) {
      case 0: return "on_new_ack(" + std::to_string(acked) + ", flight=cwnd)";
      case 1: return std::string("on_dup_ack(dsack=") + (dsack ? "true" : "false") + ")";
      case 2: return "on_partial_ack(" + std::to_string(acked) + ")";
      case 3: return "on_full_ack()";
      default: return "on_rto(flight=cwnd)";
    }
  }
};

CcOp random_op(Rng& rng) {
  CcOp op;
  op.kind = static_cast<int>(rng.uniform(0, 4));
  op.acked = rng.uniform(1, 3) * kMss;
  op.dsack = rng.chance(0.3);
  return op;
}

void apply_op(tcp::CongestionControl& cc, const CcOp& op) {
  switch (op.kind) {
    case 0: cc.on_new_ack(op.acked, cc.cwnd()); break;
    case 1: cc.on_dup_ack(op.dsack, cc.cwnd()); break;
    case 2:
      if (cc.in_recovery()) cc.on_partial_ack(op.acked);
      break;
    case 3:
      if (cc.in_recovery()) cc.on_full_ack();
      break;
    default: cc.on_rto(cc.cwnd()); break;
  }
}

}  // namespace

TEST(CongestionProperty, BoundsHoldForAllProfilesUnderRandomOps) {
  PropertyConfig config = PropertyConfig::from_env(200);
  for (const tcp::TcpProfile& profile : tcp::all_tcp_profiles()) {
    auto failure = for_each_seed(config, [&](std::uint64_t seed) -> std::optional<std::string> {
      Rng rng(seed);
      tcp::CongestionControl cc(kMss, profile);
      for (int i = 0; i < 50; ++i) {
        CcOp op = random_op(rng);
        apply_op(cc, op);
        OracleReport report;
        check_congestion_bounds(cc, profile, kMss, report);
        if (!report.ok()) return "after " + op.describe() + ": " + report.summary();
      }
      return std::nullopt;
    });
    EXPECT_FALSE(failure.has_value())
        << profile.name << " seed " << failure->seed << ": " << failure->message;
  }
}

// ---------------------------------------------------------------------------
// Acceptance demonstration: a deliberately seeded off-by-one in slow-start
// growth is caught by the model property and shrunk to a <= 5-step (here:
// 1-step) reproducer.

namespace {

/// CongestionControl with the seeded bug: slow start credits one extra byte
/// per ACK (`acked + 1` instead of `acked`). Everything else mirrors the
/// real implementation, so only the model comparison can see the bug.
class BuggyCongestion {
 public:
  BuggyCongestion(std::size_t mss, const tcp::TcpProfile& profile)
      : mss_(mss), profile_(&profile), cwnd_(mss * profile.initial_cwnd_segments),
        ssthresh_(profile.initial_ssthresh) {}

  void on_new_ack(std::size_t acked, std::size_t flight_before) {
    dup_acks_ = 0;
    if (in_recovery_) return;
    grow(acked, flight_before);
  }
  bool on_dup_ack(bool dsack, std::size_t flight_before) {
    if (profile_->naive_cwnd_per_ack) grow(0, flight_before);
    if (dsack && profile_->dsack_dupack_suppression) return false;
    if (!profile_->fast_retransmit) return false;
    if (in_recovery_) return false;
    if (++dup_acks_ < tcp::CongestionControl::kDupAckThreshold) return false;
    std::size_t flight = flight_before;
    ssthresh_ = std::max(flight / 2, 2 * mss_);
    cwnd_ = ssthresh_ + 3 * mss_;
    in_recovery_ = true;
    return true;
  }
  void on_partial_ack(std::size_t acked) {
    cwnd_ = cwnd_ > acked ? cwnd_ - acked : mss_;
    cwnd_ = std::max(cwnd_, mss_);
    cwnd_ += mss_;
  }
  void on_full_ack() {
    in_recovery_ = false;
    dup_acks_ = 0;
    cwnd_ = std::max(ssthresh_, mss_);
  }
  void on_rto(std::size_t flight) {
    ssthresh_ = std::max(flight / 2, 2 * mss_);
    cwnd_ = mss_;
    dup_acks_ = 0;
    in_recovery_ = false;
  }
  bool in_recovery() const { return in_recovery_; }
  std::size_t cwnd() const { return cwnd_; }
  std::size_t ssthresh() const { return ssthresh_; }

 private:
  void grow(std::size_t acked, std::size_t flight_before) {
    if (profile_->naive_cwnd_per_ack) {
      cwnd_ = std::min(cwnd_ + mss_, profile_->max_cwnd);
      return;
    }
    if (flight_before + acked < cwnd_) return;
    if (cwnd_ < ssthresh_) {
      cwnd_ += std::min(acked == 0 ? mss_ : acked, mss_) + 1;  // <-- seeded off-by-one
    } else {
      cwnd_ += std::max<std::size_t>(1, mss_ * mss_ / cwnd_);
    }
    cwnd_ = std::min(cwnd_, profile_->max_cwnd);
  }

  std::size_t mss_;
  const tcp::TcpProfile* profile_;
  std::size_t cwnd_;
  std::size_t ssthresh_;
  int dup_acks_ = 0;
  bool in_recovery_ = false;
};

/// Replays one op sequence through the buggy variant and the reference;
/// returns the first divergence, if any.
std::optional<std::string> model_divergence(const std::vector<CcOp>& ops) {
  const tcp::TcpProfile& profile = tcp::linux_3_13_profile();
  tcp::CongestionControl reference(kMss, profile);
  BuggyCongestion buggy(kMss, profile);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const CcOp& op = ops[i];
    apply_op(reference, op);
    switch (op.kind) {  // mirror apply_op for the buggy variant
      case 0: buggy.on_new_ack(op.acked, buggy.cwnd()); break;
      case 1: buggy.on_dup_ack(op.dsack, buggy.cwnd()); break;
      case 2:
        if (buggy.in_recovery()) buggy.on_partial_ack(op.acked);
        break;
      case 3:
        if (buggy.in_recovery()) buggy.on_full_ack();
        break;
      default: buggy.on_rto(buggy.cwnd()); break;
    }
    if (buggy.cwnd() != reference.cwnd() || buggy.ssthresh() != reference.ssthresh()) {
      return "step " + std::to_string(i) + " (" + op.describe() + "): cwnd " +
             std::to_string(buggy.cwnd()) + " vs reference " + std::to_string(reference.cwnd());
    }
  }
  return std::nullopt;
}

}  // namespace

TEST(SeededBugDemo, ModelPropertyCatchesAndShrinksOffByOneCwndGrowth) {
  // 1. The property finds the bug from a random op stream.
  PropertyConfig config = PropertyConfig::from_env(50);
  std::vector<CcOp> failing_ops;
  auto failure = for_each_seed(config, [&](std::uint64_t seed) -> std::optional<std::string> {
    Rng rng(seed);
    std::vector<CcOp> ops;
    for (int i = 0; i < 40; ++i) ops.push_back(random_op(rng));
    if (auto d = model_divergence(ops); d.has_value()) {
      failing_ops = ops;
      return d;
    }
    return std::nullopt;
  });
  ASSERT_TRUE(failure.has_value()) << "seeded bug was not caught — property has no teeth";

  // 2. Shrinking reduces the 40-step failure to a tiny reproducer.
  std::vector<CcOp> minimal = shrink_sequence(
      failing_ops,
      [](const std::vector<CcOp>& candidate) { return model_divergence(candidate).has_value(); });
  ASSERT_FALSE(minimal.empty());
  EXPECT_LE(minimal.size(), 5u) << "reproducer did not shrink to <= 5 steps";
  EXPECT_TRUE(model_divergence(minimal).has_value()) << "shrunk sequence no longer fails";

  // 3. The reproducer prints as a copy-pasteable test body.
  std::string reproducer = "// minimal reproducer (seed " + std::to_string(failure->seed) + "):\n";
  for (const CcOp& op : minimal) reproducer += "//   cc." + op.describe() + ";\n";
  SCOPED_TRACE(reproducer);
  // A single window-consuming new ACK is already enough to expose the bug.
  EXPECT_LE(minimal.size(), 2u);
}

// ---------------------------------------------------------------------------
// End-to-end: random scenarios replayed through the simulator, every trial
// checked by the full oracle set. On violation the scenario is shrunk and
// printed as a reproducer.

namespace {

void run_scenario_property(core::Protocol protocol, int default_iters) {
  const statemachine::StateMachine& machine = protocol == core::Protocol::kTcp
                                                  ? statemachine::tcp_state_machine()
                                                  : statemachine::dccp_state_machine();
  auto violations_of = [&](const GeneratedScenario& scenario) {
    ScenarioOracles oracles(machine, protocol == core::Protocol::kTcp);
    core::ScenarioConfig config = scenario.config;
    config.inspector = &oracles;
    core::run_scenario(config, scenario.attacks);
    return oracles.report();
  };
  PropertyConfig config = PropertyConfig::from_env(default_iters);
  auto failure = for_each_seed(config, [&](std::uint64_t seed) -> std::optional<std::string> {
    GeneratedScenario scenario = generate_scenario(seed, protocol);
    OracleReport report = violations_of(scenario);
    if (report.ok()) return std::nullopt;
    // Shrink to a minimal reproducer before reporting.
    GeneratedScenario minimal = shrink_scenario(scenario, [&](const GeneratedScenario& s) {
      return !violations_of(s).ok();
    });
    return report.summary() + "\n" + describe(minimal);
  });
  EXPECT_FALSE(failure.has_value())
      << "seed " << failure->seed << " violated invariants:\n" << failure->message;
}

}  // namespace

TEST(ScenarioProperty, RandomTcpScenariosPreserveAllInvariants) {
  run_scenario_property(core::Protocol::kTcp, 6);
}

TEST(ScenarioProperty, RandomDccpScenariosPreserveAllInvariants) {
  run_scenario_property(core::Protocol::kDccp, 3);
}

TEST(ScenarioGen, DeterministicAndDescribable) {
  GeneratedScenario a = generate_scenario(42, core::Protocol::kTcp);
  GeneratedScenario b = generate_scenario(42, core::Protocol::kTcp);
  EXPECT_EQ(a.config.seed, b.config.seed);
  EXPECT_EQ(a.attacks.size(), b.attacks.size());
  for (std::size_t i = 0; i < a.attacks.size(); ++i)
    EXPECT_EQ(strategy::canonical_key(a.attacks[i]), strategy::canonical_key(b.attacks[i]));
  std::string repro = describe(a);
  EXPECT_NE(repro.find("config.protocol"), std::string::npos);
  EXPECT_NE(repro.find("config.seed"), std::string::npos);
}
