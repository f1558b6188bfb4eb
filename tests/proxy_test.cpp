// Attack proxy tests: interception, (packet type, state) strategy matching,
// all eight basic attacks, and state-triggered off-path injection.
#include <gtest/gtest.h>

#include "packet/tcp_format.h"
#include "proxy/attack_proxy.h"
#include "sim/network.h"
#include "snake/scenario.h"
#include "statemachine/protocol_specs.h"
#include "strategy/strategy.h"
#include "tcp/profile.h"
#include "tcp/segment.h"
#include "testing/oracles.h"
#include "util/rng.h"

namespace snake::proxy {
namespace {

using packet::kTcpAck;
using packet::kTcpPsh;
using packet::kTcpRst;
using packet::kTcpSyn;
using strategy::AttackAction;
using strategy::Strategy;
using strategy::TrafficDirection;

/// Two-node world: the proxy hangs off node 1 ("client"); node 2 plays the
/// server. Packets are hand-crafted and pushed through the filter while a
/// sink on each node records deliveries.
class ProxyHarness : public ::testing::Test {
 protected:
  ProxyHarness()
      : client_(net_.add_node(1, "client")),
        server_(net_.add_node(2, "server")),
        proxy_(client_, packet::tcp_codec(), statemachine::tcp_state_machine(), targets(),
               snake::Rng(7)) {
    auto [cs, sc] = net_.connect(client_, server_, sim::LinkConfig{});
    client_.set_default_route(cs);
    server_.set_default_route(sc);
    client_.set_filter(&proxy_);
    client_.register_protocol(sim::kProtoTcp,
                              [this](const sim::Packet& p) { client_rx_.push_back(p); });
    server_.register_protocol(sim::kProtoTcp,
                              [this](const sim::Packet& p) { server_rx_.push_back(p); });
    server_.register_protocol(sim::kProtoDccp,
                              [this](const sim::Packet& p) { server_rx_.push_back(p); });
  }

  static ProxyTargets targets() {
    ProxyTargets t;
    t.protocol = sim::kProtoTcp;
    t.client_addr = 1;
    t.server_addr = 2;
    t.server_port = 80;
    t.competing_client_addr = 1;  // unused in these tests
    t.competing_server_addr = 2;
    t.competing_server_port = 81;
    t.competing_client_port_guess = 40000;
    return t;
  }

  tcp::Segment make_segment(std::uint8_t flags, tcp::Seq seq = 0, tcp::Seq ack = 0) {
    tcp::Segment s;
    s.src_port = 40000;
    s.dst_port = 80;
    s.flags = flags;
    s.seq = seq;
    s.ack = ack;
    s.window = 65535;
    return s;
  }

  /// Client sends a segment toward the server (passes proxy egress).
  void client_sends(const tcp::Segment& s) {
    sim::Packet p;
    p.dst = 2;
    p.protocol = sim::kProtoTcp;
    p.bytes = tcp::serialize(s);
    client_.send_packet(std::move(p));
    net_.scheduler().run_all();
  }

  /// Server sends a segment toward the client (passes proxy ingress).
  void server_sends(tcp::Segment s) {
    std::swap(s.src_port, s.dst_port);
    sim::Packet p;
    p.dst = 1;
    p.protocol = sim::kProtoTcp;
    p.bytes = tcp::serialize(s);
    server_.send_packet(std::move(p));
    net_.scheduler().run_all();
  }

  /// Walks the tracker into ESTABLISHED on both sides.
  void establish() {
    client_sends(make_segment(kTcpSyn, 100));
    server_sends(make_segment(kTcpSyn | kTcpAck, 500, 101));
    client_sends(make_segment(kTcpAck, 101, 501));
  }

  sim::Network net_;
  sim::Node& client_;
  sim::Node& server_;
  AttackProxy proxy_;
  std::vector<sim::Packet> client_rx_;
  std::vector<sim::Packet> server_rx_;
};

TEST_F(ProxyHarness, TracksHandshakeFromPackets) {
  establish();
  EXPECT_EQ(proxy_.tracker().client().state(), "ESTABLISHED");
  EXPECT_EQ(proxy_.tracker().server().state(), "ESTABLISHED");
  EXPECT_EQ(proxy_.stats().intercepted, 3u);
}

TEST_F(ProxyHarness, IgnoresOtherProtocols) {
  sim::Packet p;
  p.dst = 2;
  p.protocol = sim::kProtoDccp;
  p.bytes = Bytes(24, 0);
  client_.send_packet(std::move(p));
  net_.scheduler().run_all();
  EXPECT_EQ(proxy_.stats().intercepted, 0u);
  EXPECT_EQ(server_rx_.size(), 1u);  // forwarded untouched
}

TEST_F(ProxyHarness, DropMatchesTypeAndStateAndDirection) {
  establish();
  Strategy s;
  s.action = AttackAction::kDrop;
  s.packet_type = "ACK";
  s.target_state = "ESTABLISHED";
  s.direction = TrafficDirection::kClientToServer;
  s.drop_probability = 100;
  proxy_.set_strategy(s);

  std::size_t before = server_rx_.size();
  client_sends(make_segment(kTcpAck, 101, 501));  // matches: dropped
  EXPECT_EQ(server_rx_.size(), before);
  client_sends(make_segment(kTcpPsh | kTcpAck, 101, 501));  // different type
  EXPECT_EQ(server_rx_.size(), before + 1);
  std::size_t client_before = client_rx_.size();
  server_sends(make_segment(kTcpAck, 501, 101));  // wrong direction
  EXPECT_EQ(client_rx_.size(), client_before + 1);
  EXPECT_EQ(proxy_.stats().dropped, 1u);
}

TEST_F(ProxyHarness, StateIsSendersStateAtSendTime) {
  // The first SYN is sent from CLOSED — even though observing it moves the
  // tracker to SYN_SENT, the strategy targeting CLOSED must match it.
  Strategy s;
  s.action = AttackAction::kDrop;
  s.packet_type = "SYN";
  s.target_state = "CLOSED";
  s.direction = TrafficDirection::kClientToServer;
  proxy_.set_strategy(s);
  client_sends(make_segment(kTcpSyn, 100));
  EXPECT_EQ(server_rx_.size(), 0u);
  EXPECT_EQ(proxy_.stats().dropped, 1u);
  EXPECT_EQ(proxy_.tracker().client().state(), "SYN_SENT");
}

TEST_F(ProxyHarness, DropProbabilityIsApproximate) {
  establish();
  Strategy s;
  s.action = AttackAction::kDrop;
  s.packet_type = "ACK";
  s.target_state = "ESTABLISHED";
  s.direction = TrafficDirection::kClientToServer;
  s.drop_probability = 50;
  proxy_.set_strategy(s);
  for (int i = 0; i < 400; ++i) client_sends(make_segment(kTcpAck, 101, 501));
  double rate = static_cast<double>(proxy_.stats().dropped) / 400.0;
  EXPECT_NEAR(rate, 0.5, 0.1);
}

TEST_F(ProxyHarness, DuplicateInjectsCopies) {
  establish();
  Strategy s;
  s.action = AttackAction::kDuplicate;
  s.packet_type = "ACK";
  s.target_state = "ESTABLISHED";
  s.direction = TrafficDirection::kClientToServer;
  s.duplicate_count = 10;
  proxy_.set_strategy(s);
  std::size_t before = server_rx_.size();
  client_sends(make_segment(kTcpAck, 101, 501));
  EXPECT_EQ(server_rx_.size(), before + 11);  // original + 10 copies
  EXPECT_EQ(proxy_.stats().duplicates_created, 10u);
}

TEST_F(ProxyHarness, DelayDefersDelivery) {
  establish();
  Strategy s;
  s.action = AttackAction::kDelay;
  s.packet_type = "ACK";
  s.target_state = "ESTABLISHED";
  s.direction = TrafficDirection::kClientToServer;
  s.delay_seconds = 2.0;
  proxy_.set_strategy(s);
  std::size_t before = server_rx_.size();

  sim::Packet p;
  p.dst = 2;
  p.protocol = sim::kProtoTcp;
  p.bytes = tcp::serialize(make_segment(kTcpAck, 101, 501));
  client_.send_packet(std::move(p));
  net_.scheduler().run_until(net_.scheduler().now() + Duration::seconds(1.0));
  EXPECT_EQ(server_rx_.size(), before);  // still held
  net_.scheduler().run_until(net_.scheduler().now() + Duration::seconds(2.0));
  EXPECT_EQ(server_rx_.size(), before + 1);
  EXPECT_EQ(proxy_.stats().delayed, 1u);
}

TEST_F(ProxyHarness, BatchReleasesAllAtOnce) {
  establish();
  Strategy s;
  s.action = AttackAction::kBatch;
  s.packet_type = "ACK";
  s.target_state = "ESTABLISHED";
  s.direction = TrafficDirection::kClientToServer;
  s.delay_seconds = 1.0;
  proxy_.set_strategy(s);
  std::size_t before = server_rx_.size();
  for (int i = 0; i < 5; ++i) {
    sim::Packet p;
    p.dst = 2;
    p.protocol = sim::kProtoTcp;
    p.bytes = tcp::serialize(make_segment(kTcpAck, 101 + i, 501));
    client_.send_packet(std::move(p));
  }
  net_.scheduler().run_until(net_.scheduler().now() + Duration::seconds(0.5));
  EXPECT_EQ(server_rx_.size(), before);  // all held
  net_.scheduler().run_until(net_.scheduler().now() + Duration::seconds(1.0));
  EXPECT_EQ(server_rx_.size(), before + 5);  // burst
  EXPECT_EQ(proxy_.stats().batched, 5u);
}

TEST_F(ProxyHarness, ReflectBouncesWithSwappedPorts) {
  Strategy s;
  s.action = AttackAction::kReflect;
  s.packet_type = "SYN";
  s.target_state = "CLOSED";
  s.direction = TrafficDirection::kClientToServer;
  proxy_.set_strategy(s);
  client_sends(make_segment(kTcpSyn, 100));
  EXPECT_EQ(server_rx_.size(), 0u);  // consumed
  ASSERT_EQ(client_rx_.size(), 1u);  // bounced back
  const packet::HeaderFormat& f = packet::tcp_format();
  const Bytes& bounced = client_rx_[0].bytes;
  EXPECT_EQ(f.read(bounced, *f.compiled("src_port")), 80u);
  EXPECT_EQ(f.read(bounced, *f.compiled("dst_port")), 40000u);
  EXPECT_EQ(f.type_name(f.classify_index(bounced)), "SYN");
  EXPECT_EQ(proxy_.stats().reflected, 1u);
}

class LieModes : public ProxyHarness,
                 public ::testing::WithParamInterface<
                     std::tuple<strategy::LieSpec::Mode, std::uint64_t, std::uint64_t>> {};

TEST_P(LieModes, ModifiesFieldAndKeepsChecksumValid) {
  auto [mode, operand, expected] = GetParam();
  establish();
  Strategy s;
  s.action = AttackAction::kLie;
  s.packet_type = "ACK";
  s.target_state = "ESTABLISHED";
  s.direction = TrafficDirection::kClientToServer;
  s.lie = strategy::LieSpec{"window", mode, operand};
  proxy_.set_strategy(s);
  std::size_t before = server_rx_.size();
  tcp::Segment seg = make_segment(kTcpAck, 101, 501);
  seg.window = 1000;
  client_sends(seg);
  ASSERT_EQ(server_rx_.size(), before + 1);
  auto parsed = tcp::parse_segment(server_rx_.back().bytes);
  ASSERT_TRUE(parsed.has_value()) << "checksum must have been refreshed";
  if (mode != strategy::LieSpec::Mode::kRandom) {
    EXPECT_EQ(parsed->window, expected);
  }
  EXPECT_EQ(proxy_.stats().modified, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, LieModes,
    ::testing::Values(
        std::make_tuple(strategy::LieSpec::Mode::kSet, std::uint64_t{0}, std::uint64_t{0}),
        std::make_tuple(strategy::LieSpec::Mode::kSet, std::uint64_t{65535},
                        std::uint64_t{65535}),
        std::make_tuple(strategy::LieSpec::Mode::kAdd, std::uint64_t{1}, std::uint64_t{1001}),
        std::make_tuple(strategy::LieSpec::Mode::kSubtract, std::uint64_t{1},
                        std::uint64_t{999}),
        std::make_tuple(strategy::LieSpec::Mode::kMultiply, std::uint64_t{2},
                        std::uint64_t{2000}),
        std::make_tuple(strategy::LieSpec::Mode::kDivide, std::uint64_t{2},
                        std::uint64_t{500}),
        std::make_tuple(strategy::LieSpec::Mode::kRandom, std::uint64_t{0},
                        std::uint64_t{0})));

TEST_F(ProxyHarness, InjectFiresWhenWatchedEndpointEntersState) {
  Strategy s;
  s.action = AttackAction::kInject;
  s.packet_type = "RST";
  s.target_state = "SYN_SENT";
  s.direction = TrafficDirection::kServerToClient;
  strategy::InjectSpec spec;
  spec.packet_type = "RST";
  spec.fields = {{"data_offset", 5}, {"seq", 12345}};
  spec.spoof_toward_client = true;
  spec.target_competing = false;
  s.inject = spec;
  proxy_.set_strategy(s);
  EXPECT_EQ(proxy_.stats().injected, 0u);  // client still in CLOSED

  client_sends(make_segment(kTcpSyn, 100));  // client -> SYN_SENT: fires
  EXPECT_EQ(proxy_.stats().injected, 1u);
  ASSERT_EQ(client_rx_.size(), 1u);  // delivered up the local stack
  const packet::HeaderFormat& f = packet::tcp_format();
  const Bytes& injected = client_rx_[0].bytes;
  EXPECT_EQ(f.type_name(f.classify_index(injected)), "RST");
  EXPECT_EQ(f.read(injected, *f.compiled("seq")), 12345u);
  EXPECT_EQ(f.read(injected, *f.compiled("src_port")), 80u);  // learned/derived
  EXPECT_EQ(f.read(injected, *f.compiled("dst_port")), 40000u);

  // One-shot: re-entering the state does not fire again.
  client_sends(make_segment(kTcpSyn, 100));
  EXPECT_EQ(proxy_.stats().injected, 1u);
}

TEST_F(ProxyHarness, InjectInInitialStateFiresImmediately) {
  Strategy s;
  s.action = AttackAction::kInject;
  s.packet_type = "SYN";
  s.target_state = "CLOSED";
  s.direction = TrafficDirection::kServerToClient;
  strategy::InjectSpec spec;
  spec.packet_type = "SYN";
  spec.fields = {{"data_offset", 5}};
  spec.spoof_toward_client = true;
  spec.target_competing = false;
  s.inject = spec;
  proxy_.set_strategy(s);
  net_.scheduler().run_all();
  EXPECT_EQ(proxy_.stats().injected, 1u);
}

TEST_F(ProxyHarness, HitSeqWindowSweepsSequenceSpace) {
  establish();
  Strategy s;
  s.action = AttackAction::kHitSeqWindow;
  s.packet_type = "RST";
  s.target_state = "ESTABLISHED";
  s.direction = TrafficDirection::kServerToClient;
  strategy::InjectSpec spec;
  spec.packet_type = "RST";
  spec.fields = {{"data_offset", 5}};
  spec.spoof_toward_client = true;
  spec.target_competing = false;
  spec.seq_field = "seq";
  spec.seq_start = 1000;
  spec.seq_stride = 65535;
  spec.count = 100;
  spec.pace_pps = 100000;
  s.inject = spec;
  proxy_.set_strategy(s);
  net_.scheduler().run_all();
  EXPECT_EQ(proxy_.stats().injected, 100u);
  // client_rx_ also holds the SYN+ACK from establish(); injections follow.
  ASSERT_EQ(client_rx_.size(), 101u);
  const packet::HeaderFormat& f = packet::tcp_format();
  const packet::CompiledField& seq = *f.compiled("seq");
  EXPECT_EQ(f.read(client_rx_[1].bytes, seq), 1000u);
  EXPECT_EQ(f.read(client_rx_[2].bytes, seq), 1000u + 65535u);
  EXPECT_EQ(f.read(client_rx_[100].bytes, seq), (1000u + 99u * 65535u) & 0xFFFFFFFFu);
}

TEST(ProxyPoolBalance, DelayAndBatchReleaseEachBufferOnce) {
  // A delayed or batched packet leaves the data path and comes back later
  // through inject_packet. Its wire buffer must travel with it: released
  // once, when the held copy is delivered, never also when the original is
  // consumed. The pool oracle counts releases against acquisitions; over
  // 10 s a couple of hundred ACKs are held, well past the buffers still in
  // flight at the end, so a double release cannot hide behind them.
  for (AttackAction action : {AttackAction::kDelay, AttackAction::kBatch}) {
    core::ScenarioConfig config;
    config.tcp_profile = tcp::windows_95_profile();
    config.test_duration = Duration::seconds(10.0);
    testing::ScenarioOracles oracles(statemachine::tcp_state_machine(), /*check_tcp=*/true);
    config.inspector = &oracles;
    Strategy s;
    s.action = action;
    s.packet_type = "ACK";
    s.target_state = "ESTABLISHED";
    s.direction = TrafficDirection::kClientToServer;
    s.delay_seconds = 0.2;
    const core::RunMetrics m = core::run_scenario(config, s);
    EXPECT_GT(action == AttackAction::kDelay ? m.proxy.delayed : m.proxy.batched, 100u)
        << strategy::to_string(action) << " held too few packets to show a double release";
    EXPECT_TRUE(oracles.report().ok())
        << strategy::to_string(action) << ": " << oracles.report().summary();
  }
}

}  // namespace
}  // namespace snake::proxy
