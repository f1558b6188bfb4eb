// Robustness and failure-injection tests: malformed input never crashes a
// stack, endpoints survive garbage and adversarial conditions, campaigns are
// deterministic, and full-duplex transfer works.
#include <gtest/gtest.h>

#include "dccp/stack.h"
#include "packet/tcp_format.h"
#include "sim/network.h"
#include "snake/controller.h"
#include "strategy/generator.h"
#include "tcp/stack.h"
#include "util/rng.h"

namespace snake {
namespace {

/// Two nodes, both TCP and DCCP stacks on each, direct link.
struct DuplexWorld {
  DuplexWorld()
      : a(net.add_node(1, "a")),
        b(net.add_node(2, "b")),
        tcp_a(a, tcp::linux_3_13_profile(), Rng(1)),
        tcp_b(b, tcp::linux_3_13_profile(), Rng(2)),
        dccp_a(a, Rng(3)),
        dccp_b(b, Rng(4)) {
    auto [ab, ba] = net.connect(a, b, sim::LinkConfig{});
    a.set_default_route(ab);
    b.set_default_route(ba);
  }
  sim::Network net;
  sim::Node& a;
  sim::Node& b;
  tcp::TcpStack tcp_a, tcp_b;
  dccp::DccpStack dccp_a, dccp_b;
};

TEST(Fuzz, RandomBytesNeverCrashStacks) {
  DuplexWorld w;
  w.tcp_b.listen(80, [](tcp::TcpEndpoint&) { return tcp::TcpCallbacks{}; });
  w.dccp_b.listen(5001, [](dccp::DccpEndpoint&) { return dccp::DccpCallbacks{}; });
  Rng rng(0xF00D);
  for (int i = 0; i < 2000; ++i) {
    sim::Packet p;
    p.dst = 2;
    p.protocol = rng.chance(0.5) ? sim::kProtoTcp : sim::kProtoDccp;
    p.bytes.resize(rng.uniform(0, 80));
    for (auto& byte : p.bytes) byte = static_cast<std::uint8_t>(rng.next_u32());
    w.a.send_packet(std::move(p));
    if (i % 100 == 0) w.net.scheduler().run_all();
  }
  w.net.scheduler().run_all();
  SUCCEED();  // no crash, no hang
}

TEST(Fuzz, ValidHeaderRandomFieldsNeverCrashEstablishedTcp) {
  // Checksummed-but-semantically-random segments against a live connection:
  // the implementation must survive whatever the codec can express (this is
  // the packet space the lie attack explores).
  DuplexWorld w;
  bool got_reset = false;
  w.tcp_b.listen(80, [](tcp::TcpEndpoint& ep) {
    tcp::TcpCallbacks cb;
    cb.on_established = [&ep] { ep.send(Bytes(200000, 1)); };
    return cb;
  });
  tcp::TcpCallbacks cb;
  cb.on_reset = [&] { got_reset = true; };
  tcp::TcpEndpoint& conn = w.tcp_a.connect(2, 80, std::move(cb));
  w.net.scheduler().run_until(TimePoint::origin() + Duration::seconds(0.5));

  Rng rng(0xBEEF);
  const packet::Codec& codec = packet::tcp_codec();
  for (int i = 0; i < 500; ++i) {
    Bytes raw(packet::kTcpHeaderBytes, 0);
    for (const auto& field : codec.format().fields()) {
      if (field.kind == packet::FieldKind::kChecksum) continue;
      codec.set_fast(raw, *codec.format().compiled(field.name), rng.next_u64() & field.max_value());
    }
    codec.set_fast(raw, *codec.format().compiled("src_port"), 80);
    codec.set_fast(raw, *codec.format().compiled("dst_port"), conn.config().local_port);
    codec.set_fast(raw, *codec.format().compiled("data_offset"), 5);
    sim::Packet p;
    p.src = 2;
    p.dst = 1;
    p.protocol = sim::kProtoTcp;
    p.bytes = std::move(raw);
    w.b.send_packet(std::move(p));
  }
  w.net.scheduler().run_until(TimePoint::origin() + Duration::seconds(5.0));
  // Resets are allowed (random in-window RSTs exist); crashes are not.
  (void)got_reset;
  SUCCEED();
}

TEST(Fuzz, ValidHeaderRandomFieldsNeverCrashOpenDccp) {
  DuplexWorld w;
  w.dccp_b.listen(5001, [](dccp::DccpEndpoint&) { return dccp::DccpCallbacks{}; });
  dccp::DccpEndpoint& conn = w.dccp_a.connect(2, 5001, dccp::DccpCallbacks{});
  w.net.scheduler().run_until(TimePoint::origin() + Duration::seconds(0.5));
  Rng rng(0xCAFE);
  const packet::Codec& codec = packet::dccp_codec();
  for (int i = 0; i < 500; ++i) {
    Bytes raw(packet::kDccpHeaderBytes, 0);
    for (const auto& field : codec.format().fields()) {
      if (field.kind == packet::FieldKind::kChecksum) continue;
      codec.set_fast(raw, *codec.format().compiled(field.name), rng.next_u64() & field.max_value());
    }
    codec.set_fast(raw, *codec.format().compiled("src_port"), 5001);
    codec.set_fast(raw, *codec.format().compiled("dst_port"), conn.config().local_port);
    codec.set_fast(raw, *codec.format().compiled("data_offset"), 6);
    codec.set_fast(raw, *codec.format().compiled("x"), 1);
    sim::Packet p;
    p.src = 2;
    p.dst = 1;
    p.protocol = sim::kProtoDccp;
    p.bytes = std::move(raw);
    w.b.send_packet(std::move(p));
  }
  w.net.scheduler().run_until(TimePoint::origin() + Duration::seconds(5.0));
  SUCCEED();
}

TEST(Duplex, SimultaneousBidirectionalTransfer) {
  DuplexWorld w;
  std::uint64_t a_received = 0, b_received = 0;
  tcp::TcpEndpoint* server_side = nullptr;
  w.tcp_b.listen(80, [&](tcp::TcpEndpoint& ep) {
    server_side = &ep;
    tcp::TcpCallbacks cb;
    cb.on_established = [&ep] { ep.send(Bytes(300000, 0xB)); };
    cb.on_data = [&](std::span<const std::uint8_t> d) { b_received += d.size(); };
    return cb;
  });
  tcp::TcpCallbacks cb;
  cb.on_established = [&] {};
  cb.on_data = [&](std::span<const std::uint8_t> d) { a_received += d.size(); };
  tcp::TcpEndpoint& conn = w.tcp_a.connect(2, 80, std::move(cb));
  w.net.scheduler().run_until(TimePoint::origin() + Duration::millis(50));
  conn.send(Bytes(300000, 0xA));  // client pushes data too
  w.net.scheduler().run_until(TimePoint::origin() + Duration::seconds(30.0));
  EXPECT_EQ(a_received, 300000u);
  EXPECT_EQ(b_received, 300000u);
}

TEST(Determinism, SameSeedSameCampaign) {
  core::CampaignConfig config;
  config.scenario.protocol = core::Protocol::kTcp;
  config.scenario.test_duration = Duration::seconds(5.0);
  config.scenario.seed = 77;
  config.generator = strategy::tcp_generator_config();
  config.executors = 1;  // order-stable
  config.max_strategies = 25;
  core::CampaignResult a = core::run_campaign(config);
  core::CampaignResult b = core::run_campaign(config);
  EXPECT_EQ(a.strategies_tried, b.strategies_tried);
  EXPECT_EQ(a.attack_strategies_found, b.attack_strategies_found);
  EXPECT_EQ(a.unique_signatures, b.unique_signatures);
  EXPECT_EQ(a.baseline.target_bytes, b.baseline.target_bytes);
}

TEST(Determinism, ScenariosAreReproducible) {
  core::ScenarioConfig c;
  c.protocol = core::Protocol::kDccp;
  c.test_duration = Duration::seconds(8.0);
  c.seed = 99;
  core::RunMetrics a = core::run_scenario(c, std::nullopt);
  core::RunMetrics b = core::run_scenario(c, std::nullopt);
  EXPECT_EQ(a.target_bytes, b.target_bytes);
  EXPECT_EQ(a.competing_bytes, b.competing_bytes);
  EXPECT_EQ(a.proxy.intercepted, b.proxy.intercepted);
}

}  // namespace
}  // namespace snake
