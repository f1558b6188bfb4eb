// DCCP substrate tests: 48-bit sequence arithmetic, wire format, CCID-2 unit
// behaviour, and two-stack integration — including the three protocol
// behaviours the paper's DCCP attacks exploit.
#include <gtest/gtest.h>

#include "dccp/ccid2.h"
#include "dccp/endpoint.h"
#include "dccp/packet.h"
#include "dccp/seq48.h"
#include "dccp/stack.h"
#include "packet/dccp_format.h"
#include "sim/network.h"
#include "util/rng.h"

namespace snake::dccp {
namespace {

// ---------------------------------------------------------- seq arithmetic

TEST(Seq48, DistanceAndComparisons) {
  EXPECT_EQ(seq_distance(10, 5), 5);
  EXPECT_EQ(seq_distance(5, 10), -5);
  EXPECT_TRUE(seq48_lt(5, 10));
  EXPECT_TRUE(seq48_gt(10, 5));
  EXPECT_TRUE(seq48_leq(10, 10));
}

TEST(Seq48, WrapAround) {
  Seq48 near_max = kSeqMask - 5;
  Seq48 wrapped = seq_add(near_max, 10);
  EXPECT_EQ(wrapped, 4u);
  EXPECT_TRUE(seq48_lt(near_max, wrapped));
  EXPECT_EQ(seq_distance(wrapped, near_max), 10);
  EXPECT_TRUE(seq48_between(wrapped, near_max, seq_add(near_max, 20)));
  EXPECT_FALSE(seq48_between(seq_add(near_max, -1), near_max, seq_add(near_max, 20)));
}

TEST(Seq48, NegativeAdd) {
  EXPECT_EQ(seq_add(5, -10), kSeqMask - 4);
  EXPECT_EQ(seq_add(0, -1), kSeqMask);
}

TEST(Seq48, HalfCircleDistanceKeepsDocumentedSign) {
  // Regression (property suite, ordering oracle): a distance of exactly 2^47
  // was folded to -2^47, contradicting the documented (-2^47, 2^47] range
  // and making seq48_lt(a, b) and seq48_lt(b, a) both true at the boundary.
  for (Seq48 a : {Seq48{0}, Seq48{12345}, kSeqHalf - 1, kSeqHalf, kSeqMask}) {
    Seq48 b = seq_add(a, static_cast<std::int64_t>(kSeqHalf));
    EXPECT_EQ(seq_distance(b, a), static_cast<std::int64_t>(kSeqHalf)) << "a=" << a;
    EXPECT_EQ(seq_distance(a, b), static_cast<std::int64_t>(kSeqHalf)) << "a=" << a;
    EXPECT_FALSE(seq48_lt(a, b) && seq48_lt(b, a)) << "a=" << a;
    // One step inside the half circle, the usual antisymmetric semantics.
    Seq48 c = seq_add(a, static_cast<std::int64_t>(kSeqHalf) - 1);
    EXPECT_TRUE(seq48_lt(a, c));
    EXPECT_FALSE(seq48_lt(c, a));
  }
}

// -------------------------------------------------------------- wire format

TEST(DccpWire, SerializeParseRoundTrip) {
  DccpPacket p;
  p.src_port = 5001;
  p.dst_port = 5002;
  p.type = packet::kDccpDataAck;
  p.seq = 0x123456789ABCULL;
  p.ack = 0xFEDCBA987654ULL & kSeqMask;
  p.payload = {9, 8, 7};
  Bytes wire = serialize(p);
  auto parsed = parse_dccp(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src_port, p.src_port);
  EXPECT_EQ(parsed->type, packet::kDccpDataAck);
  EXPECT_EQ(parsed->seq, p.seq);
  EXPECT_EQ(parsed->ack, p.ack);
  EXPECT_TRUE(parsed->has_ack);
  EXPECT_EQ(parsed->payload, p.payload);
}

TEST(DccpWire, RejectsCorruption) {
  DccpPacket p;
  p.type = packet::kDccpRequest;
  Bytes wire = serialize(p);
  wire[10] ^= 0x55;
  EXPECT_FALSE(parse_dccp(wire).has_value());
  const Bytes truncated(8, 0);
  EXPECT_FALSE(parse_dccp(truncated).has_value());
}

TEST(DccpWire, MatchesDslCodec) {
  DccpPacket p;
  p.src_port = 777;
  p.dst_port = 888;
  p.type = packet::kDccpSync;
  p.seq = 1234567;
  p.ack = 7654321;
  Bytes wire = serialize(p);
  const packet::Codec& codec = packet::dccp_codec();
  EXPECT_EQ(codec.get_fast(wire, *codec.format().compiled("src_port")), 777u);
  EXPECT_EQ(codec.get_fast(wire, *codec.format().compiled("dst_port")), 888u);
  EXPECT_EQ(codec.get_fast(wire, *codec.format().compiled("seq")), 1234567u);
  EXPECT_EQ(codec.get_fast(wire, *codec.format().compiled("ack")), 7654321u);
  EXPECT_EQ(codec.type_name(codec.classify_index(wire)), "DCCP-Sync");
  Bytes modified = wire;
  codec.set_fast(modified, *codec.format().compiled("seq"), 999);
  auto parsed = parse_dccp(modified);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->seq, 999u);
}

TEST(DccpWire, AckCarryingTypes) {
  EXPECT_FALSE(type_carries_ack(packet::kDccpRequest));
  EXPECT_FALSE(type_carries_ack(packet::kDccpData));
  EXPECT_TRUE(type_carries_ack(packet::kDccpAck));
  EXPECT_TRUE(type_carries_ack(packet::kDccpSync));
  EXPECT_TRUE(type_carries_ack(packet::kDccpReset));
}

// -------------------------------------------------------------------- ccid2

TEST(Ccid2, WindowGatesSending) {
  Ccid2 cc(2);
  EXPECT_TRUE(cc.can_send());
  cc.on_data_sent(1, TimePoint::origin());
  cc.on_data_sent(2, TimePoint::origin());
  EXPECT_FALSE(cc.can_send());
  cc.on_ack(1, TimePoint::from_ns(1000));
  EXPECT_TRUE(cc.can_send());  // pipe freed and slow start grew cwnd
  EXPECT_EQ(cc.cwnd(), 3u);
}

TEST(Ccid2, GapDetectedAfterThreeLaterAcks) {
  Ccid2 cc(10);
  TimePoint t = TimePoint::origin();
  for (Seq48 s = 1; s <= 5; ++s) cc.on_data_sent(s, t);
  // Packet 1 lost; acks arrive for 2,3,4 -> on the third, 1 is declared lost.
  cc.on_ack(2, t + Duration::millis(10));
  cc.on_ack(3, t + Duration::millis(20));
  EXPECT_EQ(cc.total_losses(), 0u);
  std::uint32_t before = cc.cwnd();
  int losses = cc.on_ack(4, t + Duration::millis(200));
  EXPECT_EQ(losses, 1);
  EXPECT_LT(cc.cwnd(), before);
}

TEST(Ccid2, TimeoutCollapsesToOnePacket) {
  Ccid2 cc(10);
  for (Seq48 s = 1; s <= 8; ++s) cc.on_data_sent(s, TimePoint::origin());
  cc.on_timeout();
  EXPECT_EQ(cc.cwnd(), 1u);
  EXPECT_EQ(cc.pipe(), 0u);
  EXPECT_FALSE(cc.has_outstanding());
  EXPECT_EQ(cc.total_losses(), 8u);
}

TEST(Ccid2, HalvingRateLimitedPerRtt) {
  Ccid2 cc(100);
  TimePoint t = TimePoint::origin() + Duration::seconds(1.0);
  for (Seq48 s = 1; s <= 20; ++s) cc.on_data_sent(s, t);
  // Many losses detected at effectively the same time: only one halving.
  cc.on_ack(10, t + Duration::millis(1));
  cc.on_ack(11, t + Duration::millis(2));
  cc.on_ack(12, t + Duration::millis(3));
  cc.on_ack(13, t + Duration::millis(4));
  EXPECT_GE(cc.cwnd(), 50u);
}

// -------------------------------------------------------------- integration

class DccpPair {
 public:
  explicit DccpPair(sim::LinkConfig link = {})
      : client_node_(net_.add_node(1, "client")),
        server_node_(net_.add_node(2, "server")),
        client_(client_node_, snake::Rng(11)),
        server_(server_node_, snake::Rng(22)) {
    auto [cs, sc] = net_.connect(client_node_, server_node_, link);
    client_node_.set_default_route(cs);
    server_node_.set_default_route(sc);
  }

  sim::Network& net() { return net_; }
  sim::Node& client_node() { return client_node_; }
  sim::Node& server_node() { return server_node_; }
  DccpStack& client() { return client_; }
  DccpStack& server() { return server_; }
  void run_for(double seconds) {
    net_.scheduler().run_until(net_.scheduler().now() + Duration::seconds(seconds));
  }

 private:
  sim::Network net_;
  sim::Node& client_node_;
  sim::Node& server_node_;
  DccpStack client_;
  DccpStack server_;
};

/// iperf-like fixture: the client streams fixed-size datagrams at a constant
/// offer rate; the server counts goodput.
struct IperfFixture {
  IperfFixture(DccpPair& pair, double offer_rate_pps, std::size_t payload = 1000,
               DccpEndpointConfig client_cfg = {}) {
    pair.server().listen(5001, [this](DccpEndpoint& ep) {
      server_ep = &ep;
      DccpCallbacks cb;
      cb.on_data = [this](std::span<const std::uint8_t> d) { server_goodput += d.size(); };
      return cb;
    });
    DccpCallbacks cb;
    cb.on_established = [this] { established = true; };
    cb.on_reset = [this] { reset = true; };
    client_ep = &pair.client().connect(2, 5001, std::move(cb), client_cfg);

    // Constant-bit-rate offer driven off the simulator clock.
    auto& sched = pair.net().scheduler();
    Duration interval = Duration::seconds(1.0 / offer_rate_pps);
    std::function<void()> tick = [this, &sched, interval, payload]() {
      if (stopped || client_ep->released()) return;
      client_ep->send(Bytes(payload, 0x42));
      sched.schedule_in(interval, [this] { tick_fn(); });
    };
    tick_fn = tick;
    sched.schedule_in(interval, [this] { tick_fn(); });
  }

  DccpEndpoint* client_ep = nullptr;
  DccpEndpoint* server_ep = nullptr;
  std::function<void()> tick_fn;
  std::uint64_t server_goodput = 0;
  bool established = false;
  bool reset = false;
  bool stopped = false;
};

TEST(DccpIntegration, HandshakeEstablishes) {
  DccpPair pair;
  IperfFixture iperf(pair, 100);
  pair.run_for(1.0);
  EXPECT_TRUE(iperf.established);
  EXPECT_EQ(iperf.client_ep->state(), DccpState::kOpen);
  ASSERT_NE(iperf.server_ep, nullptr);
  EXPECT_EQ(iperf.server_ep->state(), DccpState::kOpen);
}

TEST(DccpIntegration, DataFlowsAndCwndGrows) {
  DccpPair pair;
  IperfFixture iperf(pair, 2000);
  pair.run_for(5.0);
  EXPECT_GT(iperf.server_goodput, 1000000u);
  EXPECT_GT(iperf.client_ep->ccid2().cwnd(), 3u);
  // Per-packet sequence numbers: pure acks consumed sequence space on the
  // server side too.
  EXPECT_GT(iperf.server_ep->stats().packets_sent, 100u);
}

TEST(DccpIntegration, CloseDrainsQueueThenReleasesBothSides) {
  DccpPair pair;
  IperfFixture iperf(pair, 500);
  pair.run_for(2.0);
  iperf.stopped = true;
  iperf.client_ep->close();
  pair.run_for(2.0);
  // Server answered the Close with a Reset and released; client waits out
  // TIMEWAIT.
  EXPECT_EQ(pair.server().open_sockets(), 0u);
  EXPECT_EQ(iperf.client_ep->state(), DccpState::kTimeWait);
  pair.run_for(10.0);
  EXPECT_TRUE(iperf.client_ep->released());
  EXPECT_EQ(pair.client().open_sockets(), 0u);
}

TEST(DccpIntegration, RequestToClosedPortIsReset) {
  DccpPair pair;
  bool reset = false;
  DccpCallbacks cb;
  cb.on_reset = [&] { reset = true; };
  pair.client().connect(2, 9999, std::move(cb));
  pair.run_for(1.0);
  EXPECT_TRUE(reset);
  EXPECT_EQ(pair.client().open_sockets(), 0u);
}

void inject_dccp(DccpPair& pair, sim::Address from_node, const DccpPacket& p) {
  sim::Packet wire;
  wire.src = from_node;
  wire.dst = from_node == 1 ? 2u : 1u;
  wire.protocol = sim::kProtoDccp;
  wire.bytes = serialize(p);
  (from_node == 1 ? pair.client_node() : pair.server_node()).send_packet(std::move(wire));
}

TEST(DccpIntegration, RequestStateTerminatedByAnyPacketType) {
  // The REQUEST Connection Termination attack: ANY non-Response packet with
  // ARBITRARY sequence numbers resets a client in the REQUEST state, because
  // the type check precedes the sequence checks.
  sim::LinkConfig slow;
  slow.delay = Duration::millis(50);  // widen the REQUEST window
  DccpPair pair(slow);
  bool reset = false, established = false;
  DccpCallbacks cb;
  cb.on_reset = [&] { reset = true; };
  cb.on_established = [&] { established = true; };
  DccpEndpoint& ep = pair.client().connect(2, 5001, std::move(cb));
  pair.server().listen(5001, [](DccpEndpoint&) { return DccpCallbacks{}; });
  ASSERT_EQ(ep.state(), DccpState::kRequest);

  DccpPacket garbage;
  garbage.src_port = 5001;
  garbage.dst_port = ep.config().local_port;
  garbage.type = packet::kDccpData;
  garbage.seq = 0xABCDEF;  // arbitrary; no validity check applies
  inject_dccp(pair, 2, garbage);
  pair.run_for(5.0);
  EXPECT_TRUE(reset);
  EXPECT_FALSE(established);
  EXPECT_GT(ep.stats().resets_sent, 0u);
}

TEST(DccpIntegration, OutOfWindowResetIgnoredInOpen) {
  // By contrast, once OPEN, a Reset must be sequence-valid.
  DccpPair pair;
  IperfFixture iperf(pair, 500);
  pair.run_for(1.0);
  ASSERT_EQ(iperf.client_ep->state(), DccpState::kOpen);
  DccpPacket rst;
  rst.src_port = 5001;
  rst.dst_port = iperf.client_ep->config().local_port;
  rst.type = packet::kDccpReset;
  rst.seq = seq_add(iperf.client_ep->gsr(), 1 << 20);  // far out of window
  rst.ack = 0;
  inject_dccp(pair, 2, rst);
  pair.run_for(1.0);
  EXPECT_EQ(iperf.client_ep->state(), DccpState::kOpen);
  EXPECT_FALSE(iperf.reset);
}

TEST(DccpIntegration, SyncRecoversFromDesync) {
  // A packet with an in-window-but-future sequence number drags GSR forward;
  // subsequent legitimate traffic appears stale until Sync/SyncAck repairs
  // the window. The connection must survive.
  DccpPair pair;
  IperfFixture iperf(pair, 1000);
  pair.run_for(1.0);
  ASSERT_EQ(iperf.client_ep->state(), DccpState::kOpen);
  DccpPacket future;
  future.src_port = 5001;
  future.dst_port = iperf.client_ep->config().local_port;
  future.type = packet::kDccpAck;
  future.seq = seq_add(iperf.client_ep->gsr(), 60);  // inside SWH (W=100 -> +75)
  future.ack = iperf.client_ep->gss();
  future.has_ack = true;
  inject_dccp(pair, 2, future);
  std::uint64_t goodput_before = iperf.server_goodput;
  pair.run_for(5.0);
  EXPECT_GT(iperf.server_goodput, goodput_before);  // still flowing afterwards
  EXPECT_EQ(iperf.client_ep->state(), DccpState::kOpen);
}

/// Filter that applies a mutation to ingress (server->client) packets.
template <typename Fn>
class IngressMutator : public sim::PacketFilter {
 public:
  explicit IngressMutator(Fn fn) : fn_(std::move(fn)) {}
  sim::FilterVerdict on_packet(sim::Packet& p, sim::FilterDirection dir,
                               sim::Injector&) override {
    if (dir == sim::FilterDirection::kIngress) return fn_(p);
    return sim::FilterVerdict::kForward;
  }

 private:
  Fn fn_;
};

TEST(DccpIntegration, AckMungPinsSenderAndBlocksClose) {
  // The Acknowledgment Mung Resource Exhaustion attack: invalidating the
  // acknowledgments from the receiver pins the sender's congestion control
  // at its minimum (one packet per backed-off RTO), the transmit queue never
  // drains, and close() cannot complete — both sockets stay alive.
  DccpPair pair;
  DccpEndpointConfig big_queue;
  big_queue.tx_queue_packets = 50;
  IperfFixture iperf(pair, 2000, 1000, big_queue);
  pair.run_for(1.0);
  ASSERT_EQ(iperf.client_ep->state(), DccpState::kOpen);

  // Mung: wreck the ack number of every server->client Ack.
  auto mung = [](sim::Packet& p) {
    auto parsed = parse_dccp(p.bytes);
    if (!parsed.has_value() || parsed->type != packet::kDccpAck)
      return sim::FilterVerdict::kForward;
    const packet::Codec& codec = packet::dccp_codec();
    codec.set_fast(p.bytes, *codec.format().compiled("ack"), 0x123456);  // acks nothing sent
    return sim::FilterVerdict::kForward;
  };
  IngressMutator filter(mung);
  pair.client_node().set_filter(&filter);
  pair.run_for(5.0);

  iperf.stopped = true;
  iperf.client_ep->close();
  pair.run_for(30.0);
  // Still wedged: queue non-empty, close never sent, server socket alive.
  EXPECT_GT(iperf.client_ep->tx_queue_depth(), 0u);
  EXPECT_NE(iperf.client_ep->state(), DccpState::kTimeWait);
  EXPECT_FALSE(iperf.client_ep->released());
  EXPECT_EQ(pair.server().open_sockets(), 1u);
  EXPECT_GT(iperf.client_ep->stats().timeouts, 2u);
}

TEST(DccpIntegration, InWindowAckSeqIncrementForcesResyncAndThrottles) {
  // In-window Acknowledgment Sequence Number Modification: bumping the
  // sequence number of the receiver's acks makes the sender acknowledge
  // packets never sent; the receiver drops those and answers with Sync,
  // costing a window of data per round.
  auto run = [](bool attack) {
    DccpPair pair;
    IperfFixture iperf(pair, 2000);
    std::uint64_t syncs = 0;
    auto bump = [&syncs](sim::Packet& p) {
      auto parsed = parse_dccp(p.bytes);
      if (!parsed.has_value() || parsed->type != packet::kDccpAck)
        return sim::FilterVerdict::kForward;
      // The bump must outrun the acks the receiver produces in one RTT while
      // staying inside the sequence-validity window (W=100 -> SWH is
      // GSR+76); +60 satisfies both.
      const packet::Codec& codec = packet::dccp_codec();
      codec.set_fast(p.bytes, *codec.format().compiled("seq"), seq_add(parsed->seq, 60));
      (void)syncs;
      return sim::FilterVerdict::kForward;
    };
    IngressMutator filter(bump);
    if (attack) pair.client_node().set_filter(&filter);
    pair.run_for(10.0);
    return std::pair<std::uint64_t, std::uint64_t>(iperf.server_goodput,
                                                   iperf.server_ep->stats().syncs_sent);
  };
  auto [baseline_goodput, baseline_syncs] = run(false);
  auto [attacked_goodput, attacked_syncs] = run(true);
  EXPECT_GT(attacked_syncs, baseline_syncs);
  EXPECT_LT(attacked_goodput, baseline_goodput / 2)
      << "attack should throttle throughput by >2x";
}

TEST(DccpIntegration, TxQueueBackpressure) {
  DccpPair pair;
  // Offer far beyond what a 3-packet initial window can carry.
  DccpEndpointConfig tiny;
  tiny.tx_queue_packets = 5;
  IperfFixture iperf(pair, 20000, 1000, tiny);
  pair.run_for(1.0);
  EXPECT_GT(iperf.client_ep->stats().tx_queue_drops, 0u);
}

}  // namespace
}  // namespace snake::dccp
