// TCP substrate tests: wire format, sequence arithmetic, congestion control
// unit behaviour, and full two-stack integration over the simulator —
// including the profile quirks that make the paper's attacks possible.
#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "packet/tcp_format.h"
#include "sim/network.h"
#include "tcp/congestion.h"
#include "tcp/endpoint.h"
#include "tcp/profile.h"
#include "tcp/segment.h"
#include "tcp/seq.h"
#include "tcp/stack.h"
#include "util/rng.h"

namespace snake::tcp {
namespace {

using packet::kTcpAck;
using packet::kTcpFin;
using packet::kTcpPsh;
using packet::kTcpRst;
using packet::kTcpSyn;

// ------------------------------------------------------------ wire format

TEST(Segment, SerializeParseRoundTrip) {
  Segment s;
  s.src_port = 40000;
  s.dst_port = 80;
  s.seq = 0xDEADBEEF;
  s.ack = 0x01020304;
  s.flags = kTcpPsh | kTcpAck;
  s.window = 31000;
  s.dsack = true;
  s.payload = {1, 2, 3, 4, 5};
  Bytes wire = serialize(s);
  auto parsed = parse_segment(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src_port, s.src_port);
  EXPECT_EQ(parsed->dst_port, s.dst_port);
  EXPECT_EQ(parsed->seq, s.seq);
  EXPECT_EQ(parsed->ack, s.ack);
  EXPECT_EQ(parsed->flags, s.flags);
  EXPECT_EQ(parsed->window, s.window);
  EXPECT_TRUE(parsed->dsack);
  EXPECT_EQ(parsed->payload, s.payload);
}

TEST(Segment, ParseRejectsCorruption) {
  Segment s;
  s.flags = kTcpSyn;
  Bytes wire = serialize(s);
  wire[4] ^= 0xFF;  // corrupt seq, checksum now wrong
  EXPECT_FALSE(parse_segment(wire).has_value());
  const Bytes truncated(10, 0);
  EXPECT_FALSE(parse_segment(truncated).has_value());  // truncated
}

TEST(Segment, WireFormatMatchesDslCodec) {
  // The endpoints and the attack proxy must agree on the layout: the
  // endpoint serializes, the DSL codec reads.
  Segment s;
  s.src_port = 1234;
  s.dst_port = 80;
  s.seq = 777;
  s.ack = 888;
  s.flags = kTcpSyn | kTcpAck;
  s.window = 999;
  Bytes wire = serialize(s);
  const packet::Codec& codec = packet::tcp_codec();
  EXPECT_EQ(codec.get_fast(wire, *codec.format().compiled("src_port")), 1234u);
  EXPECT_EQ(codec.get_fast(wire, *codec.format().compiled("dst_port")), 80u);
  EXPECT_EQ(codec.get_fast(wire, *codec.format().compiled("seq")), 777u);
  EXPECT_EQ(codec.get_fast(wire, *codec.format().compiled("ack")), 888u);
  EXPECT_EQ(codec.get_fast(wire, *codec.format().compiled("window")), 999u);
  EXPECT_EQ(codec.type_name(codec.classify_index(wire)), "SYN+ACK");
  // And the codec can rewrite a field such that the endpoint still accepts
  // the checksum.
  Bytes modified = wire;
  codec.set_fast(modified, *codec.format().compiled("seq"), 4242);
  auto parsed = parse_segment(modified);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->seq, 4242u);
}

TEST(Segment, SeqLenCountsSynAndFin) {
  Segment s;
  EXPECT_EQ(s.seq_len(), 0u);
  s.flags = kTcpSyn;
  EXPECT_EQ(s.seq_len(), 1u);
  s.flags = kTcpFin | kTcpAck;
  s.payload = {1, 2, 3};
  EXPECT_EQ(s.seq_len(), 4u);
}

// --------------------------------------------------------- seq arithmetic

TEST(SeqArithmetic, WrapAround) {
  Seq near_max = 0xFFFFFFF0;
  EXPECT_TRUE(seq_lt(near_max, near_max + 0x20));  // wraps past zero
  EXPECT_TRUE(seq_gt(near_max + 0x20, near_max));
  EXPECT_TRUE(seq_leq(near_max, near_max));
  EXPECT_TRUE(in_window(near_max + 5, near_max, 100));
  EXPECT_FALSE(in_window(near_max - 5, near_max, 100));
}

TEST(SeqArithmetic, HalfCircleDistanceIsAntisymmetric) {
  // Regression (property suite, ordering oracle): with the signed-cast
  // comparison, two values exactly 2^31 apart satisfied BOTH seq_lt(a, b)
  // and seq_lt(b, a) — a strict-weak-ordering violation that is undefined
  // behaviour once such keys coexist in a SeqCircularLess map. The exact
  // half distance now tie-breaks on the raw values.
  for (Seq a : {0u, 1u, 0x12345678u, 0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFFu}) {
    Seq b = a + kSeqHalf;
    EXPECT_NE(seq_lt(a, b), seq_lt(b, a)) << "a=" << a;
    EXPECT_NE(seq_gt(a, b), seq_gt(b, a)) << "a=" << a;
    EXPECT_FALSE(seq_lt(a, a));
    SeqCircularLess less;
    EXPECT_FALSE(less(a, b) && less(b, a)) << "a=" << a;
  }
}

TEST(SeqArithmetic, ComparisonsStayConsistentNearHalfCircle) {
  // One step either side of the ambiguous point keeps the usual semantics.
  Seq a = 1000;
  EXPECT_TRUE(seq_lt(a, a + kSeqHalf - 1));
  EXPECT_FALSE(seq_lt(a, a + kSeqHalf + 1));  // b is now "behind" a
  EXPECT_TRUE(seq_gt(a, a + kSeqHalf + 1));
  EXPECT_TRUE(seq_leq(a, a) && seq_geq(a, a));
}

class InWindowSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(InWindowSweep, WindowMembershipConsistentAcrossBase) {
  // Property: for any base, exactly the offsets [0, wnd) are in-window.
  Seq base = GetParam();
  const std::uint32_t wnd = 65535;
  EXPECT_TRUE(in_window(base, base, wnd));
  EXPECT_TRUE(in_window(base + wnd - 1, base, wnd));
  EXPECT_FALSE(in_window(base + wnd, base, wnd));
  EXPECT_FALSE(in_window(base - 1, base, wnd));
  EXPECT_TRUE(segment_acceptable(base - 10, 20, base, wnd));   // overlaps front
  EXPECT_FALSE(segment_acceptable(base - 20, 10, base, wnd));  // entirely old
}

INSTANTIATE_TEST_SUITE_P(Bases, InWindowSweep,
                         ::testing::Values(0u, 1u, 0x7FFFFFFFu, 0x80000000u, 0xFFFFFF00u,
                                           0xFFFFFFFFu));

// ------------------------------------------------------ congestion control

TEST(Congestion, SlowStartDoublesPerWindow) {
  CongestionControl cc(1000, linux_3_13_profile());
  std::size_t start = cc.cwnd();
  // Ack a full window's worth, one MSS at a time, window fully used.
  std::size_t acked_total = 0;
  while (acked_total < start) {
    cc.on_new_ack(1000, /*flight_before=*/cc.cwnd());
    acked_total += 1000;
  }
  EXPECT_GE(cc.cwnd(), start * 2 - 1000);
}

TEST(Congestion, NoGrowthWhenNotWindowLimited) {
  CongestionControl cc(1000, linux_3_13_profile());
  std::size_t start = cc.cwnd();
  cc.on_new_ack(1000, /*flight_before=*/0);  // app-limited
  EXPECT_EQ(cc.cwnd(), start);
}

TEST(Congestion, ThreeDupAcksEnterRecovery) {
  CongestionControl cc(1000, windows_8_1_profile());
  EXPECT_FALSE(cc.on_dup_ack(false, 10000));
  EXPECT_FALSE(cc.on_dup_ack(false, 10000));
  EXPECT_TRUE(cc.on_dup_ack(false, 10000));  // third fires fast retransmit
  EXPECT_TRUE(cc.in_recovery());
  EXPECT_EQ(cc.ssthresh(), 5000u);
  EXPECT_EQ(cc.cwnd(), 5000u + 3000u);
  cc.on_full_ack();
  EXPECT_FALSE(cc.in_recovery());
  EXPECT_EQ(cc.cwnd(), 5000u);
}

TEST(Congestion, DsackSuppressionIgnoresDuplicateSegmentAcks) {
  // Linux counts no DSACK-flagged dupacks -> never enters recovery; this is
  // why Duplicate ACK Rate Limiting does not degrade Linux senders.
  CongestionControl linux_cc(1000, linux_3_13_profile());
  for (int i = 0; i < 20; ++i) EXPECT_FALSE(linux_cc.on_dup_ack(/*dsack=*/true, 10000));
  EXPECT_FALSE(linux_cc.in_recovery());

  // Windows 8.1 counts them and halves its window.
  CongestionControl win_cc(1000, windows_8_1_profile());
  bool fired = false;
  for (int i = 0; i < 3; ++i) fired = win_cc.on_dup_ack(/*dsack=*/true, 10000);
  EXPECT_TRUE(fired);
  EXPECT_TRUE(win_cc.in_recovery());
}

TEST(Congestion, NaiveProfileGrowsOnEveryDupAck) {
  // Windows 95: every ACK grows cwnd — the Duplicate ACK Spoofing engine.
  CongestionControl cc(1000, windows_95_profile());
  std::size_t start = cc.cwnd();
  for (int i = 0; i < 2; ++i) cc.on_dup_ack(false, 0);  // below threshold
  EXPECT_EQ(cc.cwnd(), start + 2000);
  // A modern profile would not have grown at all.
  CongestionControl modern(1000, linux_3_13_profile());
  std::size_t mstart = modern.cwnd();
  for (int i = 0; i < 2; ++i) modern.on_dup_ack(false, 0);
  EXPECT_EQ(modern.cwnd(), mstart);
}

TEST(Congestion, NaiveProfileNeverFastRetransmits) {
  // Windows 95 predates fast retransmit: duplicate ACKs are never a loss
  // signal, no matter how many arrive — they only grow the window.
  CongestionControl cc(1000, windows_95_profile());
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(cc.on_dup_ack(false, 10000));
  EXPECT_FALSE(cc.in_recovery());
  EXPECT_GT(cc.cwnd(), 1000u * 2);  // but the window did inflate
}

TEST(Congestion, RtoCollapsesToOneSegment) {
  CongestionControl cc(1000, linux_3_13_profile());
  for (int i = 0; i < 10; ++i) cc.on_new_ack(1000, cc.cwnd());
  cc.on_rto(8000);
  EXPECT_EQ(cc.cwnd(), 1000u);
  EXPECT_EQ(cc.ssthresh(), 4000u);
}

// ----------------------------------------------------------- integration

/// Two hosts joined by a configurable duplex link, each with a TcpStack.
class TcpPair {
 public:
  explicit TcpPair(const TcpProfile& client_profile = linux_3_13_profile(),
                   const TcpProfile& server_profile = linux_3_13_profile(),
                   sim::LinkConfig link = {})
      : client_node_(net_.add_node(1, "client")),
        server_node_(net_.add_node(2, "server")),
        client_(client_node_, client_profile, snake::Rng(1)),
        server_(server_node_, server_profile, snake::Rng(2)) {
    auto [cs, sc] = net_.connect(client_node_, server_node_, link);
    client_node_.set_default_route(cs);
    server_node_.set_default_route(sc);
  }

  sim::Network& net() { return net_; }
  sim::Node& client_node() { return client_node_; }
  sim::Node& server_node() { return server_node_; }
  TcpStack& client() { return client_; }
  TcpStack& server() { return server_; }
  void run_for(double seconds) {
    net_.scheduler().run_until(net_.scheduler().now() + Duration::seconds(seconds));
  }

 private:
  sim::Network net_;
  sim::Node& client_node_;
  sim::Node& server_node_;
  TcpStack client_;
  TcpStack server_;
};

/// Minimal bulk application: server sends `total` bytes on accept, client
/// accumulates them.
struct BulkFixture {
  explicit BulkFixture(TcpPair& pair, std::size_t total) {
    pair.server().listen(80, [&, total](TcpEndpoint& ep) {
      server_ep = &ep;
      TcpCallbacks cb;
      cb.on_established = [&ep, total] {
        Bytes data(total);
        for (std::size_t i = 0; i < total; ++i) data[i] = static_cast<std::uint8_t>(i * 31);
        ep.send(data);
      };
      cb.on_remote_close = [&ep] { ep.close(); };
      return cb;
    });
    TcpCallbacks cb;
    cb.on_data = [this](std::span<const std::uint8_t> chunk) {
      received.insert(received.end(), chunk.begin(), chunk.end());
    };
    cb.on_reset = [this] { reset = true; };
    client_ep = &pair.client().connect(2, 80, std::move(cb));
  }

  bool content_ok() const {
    for (std::size_t i = 0; i < received.size(); ++i)
      if (received[i] != static_cast<std::uint8_t>(i * 31)) return false;
    return true;
  }

  TcpEndpoint* client_ep = nullptr;
  TcpEndpoint* server_ep = nullptr;
  Bytes received;
  bool reset = false;
};

TEST(TcpIntegration, HandshakeEstablishesBothEnds) {
  TcpPair pair;
  bool client_up = false, server_up = false;
  pair.server().listen(80, [&](TcpEndpoint&) {
    TcpCallbacks cb;
    cb.on_established = [&] { server_up = true; };
    return cb;
  });
  TcpCallbacks cb;
  cb.on_established = [&] { client_up = true; };
  TcpEndpoint& ep = pair.client().connect(2, 80, std::move(cb));
  pair.run_for(1.0);
  EXPECT_TRUE(client_up);
  EXPECT_TRUE(server_up);
  EXPECT_EQ(ep.state(), TcpState::kEstablished);
}

TEST(TcpIntegration, BulkTransferDeliversInOrder) {
  TcpPair pair;
  BulkFixture bulk(pair, 200000);
  pair.run_for(30.0);
  EXPECT_EQ(bulk.received.size(), 200000u);
  EXPECT_TRUE(bulk.content_ok());
}

/// Filter that drops packets with a fixed probability (pure network loss).
class RandomLoss : public sim::PacketFilter {
 public:
  RandomLoss(double p, std::uint64_t seed) : p_(p), rng_(seed) {}
  sim::FilterVerdict on_packet(sim::Packet&, sim::FilterDirection, sim::Injector&) override {
    return rng_.chance(p_) ? sim::FilterVerdict::kConsume : sim::FilterVerdict::kForward;
  }

 private:
  double p_;
  snake::Rng rng_;
};

class LossSweep : public ::testing::TestWithParam<int> {};

TEST_P(LossSweep, ReliabilitySurvivesRandomLoss) {
  // Property: whatever the loss rate, everything eventually arrives intact.
  double loss = GetParam() / 100.0;
  TcpPair pair;
  RandomLoss filter(loss, 99 + GetParam());
  pair.client_node().set_filter(&filter);
  BulkFixture bulk(pair, 60000);
  pair.run_for(120.0);
  EXPECT_EQ(bulk.received.size(), 60000u) << "loss=" << loss;
  EXPECT_TRUE(bulk.content_ok());
}

INSTANTIATE_TEST_SUITE_P(LossRates, LossSweep, ::testing::Values(1, 5, 10, 20));

TEST(TcpIntegration, GracefulCloseReleasesServerSocket) {
  TcpPair pair;
  BulkFixture bulk(pair, 50000);
  pair.run_for(10.0);
  ASSERT_EQ(bulk.received.size(), 50000u);
  bulk.client_ep->close();
  pair.run_for(10.0);
  // Server (passive close) should be fully gone; client may linger in
  // TIME_WAIT, which netstat-style counting excludes.
  EXPECT_EQ(pair.server().open_sockets(), 0u);
  EXPECT_EQ(pair.client().open_sockets(), 0u);
  EXPECT_EQ(bulk.client_ep->state(), TcpState::kTimeWait);
  pair.run_for(70.0);  // 2*MSL
  EXPECT_TRUE(bulk.client_ep->released());
}

TEST(TcpIntegration, AbortSendsRstAndReleasesPeer) {
  TcpPair pair;
  BulkFixture bulk(pair, 500000);
  pair.run_for(1.0);
  bulk.client_ep->abort();
  pair.run_for(2.0);
  EXPECT_EQ(pair.server().open_sockets(), 0u);
  EXPECT_GT(bulk.client_ep->stats().rsts_sent, 0u);
}

TEST(TcpIntegration, SynToClosedPortGetsRst) {
  TcpPair pair;
  bool reset = false;
  TcpCallbacks cb;
  cb.on_reset = [&] { reset = true; };
  pair.client().connect(2, 9999, std::move(cb));  // nobody listening
  pair.run_for(2.0);
  EXPECT_TRUE(reset);
  EXPECT_EQ(pair.client().open_sockets(), 0u);
}

// Injects a raw TCP segment from an arbitrary spoofed source.
void inject_segment(TcpPair& pair, sim::Address from_node, const Segment& seg) {
  sim::Packet p;
  p.src = from_node;
  p.dst = from_node == 1 ? 2u : 1u;
  p.protocol = sim::kProtoTcp;
  p.bytes = serialize(seg);
  (from_node == 1 ? pair.client_node() : pair.server_node()).send_packet(std::move(p));
}

TEST(TcpIntegration, OutOfWindowRstIsIgnored) {
  TcpPair pair;
  BulkFixture bulk(pair, 500000);
  pair.run_for(1.0);
  ASSERT_EQ(bulk.client_ep->state(), TcpState::kEstablished);
  Segment rst;
  rst.src_port = 80;
  rst.dst_port = bulk.client_ep->config().local_port;
  rst.flags = kTcpRst;
  rst.seq = bulk.client_ep->rcv_nxt() - 200000;  // far outside the window
  inject_segment(pair, 2, rst);
  pair.run_for(1.0);
  EXPECT_EQ(bulk.client_ep->state(), TcpState::kEstablished);
  EXPECT_FALSE(bulk.reset);
}

TEST(TcpIntegration, InWindowRstResets) {
  TcpPair pair;
  BulkFixture bulk(pair, 500000);
  pair.run_for(1.0);
  Segment rst;
  rst.src_port = 80;
  rst.dst_port = bulk.client_ep->config().local_port;
  rst.flags = kTcpRst;
  // Anywhere in the window suffices — Watson's "slipping in the window".
  rst.seq = bulk.client_ep->rcv_nxt() + 30000;
  inject_segment(pair, 2, rst);
  pair.run_for(1.0);
  EXPECT_TRUE(bulk.reset);
  EXPECT_TRUE(bulk.client_ep->released());
}

TEST(TcpIntegration, InWindowSynResetsConnection) {
  TcpPair pair;
  BulkFixture bulk(pair, 500000);
  pair.run_for(1.0);
  Segment syn;
  syn.src_port = 80;
  syn.dst_port = bulk.client_ep->config().local_port;
  syn.flags = kTcpSyn;
  syn.seq = bulk.client_ep->rcv_nxt() + 1000;
  inject_segment(pair, 2, syn);
  pair.run_for(1.0);
  EXPECT_TRUE(bulk.reset);
  EXPECT_GT(bulk.client_ep->stats().rsts_sent, 0u);
}

TEST(TcpIntegration, InvalidFlagsFingerprintDiffersByProfile) {
  // A flagless packet in an active connection: Linux 3.0.0 answers with a
  // duplicate ACK, Linux 3.13 stays silent — the fingerprinting signal.
  auto count_responses = [](const TcpProfile& profile) {
    TcpPair pair(profile, linux_3_13_profile());
    BulkFixture bulk(pair, 500000);
    pair.run_for(1.0);
    Segment weird;
    weird.src_port = 80;
    weird.dst_port = bulk.client_ep->config().local_port;
    weird.flags = 0;  // no flags at all
    weird.seq = bulk.client_ep->rcv_nxt();
    weird.payload = {0xAB};
    inject_segment(pair, 2, weird);
    pair.run_for(1.0);
    return bulk.client_ep->stats().invalid_flag_responses;
  };
  EXPECT_GT(count_responses(linux_3_0_profile()), 0u);
  EXPECT_EQ(count_responses(linux_3_13_profile()), 0u);
  EXPECT_EQ(count_responses(windows_95_profile()), 0u);
}

TEST(TcpIntegration, Windows81RstFirstPolicyResetsOnInvalidCombo) {
  TcpPair pair(windows_8_1_profile(), linux_3_13_profile());
  BulkFixture bulk(pair, 500000);
  pair.run_for(1.0);
  Segment weird;
  weird.src_port = 80;
  weird.dst_port = bulk.client_ep->config().local_port;
  weird.flags = kTcpSyn | kTcpFin | kTcpRst | kTcpPsh;  // nonsense, but RST is set
  weird.seq = bulk.client_ep->rcv_nxt();
  inject_segment(pair, 2, weird);
  pair.run_for(1.0);
  EXPECT_TRUE(bulk.reset);

  // Same packet against Linux 3.13: ignored entirely.
  TcpPair pair2(linux_3_13_profile(), linux_3_13_profile());
  BulkFixture bulk2(pair2, 500000);
  pair2.run_for(1.0);
  weird.dst_port = bulk2.client_ep->config().local_port;
  weird.seq = bulk2.client_ep->rcv_nxt();
  inject_segment(pair2, 2, weird);
  pair2.run_for(1.0);
  EXPECT_FALSE(bulk2.reset);
  EXPECT_EQ(bulk2.client_ep->state(), TcpState::kEstablished);
}

/// Slow link so that "mid-transfer" events are actually mid-transfer.
sim::LinkConfig slow_link() {
  sim::LinkConfig link;
  link.rate_bps = 10e6;
  link.delay = Duration::millis(20);
  return link;
}

TEST(TcpIntegration, LinuxClientExitRstsFurtherData) {
  TcpPair pair(linux_3_0_profile(), linux_3_13_profile(), slow_link());
  BulkFixture bulk(pair, 2000000);
  pair.run_for(0.5);  // mid-transfer
  ASSERT_GT(bulk.received.size(), 0u);
  ASSERT_LT(bulk.received.size(), 2000000u);
  bulk.client_ep->app_exit();
  pair.run_for(5.0);
  // Client answered in-flight data with RST; the server saw it and released.
  EXPECT_GT(bulk.client_ep->stats().rsts_sent, 0u);
  EXPECT_EQ(pair.server().open_sockets(), 0u);
}

TEST(TcpIntegration, WindowsClientExitDrainsGracefully) {
  // Windows profile keeps acknowledging after close; no RSTs are emitted and
  // the server finishes its transfer normally.
  TcpPair pair(windows_8_1_profile(), linux_3_13_profile());
  BulkFixture bulk(pair, 400000);
  pair.run_for(0.2);
  bulk.client_ep->app_exit();
  pair.run_for(30.0);
  EXPECT_EQ(bulk.client_ep->stats().rsts_sent, 0u);
  EXPECT_EQ(pair.server().open_sockets(), 0u);
}

TEST(TcpIntegration, CloseWaitWedgeWhenClientRstsAreBlocked) {
  // The CLOSE_WAIT Resource Exhaustion mechanism, end to end: a Linux client
  // exits mid-download, its RSTs are dropped in transit, the server
  // application closes — and the server socket wedges in CLOSE_WAIT.
  class DropClientRsts : public sim::PacketFilter {
   public:
    sim::FilterVerdict on_packet(sim::Packet& p, sim::FilterDirection dir,
                                 sim::Injector&) override {
      if (dir != sim::FilterDirection::kEgress) return sim::FilterVerdict::kForward;
      auto seg = parse_segment(p.bytes);
      if (seg.has_value() && seg->has(kTcpRst)) return sim::FilterVerdict::kConsume;
      return sim::FilterVerdict::kForward;
    }
  };
  TcpPair pair(linux_3_0_profile(), linux_3_0_profile(), slow_link());
  DropClientRsts filter;
  pair.client_node().set_filter(&filter);
  BulkFixture bulk(pair, 2000000);
  pair.run_for(0.5);
  bulk.client_ep->app_exit();
  pair.run_for(2.0);
  // Server application gives up and closes its side.
  ASSERT_NE(bulk.server_ep, nullptr);
  bulk.server_ep->close();
  pair.run_for(20.0);
  // Stuck: unacknowledged data queued, FIN unsendable.
  EXPECT_EQ(bulk.server_ep->state(), TcpState::kCloseWait);
  EXPECT_GT(bulk.server_ep->send_queue_bytes(), 0u);
  EXPECT_EQ(pair.server().open_sockets(), 1u);
  EXPECT_EQ(pair.server().socket_states().at("CLOSE_WAIT"), 1);
}

TEST(TcpIntegration, RetransmissionGiveUpEventuallyReleases) {
  // After max_retries the wedged socket is force-closed — the paper's
  // "13 to 30 minutes depending on RTT".
  TcpPair pair(linux_3_0_profile(), linux_3_0_profile(), slow_link());
  class DropEverythingFromClient : public sim::PacketFilter {
   public:
    sim::FilterVerdict on_packet(sim::Packet&, sim::FilterDirection dir,
                                 sim::Injector&) override {
      return dir == sim::FilterDirection::kEgress ? sim::FilterVerdict::kConsume
                                                  : sim::FilterVerdict::kForward;
    }
  };
  BulkFixture bulk(pair, 2000000);
  pair.run_for(0.5);
  DropEverythingFromClient filter;  // client goes completely dark
  pair.client_node().set_filter(&filter);
  pair.run_for(3000.0);  // enough virtual time for 15 backed-off retries
  EXPECT_EQ(pair.server().open_sockets(), 0u);
}

TEST(TcpIntegration, ReflectedSynTriggersSimultaneousOpenPath) {
  // The proxy's reflect attack bounces the client's SYN back at it; RFC 793
  // simultaneous open moves the client to SYN_RCVD and the real handshake
  // never completes against the server's SYN+ACK with a now-wrong state.
  // The reflect action consumes the original (it never reaches the server)
  // and bounces a port-swapped copy back at the sender.
  class ReflectSyn : public sim::PacketFilter {
   public:
    sim::FilterVerdict on_packet(sim::Packet& p, sim::FilterDirection dir,
                                 sim::Injector& injector) override {
      if (dir != sim::FilterDirection::kEgress) return sim::FilterVerdict::kForward;
      auto seg = parse_segment(p.bytes);
      if (!seg.has_value() || seg->flags != kTcpSyn) return sim::FilterVerdict::kForward;
      Segment reflected = *seg;
      std::swap(reflected.src_port, reflected.dst_port);
      sim::Packet back;
      back.src = p.dst;
      back.dst = p.src;
      back.protocol = sim::kProtoTcp;
      back.bytes = serialize(reflected);
      injector.inject(std::move(back), sim::FilterDirection::kIngress, Duration::millis(1));
      return sim::FilterVerdict::kConsume;
    }
  };
  TcpPair pair;
  ReflectSyn filter;
  pair.client_node().set_filter(&filter);
  pair.server().listen(80, [](TcpEndpoint&) { return TcpCallbacks{}; });
  TcpCallbacks cb;
  bool established = false;
  cb.on_established = [&] { established = true; };
  TcpEndpoint& ep = pair.client().connect(2, 80, std::move(cb));
  // Reflected SYN arrives ~1ms in; the client mistakes it for a
  // simultaneous open.
  pair.run_for(0.005);
  EXPECT_EQ(ep.state(), TcpState::kSynRcvd);
  // The client's SYN+ACK hits a server with no matching connection, which
  // RSTs it — connection establishment has been prevented.
  pair.run_for(5.0);
  EXPECT_FALSE(established);
  EXPECT_TRUE(ep.released());
}

// ------------------------------------------------------------ SACK / DSACK

TEST(Segment, SackOptionsRoundTrip) {
  Segment syn;
  syn.flags = kTcpSyn;
  syn.sack_permitted = true;
  const Bytes syn_wire = serialize(syn);
  auto parsed_syn = parse_segment(syn_wire);
  ASSERT_TRUE(parsed_syn.has_value());
  EXPECT_TRUE(parsed_syn->sack_permitted);
  EXPECT_TRUE(parsed_syn->sack_blocks.empty());

  Segment ack;
  ack.flags = kTcpAck;
  ack.ack = 1000;
  ack.sack_blocks = {{2400, 3800}, {5200, 6600}, {9000, 10400}};
  Bytes wire = serialize(ack);
  // The mirror bit lets the fixed-offset codec see the blocks without
  // parsing options, and such pure ACKs are their own packet type.
  const packet::HeaderFormat& f = packet::tcp_format();
  EXPECT_EQ(f.read(wire, *f.compiled("sack_flag")), 1u);
  EXPECT_EQ(f.type_name(f.classify_index(wire)), "SACK");
  auto parsed_ack = parse_segment(wire);
  ASSERT_TRUE(parsed_ack.has_value());
  EXPECT_EQ(parsed_ack->sack_blocks, ack.sack_blocks);
  EXPECT_FALSE(parsed_ack->sack_permitted);
}

TEST(Segment, SackBlocksTruncateAtSerializationLimit) {
  Segment s;
  s.flags = kTcpAck;
  for (std::uint32_t i = 0; i < 6; ++i)
    s.sack_blocks.push_back({i * 3000 + 1000, i * 3000 + 2400});
  const Bytes wire = serialize(s);
  auto parsed = parse_segment(wire);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->sack_blocks.size(), Segment::kMaxSackBlocks);
  for (std::size_t i = 0; i < Segment::kMaxSackBlocks; ++i)
    EXPECT_EQ(parsed->sack_blocks[i], s.sack_blocks[i]);
}

TEST(Segment, OptionBytesMatchDataOffset) {
  // data_offset must account for the options, 32-bit aligned, and the codec
  // (which trusts data_offset for payload boundaries) must agree.
  for (std::size_t blocks : {0u, 1u, 2u, 3u, 4u}) {
    Segment s;
    s.flags = kTcpAck;
    for (std::size_t i = 0; i < blocks; ++i)
      s.sack_blocks.push_back({static_cast<Seq>(i * 3000 + 1000),
                               static_cast<Seq>(i * 3000 + 2400)});
    s.payload = {1, 2, 3};
    Bytes wire = serialize(s);
    EXPECT_EQ(s.option_bytes() % 4, 0u) << blocks;
    EXPECT_EQ(wire.size(), 20 + s.option_bytes() + s.payload.size()) << blocks;
    const packet::HeaderFormat& f = packet::tcp_format();
    EXPECT_EQ(f.read(wire, *f.compiled("data_offset")), (20 + s.option_bytes()) / 4) << blocks;
  }
}

TEST(Segment, TeardownFlagsOutrankSackClassification) {
  // Regression: a FIN+ACK that happens to carry SACK blocks must classify
  // as FIN+ACK — the state tracker missed the close transitions (and the
  // differential fingerprints wedged in ESTABLISHED) when SACK won.
  Segment fin;
  fin.flags = kTcpFin | kTcpAck;
  fin.sack_blocks = {{700, 2100}};
  const packet::HeaderFormat& f = packet::tcp_format();
  EXPECT_EQ(f.type_name(f.classify_index(serialize(fin))), "FIN+ACK");
  Segment data;
  data.flags = kTcpPsh | kTcpAck;
  data.sack_blocks = {{700, 2100}};
  EXPECT_EQ(f.type_name(f.classify_index(serialize(data))), "SACK");
}

TEST(TcpIntegration, SackNegotiationRequiresBothSides) {
  {
    TcpPair pair(sack_rfc2018_profile(), linux_3_13_profile());
    BulkFixture bulk(pair, 5000);
    pair.run_for(5.0);
    ASSERT_NE(bulk.server_ep, nullptr);
    EXPECT_FALSE(bulk.client_ep->sack_enabled());
    EXPECT_FALSE(bulk.server_ep->sack_enabled());
    EXPECT_EQ(bulk.received.size(), 5000u);  // transfer unaffected
  }
  {
    TcpPair pair(sack_rfc2018_profile(), sack_rfc2018_profile());
    BulkFixture bulk(pair, 5000);
    pair.run_for(5.0);
    ASSERT_NE(bulk.server_ep, nullptr);
    EXPECT_TRUE(bulk.client_ep->sack_enabled());
    EXPECT_TRUE(bulk.server_ep->sack_enabled());
  }
}

/// Drops ingress (server->client) payload-carrying segments by arrival
/// index: each index in `drop` is dropped exactly once.
class DropNthData : public sim::PacketFilter {
 public:
  explicit DropNthData(std::set<int> drop) : drop_(std::move(drop)) {}
  sim::FilterVerdict on_packet(sim::Packet& p, sim::FilterDirection dir,
                               sim::Injector&) override {
    if (dir != sim::FilterDirection::kIngress) return sim::FilterVerdict::kForward;
    auto seg = parse_segment(p.bytes);
    if (!seg.has_value() || seg->payload.empty()) return sim::FilterVerdict::kForward;
    return drop_.erase(count_++) > 0 ? sim::FilterVerdict::kConsume
                                     : sim::FilterVerdict::kForward;
  }

 private:
  std::set<int> drop_;
  int count_ = 0;
};

TEST(TcpIntegration, SackRecoveryPlugsHolesWithoutTimeout) {
  // Two holes in one flight: the first is plugged by fast retransmit, the
  // second by a scoreboard-directed retransmission on a later SACK dupack —
  // no RTO, no go-back-N.
  TcpPair pair(sack_rfc2018_profile(), sack_rfc2018_profile());
  DropNthData filter({20, 22});
  pair.client_node().set_filter(&filter);
  BulkFixture bulk(pair, 200000);
  pair.run_for(30.0);
  EXPECT_EQ(bulk.received.size(), 200000u);
  EXPECT_TRUE(bulk.content_ok());
  ASSERT_NE(bulk.server_ep, nullptr);
  const TcpEndpointStats& sender = bulk.server_ep->stats();
  EXPECT_GT(sender.sack_blocks_received, 0u);
  EXPECT_GE(sender.sack_retransmits, 1u);
  EXPECT_EQ(sender.timeouts, 0u);
  EXPECT_GT(bulk.client_ep->stats().sack_blocks_sent, 0u);
}

/// Duplicates the Nth ingress payload segment (attack-proxy style copy).
class DuplicateNthData : public sim::PacketFilter {
 public:
  explicit DuplicateNthData(int n) : n_(n) {}
  sim::FilterVerdict on_packet(sim::Packet& p, sim::FilterDirection dir,
                               sim::Injector& injector) override {
    if (dir != sim::FilterDirection::kIngress) return sim::FilterVerdict::kForward;
    auto seg = parse_segment(p.bytes);
    if (!seg.has_value() || seg->payload.empty()) return sim::FilterVerdict::kForward;
    if (count_++ == n_) {
      sim::Packet copy = p;
      injector.inject(std::move(copy), sim::FilterDirection::kIngress, Duration::millis(1));
    }
    return sim::FilterVerdict::kForward;
  }

 private:
  int n_;
  int count_ = 0;
};

TEST(TcpIntegration, DsackProfileReportsDuplicateRange) {
  // A duplicated data segment draws a DSACK: the coarse header bit on every
  // SACK profile, plus the duplicate range as leading block on sack-dsack.
  TcpPair pair(sack_dsack_profile(), sack_dsack_profile());
  DuplicateNthData filter(5);
  pair.client_node().set_filter(&filter);
  BulkFixture bulk(pair, 100000);
  pair.run_for(30.0);
  EXPECT_EQ(bulk.received.size(), 100000u);
  EXPECT_GT(bulk.client_ep->stats().dsack_acks_sent, 0u);
  ASSERT_NE(bulk.server_ep, nullptr);
  // The sender recognised the duplicate report (bit or leading block) and
  // did not count those dupacks toward fast retransmit.
  EXPECT_GT(bulk.server_ep->stats().dsack_acks_received, 0u);
  EXPECT_EQ(bulk.server_ep->stats().fast_retransmits, 0u);
}

/// The attacker script that makes a receiver renege. An honest window
/// advertisement (recv_buffer minus buffered bytes) geometrically excludes
/// buffer pressure from MSS-aligned traffic — every in-window aligned
/// segment fits — so the filter combines three SNAKE-style mutations:
///  - lie about the client's advertised window (egress rewrite) so the
///    sender keeps streaming past the real 5000-byte buffer;
///  - drop the Nth data segment AND its fast retransmission, so the hole
///    persists across RTTs (identified by sequence number, not arrival
///    index — retransmissions reuse the seq);
///  - rewrite two later segments' seqs to land just above the hole,
///    misaligned: they start inside the advertised window yet overflow the
///    buffer, which is the only geometry that exerts eviction pressure.
class RenegeForcing : public sim::PacketFilter {
 public:
  sim::FilterVerdict on_packet(sim::Packet& p, sim::FilterDirection dir,
                               sim::Injector&) override {
    if (dir == sim::FilterDirection::kEgress) {
      packet::tcp_codec().set_fast(p.bytes, *packet::tcp_format().compiled("window"), 65535);
      return sim::FilterVerdict::kForward;
    }
    auto seg = parse_segment(p.bytes);
    if (!seg.has_value() || seg->payload.empty()) return sim::FilterVerdict::kForward;
    int index = count_++;
    if (index == 20) {  // late enough that cwnd outgrew the buffer
      hole_seq_ = seg->seq;
      ++hole_drops;
      return sim::FilterVerdict::kConsume;
    }
    if (hole_seq_.has_value() && seg->seq == *hole_seq_ && hole_drops < 2) {
      ++hole_drops;  // the fast retransmission; the RTO copy gets through
      return sim::FilterVerdict::kConsume;
    }
    if (hole_seq_.has_value() && (index == 23 || index == 24)) {
      packet::tcp_codec().set_fast(p.bytes, *packet::tcp_format().compiled("seq"),
                                   *hole_seq_ + 100u * static_cast<std::uint32_t>(index - 22));
      ++rewritten;
    }
    return sim::FilterVerdict::kForward;
  }
  int hole_drops = 0;
  int rewritten = 0;

 private:
  std::optional<std::uint32_t> hole_seq_;
  int count_ = 0;
};

TEST(TcpIntegration, RenegeProfileEvictsSackedDataUnderPressure) {
  // sack-renege vs sack-rfc2018, same attacker script (see RenegeForcing):
  // under buffer pressure the renege profile evicts already-SACKed ranges
  // to admit new data (RFC 2018 permits it) and the sender — which trusted
  // its scoreboard — only recovers the persistent hole through an RTO.
  auto run = [](const TcpProfile& client_profile) {
    TcpPair pair(client_profile, sack_rfc2018_profile());
    RenegeForcing filter;
    pair.client_node().set_filter(&filter);
    pair.server().listen(80, [](TcpEndpoint& ep) {
      TcpCallbacks cb;
      cb.on_established = [&ep] { ep.send(Bytes(60000, 0x42)); };
      cb.on_remote_close = [&ep] { ep.close(); };
      return cb;
    });
    TcpEndpointConfig config;
    config.recv_buffer = 5000;  // three segments, then eviction pressure
    struct Result {
      std::size_t received = 0;
      TcpEndpointStats client, server;
    } r;
    TcpCallbacks cb;
    auto* received = &r.received;
    cb.on_data = [received](std::span<const std::uint8_t> chunk) { *received += chunk.size(); };
    TcpEndpoint& client_ep = pair.client().connect(2, 80, std::move(cb), config);
    pair.run_for(60.0);
    r.client = client_ep.stats();
    for (const auto& ep : pair.server().endpoints()) r.server = ep->stats();
    return r;
  };

  auto reneged = run(sack_renege_profile());
  EXPECT_EQ(reneged.received, 60000u);  // reliability survives the renege
  EXPECT_GT(reneged.client.sack_reneges, 0u);
  EXPECT_GE(reneged.server.timeouts, 1u);  // scoreboard trust cost an RTO

  auto conformant = run(sack_rfc2018_profile());
  EXPECT_EQ(conformant.received, 60000u);
  EXPECT_EQ(conformant.client.sack_reneges, 0u);
}

TEST(TcpIntegration, ForgedSackBlocksAreRejectedByScoreboard) {
  // Blocks beyond snd_max (data the receiver cannot have seen) must not
  // poison the scoreboard — they are forged or stale by definition.
  TcpPair pair(sack_rfc2018_profile(), sack_rfc2018_profile());
  class ForgeSack : public sim::PacketFilter {
   public:
    sim::FilterVerdict on_packet(sim::Packet& p, sim::FilterDirection dir,
                                 sim::Injector&) override {
      if (dir != sim::FilterDirection::kEgress) return sim::FilterVerdict::kForward;
      auto seg = parse_segment(p.bytes);
      if (!seg.has_value() || !seg->has(kTcpAck) || seg->has(kTcpSyn))
        return sim::FilterVerdict::kForward;
      Segment forged = *seg;
      // Far beyond anything in flight.
      forged.sack_blocks = {{forged.ack + 500000, forged.ack + 600000}};
      p.bytes = serialize(forged);
      ++forged_count;
      return sim::FilterVerdict::kForward;
    }
    int forged_count = 0;
  } filter;
  pair.client_node().set_filter(&filter);
  BulkFixture bulk(pair, 50000);
  pair.run_for(20.0);
  EXPECT_EQ(bulk.received.size(), 50000u);
  EXPECT_GT(filter.forged_count, 0);
  ASSERT_NE(bulk.server_ep, nullptr);
  // Every forged block was seen and none survived into the scoreboard.
  EXPECT_GT(bulk.server_ep->stats().sack_blocks_received, 0u);
  EXPECT_EQ(bulk.server_ep->sack_scoreboard_ranges(), 0u);
  EXPECT_EQ(bulk.server_ep->stats().sack_retransmits, 0u);
}

}  // namespace
}  // namespace snake::tcp
