// State-machine inference tests: k-tails learning from traces, dot export
// round-trip, and learning a usable machine from an actual simulated TCP
// session.
#include <gtest/gtest.h>

#include "packet/tcp_format.h"
#include "sim/network.h"
#include "statemachine/dot_parser.h"
#include "statemachine/inference.h"
#include "statemachine/protocol_specs.h"
#include "statemachine/tracker.h"
#include "tcp/stack.h"
#include "util/rng.h"

namespace snake::statemachine {
namespace {

TraceEvent snd(const char* type) { return {TriggerKind::kSend, type}; }
TraceEvent rcv(const char* type) { return {TriggerKind::kReceive, type}; }

TEST(Inference, LearnsLinearHandshake) {
  std::vector<EndpointTrace> traces = {
      {snd("SYN"), rcv("SYN+ACK"), snd("ACK")},
      {snd("SYN"), rcv("SYN+ACK"), snd("ACK")},
  };
  InferredAutomaton a = infer_automaton(traces, "Q");
  EXPECT_EQ(a.initial, "Q0");
  // Walks the whole handshake.
  EXPECT_DOUBLE_EQ(explain_score(a, traces[0]), 1.0);
  // Unseen behaviour is not explained.
  EXPECT_LT(explain_score(a, {snd("RST"), snd("RST")}), 0.5);
}

TEST(Inference, MergesRepetitionIntoALoop) {
  // Traces with repeated data/ack exchanges of different lengths: k-tails
  // should fold the repetition into a loop so longer-than-seen sequences
  // are still explained.
  std::vector<EndpointTrace> traces;
  for (int reps : {2, 3, 4, 5}) {
    EndpointTrace t = {snd("SYN"), rcv("SYN+ACK")};
    for (int i = 0; i < reps; ++i) {
      t.push_back(rcv("ACK"));
      t.push_back(snd("ACK"));
    }
    traces.push_back(std::move(t));
  }
  InferredAutomaton a = infer_automaton(traces, "Q");
  // Much smaller than the prefix tree (which would have ~2+2*5 nodes/path).
  EXPECT_LT(a.states.size(), 8u);
  // A longer repetition than any training trace is fully explained.
  EndpointTrace longer = {snd("SYN"), rcv("SYN+ACK")};
  for (int i = 0; i < 50; ++i) {
    longer.push_back(rcv("ACK"));
    longer.push_back(snd("ACK"));
  }
  EXPECT_DOUBLE_EQ(explain_score(a, longer), 1.0);
}

TEST(Inference, DeterminizationMergesConflictingTargets) {
  // Two traces diverge after the same prefix+event: the learner must merge
  // the conflicting successors into one deterministic target.
  std::vector<EndpointTrace> traces = {
      {snd("A"), snd("B"), snd("C")},
      {snd("A"), snd("B"), snd("D")},
  };
  InferredAutomaton a = infer_automaton(traces, "Q", {.k = 1});
  std::map<std::pair<std::string, std::string>, std::set<std::string>> targets;
  for (const Transition& t : a.transitions)
    targets[{t.from, t.trigger.to_string()}].insert(t.to);
  for (const auto& [key, tos] : targets)
    EXPECT_EQ(tos.size(), 1u) << key.first << " " << key.second << " is nondeterministic";
}

TEST(Inference, BuildsUsableTwoRoleMachine) {
  std::vector<EndpointTrace> client = {{snd("SYN"), rcv("SYN+ACK"), snd("ACK")}};
  std::vector<EndpointTrace> server = {{rcv("SYN"), snd("SYN+ACK"), rcv("ACK")}};
  StateMachine m = infer_state_machine("learned", client, server);
  EXPECT_EQ(m.initial_state(Role::kClient), "C0");
  EXPECT_EQ(m.initial_state(Role::kServer), "S0");
  // The tracker can walk it.
  ConnectionTracker tracker(m, 1, 2, TimePoint::origin());
  tracker.observe_packet(1, 2, "SYN", TimePoint::from_ns(1));
  EXPECT_NE(tracker.client().state(), "C0");
  EXPECT_NE(tracker.server().state(), "S0");
}

TEST(Inference, DotExportRoundTrips) {
  const StateMachine& original = tcp_state_machine();
  std::string dot = to_dot(original);
  StateMachine parsed = parse_dot(dot);
  EXPECT_EQ(parsed.states().size(), original.states().size());
  EXPECT_EQ(parsed.transitions().size(), original.transitions().size());
  EXPECT_EQ(parsed.initial_state(Role::kClient), original.initial_state(Role::kClient));
  EXPECT_EQ(parsed.initial_state(Role::kServer), original.initial_state(Role::kServer));
  for (std::size_t i = 0; i < original.transitions().size(); ++i) {
    EXPECT_EQ(parsed.transitions()[i].from, original.transitions()[i].from);
    EXPECT_EQ(parsed.transitions()[i].to, original.transitions()[i].to);
    EXPECT_EQ(parsed.transitions()[i].trigger.kind, original.transitions()[i].trigger.kind);
  }
}

/// Records classified per-endpoint events off the wire — what an operator
/// would capture to learn a proprietary protocol's machine.
class Recorder : public sim::PacketFilter {
 public:
  sim::FilterVerdict on_packet(sim::Packet& p, sim::FilterDirection dir,
                               sim::Injector&) override {
    if (p.protocol != sim::kProtoTcp) return sim::FilterVerdict::kForward;
    const snake::packet::HeaderFormat& format = snake::packet::tcp_format();
    const std::string& type = format.type_name(format.classify_index(p.bytes));
    client_trace.push_back({dir == sim::FilterDirection::kEgress ? TriggerKind::kSend
                                                                 : TriggerKind::kReceive,
                            type});
    server_trace.push_back({dir == sim::FilterDirection::kEgress ? TriggerKind::kReceive
                                                                 : TriggerKind::kSend,
                            type});
    return sim::FilterVerdict::kForward;
  }
  EndpointTrace client_trace;
  EndpointTrace server_trace;
};

TEST(Inference, LearnsTcpFromLiveTraffic) {
  // Capture a few real sessions from the simulator, learn a machine, and
  // check it explains a held-out session better than chance.
  std::vector<EndpointTrace> client_traces, server_traces;
  EndpointTrace holdout;
  for (int session = 0; session < 4; ++session) {
    sim::Network net;
    sim::Node& a = net.add_node(1, "client");
    sim::Node& b = net.add_node(2, "server");
    auto [ab, ba] = net.connect(a, b, sim::LinkConfig{});
    a.set_default_route(ab);
    b.set_default_route(ba);
    Recorder recorder;
    a.set_filter(&recorder);
    tcp::TcpStack client(a, tcp::linux_3_13_profile(), Rng(1 + session));
    tcp::TcpStack server(b, tcp::linux_3_13_profile(), Rng(100 + session));
    server.listen(80, [&](tcp::TcpEndpoint& ep) {
      tcp::TcpCallbacks cb;
      cb.on_established = [&ep, session] { ep.send(Bytes(20000 + 7000 * session, 1)); };
      cb.on_remote_close = [&ep] { ep.close(); };
      return cb;
    });
    tcp::TcpCallbacks cb;
    tcp::TcpEndpoint* conn = &client.connect(2, 80, std::move(cb));
    net.scheduler().run_until(TimePoint::origin() + Duration::seconds(5.0));
    conn->close();
    net.scheduler().run_until(TimePoint::origin() + Duration::seconds(10.0));
    if (session == 3) {
      holdout = recorder.client_trace;
    } else {
      client_traces.push_back(recorder.client_trace);
      server_traces.push_back(recorder.server_trace);
    }
  }
  StateMachine learned = infer_state_machine("tcp-learned", client_traces, server_traces);
  InferredAutomaton client_side = infer_automaton(client_traces, "C");
  double score = explain_score(client_side, holdout);
  EXPECT_GT(score, 0.9) << "learned machine should explain a held-out session";
  // And it is small: the sessions share one lifecycle shape.
  EXPECT_LT(learned.states().size(), 40u);
}

}  // namespace
}  // namespace snake::statemachine
