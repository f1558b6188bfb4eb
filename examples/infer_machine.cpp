// State-machine inference walkthrough: learn a protocol's state machine
// from captured traffic and hand it to SNAKE.
//
// The paper relies on specification state machines but points to inference
// for proprietary protocols. This example captures a few TCP sessions off
// the simulator, learns an automaton with k-tails merging, prints it as dot
// (ready to feed back into parse_dot / the tracker / the strategy
// generator), and scores how well it explains a held-out session.
#include <cstdio>

#include "packet/tcp_format.h"
#include "sim/network.h"
#include "statemachine/inference.h"
#include "tcp/stack.h"
#include "util/rng.h"

using namespace snake;
using namespace snake::statemachine;

namespace {

class Recorder : public sim::PacketFilter {
 public:
  sim::FilterVerdict on_packet(sim::Packet& p, sim::FilterDirection dir,
                               sim::Injector&) override {
    if (p.protocol != sim::kProtoTcp) return sim::FilterVerdict::kForward;
    const packet::HeaderFormat& format = packet::tcp_format();
    const std::string& type = format.type_name(format.classify_index(p.bytes));
    bool egress = dir == sim::FilterDirection::kEgress;
    client_trace.push_back({egress ? TriggerKind::kSend : TriggerKind::kReceive, type});
    server_trace.push_back({egress ? TriggerKind::kReceive : TriggerKind::kSend, type});
    return sim::FilterVerdict::kForward;
  }
  EndpointTrace client_trace;
  EndpointTrace server_trace;
};

/// Runs one full HTTP-ish session and returns what the capture point saw.
Recorder capture_session(int session) {
  Recorder recorder;
  sim::Network net;
  sim::Node& a = net.add_node(1, "client");
  sim::Node& b = net.add_node(2, "server");
  auto [ab, ba] = net.connect(a, b, sim::LinkConfig{});
  a.set_default_route(ab);
  b.set_default_route(ba);
  a.set_filter(&recorder);
  tcp::TcpStack client(a, tcp::linux_3_13_profile(), Rng(1 + session));
  tcp::TcpStack server(b, tcp::linux_3_13_profile(), Rng(100 + session));
  server.listen(80, [&](tcp::TcpEndpoint& ep) {
    tcp::TcpCallbacks cb;
    cb.on_established = [&ep, session] { ep.send(Bytes(15000 + 9000 * session, 1)); };
    cb.on_remote_close = [&ep] { ep.close(); };
    return cb;
  });
  tcp::TcpEndpoint* conn = &client.connect(2, 80, tcp::TcpCallbacks{});
  net.scheduler().run_until(TimePoint::origin() + Duration::seconds(5.0));
  conn->close();
  net.scheduler().run_until(TimePoint::origin() + Duration::seconds(10.0));
  return recorder;
}

}  // namespace

int main() {
  std::printf("== Learning a state machine from captured traffic ==\n\n");

  std::vector<EndpointTrace> client_traces, server_traces;
  EndpointTrace holdout;
  for (int session = 0; session < 5; ++session) {
    Recorder r = capture_session(session);
    std::printf("session %d: %zu events captured\n", session, r.client_trace.size());
    if (session == 4) {
      holdout = r.client_trace;
    } else {
      client_traces.push_back(std::move(r.client_trace));
      server_traces.push_back(std::move(r.server_trace));
    }
  }

  StateMachine learned =
      infer_state_machine("tcp_learned", client_traces, server_traces, {.k = 2});
  std::printf("\nlearned machine: %zu states, %zu transitions\n", learned.states().size(),
              learned.transitions().size());

  InferredAutomaton client_side = infer_automaton(client_traces, "C", {.k = 2});
  std::printf("held-out session explain score: %.1f%%\n\n",
              explain_score(client_side, holdout) * 100.0);

  std::printf("dot output (feed to parse_dot / the tracker / the generator):\n\n%s",
              to_dot(learned).c_str());
  return 0;
}
