// SNAKE is protocol-agnostic: "the use of a standardized graph language
// like dot to represent the state machine enables the use of SNAKE on a
// variety of two-party protocols simply by swapping out the state machine
// and packet header descriptions."
//
// This example defines a brand-new toy transport ("PING/PONG with teardown")
// entirely through SNAKE's two user inputs — a header-format DSL string and
// a dot state machine — then drives the state tracker over a scripted packet
// exchange and generates the attack strategies SNAKE would schedule for it.
#include <cstdio>

#include "packet/codec.h"
#include "packet/format_dsl.h"
#include "statemachine/dot_parser.h"
#include "statemachine/tracker.h"
#include "strategy/generator.h"

int main() {
  using namespace snake;

  const char* header_dsl = R"(# toy ping/pong protocol
header pingpong 8 {
  kind     :  8 type;
  hop      :  8;
  token    : 16 sequence;
  checksum : 16 checksum;
  window   : 16 window;
}
type PING  kind mask 0xff value 1;
type PONG  kind mask 0xff value 2;
type BYE   kind mask 0xff value 3;
type BYEOK kind mask 0xff value 4;
)";

  const char* machine_dot = R"(digraph pingpong {
  IDLE    [initial="client"];
  WAIT    [initial="server"];
  IDLE    -> PINGING [label="snd:PING"];
  WAIT    -> TALKING [label="rcv:PING / snd:PONG"];
  PINGING -> TALKING [label="rcv:PONG"];
  TALKING -> DONE    [label="snd:BYE"];
  TALKING -> DONE    [label="rcv:BYE / snd:BYEOK"];
}
)";

  packet::HeaderFormat format = packet::parse_header_format(header_dsl);
  statemachine::StateMachine machine = statemachine::parse_dot(machine_dot);
  packet::Codec codec(format);

  std::printf("== Custom protocol: %s ==\n\n", format.protocol_name().c_str());
  std::printf("fields:");
  for (const auto& f : format.fields())
    std::printf(" %s(%zub,%s)", f.name.c_str(), f.bit_width, to_string(f.kind));
  std::printf("\nstates:");
  for (const auto& st : machine.states()) std::printf(" %s", st.c_str());
  std::printf("\n\n");

  // Drive the tracker over a scripted exchange (client id 1, server id 2).
  statemachine::ConnectionTracker tracker(machine, 1, 2, TimePoint::origin());
  struct Event { std::uint64_t src, dst; const char* type; };
  const Event script[] = {
      {1, 2, "PING"}, {2, 1, "PONG"}, {1, 2, "PING"}, {2, 1, "PONG"}, {1, 2, "BYE"},
  };
  std::int64_t t = 0;
  for (const Event& e : script) {
    tracker.observe_packet(e.src, e.dst, e.type, TimePoint::from_ns(t += 1000000));
    std::printf("  %s %llu->%llu   client=%s server=%s\n", e.type,
                (unsigned long long)e.src, (unsigned long long)e.dst,
                tracker.client().state().c_str(), tracker.server().state().c_str());
  }

  // Build & round-trip a packet through the generated codec.
  Bytes wire = codec.build("PONG", {{"token", 777}, {"window", 42}});
  std::printf("\nforged PONG: %s (classified %s, token=%llu)\n", to_hex(wire).c_str(),
              codec.type_name(codec.classify_index(wire)).c_str(),
              (unsigned long long)codec.get_fast(wire, *codec.format().compiled("token")));

  // Show the strategies SNAKE would generate for what it observed.
  strategy::GeneratorConfig gcfg;
  gcfg.inject_packet_types = {"PING", "BYE"};
  gcfg.sequence_space = 1 << 16;
  gcfg.window_stride = 16;
  strategy::StrategyGenerator gen(format, machine, gcfg);
  auto off = gen.off_path_strategies();
  auto client_side = gen.on_observations(tracker.client().observations(),
                                         tracker.server().observations());
  std::printf("\nstrategies generated: %zu malicious-client + %zu off-path\n",
              client_side.size(), off.size());
  std::printf("first few:\n");
  for (std::size_t i = 0; i < 5 && i < client_side.size(); ++i)
    std::printf("  %s\n", client_side[i].describe().c_str());
  return 0;
}
