// Per-node DCCP stack: demux and passive open over the socket table it
// shares with the TCP stack (sim/socket_table.h).
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "dccp/endpoint.h"
#include "sim/node.h"
#include "sim/socket_table.h"
#include "util/rng.h"

namespace snake::dccp {

class DccpStack : public sim::SocketTable<DccpEndpoint, 41000> {
 public:
  DccpStack(sim::Node& node, snake::Rng rng);

  /// Returns the stack to its just-constructed state for scenario-arena
  /// reuse (mirrors TcpStack::reset).
  void reset(snake::Rng rng);

  DccpEndpoint& connect(sim::Address remote, std::uint16_t remote_port,
                        DccpCallbacks callbacks, DccpEndpointConfig base = {});

  using AcceptHandler = std::function<DccpCallbacks(DccpEndpoint&)>;
  void listen(std::uint16_t port, AcceptHandler on_accept, DccpEndpointConfig base = {});

  sim::Node& node() { return node_; }

 private:
  struct Listener {
    AcceptHandler on_accept;
    DccpEndpointConfig base;
  };

  void on_packet(const sim::Packet& packet);

  sim::Node& node_;
  std::map<std::uint16_t, Listener> listeners_;
};

}  // namespace snake::dccp
