// Per-node TCP "network stack": demuxes incoming segments by 4-tuple,
// accepts connections on listening ports, and answers closed ports with RST.
// Endpoint ownership, the netstat view and snapshots come from the socket
// table it shares with the DCCP stack (sim/socket_table.h).
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "sim/node.h"
#include "sim/socket_table.h"
#include "tcp/endpoint.h"
#include "tcp/profile.h"
#include "util/rng.h"

namespace snake::tcp {

class TcpStack : public sim::SocketTable<TcpEndpoint, 40000> {
 public:
  TcpStack(sim::Node& node, const TcpProfile& profile, snake::Rng rng);

  /// Returns the stack to its just-constructed state for scenario-arena
  /// reuse: drops all endpoints/listeners/connections, restores the
  /// ephemeral port counter, swaps in the trial's profile and forked RNG,
  /// and re-registers the protocol handler (Node::reset cleared it).
  void reset(const TcpProfile& profile, snake::Rng rng);

  /// Active open. Returns the endpoint (owned by the stack; valid for the
  /// stack's lifetime). The connection starts immediately.
  TcpEndpoint& connect(sim::Address remote, std::uint16_t remote_port, TcpCallbacks callbacks);

  /// Active open with explicit endpoint tuning (MSS, receive buffer,
  /// timers). The stack still assigns the connection 4-tuple — the addr and
  /// port members of `config` are overwritten.
  TcpEndpoint& connect(sim::Address remote, std::uint16_t remote_port, TcpCallbacks callbacks,
                       TcpEndpointConfig config);

  /// Passive open: `on_accept` is invoked with each new connection's
  /// endpoint and must return the application callbacks for it.
  using AcceptHandler = std::function<TcpCallbacks(TcpEndpoint&)>;
  void listen(std::uint16_t port, AcceptHandler on_accept);

  const TcpProfile& profile() const { return *profile_; }
  sim::Node& node() { return node_; }

 private:
  void on_packet(const sim::Packet& packet);
  TcpEndpoint& create_endpoint(TcpEndpointConfig config, TcpCallbacks callbacks);

  sim::Node& node_;
  const TcpProfile* profile_;
  std::map<std::uint16_t, AcceptHandler> listeners_;
};

}  // namespace snake::tcp
