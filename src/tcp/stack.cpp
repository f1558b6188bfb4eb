#include "tcp/stack.h"

#include "packet/tcp_format.h"
#include "util/logging.h"

namespace snake::tcp {

TcpStack::TcpStack(sim::Node& node, const TcpProfile& profile, snake::Rng rng)
    : SocketTable(rng), node_(node), profile_(&profile) {
  node_.register_protocol(sim::kProtoTcp,
                          [this](const sim::Packet& packet) { on_packet(packet); });
}

void TcpStack::reset(const TcpProfile& profile, snake::Rng rng) {
  reset_table(rng);
  listeners_.clear();
  profile_ = &profile;
  node_.register_protocol(sim::kProtoTcp,
                          [this](const sim::Packet& packet) { on_packet(packet); });
}

TcpEndpoint& TcpStack::connect(sim::Address remote, std::uint16_t remote_port,
                               TcpCallbacks callbacks) {
  return connect(remote, remote_port, std::move(callbacks), TcpEndpointConfig{});
}

TcpEndpoint& TcpStack::connect(sim::Address remote, std::uint16_t remote_port,
                               TcpCallbacks callbacks, TcpEndpointConfig config) {
  config.remote_addr = remote;
  config.remote_port = remote_port;
  config.local_port = allocate_ephemeral_port();
  TcpEndpoint& ep = create_endpoint(config, std::move(callbacks));
  ep.connect();
  return ep;
}

void TcpStack::listen(std::uint16_t port, AcceptHandler on_accept) {
  listeners_[port] = std::move(on_accept);
}

TcpEndpoint& TcpStack::create_endpoint(TcpEndpointConfig config, TcpCallbacks callbacks) {
  return add(ConnKey{config.remote_addr, config.remote_port, config.local_port},
             std::make_unique<TcpEndpoint>(node_, *profile_, config, std::move(callbacks),
                                           fork_rng(), /*on_released=*/nullptr));
}

void TcpStack::on_packet(const sim::Packet& packet) {
  std::optional<Segment> seg = parse_segment(packet.bytes);
  if (!seg.has_value()) {
    SNAKE_TRACE << node_.name() << " tcp rx malformed segment, dropped";
    return;
  }
  if (TcpEndpoint* ep = find_live(ConnKey{packet.src, seg->src_port, seg->dst_port})) {
    ep->on_segment(*seg);
    return;
  }

  // No live connection. A SYN to a listening port spawns a new endpoint.
  if (seg->has(packet::kTcpSyn) && !seg->has(packet::kTcpAck) && !seg->has(packet::kTcpRst)) {
    auto listener = listeners_.find(seg->dst_port);
    if (listener != listeners_.end()) {
      TcpEndpointConfig config;
      config.remote_addr = packet.src;
      config.remote_port = seg->src_port;
      config.local_port = seg->dst_port;
      TcpEndpoint& ep = create_endpoint(config, TcpCallbacks{});
      // The accept handler wires the application's callbacks before the
      // handshake reply goes out, so on_established can fire normally.
      ep.set_callbacks(listener->second(ep));
      ep.accept(seg->seq, seg->sack_permitted);
      return;
    }
  }

  // Closed port: answer non-RST with RST (RFC 793).
  if (!seg->has(packet::kTcpRst)) {
    Segment rst;
    rst.src_port = seg->dst_port;
    rst.dst_port = seg->src_port;
    if (seg->has(packet::kTcpAck)) {
      rst.flags = packet::kTcpRst;
      rst.seq = seg->ack;
    } else {
      rst.flags = packet::kTcpRst | packet::kTcpAck;
      rst.seq = 0;
      rst.ack = seg->seq + seg->seq_len();
    }
    sim::Packet reply;
    reply.dst = packet.src;
    reply.protocol = sim::kProtoTcp;
    reply.bytes = node_.scheduler().buffer_pool().acquire();
    serialize_into(rst, reply.bytes);
    node_.send_packet(std::move(reply));
  }
}

}  // namespace snake::tcp
