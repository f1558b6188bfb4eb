#include "dccp/stack.h"

#include "util/logging.h"

namespace snake::dccp {

DccpStack::DccpStack(sim::Node& node, snake::Rng rng) : SocketTable(rng), node_(node) {
  node_.register_protocol(sim::kProtoDccp,
                          [this](const sim::Packet& packet) { on_packet(packet); });
}

void DccpStack::reset(snake::Rng rng) {
  reset_table(rng);
  listeners_.clear();
  node_.register_protocol(sim::kProtoDccp,
                          [this](const sim::Packet& packet) { on_packet(packet); });
}

DccpEndpoint& DccpStack::connect(sim::Address remote, std::uint16_t remote_port,
                                 DccpCallbacks callbacks, DccpEndpointConfig base) {
  base.remote_addr = remote;
  base.remote_port = remote_port;
  base.local_port = allocate_ephemeral_port();
  DccpEndpoint& ep =
      add(ConnKey{base.remote_addr, base.remote_port, base.local_port},
          std::make_unique<DccpEndpoint>(node_, base, std::move(callbacks), fork_rng()));
  ep.connect();
  return ep;
}

void DccpStack::listen(std::uint16_t port, AcceptHandler on_accept, DccpEndpointConfig base) {
  listeners_[port] = Listener{std::move(on_accept), base};
}

void DccpStack::on_packet(const sim::Packet& packet) {
  std::optional<DccpPacket> p = parse_dccp(packet.bytes);
  if (!p.has_value()) {
    SNAKE_TRACE << node_.name() << " dccp rx malformed packet, dropped";
    return;
  }
  if (DccpEndpoint* ep = find_live(ConnKey{packet.src, p->src_port, p->dst_port})) {
    ep->on_packet(*p);
    return;
  }

  if (p->type == packet::kDccpRequest) {
    auto listener = listeners_.find(p->dst_port);
    if (listener != listeners_.end()) {
      DccpEndpointConfig config = listener->second.base;
      config.remote_addr = packet.src;
      config.remote_port = p->src_port;
      config.local_port = p->dst_port;
      DccpEndpoint& ep =
          add(ConnKey{config.remote_addr, config.remote_port, config.local_port},
              std::make_unique<DccpEndpoint>(node_, config, DccpCallbacks{}, fork_rng()));
      ep.set_callbacks(listener->second.on_accept(ep));
      ep.accept(*p);
      return;
    }
  }

  // No connection, no listener: answer non-Reset with Reset.
  if (p->type != packet::kDccpReset) {
    DccpPacket reset;
    reset.src_port = p->dst_port;
    reset.dst_port = p->src_port;
    reset.type = packet::kDccpReset;
    reset.seq = p->has_ack ? seq_add(p->ack, 1) : 0;
    reset.ack = p->seq;
    reset.has_ack = true;
    sim::Packet reply;
    reply.dst = packet.src;
    reply.protocol = sim::kProtoDccp;
    reply.bytes = node_.scheduler().buffer_pool().acquire();
    serialize_into(reset, reply.bytes);
    node_.send_packet(std::move(reply));
  }
}

}  // namespace snake::dccp
