#include "sim/network.h"

#include <utility>

namespace snake::sim {

Node& Network::add_node(Address address, std::string name) {
  nodes_.push_back(std::make_unique<Node>(scheduler_, address, std::move(name)));
  return *nodes_.back();
}

std::pair<Link*, Link*> Network::connect(Node& a, Node& b, LinkConfig config) {
  LinkConfig ab = config;
  ab.name = a.name() + "->" + b.name();
  LinkConfig ba = config;
  ba.name = b.name() + "->" + a.name();
  links_.push_back(std::make_unique<Link>(
      scheduler_, std::move(ab), [&b](Packet p) { b.receive_from_wire(std::move(p)); }));
  Link* a_to_b = links_.back().get();
  links_.push_back(std::make_unique<Link>(
      scheduler_, std::move(ba), [&a](Packet p) { a.receive_from_wire(std::move(p)); }));
  Link* b_to_a = links_.back().get();
  return {a_to_b, b_to_a};
}

void Network::enable_trace() {
  for (auto& node : nodes_) node->set_trace(&trace_);
}

void Network::reset() {
  // Links first so queued packets recycle their buffers into the pool the
  // scheduler keeps across the reset.
  for (auto& link : links_) link->reset();
  for (auto& node : nodes_) node->reset();
  scheduler_.reset();
  trace_.clear();
}

bool Network::capture(Snapshot& out) const {
  if (!scheduler_.capture(out.scheduler)) return false;
  out.links.clear();
  for (const auto& link : links_) out.links.push_back(link->capture());
  out.node_packet_ids.clear();
  for (const auto& node : nodes_) out.node_packet_ids.push_back(node->next_packet_id());
  return true;
}

void Network::restore(const Snapshot& snap) {
  scheduler_.restore(snap.scheduler);
  for (std::size_t i = 0; i < snap.links.size(); ++i) links_[i]->restore(snap.links[i]);
  for (std::size_t i = 0; i < snap.node_packet_ids.size(); ++i)
    nodes_[i]->set_next_packet_id(snap.node_packet_ids[i]);
}

}  // namespace snake::sim
