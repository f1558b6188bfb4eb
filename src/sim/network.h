// Container that owns the scheduler, nodes, links and trace of one scenario.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/link.h"
#include "sim/node.h"
#include "sim/scheduler.h"
#include "sim/trace.h"

namespace snake::sim {

class Network {
 public:
  Network() = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Scheduler& scheduler() { return scheduler_; }
  Trace& trace() { return trace_; }

  Node& add_node(Address address, std::string name);

  /// Connects two nodes with a duplex link (one Link per direction, both
  /// using `config`). Returns {a_to_b, b_to_a}.
  std::pair<Link*, Link*> connect(Node& a, Node& b, LinkConfig config);

  /// Enables packet capture on every node created so far.
  void enable_trace();

  /// Rewinds every component (scheduler, nodes, links, trace) to its
  /// just-constructed state while keeping the topology and warm pools —
  /// the scenario-arena reuse hook.
  void reset();

  /// Mutable network state for the snapshot layer: the scheduler, every
  /// link's State and every node's packet-id counter. Topology, handlers,
  /// filters and trace wiring are session-stable and not captured.
  struct Snapshot {
    Scheduler::Snapshot scheduler;
    std::vector<Link::State> links;
    std::vector<std::uint64_t> node_packet_ids;
  };

  /// False when the scheduler cannot be checkpointed (see Scheduler::capture).
  bool capture(Snapshot& out) const;
  void restore(const Snapshot& snap);

  const std::vector<std::unique_ptr<Node>>& nodes() const { return nodes_; }
  const std::vector<std::unique_ptr<Link>>& links() const { return links_; }

 private:
  Scheduler scheduler_;
  Trace trace_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
};

}  // namespace snake::sim
