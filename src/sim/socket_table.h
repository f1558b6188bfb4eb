// The socket table both transport stacks share: the endpoints a stack owns,
// the demux map from 4-tuple to endpoint, the ephemeral-port counter, and
// the netstat view SNAKE's resource-exhaustion detector queries ("the
// executor ... queries the OS to determine the number of connections
// maintained by the server, for example by using the netstat command").
//
// `Endpoint` is tcp::TcpEndpoint or dccp::DccpEndpoint: it must expose
// released(), state() (an enum with a kTimeWait member, named by an
// ADL-visible to_string), a value-type State with capture()/restore(), and
// snapshot_zombify().
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/packet.h"
#include "util/rng.h"

namespace snake::sim {

template <typename Endpoint, std::uint16_t kEphemeralPortBase>
class SocketTable {
 public:
  struct ConnKey {
    Address remote_addr;
    std::uint16_t remote_port;
    std::uint16_t local_port;
    auto operator<=>(const ConnKey&) const = default;
  };

  /// The table's own mutable state. Connections name endpoints by index into
  /// endpoints(), so the state copies by value.
  struct State {
    explicit State(snake::Rng table_rng) : rng(table_rng) {}

    snake::Rng rng;
    std::uint16_t next_ephemeral_port = kEphemeralPortBase;
    std::map<ConnKey, std::uint32_t> connections;
  };

  /// Frozen table for the snapshot layer: its State plus the State of the
  /// first endpoints().size() endpoints. Listeners are wired once per session
  /// and not captured.
  struct Snapshot {
    State table;
    std::vector<typename Endpoint::State> endpoints;
  };

  explicit SocketTable(snake::Rng rng) : state_(rng) {}

  /// netstat: sockets currently held (excluding listeners). TIME_WAIT
  /// sockets count only when `include_time_wait` is set — the detector
  /// ignores them since they are part of normal teardown.
  std::size_t open_sockets(bool include_time_wait = false) const {
    std::size_t count = 0;
    for (const auto& ep : endpoints_) {
      if (ep->released()) continue;
      if (!include_time_wait && ep->state() == decltype(ep->state())::kTimeWait) continue;
      ++count;
    }
    return count;
  }

  /// Socket counts per state name, for reports.
  std::map<std::string, int> socket_states() const {
    std::map<std::string, int> out;
    for (const auto& ep : endpoints_)
      if (!ep->released()) ++out[to_string(ep->state())];
    return out;
  }

  const std::vector<std::unique_ptr<Endpoint>>& endpoints() const { return endpoints_; }

  Snapshot capture() const {
    Snapshot snap{state_, {}};
    snap.endpoints.reserve(endpoints_.size());
    for (const auto& ep : endpoints_) snap.endpoints.push_back(ep->capture());
    return snap;
  }

  /// Destroys endpoints beyond `keep` (objects created after every snapshot
  /// of interest, during a previous forked run). Must be called BEFORE
  /// Scheduler::restore so their destructors cancel timers against the
  /// scheduler state those handles actually refer to.
  void truncate_endpoints(std::size_t keep) {
    if (endpoints_.size() > keep) endpoints_.resize(keep);
  }

  /// Restores a capture() onto the session graph. Endpoints beyond the
  /// snapshot's count are zombified in place (see
  /// TcpEndpoint::snapshot_zombify) — later snapshots may still reference
  /// them, so they cannot be destroyed. Call AFTER Scheduler::restore.
  void restore(const Snapshot& snap) {
    for (std::size_t i = 0; i < endpoints_.size(); ++i) {
      if (i < snap.endpoints.size())
        endpoints_[i]->restore(snap.endpoints[i]);
      else
        endpoints_[i]->snapshot_zombify();
    }
    state_ = snap.table;
  }

 protected:
  /// Drops every endpoint and connection and starts a fresh State on `rng`
  /// (scenario-arena reuse). Endpoint destructors may cancel timers; after
  /// Scheduler::reset those handles are stale, which generation counters
  /// make a safe no-op.
  void reset_table(snake::Rng rng) {
    endpoints_.clear();
    state_ = State(rng);
  }

  std::uint16_t allocate_ephemeral_port() { return state_.next_ephemeral_port++; }
  snake::Rng fork_rng() { return state_.rng.fork(); }

  /// The live (not released) endpoint for `key`, or nullptr.
  Endpoint* find_live(const ConnKey& key) const {
    auto it = state_.connections.find(key);
    if (it == state_.connections.end()) return nullptr;
    Endpoint* ep = endpoints_[it->second].get();
    return ep->released() ? nullptr : ep;
  }

  /// Takes ownership of `ep` and routes `key` to it.
  Endpoint& add(const ConnKey& key, std::unique_ptr<Endpoint> ep) {
    state_.connections[key] = static_cast<std::uint32_t>(endpoints_.size());
    endpoints_.push_back(std::move(ep));
    return *endpoints_.back();
  }

 private:
  State state_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
};

}  // namespace snake::sim
