// Trace-replay applications over TCP: the client opens one connection per
// flow of a trace::ReplayPlan at the flow's recorded open time, both sides
// push their recorded byte bursts at the recorded instants, and the client
// closes flows that have a close record. This swaps the paper's synthetic
// bulk-download workload for traffic shaped like a recorded deployment
// while keeping trials bit-reproducible: every action is driven off the
// deterministic scheduler, so the same (plan, seed, strategy) replays
// identically on every backend.
//
// Pairing: the server matches its k-th accepted connection with the k-th
// flow of the plan (plan order == client open order). Honest runs pair
// exactly; an attack that drops or reorders handshakes can shift the
// pairing, which is fine — the perturbed workload is still deterministic
// for that strategy, and a real server would not know flow identities
// either. Spurious connections beyond the plan (e.g. forged SYNs) are
// accepted with an empty schedule.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "apps/shared_states.h"
#include "tcp/stack.h"
#include "trace/trace.h"
#include "util/time.h"

namespace snake::apps {

/// Server half: accepts on `port`, plays each paired flow's `recv` bursts
/// (server -> client bytes) at their recorded times, closes when the client
/// does.
class TraceReplayServer {
 public:
  TraceReplayServer(tcp::TcpStack& stack, std::uint16_t port,
                    std::shared_ptr<const trace::ReplayPlan> plan);

  std::uint64_t connections_accepted() const { return conns_.size(); }

  struct PerConnection {
    /// Schedule paired at accept; nullptr for spurious connections beyond
    /// the plan. Points into the shared plan, which outlives every snapshot.
    const trace::FlowSchedule* flow = nullptr;
  };

  /// The server's whole mutable state is its per-connection registry.
  using Snapshot = SharedStates<PerConnection>::Snapshot;
  Snapshot capture() const { return conns_.capture(); }
  void restore(const Snapshot& snap) { conns_.restore(snap); }

 private:
  void play_flow(tcp::TcpEndpoint* endpoint, std::shared_ptr<PerConnection> state);

  tcp::TcpStack& stack_;
  std::shared_ptr<const trace::ReplayPlan> plan_;
  TimePoint epoch_;  ///< trace t=0 in scheduler time (construction instant)
  SharedStates<PerConnection> conns_;  ///< in accept order
  Bytes burst_scratch_;  ///< every burst is built here (not state: refilled per burst)
};

/// TraceReplayClient's own mutable state; its per-flow state lives in
/// shared objects (see SharedStates).
struct TraceReplayClientState {
  bool exited_ = false;
};

/// Client half: opens the plan's flows at their recorded times, plays each
/// flow's `send` bursts, closes at the recorded close instant, and counts
/// server bytes received across all flows (the campaign detector's
/// target-performance signal). If `exit_after` is set, the client process
/// "dies" at that instant: every live connection app_exit()s and no further
/// flows open — the trace-workload analogue of wget being killed
/// mid-download, preserving reachability of teardown-phase attacks.
class TraceReplayClient : private TraceReplayClientState {
 public:
  TraceReplayClient(tcp::TcpStack& stack, sim::Address server, std::uint16_t port,
                    std::shared_ptr<const trace::ReplayPlan> plan,
                    std::optional<Duration> exit_after = std::nullopt);

  /// Total server->client payload bytes delivered across all flows.
  std::uint64_t bytes_received() const;
  /// True once any flow completed its handshake / was reset.
  bool established() const { return flows_established() > 0; }
  bool reset() const { return flows_reset() > 0; }
  /// How many flows opened / completed their handshake / were reset.
  std::uint64_t flows_opened() const;
  std::uint64_t flows_established() const;
  std::uint64_t flows_reset() const;

  struct PerFlow {
    bool opened = false;
    bool established = false;
    bool reset = false;
    bool closed = false;  ///< scheduled close fired
    std::uint64_t bytes_received = 0;
    tcp::TcpEndpoint* endpoint = nullptr;
  };

  using State = TraceReplayClientState;
  struct Snapshot {
    State self;
    SharedStates<PerFlow>::Snapshot flows;
  };
  Snapshot capture() const { return Snapshot{*this, flows_.capture()}; }
  void restore(const Snapshot& snap) {
    State::operator=(snap.self);
    flows_.restore(snap.flows);
  }

 private:
  void open_flow(std::size_t index);

  tcp::TcpStack& stack_;
  sim::Address server_;
  std::uint16_t port_;
  std::shared_ptr<const trace::ReplayPlan> plan_;
  TimePoint epoch_;
  /// One entry per plan flow, created at construction (fixed registry).
  SharedStates<PerFlow> flows_;
  Bytes burst_scratch_;  ///< every burst is built here (not state: refilled per burst)
};

}  // namespace snake::apps
