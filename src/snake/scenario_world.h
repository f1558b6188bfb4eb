// Internal: the live object graph of one scenario run — rig, proxy, apps —
// extracted from scenario.cpp so the snapshot layer (snake/snapshot.h) can
// keep a world alive across forked trials. run_scenario builds a world, runs
// the scheduler to the horizon, and finishes it; a snapshot session builds a
// world once, checkpoints it at attack injection states, and re-finishes it
// once per forked trial.
//
// Not installed API: include only from src/snake and tests.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "apps/bulk_http.h"
#include "apps/iperf_dccp.h"
#include "apps/trace_replay.h"
#include "proxy/attack_proxy.h"
#include "snake/arena.h"
#include "snake/scenario.h"

namespace snake::core::detail {

/// Arms the trial watchdog and plants any scenario-level fault points before
/// the run starts.
void arm_run_guards(const ScenarioConfig& config, sim::Scheduler& scheduler);

/// Drives an initialized (or snapshot-restored) world's scheduler to `end`:
/// plain run_until, or — when config.early_exit — the quiescence cut via
/// run_until_quiescent (see ScenarioConfig::early_exit). Counts genuine cuts
/// under "scenario.early_exit_runs". Shared by run_scenario's drivers and
/// the snapshot layer's forked trials so both take the identical cut.
void drive_to_end(sim::Scheduler& scheduler, const ScenarioConfig& config, TimePoint end);

/// The TCP scenario graph. Members are declared in the exact construction
/// order of the former run_tcp locals so teardown order is preserved.
struct TcpWorld {
  ScenarioArena::TcpRig rig{};
  std::optional<proxy::AttackProxy> proxy;
  // Target-connection apps: exactly one pair is engaged per init, selected
  // by config.workload — bulk download (http1/wget1) or trace replay
  // (trace_server/trace_client). The competing connection (http2/wget2)
  // always runs bulk.
  std::optional<apps::BulkHttpServer> http1, http2;
  std::optional<apps::BulkHttpClient> wget1, wget2;
  std::shared_ptr<const trace::ReplayPlan> trace_plan;
  std::optional<apps::TraceReplayServer> trace_server;
  std::optional<apps::TraceReplayClient> trace_client;
  TimePoint end;

  /// Builds (or rebuilds, resetting the arena) the full graph for `config`
  /// and arms the run guards; the caller then drives the scheduler. Must not
  /// be called again once any snapshot of this world exists — snapshots hold
  /// cloned closures referencing the current graph objects.
  ///
  /// `after_proxy`, when set, runs right after the proxy is attached and
  /// armed, *before* the applications are constructed. App construction
  /// already moves packets through the proxy (the client's connect sends its
  /// SYN synchronously), so this is the only point where the snapshot
  /// layer's discovery hooks can see those time-zero state entries.
  void init(ScenarioArena& arena, const ScenarioConfig& config,
            const std::vector<strategy::Strategy>& attacks,
            const std::function<void(proxy::AttackProxy&)>& after_proxy = {});

  /// Harvests RunMetrics exactly as run_tcp did. Safe to call once per
  /// (from-zero or forked) run; tracker finalization is undone by the next
  /// restore().
  RunMetrics finish(const ScenarioConfig& config, bool attacked);

  /// Composite checkpoint of every piece of mutable world state. Move-only
  /// (the scheduler snapshot owns cloned callbacks).
  struct Snapshot {
    sim::Network::Snapshot net;
    tcp::TcpStack::Snapshot client1, client2, server1, server2;
    proxy::AttackProxy::State proxy;
    apps::BulkHttpServer::Snapshot http2;
    apps::BulkHttpClient::State wget2;
    // The target pair engaged by config.workload; the other stays empty.
    apps::BulkHttpServer::Snapshot http1{};
    apps::BulkHttpClient::State wget1{};
    apps::TraceReplayServer::Snapshot trace_server{};
    apps::TraceReplayClient::Snapshot trace_client{};
  };

  /// Captures the world between two scheduler events. nullopt when the
  /// scheduler state cannot be checkpointed (watchdog tripped, non-clonable
  /// armed callback).
  std::optional<Snapshot> capture() const;

  /// Freezes the canonical endpoint counts. Call once, immediately after the
  /// last capture of the session: endpoints that exist at that point may be
  /// referenced by any snapshot and are never destroyed, only zombified;
  /// endpoints created later (during forked runs) are truncated on restore.
  void freeze();

  /// Rewinds the graph to `snap`. Ordering inside: truncate forked-run
  /// endpoints (their destructors cancel timers against the dying run's
  /// scheduler state) -> network (scheduler, links, nodes) -> stacks, proxy,
  /// apps.
  /// Leaves the proxy unarmed; install strategies afterwards.
  void restore(const Snapshot& snap);

 private:
  std::vector<std::size_t> canonical_endpoints_;
};

/// The DCCP scenario graph; mirrors TcpWorld.
struct DccpWorld {
  ScenarioArena::DccpRig rig{};
  std::optional<proxy::AttackProxy> proxy;
  std::optional<apps::DccpIperfSink> sink1, sink2;
  std::optional<apps::DccpIperfSource> src1, src2;
  TimePoint end;

  void init(ScenarioArena& arena, const ScenarioConfig& config,
            const std::vector<strategy::Strategy>& attacks,
            const std::function<void(proxy::AttackProxy&)>& after_proxy = {});
  RunMetrics finish(const ScenarioConfig& config, bool attacked);

  struct Snapshot {
    sim::Network::Snapshot net;
    dccp::DccpStack::Snapshot client1, client2, server1, server2;
    proxy::AttackProxy::State proxy;
    apps::DccpIperfSink::State sink1, sink2;
    apps::DccpIperfSource::State src1, src2;
  };
  std::optional<Snapshot> capture() const;
  void freeze();
  void restore(const Snapshot& snap);

 private:
  std::vector<std::size_t> canonical_endpoints_;
};

}  // namespace snake::core::detail
