// One SNAKE test scenario: the dumbbell topology of Figure 3 with a target
// connection (client1 -> server1, proxied) and a competing connection
// (client2 -> server2), run for a fixed span of virtual time under at most
// one attack strategy.
//
// This is the in-process equivalent of the paper's executor payload: four
// VM instances of the implementation under test, NS-3 gluing them into a
// dumbbell, the attack proxy on client1's access path, and the performance /
// netstat measurements collected at the end.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/dumbbell.h"
#include "statemachine/tracker.h"
#include "strategy/strategy.h"
#include "proxy/attack_proxy.h"
#include "tcp/profile.h"
#include "trace/trace.h"
#include "util/time.h"

namespace snake::obs {
class JsonWriter;
class MetricsRegistry;
}

namespace snake::core {

class FaultPlan;
class RunInspector;

enum class Protocol { kTcp, kDccp };

const char* to_string(Protocol protocol);

/// Application workload driving the target (proxied) connection. kBulk is
/// the paper's synthetic large download; kTrace replays a recorded
/// per-flow schedule (src/trace) against the same attack machinery. The
/// competing connection always runs the bulk workload so the detector's
/// fairness baseline stays comparable across workloads.
enum class Workload { kBulk, kTrace };

const char* to_string(Workload workload);

struct ScenarioConfig {
  Protocol protocol = Protocol::kTcp;

  /// TCP implementation under test (all four hosts run it, as in the paper).
  /// Ignored for DCCP, which models the Linux 3.13 implementation.
  tcp::TcpProfile tcp_profile = tcp::linux_3_13_profile();

  sim::DumbbellConfig topology;
  Duration test_duration = Duration::seconds(30.0);

  // TCP workload: large HTTP download on both connections; the proxied
  // client's application exits abruptly partway through (wget terminated
  // mid-download), which is what makes teardown-phase attacks reachable.
  std::uint64_t download_bytes = 1ULL << 30;  ///< effectively unbounded
  double client1_exit_fraction = 0.6;         ///< of test_duration

  // Trace-replay workload (TCP only; used when workload == kTrace). The
  // trace is parsed once, when the text is assigned, and every copy of the
  // config shares that parse; a world build only selects and scales its
  // ReplayPlan from it (the seed picks the flows, so each seed has its own
  // plan). The text is what the campaign identity hash folds in and what
  // the dist wire ships, so every worker rebuilds the identical plan.
  Workload workload = Workload::kBulk;
  trace::TraceText trace_text;      ///< snake-trace/v1 file contents
  std::size_t trace_max_flows = 8;  ///< deterministic down-sample cap (0 = all)
  double trace_time_scale = 1.0;    ///< timestamp multiplier

  // DCCP workload: iperf-like CBR stream client->server, closing after
  // data_fraction of the test so the teardown phase is exercised.
  double dccp_offer_rate_pps = 2000;
  std::size_t dccp_payload_bytes = 1000;
  double dccp_data_fraction = 0.6;
  std::size_t dccp_tx_queue_packets = 50;
  int dccp_ccid = 2;  ///< 2 = TCP-like (paper), 3 = TFRC (extension)

  std::uint64_t seed = 1;

  /// Observability sink (optional, not owned). When set, the run records
  /// wall-clock timing plus scheduler / bottleneck-link / proxy / tracker
  /// counters into it. Instrumentation never feeds back into simulation
  /// behaviour: identical seeds produce identical RunMetrics with or
  /// without a registry attached.
  obs::MetricsRegistry* metrics = nullptr;

  // --- Trial watchdog (resilience layer) -----------------------------------
  /// Abort the run after this many scheduler events (0 = unlimited). A
  /// pathological strategy that floods the event queue is cut off and the
  /// run reported with RunMetrics::aborted instead of hanging its executor.
  std::uint64_t event_budget = 0;
  /// Wall-clock deadline for this one run, in seconds (0 = none). Catches
  /// runs whose virtual clock stops advancing while callbacks burn real time.
  double wall_limit_seconds = 0.0;

  /// Deterministic early-exit: stop the run at the quiescence cut — once no
  /// pending event that could change the detector's inputs remains before
  /// the horizon — instead of simulating to the fixed end time. Virtual time
  /// still advances to the horizon. Everything a campaign decides on (bytes
  /// delivered, verdicts, classifications, signatures, observations) is
  /// identical either way — enforced by tests; the only divergence is
  /// invisible bookkeeping (TIME_WAIT sockets whose lazy release timer never
  /// fires still show as TIME_WAIT in server1_socket_states, which nothing
  /// reads for detection). Off by default so direct run_scenario callers
  /// keep exact historical behaviour; campaigns always switch it on (see
  /// CampaignConfig::early_exit). The cut point is a pure function of the
  /// event history, so forked and from-zero runs agree on it.
  bool early_exit = false;

  /// Fault-injection plan (tests/benches only; not owned, nullptr in
  /// production — the only cost then is this null check). Scenario-level
  /// rules (event storm, clock stall, throw-in-trial) are keyed by
  /// `fault_key`/`fault_attempt`, which the campaign controller sets to the
  /// strategy id and retry attempt.
  const FaultPlan* faults = nullptr;
  std::uint64_t fault_key = 0;
  std::uint32_t fault_attempt = 0;

  /// Post-run inspection hook (tests/benches only; not owned). When set, the
  /// run enables packet capture on every node and calls the inspector after
  /// the simulation finishes, while the network, proxy and trace are still
  /// alive — this is how the property suite's invariant oracles see inside a
  /// trial. Tracing costs memory and time, so production campaigns leave it
  /// null; like `metrics`, the hook never feeds back into simulation
  /// behaviour.
  RunInspector* inspector = nullptr;
};

/// Everything the executor reports back to the controller after one run.
struct RunMetrics {
  // Performance: application bytes delivered on each connection.
  std::uint64_t target_bytes = 0;
  std::uint64_t competing_bytes = 0;

  bool target_established = false;
  bool competing_established = false;
  bool target_reset = false;
  bool competing_reset = false;

  /// netstat at the servers after the run (TIME_WAIT excluded): sockets not
  /// released normally.
  std::size_t server1_stuck_sockets = 0;
  std::size_t server2_stuck_sockets = 0;
  std::map<std::string, int> server1_socket_states;

  /// State-tracking feedback for the controller's incremental strategy
  /// generation.
  std::vector<statemachine::EndpointTracker::Observation> client_observations;
  std::vector<statemachine::EndpointTracker::Observation> server_observations;
  std::map<std::string, statemachine::StateStats> client_state_stats;
  std::map<std::string, statemachine::StateStats> server_state_stats;

  proxy::ProxyStats proxy;

  /// Watchdog verdict: true when the run was cut off by its event budget or
  /// wall-clock deadline instead of reaching the virtual-time horizon. The
  /// other fields then describe the truncated run and must not be compared
  /// against a full-length baseline.
  bool aborted = false;
  std::string abort_reason;  ///< "event-budget" or "wall-clock" when aborted
};

/// Writes the full RunMetrics as one JSON object (run_metrics_json.cpp):
/// durations as integer nanoseconds, observations in order. The rendering
/// is canonical — equal metrics give equal bytes — which is what the
/// distributed backend's cross-process determinism check compares: workers
/// ship their baselines' rendering, the coordinator compares it with its
/// own (src/dist).
void write_json(obs::JsonWriter& w, const RunMetrics& m);

/// Observer given read access to a finished run's live objects (network with
/// its packet trace, attack proxy with its trackers) plus the metrics about
/// to be returned. Implementations must not mutate the simulation; when one
/// inspector is shared across campaign executors it must be thread-safe.
class RunInspector {
 public:
  virtual ~RunInspector() = default;
  virtual void on_run_complete(sim::Dumbbell& net, proxy::AttackProxy& attack_proxy,
                               const RunMetrics& metrics) = 0;
};

class ScenarioArena;

/// Runs one scenario to completion and returns its metrics. Runs are
/// independent every time (the paper's executors restore VM snapshots for
/// the same reason); these convenience overloads build a throwaway
/// ScenarioArena per call.
RunMetrics run_scenario(const ScenarioConfig& config,
                        const std::optional<strategy::Strategy>& attack);

/// Combined-strategy variant: all strategies in `attacks` are active at
/// once (see AttackProxy::set_strategies for composition semantics).
RunMetrics run_scenario(const ScenarioConfig& config,
                        const std::vector<strategy::Strategy>& attacks);

/// Arena variants: the network and stacks are borrowed from `arena` and
/// reset in place rather than rebuilt — the hot path for campaign workers,
/// which run thousands of trials against one topology. Bit-identical to the
/// arena-less overloads for the same config (see arena.h).
RunMetrics run_scenario(ScenarioArena& arena, const ScenarioConfig& config,
                        const std::optional<strategy::Strategy>& attack);
RunMetrics run_scenario(ScenarioArena& arena, const ScenarioConfig& config,
                        const std::vector<strategy::Strategy>& attacks);

}  // namespace snake::core
