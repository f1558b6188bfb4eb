#include "snake/scenario_world.h"

#include <type_traits>

#include "obs/metrics.h"
#include "packet/dccp_format.h"
#include "packet/tcp_format.h"
#include "snake/faultpoint.h"
#include "statemachine/protocol_specs.h"

namespace snake::core::detail {

namespace {

constexpr std::uint16_t kHttpPort = 80;
constexpr std::uint16_t kIperfPort = 5001;

proxy::ProxyTargets make_targets(Protocol protocol) {
  using A = sim::DumbbellAddresses;
  proxy::ProxyTargets t;
  t.client_addr = A::kClient1;
  t.server_addr = A::kServer1;
  t.competing_client_addr = A::kClient2;
  t.competing_server_addr = A::kServer2;
  if (protocol == Protocol::kTcp) {
    t.protocol = sim::kProtoTcp;
    t.server_port = kHttpPort;
    t.competing_server_port = kHttpPort;
    t.competing_client_port_guess = 40000;  // our stacks allocate from 40000
  } else {
    t.protocol = sim::kProtoDccp;
    t.server_port = kIperfPort;
    t.competing_server_port = kIperfPort;
    t.competing_client_port_guess = 41000;
  }
  return t;
}

RunMetrics finish_metrics(proxy::AttackProxy& attack_proxy, TimePoint end) {
  RunMetrics m;
  m.client_observations = attack_proxy.tracker().client().observations();
  m.server_observations = attack_proxy.tracker().server().observations();
  m.client_state_stats = attack_proxy.tracker().client().finalize(end);
  m.server_state_stats = attack_proxy.tracker().server().finalize(end);
  m.proxy = attack_proxy.stats();
  return m;
}

/// Harvests the watchdog verdict after the run returned.
void finish_watchdog(RunMetrics& m, sim::Scheduler& scheduler, const ScenarioConfig& config) {
  sim::WatchdogTrip trip = scheduler.watchdog_trip();
  if (trip == sim::WatchdogTrip::kNone) return;
  m.aborted = true;
  m.abort_reason = sim::to_string(trip);
  if (config.metrics != nullptr) {
    ++config.metrics->counter("scenario.aborted_runs");
    ++config.metrics->counter(std::string("scenario.aborted_runs.") + m.abort_reason);
  }
}

/// Dumps the run's substrate counters into the configured registry (no-op
/// without one). Runs after the simulation finishes so the hot path carries
/// zero instrumentation cost. Endpoint work counters are summed over every
/// socket of the rig's four stacks and added once, as
/// "<endpoint_prefix><field>"; a zombified endpoint holds fresh stats, so a
/// forked run counts exactly what its from-zero replay does.
template <typename Rig>
void export_run_observability(const ScenarioConfig& config, const Rig& rig,
                              const std::string& endpoint_prefix,
                              proxy::AttackProxy& attack_proxy, bool attacked) {
  if (config.metrics == nullptr) return;
  obs::MetricsRegistry& reg = *config.metrics;
  sim::Dumbbell& net = *rig.net;
  ++reg.counter(attacked ? "scenario.attack_runs" : "scenario.baseline_runs");
  net.scheduler().export_metrics(reg);
  if (net.bottleneck_left_to_right() != nullptr)
    net.bottleneck_left_to_right()->export_metrics(reg);
  if (net.bottleneck_right_to_left() != nullptr)
    net.bottleneck_right_to_left()->export_metrics(reg);
  attack_proxy.export_metrics(reg);

  using Stats = std::remove_cvref_t<decltype(rig.client1->endpoints().front()->stats())>;
  Stats total;
  for (const auto* stack : {rig.client1, rig.client2, rig.server1, rig.server2})
    for (const auto& ep : stack->endpoints())
      Stats::for_each_field([&](const char*, auto field) { total.*field += ep->stats().*field; });
  Stats::for_each_field(
      [&](const char* name, auto field) { reg.counter(endpoint_prefix + name) += total.*field; });
}

}  // namespace

void arm_run_guards(const ScenarioConfig& config, sim::Scheduler& scheduler) {
  sim::WatchdogConfig watchdog;
  watchdog.max_events = config.event_budget;
  watchdog.wall_seconds = config.wall_limit_seconds;
  scheduler.arm_watchdog(watchdog);
  if (config.faults == nullptr) return;
  // Plant faults a moment into the run so connection setup has begun and the
  // degradation exercises a mid-trial state, not an empty scheduler.
  const Duration after = Duration::seconds(0.5);
  if (config.faults->should_fire(FaultKind::kEventStorm, config.fault_key,
                                 config.fault_attempt))
    arm_event_storm(scheduler, after);
  if (config.faults->should_fire(FaultKind::kClockStall, config.fault_key,
                                 config.fault_attempt))
    arm_clock_stall(scheduler, after);
  if (config.faults->should_fire(FaultKind::kThrowInTrial, config.fault_key,
                                 config.fault_attempt))
    arm_throw_in_trial(scheduler, after);
}

void drive_to_end(sim::Scheduler& scheduler, const ScenarioConfig& config, TimePoint end) {
  if (!config.early_exit) {
    scheduler.run_until(end);
    return;
  }
  scheduler.set_quiescence_horizon(end);
  bool cut = scheduler.run_until_quiescent(end);
  if (cut && config.metrics != nullptr)
    config.metrics->counter("scenario.early_exit_runs") += 1;
}

// ------------------------------------------------------------------ TcpWorld

void TcpWorld::init(ScenarioArena& arena, const ScenarioConfig& config,
                    const std::vector<strategy::Strategy>& attacks,
                    const std::function<void(proxy::AttackProxy&)>& after_proxy) {
  snake::Rng rng(config.seed);
  rig = arena.acquire_tcp(config.topology, config.tcp_profile, rng);
  sim::Dumbbell& net = *rig.net;

  proxy.emplace(net.client1(), packet::tcp_codec(), statemachine::tcp_state_machine(),
                make_targets(Protocol::kTcp), rng.fork());
  net.client1().set_filter(&*proxy);
  if (!attacks.empty()) proxy->set_strategies(attacks);
  if (config.inspector != nullptr) net.network().enable_trace();
  if (after_proxy) after_proxy(*proxy);

  // Construction order (target server, competing server, target client,
  // competing client) is part of the deterministic event sequence: the
  // clients push their first packets synchronously at build time.
  const bool trace_workload = config.workload == Workload::kTrace;
  Duration exit_after =
      Duration::seconds(config.test_duration.to_seconds() * config.client1_exit_fraction);
  http1.reset();
  wget1.reset();
  trace_server.reset();
  trace_client.reset();
  trace_plan.reset();
  if (trace_workload) {
    // Select this seed's plan from the config's shared parse — a pure
    // function, so every worker (and every snapshot-forked replay) drives
    // the same schedule. A malformed trace degrades to an empty plan:
    // deterministic zero-flow runs rather than a mid-build throw (campaigns
    // reject it before their baselines).
    trace::ReplayOptions opts;
    opts.max_flows = config.trace_max_flows;
    opts.seed = config.seed;
    opts.time_scale = config.trace_time_scale;
    auto plan = std::make_shared<trace::ReplayPlan>();
    if (const trace::ParsedTrace* parsed = config.trace_text.parsed())
      *plan = trace::build_replay_plan(*parsed, opts);
    trace_plan = std::move(plan);
    trace_server.emplace(*rig.server1, kHttpPort, trace_plan);
  } else {
    http1.emplace(*rig.server1, kHttpPort, config.download_bytes);
  }
  http2.emplace(*rig.server2, kHttpPort, config.download_bytes);
  if (trace_workload) {
    trace_client.emplace(*rig.client1, sim::DumbbellAddresses::kServer1, kHttpPort, trace_plan,
                         exit_after);
  } else {
    wget1.emplace(*rig.client1, sim::DumbbellAddresses::kServer1, kHttpPort, exit_after);
  }
  wget2.emplace(*rig.client2, sim::DumbbellAddresses::kServer2, kHttpPort);

  end = net.scheduler().now() + config.test_duration;
  arm_run_guards(config, net.scheduler());
}

RunMetrics TcpWorld::finish(const ScenarioConfig& config, bool attacked) {
  sim::Dumbbell& net = *rig.net;
  RunMetrics m = finish_metrics(*proxy, end);
  finish_watchdog(m, net.scheduler(), config);
  if (trace_client.has_value()) {
    m.target_bytes = trace_client->bytes_received();
    m.target_established = trace_client->established();
    m.target_reset = trace_client->reset();
    if (config.metrics != nullptr) {
      // Per run, so a partial replay (flows never opened, or cut off by an
      // attack) shows against the flows the plan scheduled.
      obs::MetricsRegistry& reg = *config.metrics;
      reg.counter("trace.flows_planned") += trace_plan->flows.size();
      reg.counter("trace.flows_opened") += trace_client->flows_opened();
      reg.counter("trace.flows_established") += trace_client->flows_established();
      reg.counter("trace.flows_reset") += trace_client->flows_reset();
    }
  } else {
    m.target_bytes = wget1->bytes_received();
    m.target_established = wget1->established();
    m.target_reset = wget1->reset();
  }
  m.competing_bytes = wget2->bytes_received();
  m.competing_established = wget2->established();
  m.competing_reset = wget2->reset();
  m.server1_stuck_sockets = rig.server1->open_sockets();
  m.server2_stuck_sockets = rig.server2->open_sockets();
  m.server1_socket_states = rig.server1->socket_states();
  export_run_observability(config, rig, "tcp.endpoint.", *proxy, attacked);
  if (config.inspector != nullptr) config.inspector->on_run_complete(net, *proxy, m);
  return m;
}

std::optional<TcpWorld::Snapshot> TcpWorld::capture() const {
  sim::Network::Snapshot net;
  if (!rig.net->network().capture(net)) return std::nullopt;
  Snapshot snap{.net = std::move(net),
                .client1 = rig.client1->capture(),
                .client2 = rig.client2->capture(),
                .server1 = rig.server1->capture(),
                .server2 = rig.server2->capture(),
                .proxy = proxy->capture(),
                .http2 = http2->capture(),
                .wget2 = wget2->capture()};
  if (trace_server.has_value()) {
    snap.trace_server = trace_server->capture();
    snap.trace_client = trace_client->capture();
  } else {
    snap.http1 = http1->capture();
    snap.wget1 = wget1->capture();
  }
  return snap;
}

void TcpWorld::freeze() {
  canonical_endpoints_ = {rig.client1->endpoints().size(), rig.client2->endpoints().size(),
                          rig.server1->endpoints().size(), rig.server2->endpoints().size()};
}

void TcpWorld::restore(const Snapshot& snap) {
  // 1. Destroy endpoints created after the session's last capture (by a
  //    previous forked run): their destructors cancel timers, which must
  //    happen against the scheduler state those handles refer to.
  tcp::TcpStack* stacks[4] = {rig.client1, rig.client2, rig.server1, rig.server2};
  for (std::size_t i = 0; i < 4; ++i) stacks[i]->truncate_endpoints(canonical_endpoints_[i]);
  // 2. The network: scheduler (slot table, heap, clock, counters), links,
  //    node packet ids.
  rig.net->network().restore(snap.net);
  // 3. Everything above the network.
  rig.client1->restore(snap.client1);
  rig.client2->restore(snap.client2);
  rig.server1->restore(snap.server1);
  rig.server2->restore(snap.server2);
  proxy->restore(snap.proxy);
  if (trace_server.has_value()) {
    trace_server->restore(snap.trace_server);
    trace_client->restore(snap.trace_client);
  } else {
    http1->restore(snap.http1);
    wget1->restore(snap.wget1);
  }
  http2->restore(snap.http2);
  wget2->restore(snap.wget2);
}

// ----------------------------------------------------------------- DccpWorld

void DccpWorld::init(ScenarioArena& arena, const ScenarioConfig& config,
                     const std::vector<strategy::Strategy>& attacks,
                     const std::function<void(proxy::AttackProxy&)>& after_proxy) {
  snake::Rng rng(config.seed);
  rig = arena.acquire_dccp(config.topology, rng);
  sim::Dumbbell& net = *rig.net;

  proxy.emplace(net.client1(), packet::dccp_codec(), statemachine::dccp_state_machine(),
                make_targets(Protocol::kDccp), rng.fork());
  net.client1().set_filter(&*proxy);
  if (!attacks.empty()) proxy->set_strategies(attacks);
  if (config.inspector != nullptr) net.network().enable_trace();
  if (after_proxy) after_proxy(*proxy);

  dccp::DccpEndpointConfig accept_config;
  accept_config.ccid = config.dccp_ccid;
  sink1.emplace(*rig.server1, kIperfPort, accept_config);
  sink2.emplace(*rig.server2, kIperfPort, accept_config);
  apps::DccpIperfSource::Options opts;
  opts.offer_rate_pps = config.dccp_offer_rate_pps;
  opts.payload_bytes = config.dccp_payload_bytes;
  opts.duration =
      Duration::seconds(config.test_duration.to_seconds() * config.dccp_data_fraction);
  opts.tx_queue_packets = config.dccp_tx_queue_packets;
  opts.ccid = config.dccp_ccid;
  src1.emplace(*rig.client1, sim::DumbbellAddresses::kServer1, kIperfPort, opts);
  src2.emplace(*rig.client2, sim::DumbbellAddresses::kServer2, kIperfPort, opts);

  end = net.scheduler().now() + config.test_duration;
  arm_run_guards(config, net.scheduler());
}

RunMetrics DccpWorld::finish(const ScenarioConfig& config, bool attacked) {
  sim::Dumbbell& net = *rig.net;
  RunMetrics m = finish_metrics(*proxy, end);
  finish_watchdog(m, net.scheduler(), config);
  // "Since DCCP is not a reliable protocol, we measured performance based on
  // server goodput, or actual data received."
  m.target_bytes = sink1->goodput_bytes();
  m.competing_bytes = sink2->goodput_bytes();
  m.target_established = src1->established();
  m.competing_established = src2->established();
  m.target_reset = src1->reset();
  m.competing_reset = src2->reset();
  m.server1_stuck_sockets = rig.server1->open_sockets();
  m.server2_stuck_sockets = rig.server2->open_sockets();
  m.server1_socket_states = rig.server1->socket_states();
  export_run_observability(config, rig, "dccp.endpoint.", *proxy, attacked);
  if (config.inspector != nullptr) config.inspector->on_run_complete(net, *proxy, m);
  return m;
}

std::optional<DccpWorld::Snapshot> DccpWorld::capture() const {
  sim::Network::Snapshot net;
  if (!rig.net->network().capture(net)) return std::nullopt;
  return Snapshot{std::move(net),         rig.client1->capture(), rig.client2->capture(),
                  rig.server1->capture(), rig.server2->capture(), proxy->capture(),
                  sink1->capture(),       sink2->capture(),       src1->capture(),
                  src2->capture()};
}

void DccpWorld::freeze() {
  canonical_endpoints_ = {rig.client1->endpoints().size(), rig.client2->endpoints().size(),
                          rig.server1->endpoints().size(), rig.server2->endpoints().size()};
}

void DccpWorld::restore(const Snapshot& snap) {
  dccp::DccpStack* stacks[4] = {rig.client1, rig.client2, rig.server1, rig.server2};
  for (std::size_t i = 0; i < 4; ++i) stacks[i]->truncate_endpoints(canonical_endpoints_[i]);
  rig.net->network().restore(snap.net);
  rig.client1->restore(snap.client1);
  rig.client2->restore(snap.client2);
  rig.server1->restore(snap.server1);
  rig.server2->restore(snap.server2);
  proxy->restore(snap.proxy);
  sink1->restore(snap.sink1);
  sink2->restore(snap.sink2);
  src1->restore(snap.src1);
  src2->restore(snap.src2);
}

}  // namespace snake::core::detail
