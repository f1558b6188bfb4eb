// Invariant oracles checked against finished scenario runs.
//
// The paper's detector asks "did performance degrade?"; these oracles ask the
// stricter internal question "did the engine itself stay lawful?" — and they
// are checkable on *every* trial, attack or baseline, because they only rely
// on properties an honest endpoint preserves no matter what the proxy does
// to its packets in flight:
//
//  - clock monotonicity: trace records are written in scheduler-event order,
//    so their timestamps must never run backwards;
//  - TCP sequence-space sanity: kSend trace entries are recorded in
//    Node::send_packet *before* the attack proxy's filter runs, so per-flow
//    cumulative ACKs must be non-decreasing and data sends contiguous in
//    circular 2^32 arithmetic even while the proxy drops, delays, or lies;
//  - tracker legality: every state the ConnectionTracker reports must be a
//    state of the supplied RFC machine;
//  - pool balance: the scheduler's recycled event slots and wire-buffer pool
//    must account for every acquire (released <= acquired, free <= slots,
//    and full balance once the event queue has drained);
//  - congestion bounds: cwnd/ssthresh of a CongestionControl must respect
//    its profile's floors and clamps (unit-level, driven by op sequences).
//
// ScenarioOracles bundles the per-run checks behind the core::RunInspector
// hook so a property test — or `bench_table1 --selfcheck` — can attach one
// object and collect violations across thousands of trials.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "snake/scenario.h"
#include "statemachine/state_machine.h"
#include "tcp/congestion.h"

namespace snake::sim {
class Trace;
class Scheduler;
}  // namespace snake::sim

namespace snake::testing {

/// Accumulates invariant violations; empty means the run was lawful.
struct OracleReport {
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  void add(std::string violation) { violations.push_back(std::move(violation)); }
  /// All violations joined with newlines ("" when ok).
  std::string summary() const;
};

/// Non-kInject trace timestamps never decrease. (Delayed proxy injections
/// are recorded at their future delivery time, so they are exempt.)
void check_clock_monotonic(const sim::Trace& trace, OracleReport& report);

/// Per-flow TCP invariants over endpoint-emitted (kSend) packets: cumulative
/// ACK monotonicity and contiguous data sends, both in circular sequence
/// arithmetic. RST segments are exempt (their sequence semantics differ).
void check_tcp_sequence_space(const sim::Trace& trace, OracleReport& report);

/// SACK-block legality over endpoint-emitted (kSend) TCP packets carrying
/// SACK options: every block is non-empty and no wider than the maximum
/// receive window; blocks other than a leading DSACK block sit strictly
/// above the cumulative ACK; a DSACK duplicate report (RFC 2883) sits at or
/// below it and may only appear first.
void check_tcp_sack_legality(const sim::Trace& trace, OracleReport& report);

/// Every state named in the run's tracker output exists in `machine`.
void check_tracker_legality(const statemachine::StateMachine& machine,
                            const core::RunMetrics& metrics, OracleReport& report);

/// Buffer-pool and event-slot accounting is consistent at end of run.
/// `foreign_buffers` is the number of byte buffers that legitimately entered
/// the system outside the pool (proxy-injected/duplicated/reflected packets
/// are built from fresh allocations, and the pool adopts them at release) —
/// releases may exceed acquisitions by at most that many.
void check_pool_balance(sim::Scheduler& scheduler, OracleReport& report,
                        std::uint64_t foreign_buffers = 0);

/// cwnd/ssthresh bounds for one congestion controller. `in_recovery`
/// inflation is tolerated; outside recovery cwnd must sit in
/// [mss, profile.max_cwnd] and ssthresh at or above the 2*mss floor (given a
/// profile whose initial_ssthresh respects it).
void check_congestion_bounds(const tcp::CongestionControl& cc, const tcp::TcpProfile& profile,
                             std::size_t mss, OracleReport& report);

/// RunInspector that applies every per-run oracle to each completed trial.
/// Thread-safe: one instance may be shared by all campaign executors.
class ScenarioOracles : public core::RunInspector {
 public:
  /// `machine` is the protocol state machine trials are tracked against;
  /// `check_tcp` enables the TCP sequence-space oracle (off for DCCP runs).
  ScenarioOracles(const statemachine::StateMachine& machine, bool check_tcp);

  void on_run_complete(sim::Dumbbell& net, proxy::AttackProxy& attack_proxy,
                       const core::RunMetrics& metrics) override;

  /// Violations collected so far (copy: the live report may grow concurrently).
  OracleReport report() const;
  std::uint64_t runs_checked() const;

 private:
  const statemachine::StateMachine& machine_;
  bool check_tcp_;
  mutable std::mutex mutex_;
  OracleReport report_;
  std::uint64_t runs_checked_ = 0;
};

}  // namespace snake::testing
