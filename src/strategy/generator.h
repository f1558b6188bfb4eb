// Strategy generation — the paper's state-based search-space reduction.
//
// Malicious-client strategies are generated per (packet type, protocol
// state, direction) triple actually observed by the state tracker ("applying
// malicious actions to all packets of the same type observed in the same
// state instead of applying them to individual packets"), fed back
// incrementally from run statistics exactly as the paper's controller
// "generate[s] them a few at a time in response to feedback about packet
// types and protocol states observed".
//
// Off-path strategies (inject / hitseqwindow) are generated up front for
// every state of the machine ("we also use the protocol state machine to
// ensure that we test all protocol states").
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "packet/header_format.h"
#include "statemachine/state_machine.h"
#include "statemachine/tracker.h"
#include "strategy/strategy.h"

namespace snake::strategy {

struct GeneratorConfig {
  // Packet-delivery attack parameter lists (per paper §IV.C).
  std::vector<double> drop_probabilities = {100.0, 50.0};
  std::vector<int> duplicate_counts = {1, 10};
  std::vector<double> delay_seconds = {0.1, 1.0};
  std::vector<double> batch_seconds = {2.0};
  bool enable_reflect = true;
  bool enable_lie = true;
  /// Field names the lie generator skips. The base TCP universe excludes the
  /// SACK mirror bits so pre-SACK campaigns and baselines stay reproducible;
  /// tcp_sack_generator_config() clears this to put them in play.
  std::vector<std::string> lie_exclude_fields;

  // Off-path attack configuration.
  std::vector<std::string> inject_packet_types;  ///< types to forge
  std::map<std::string, std::uint64_t> inject_structural_fields;  ///< e.g. TCP data_offset=5
  std::string seq_field = "seq";
  std::uint64_t sequence_space = 1ULL << 32;  ///< 2^32 TCP, 2^48 DCCP
  std::uint64_t window_stride = 65535;        ///< receive-window interval
  std::uint64_t hitseq_max_packets = 70000;   ///< sweep cap (DCCP space is unsweepable)
  double hitseq_pace_pps = 20000;
};

/// A sensible TCP configuration matching the protocol's specification.
GeneratorConfig tcp_generator_config();
/// tcp_generator_config() plus forged-SACK injection — the universe for
/// campaigns over SACK-negotiating profiles. Kept separate so existing
/// campaign results and baselines stay reproducible.
GeneratorConfig tcp_sack_generator_config();
/// Ditto for DCCP.
GeneratorConfig dccp_generator_config();
/// Widens the packet-delivery ladders (drop probabilities, duplicate counts,
/// delays, batch windows) to the richer sweep the greybox search exists for.
void enlarge_delivery_ladders(GeneratorConfig& config);

class StrategyGenerator {
 public:
  StrategyGenerator(const packet::HeaderFormat& format,
                    const statemachine::StateMachine& machine, GeneratorConfig config);

  /// All off-path strategies (whole state machine). Call once up front.
  std::vector<Strategy> off_path_strategies();

  /// Malicious-client strategies for newly observed (state, packet type)
  /// send-events. `client_obs`/`server_obs` come from the tracker after each
  /// run; already-covered observations generate nothing.
  std::vector<Strategy> on_observations(
      const std::vector<statemachine::EndpointTracker::Observation>& client_obs,
      const std::vector<statemachine::EndpointTracker::Observation>& server_obs);

  std::uint64_t total_generated() const { return next_id_; }

 private:
  std::vector<Strategy> strategies_for(const std::string& state, const std::string& type,
                                       TrafficDirection direction);
  Strategy base(AttackAction action, const std::string& state, const std::string& type,
                TrafficDirection direction);

  const packet::HeaderFormat* format_;
  const statemachine::StateMachine* machine_;
  GeneratorConfig config_;
  std::uint64_t next_id_ = 0;
  std::set<std::tuple<std::string, std::string, TrafficDirection>> covered_;
};

}  // namespace snake::strategy
