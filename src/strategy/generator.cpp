#include "strategy/generator.h"

#include <algorithm>

namespace snake::strategy {

GeneratorConfig tcp_generator_config() {
  GeneratorConfig c;
  c.inject_packet_types = {"SYN", "SYN+ACK", "ACK", "RST", "RST+ACK", "FIN+ACK"};
  c.inject_structural_fields = {{"data_offset", 5}};
  c.seq_field = "seq";
  c.sequence_space = 1ULL << 32;
  c.window_stride = 65535;  // the default receive window: Watson's insight
  // The SACK mirror bits joined the header format later; keep them out of
  // the base lie universe so historic campaigns replay unchanged.
  c.lie_exclude_fields = {"dsack_flag", "sack_flag"};
  return c;
}

GeneratorConfig tcp_sack_generator_config() {
  GeneratorConfig c = tcp_generator_config();
  // Forged SACK injections: the codec sets sack_flag from the packet type,
  // so these parse as SACK-carrying ACKs on arrival. data_offset 5 keeps
  // them option-free — the segment parser treats an empty option area as a
  // blockless SACK header, the cheapest possible forgery.
  c.inject_packet_types.push_back("SACK");
  // SACK campaigns also lie about the mirror bits themselves (e.g. flipping
  // dsack_flag on in-flight ACKs), so the exclusion list empties.
  c.lie_exclude_fields.clear();
  return c;
}

GeneratorConfig dccp_generator_config() {
  GeneratorConfig c;
  c.inject_packet_types = {"DCCP-Request", "DCCP-Data", "DCCP-Ack", "DCCP-Reset",
                           "DCCP-Sync",    "DCCP-Close"};
  // Forged DCCP packets need the structural bits of a real header: a data
  // offset of 6 words and X=1 (48-bit sequence numbers).
  c.inject_structural_fields = {{"data_offset", 6}, {"x", 1}};
  c.seq_field = "seq";
  c.sequence_space = 1ULL << 48;
  c.window_stride = 100;  // DCCP sequence window W
  // 2^48 / 100 is not sweepable; SNAKE still tries capped sweeps (these are
  // the strategies behind the paper's DCCP false positives).
  c.hitseq_max_packets = 70000;
  return c;
}

void enlarge_delivery_ladders(GeneratorConfig& config) {
  config.drop_probabilities = {100.0, 75.0, 50.0, 25.0, 12.5};
  config.duplicate_counts = {1, 2, 5, 10, 32};
  config.delay_seconds = {0.05, 0.1, 0.5, 1.0, 3.0};
  config.batch_seconds = {0.5, 2.0, 4.0};
}

StrategyGenerator::StrategyGenerator(const packet::HeaderFormat& format,
                                     const statemachine::StateMachine& machine,
                                     GeneratorConfig config)
    : format_(&format), machine_(&machine), config_(std::move(config)) {}

Strategy StrategyGenerator::base(AttackAction action, const std::string& state,
                                 const std::string& type, TrafficDirection direction) {
  Strategy s;
  s.id = next_id_++;
  s.action = action;
  s.target_state = state;
  s.packet_type = type;
  s.direction = direction;
  return s;
}

std::vector<Strategy> StrategyGenerator::strategies_for(const std::string& state,
                                                        const std::string& type,
                                                        TrafficDirection direction) {
  std::vector<Strategy> out;
  for (double p : config_.drop_probabilities) {
    Strategy s = base(AttackAction::kDrop, state, type, direction);
    s.drop_probability = p;
    out.push_back(std::move(s));
  }
  for (int n : config_.duplicate_counts) {
    Strategy s = base(AttackAction::kDuplicate, state, type, direction);
    s.duplicate_count = n;
    out.push_back(std::move(s));
  }
  for (double d : config_.delay_seconds) {
    Strategy s = base(AttackAction::kDelay, state, type, direction);
    s.delay_seconds = d;
    out.push_back(std::move(s));
  }
  for (double b : config_.batch_seconds) {
    Strategy s = base(AttackAction::kBatch, state, type, direction);
    s.delay_seconds = b;
    out.push_back(std::move(s));
  }
  if (config_.enable_reflect)
    out.push_back(base(AttackAction::kReflect, state, type, direction));

  if (config_.enable_lie) {
    for (const packet::FieldSpec& field : format_->fields()) {
      if (field.kind == packet::FieldKind::kChecksum) continue;  // auto-refreshed anyway
      if (std::find(config_.lie_exclude_fields.begin(), config_.lie_exclude_fields.end(),
                    field.name) != config_.lie_exclude_fields.end())
        continue;
      auto add_lie = [&](LieSpec::Mode mode, std::uint64_t operand) {
        Strategy s = base(AttackAction::kLie, state, type, direction);
        s.lie = LieSpec{field.name, mode, operand};
        out.push_back(std::move(s));
      };
      // "setting values like 0, the maximum value a field can handle, and
      // the minimum value", random values, and arithmetic modifications.
      add_lie(LieSpec::Mode::kSet, 0);
      add_lie(LieSpec::Mode::kSet, field.max_value());
      add_lie(LieSpec::Mode::kRandom, 0);
      add_lie(LieSpec::Mode::kAdd, 1);
      add_lie(LieSpec::Mode::kSubtract, 1);
      add_lie(LieSpec::Mode::kMultiply, 2);
      add_lie(LieSpec::Mode::kDivide, 2);
    }
  }
  return out;
}

std::vector<Strategy> StrategyGenerator::on_observations(
    const std::vector<statemachine::EndpointTracker::Observation>& client_obs,
    const std::vector<statemachine::EndpointTracker::Observation>& server_obs) {
  std::vector<Strategy> out;
  auto consume = [&](const statemachine::EndpointTracker::Observation& obs,
                     TrafficDirection direction) {
    // Only send-events define (sender state, type) targets; the receiving
    // side of the same packet is covered from the other endpoint's list.
    if (obs.direction != statemachine::TriggerKind::kSend) return;
    auto key = std::make_tuple(obs.state, obs.packet_type, direction);
    if (covered_.contains(key)) return;
    covered_.insert(key);
    std::vector<Strategy> batch = strategies_for(obs.state, obs.packet_type, direction);
    out.insert(out.end(), std::make_move_iterator(batch.begin()),
               std::make_move_iterator(batch.end()));
  };
  for (const auto& obs : client_obs) consume(obs, TrafficDirection::kClientToServer);
  for (const auto& obs : server_obs) consume(obs, TrafficDirection::kServerToClient);
  return out;
}

std::vector<Strategy> StrategyGenerator::off_path_strategies() {
  std::vector<Strategy> out;
  const std::uint64_t max_seq = config_.sequence_space - 1;
  for (const std::string& state : machine_->states()) {
    for (const std::string& type : config_.inject_packet_types) {
      for (bool toward_client : {true, false}) {
        for (bool competing : {true, false}) {
          // Single-shot injections with the generic interesting values.
          for (std::uint64_t seq : {std::uint64_t{0}, max_seq / 2, max_seq}) {
            Strategy s = base(AttackAction::kInject, state, type,
                              toward_client ? TrafficDirection::kServerToClient
                                            : TrafficDirection::kClientToServer);
            InjectSpec spec;
            spec.packet_type = type;
            spec.fields = config_.inject_structural_fields;
            spec.fields[config_.seq_field] = seq;
            spec.spoof_toward_client = toward_client;
            spec.target_competing = competing;
            s.inject = std::move(spec);
            out.push_back(std::move(s));
          }
          // Window-stride sweep across the sequence space.
          Strategy s = base(AttackAction::kHitSeqWindow, state, type,
                            toward_client ? TrafficDirection::kServerToClient
                                          : TrafficDirection::kClientToServer);
          InjectSpec spec;
          spec.packet_type = type;
          spec.fields = config_.inject_structural_fields;
          spec.spoof_toward_client = toward_client;
          spec.target_competing = competing;
          spec.seq_field = config_.seq_field;
          spec.seq_start = 0;
          spec.seq_stride = config_.window_stride;
          spec.count = std::min<std::uint64_t>(
              config_.sequence_space / std::max<std::uint64_t>(config_.window_stride, 1) + 1,
              config_.hitseq_max_packets);
          spec.pace_pps = config_.hitseq_pace_pps;
          s.inject = std::move(spec);
          out.push_back(std::move(s));
        }
      }
    }
  }
  return out;
}

}  // namespace snake::strategy
