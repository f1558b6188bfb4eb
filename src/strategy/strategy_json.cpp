// JSON wire encoding for Strategy (see strategy.h). Kept out of
// strategy.cpp so the data model itself stays free of the obs dependency in
// readers' heads; the library still links snake_obs for this TU.
#include <string>

#include "obs/json.h"
#include "strategy/strategy.h"

namespace snake::strategy {

namespace {

std::optional<AttackAction> action_from_string(const std::string& s) {
  if (s == "drop") return AttackAction::kDrop;
  if (s == "duplicate") return AttackAction::kDuplicate;
  if (s == "delay") return AttackAction::kDelay;
  if (s == "batch") return AttackAction::kBatch;
  if (s == "reflect") return AttackAction::kReflect;
  if (s == "lie") return AttackAction::kLie;
  if (s == "inject") return AttackAction::kInject;
  if (s == "hitseqwindow") return AttackAction::kHitSeqWindow;
  return std::nullopt;
}

std::optional<TrafficDirection> direction_from_string(const std::string& s) {
  if (s == "client->server") return TrafficDirection::kClientToServer;
  if (s == "server->client") return TrafficDirection::kServerToClient;
  return std::nullopt;
}

std::optional<MatchMode> match_mode_from_string(const std::string& s) {
  if (s == "state-based") return MatchMode::kStateBased;
  if (s == "send-packet-based") return MatchMode::kPacketIndex;
  if (s == "time-interval-based") return MatchMode::kTimeWindow;
  return std::nullopt;
}

const char* to_string(LieSpec::Mode mode) {
  switch (mode) {
    case LieSpec::Mode::kSet: return "set";
    case LieSpec::Mode::kRandom: return "random";
    case LieSpec::Mode::kAdd: return "add";
    case LieSpec::Mode::kSubtract: return "subtract";
    case LieSpec::Mode::kMultiply: return "multiply";
    case LieSpec::Mode::kDivide: return "divide";
  }
  return "?";
}

std::optional<LieSpec::Mode> lie_mode_from_string(const std::string& s) {
  if (s == "set") return LieSpec::Mode::kSet;
  if (s == "random") return LieSpec::Mode::kRandom;
  if (s == "add") return LieSpec::Mode::kAdd;
  if (s == "subtract") return LieSpec::Mode::kSubtract;
  if (s == "multiply") return LieSpec::Mode::kMultiply;
  if (s == "divide") return LieSpec::Mode::kDivide;
  return std::nullopt;
}

}  // namespace

void write_json(obs::JsonWriter& w, const Strategy& s) {
  w.begin_object();
  w.key("id").value(s.id);
  w.key("action").value(to_string(s.action));
  w.key("match_mode").value(to_string(s.match_mode));
  w.key("packet_type").value(s.packet_type);
  w.key("target_state").value(s.target_state);
  w.key("direction").value(to_string(s.direction));
  w.key("packet_index").value(s.packet_index);
  w.key("window_start_seconds").value(s.window_start_seconds);
  w.key("window_length_seconds").value(s.window_length_seconds);
  w.key("drop_probability").value(s.drop_probability);
  w.key("duplicate_count").value(s.duplicate_count);
  w.key("delay_seconds").value(s.delay_seconds);
  if (s.lie.has_value()) {
    w.key("lie").begin_object();
    w.key("field").value(s.lie->field);
    w.key("mode").value(to_string(s.lie->mode));
    w.key("operand").value(s.lie->operand);
    w.end_object();
  }
  if (s.inject.has_value()) {
    const InjectSpec& in = *s.inject;
    w.key("inject").begin_object();
    w.key("packet_type").value(in.packet_type);
    w.key("fields").begin_object();
    for (const auto& [name, value] : in.fields) w.key(name).value(value);
    w.end_object();
    w.key("spoof_toward_client").value(in.spoof_toward_client);
    w.key("target_competing").value(in.target_competing);
    w.key("seq_field").value(in.seq_field);
    w.key("seq_start").value(in.seq_start);
    w.key("seq_stride").value(in.seq_stride);
    w.key("count").value(in.count);
    w.key("pace_pps").value(in.pace_pps);
    w.end_object();
  }
  w.end_object();
}

std::optional<Strategy> strategy_from_json(const obs::JsonValue& v) {
  if (!v.is_object()) return std::nullopt;
  Strategy s;
  s.id = u64_field(v, "id", 0);
  auto action = action_from_string(str_field(v, "action"));
  auto mode = match_mode_from_string(str_field(v, "match_mode"));
  auto direction = direction_from_string(str_field(v, "direction"));
  if (!action || !mode || !direction) return std::nullopt;
  s.action = *action;
  s.match_mode = *mode;
  s.direction = *direction;
  s.packet_type = str_field(v, "packet_type");
  s.target_state = str_field(v, "target_state");
  s.packet_index = u64_field(v, "packet_index", 0);
  s.window_start_seconds = num_field(v, "window_start_seconds", 0.0);
  s.window_length_seconds = num_field(v, "window_length_seconds", 0.0);
  s.drop_probability = num_field(v, "drop_probability", 100.0);
  s.duplicate_count = static_cast<int>(num_field(v, "duplicate_count", 1.0));
  s.delay_seconds = num_field(v, "delay_seconds", 0.0);
  if (const obs::JsonValue* lie = v.find("lie"); lie != nullptr) {
    if (!lie->is_object()) return std::nullopt;
    LieSpec spec;
    spec.field = str_field(*lie, "field");
    auto lie_mode = lie_mode_from_string(str_field(*lie, "mode"));
    if (!lie_mode) return std::nullopt;
    spec.mode = *lie_mode;
    spec.operand = u64_field(*lie, "operand", 0);
    s.lie = std::move(spec);
  }
  if (const obs::JsonValue* inj = v.find("inject"); inj != nullptr) {
    if (!inj->is_object()) return std::nullopt;
    InjectSpec spec;
    spec.packet_type = str_field(*inj, "packet_type");
    if (const obs::JsonValue* fields = inj->find("fields"); fields != nullptr) {
      if (!fields->is_object()) return std::nullopt;
      for (const auto& [name, value] : fields->object_v) {
        if (!value.is_number()) return std::nullopt;
        double d = value.num_v;
        if (!(d >= 0.0) || d >= 18446744073709551616.0) return std::nullopt;
        spec.fields[name] = static_cast<std::uint64_t>(d);
      }
    }
    spec.spoof_toward_client = bool_field(*inj, "spoof_toward_client", true);
    spec.target_competing = bool_field(*inj, "target_competing", true);
    spec.seq_field = str_field(*inj, "seq_field");
    spec.seq_start = u64_field(*inj, "seq_start", 0);
    spec.seq_stride = u64_field(*inj, "seq_stride", 0);
    spec.count = u64_field(*inj, "count", 1);
    spec.pace_pps = num_field(*inj, "pace_pps", 20000.0);
    s.inject = std::move(spec);
  }
  return s;
}

}  // namespace snake::strategy
