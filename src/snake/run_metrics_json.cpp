// JSON wire encoding for RunMetrics (declared in scenario.h). Lives in its
// own TU so the simulation code in scenario.cpp keeps no serialization
// concerns; everything here must round-trip exactly (see scenario.h).
#include <string>

#include "obs/json.h"
#include "snake/scenario.h"

namespace snake::core {

namespace {

const char* to_string(statemachine::TriggerKind kind) {
  switch (kind) {
    case statemachine::TriggerKind::kSend: return "send";
    case statemachine::TriggerKind::kReceive: return "receive";
    case statemachine::TriggerKind::kTimeout: return "timeout";
  }
  return "?";
}

std::optional<statemachine::TriggerKind> trigger_from_string(const std::string& s) {
  if (s == "send") return statemachine::TriggerKind::kSend;
  if (s == "receive") return statemachine::TriggerKind::kReceive;
  if (s == "timeout") return statemachine::TriggerKind::kTimeout;
  return std::nullopt;
}

void write_observations(obs::JsonWriter& w, const char* key,
                        const std::vector<statemachine::EndpointTracker::Observation>& obs) {
  w.key(key).begin_array();
  for (const auto& o : obs) {
    w.begin_array();
    w.value(o.state);
    w.value(o.packet_type);
    w.value(to_string(o.direction));
    w.end_array();
  }
  w.end_array();
}

bool read_observations(const obs::JsonValue* v,
                       std::vector<statemachine::EndpointTracker::Observation>* out) {
  if (v == nullptr || !v->is_array()) return false;
  out->reserve(v->array_v.size());
  for (const obs::JsonValue& entry : v->array_v) {
    if (!entry.is_array() || entry.array_v.size() != 3) return false;
    const obs::JsonValue& state = entry.array_v[0];
    const obs::JsonValue& type = entry.array_v[1];
    const obs::JsonValue& dir = entry.array_v[2];
    if (!state.is_string() || !type.is_string() || !dir.is_string()) return false;
    auto kind = trigger_from_string(dir.str_v);
    if (!kind.has_value()) return false;
    out->push_back({state.str_v, type.str_v, *kind});
  }
  return true;
}

void write_type_counts(obs::JsonWriter& w, const char* key,
                       const std::map<std::string, std::uint64_t>& counts) {
  w.key(key).begin_object();
  for (const auto& [type, n] : counts) w.key(type).value(n);
  w.end_object();
}

void write_state_stats(obs::JsonWriter& w, const char* key,
                       const std::map<std::string, statemachine::StateStats>& stats) {
  w.key(key).begin_object();
  for (const auto& [state, s] : stats) {
    w.key(state).begin_object();
    w.key("visits").value(s.visits);
    w.key("total_time_ns").value(s.total_time.ns());
    write_type_counts(w, "sent_by_type", s.sent_by_type);
    write_type_counts(w, "received_by_type", s.received_by_type);
    w.end_object();
  }
  w.end_object();
}

bool read_type_counts(const obs::JsonValue& obj, const char* key,
                      std::map<std::string, std::uint64_t>* out) {
  const obs::JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_object()) return false;
  for (const auto& [type, n] : v->object_v) {
    auto count = u64_of(n);
    if (!count.has_value()) return false;
    (*out)[type] = *count;
  }
  return true;
}

bool read_state_stats(const obs::JsonValue& obj, const char* key,
                      std::map<std::string, statemachine::StateStats>* out) {
  const obs::JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_object()) return false;
  for (const auto& [state, entry] : v->object_v) {
    if (!entry.is_object()) return false;
    statemachine::StateStats s;
    s.visits = u64_field(entry, "visits", 0);
    const obs::JsonValue* ns = entry.find("total_time_ns");
    if (ns == nullptr || !ns->is_number()) return false;
    s.total_time = Duration::nanos(static_cast<std::int64_t>(ns->num_v));
    if (!read_type_counts(entry, "sent_by_type", &s.sent_by_type)) return false;
    if (!read_type_counts(entry, "received_by_type", &s.received_by_type)) return false;
    (*out)[state] = std::move(s);
  }
  return true;
}

}  // namespace

void write_json(obs::JsonWriter& w, const RunMetrics& m) {
  w.begin_object();
  w.key("target_bytes").value(m.target_bytes);
  w.key("competing_bytes").value(m.competing_bytes);
  w.key("target_established").value(m.target_established);
  w.key("competing_established").value(m.competing_established);
  w.key("target_reset").value(m.target_reset);
  w.key("competing_reset").value(m.competing_reset);
  w.key("server1_stuck_sockets").value(static_cast<std::uint64_t>(m.server1_stuck_sockets));
  w.key("server2_stuck_sockets").value(static_cast<std::uint64_t>(m.server2_stuck_sockets));
  w.key("server1_socket_states").begin_object();
  for (const auto& [state, n] : m.server1_socket_states) w.key(state).value(n);
  w.end_object();
  write_observations(w, "client_observations", m.client_observations);
  write_observations(w, "server_observations", m.server_observations);
  write_state_stats(w, "client_state_stats", m.client_state_stats);
  write_state_stats(w, "server_state_stats", m.server_state_stats);
  w.key("proxy").begin_object();
  w.key("intercepted").value(m.proxy.intercepted);
  w.key("matched").value(m.proxy.matched);
  w.key("dropped").value(m.proxy.dropped);
  w.key("duplicates_created").value(m.proxy.duplicates_created);
  w.key("delayed").value(m.proxy.delayed);
  w.key("batched").value(m.proxy.batched);
  w.key("reflected").value(m.proxy.reflected);
  w.key("modified").value(m.proxy.modified);
  w.key("injected").value(m.proxy.injected);
  w.end_object();
  w.key("aborted").value(m.aborted);
  w.key("abort_reason").value(m.abort_reason);
  w.end_object();
}

std::optional<RunMetrics> run_metrics_from_json(const obs::JsonValue& v) {
  if (!v.is_object()) return std::nullopt;
  RunMetrics m;
  m.target_bytes = u64_field(v, "target_bytes", 0);
  m.competing_bytes = u64_field(v, "competing_bytes", 0);
  m.target_established = bool_field(v, "target_established", false);
  m.competing_established = bool_field(v, "competing_established", false);
  m.target_reset = bool_field(v, "target_reset", false);
  m.competing_reset = bool_field(v, "competing_reset", false);
  m.server1_stuck_sockets = static_cast<std::size_t>(u64_field(v, "server1_stuck_sockets", 0));
  m.server2_stuck_sockets = static_cast<std::size_t>(u64_field(v, "server2_stuck_sockets", 0));
  if (const obs::JsonValue* states = v.find("server1_socket_states");
      states != nullptr && states->is_object())
    for (const auto& [state, n] : states->object_v) {
      if (!n.is_number()) return std::nullopt;
      m.server1_socket_states[state] = static_cast<int>(n.num_v);
    }
  if (!read_observations(v.find("client_observations"), &m.client_observations))
    return std::nullopt;
  if (!read_observations(v.find("server_observations"), &m.server_observations))
    return std::nullopt;
  if (!read_state_stats(v, "client_state_stats", &m.client_state_stats))
    return std::nullopt;
  if (!read_state_stats(v, "server_state_stats", &m.server_state_stats))
    return std::nullopt;
  const obs::JsonValue* proxy = v.find("proxy");
  if (proxy == nullptr || !proxy->is_object()) return std::nullopt;
  m.proxy.intercepted = u64_field(*proxy, "intercepted", 0);
  m.proxy.matched = u64_field(*proxy, "matched", 0);
  m.proxy.dropped = u64_field(*proxy, "dropped", 0);
  m.proxy.duplicates_created = u64_field(*proxy, "duplicates_created", 0);
  m.proxy.delayed = u64_field(*proxy, "delayed", 0);
  m.proxy.batched = u64_field(*proxy, "batched", 0);
  m.proxy.reflected = u64_field(*proxy, "reflected", 0);
  m.proxy.modified = u64_field(*proxy, "modified", 0);
  m.proxy.injected = u64_field(*proxy, "injected", 0);
  m.aborted = bool_field(v, "aborted", false);
  m.abort_reason = str_field(v, "abort_reason");
  return m;
}

}  // namespace snake::core
