// JSON rendering of RunMetrics (declared in scenario.h). Lives in its own TU
// so the simulation code in scenario.cpp keeps no serialization concerns.
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

}  // namespace snake::core
