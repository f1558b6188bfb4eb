#include "snake/journal.h"

#include <cstring>

#include "obs/json.h"
#include "search/search.h"
#include "snake/controller.h"
#include "util/strings.h"

namespace snake::core {

namespace {

constexpr const char* kJournalSchema = "snake-trial-journal/v1";

void write_observations(obs::JsonWriter& w, const char* key,
                        const std::vector<JournalObservation>& obs_list) {
  w.key(key).begin_array();
  for (const JournalObservation& o : obs_list) {
    w.begin_array();
    w.value(o.state);
    w.value(o.packet_type);
    w.end_array();
  }
  w.end_array();
}

std::vector<JournalObservation> read_observations(const obs::JsonValue& v) {
  std::vector<JournalObservation> out;
  if (!v.is_array()) return out;
  for (const obs::JsonValue& pair : v.array_v) {
    if (!pair.is_array() || pair.array_v.size() != 2) continue;
    if (!pair.array_v[0].is_string() || !pair.array_v[1].is_string()) continue;
    out.push_back(JournalObservation{pair.array_v[0].str_v, pair.array_v[1].str_v});
  }
  return out;
}

std::optional<TrialVerdict> verdict_from_string(const std::string& s) {
  if (s == "completed") return TrialVerdict::kCompleted;
  if (s == "aborted") return TrialVerdict::kAborted;
  if (s == "errored") return TrialVerdict::kErrored;
  if (s == "quarantined") return TrialVerdict::kQuarantined;
  return std::nullopt;
}

std::optional<AttackClass> class_from_string(const std::string& s) {
  if (s == "on-path") return AttackClass::kOnPath;
  if (s == "false-positive") return AttackClass::kFalsePositive;
  if (s == "true-attack") return AttackClass::kTrueAttack;
  return std::nullopt;
}

std::uint64_t u64_field(const obs::JsonValue& obj, const char* key, std::uint64_t fallback) {
  const obs::JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_number()) return fallback;
  // Range-check before converting: casting a negative / huge / NaN double to
  // an unsigned integer is undefined behaviour (fuzz-found via UBSan's
  // float-cast-overflow on hand-corrupted journal lines).
  double d = v->num_v;
  if (!(d >= 0.0) || d >= 18446744073709551616.0) return fallback;  // !(>=0) catches NaN
  return static_cast<std::uint64_t>(d);
}

std::string str_field(const obs::JsonValue& obj, const char* key) {
  const obs::JsonValue* v = obj.find(key);
  return v != nullptr && v->is_string() ? v->str_v : std::string();
}

bool bool_field(const obs::JsonValue& obj, const char* key, bool fallback) {
  const obs::JsonValue* v = obj.find(key);
  return v != nullptr && v->is_bool() ? v->bool_v : fallback;
}

}  // namespace

void write_json(obs::JsonWriter& w, const TrialRecord& record) {
  w.begin_object();
  w.key("key").value(record.key);
  w.key("verdict").value(to_string(record.verdict));
  w.key("attempts").value(static_cast<std::uint64_t>(record.attempts));
  w.key("aborted_attempts").value(static_cast<std::uint64_t>(record.aborted_attempts));
  w.key("errored_attempts").value(static_cast<std::uint64_t>(record.errored_attempts));
  w.key("reason").value(record.failure_reason);
  w.key("found").value(record.found);
  if (record.found) {
    w.key("class").value(to_string(record.cls));
    w.key("signature").value(record.signature);
    w.key("detection");
    write_json(w, record.detection);
  }
  write_observations(w, "client_obs", record.client_obs);
  write_observations(w, "server_obs", record.server_obs);
  w.end_object();
}

std::optional<TrialRecord> trial_record_from_json(const obs::JsonValue& doc) {
  if (!doc.is_object()) return std::nullopt;
  TrialRecord rec;
  rec.key = str_field(doc, "key");
  if (rec.key.empty()) return std::nullopt;
  auto verdict = verdict_from_string(str_field(doc, "verdict"));
  if (!verdict.has_value()) return std::nullopt;
  rec.verdict = *verdict;
  rec.attempts = static_cast<std::uint32_t>(u64_field(doc, "attempts", 1));
  rec.aborted_attempts = static_cast<std::uint32_t>(u64_field(doc, "aborted_attempts", 0));
  rec.errored_attempts = static_cast<std::uint32_t>(u64_field(doc, "errored_attempts", 0));
  rec.failure_reason = str_field(doc, "reason");
  rec.found = bool_field(doc, "found", false);
  if (rec.found) {
    auto cls = class_from_string(str_field(doc, "class"));
    if (!cls.has_value()) return std::nullopt;
    rec.cls = *cls;
    rec.signature = str_field(doc, "signature");
    const obs::JsonValue* det = doc.find("detection");
    if (det == nullptr || !det->is_object()) return std::nullopt;
    rec.detection = detection_from_json(*det);
  }
  if (const obs::JsonValue* c = doc.find("client_obs"); c != nullptr)
    rec.client_obs = read_observations(*c);
  if (const obs::JsonValue* s = doc.find("server_obs"); s != nullptr)
    rec.server_obs = read_observations(*s);
  return rec;
}

const char* to_string(TrialVerdict verdict) {
  switch (verdict) {
    case TrialVerdict::kCompleted: return "completed";
    case TrialVerdict::kAborted: return "aborted";
    case TrialVerdict::kErrored: return "errored";
    case TrialVerdict::kQuarantined: return "quarantined";
  }
  return "?";
}

void TrialJournal::write_header(const CampaignConfig& config) {
  write_header(config, campaign_identity_hash(config));
}

void TrialJournal::write_header(const CampaignConfig& config, std::uint64_t identity_hash) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value(kJournalSchema);
  w.key("identity_hash").value(hex16(identity_hash));
  w.key("protocol").value(to_string(config.scenario.protocol));
  w.key("implementation")
      .value(config.scenario.protocol == Protocol::kTcp ? config.scenario.tcp_profile.name
                                                        : "linux-3.13");
  w.key("seed").value(config.scenario.seed);
  w.end_object();
  std::string line = w.take();
  line.push_back('\n');
  std::lock_guard<std::mutex> lock(mutex_);
  sink_(line);
}

void TrialJournal::append(const TrialRecord& record) {
  obs::JsonWriter w;
  write_json(w, record);
  std::string line = w.take();
  line.push_back('\n');
  std::lock_guard<std::mutex> lock(mutex_);
  sink_(line);
}

void TrialJournal::append_raw(std::string_view json_object_line) {
  std::string line(json_object_line);
  line.push_back('\n');
  std::lock_guard<std::mutex> lock(mutex_);
  sink_(line);
}

bool JournalSnapshot::compatible_with(const CampaignConfig& config) const {
  return identity_hash == campaign_identity_hash(config);
}

std::optional<JournalSnapshot> load_journal(std::string_view text,
                                            std::size_t* skipped_lines) {
  JournalSnapshot snap;
  if (skipped_lines != nullptr) *skipped_lines = 0;
  bool have_header = false;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    // A journal line is only trustworthy once its newline hit the disk; an
    // unterminated tail is the signature of a killed writer — skip it.
    bool complete = nl != std::string_view::npos;
    std::string_view line = complete ? text.substr(pos, nl - pos) : text.substr(pos);
    pos = complete ? nl + 1 : text.size();
    if (line.empty()) continue;
    std::optional<obs::JsonValue> doc = complete ? obs::parse_json(line) : std::nullopt;
    if (!doc.has_value() || !doc->is_object()) {
      if (skipped_lines != nullptr) ++*skipped_lines;
      continue;
    }
    if (!have_header) {
      // First parseable line must be the header.
      const obs::JsonValue* schema = doc->find("schema");
      if (schema == nullptr || schema->str_v != kJournalSchema) return std::nullopt;
      snap.identity_hash = parse_hex16(str_field(*doc, "identity_hash")).value_or(0);
      have_header = true;
      continue;
    }
    // Search-pool checkpoint lines ride the same journal. Keep the raw text
    // of the last one (later checkpoints supersede earlier ones); the search
    // library validates it, this loader only recognizes it.
    if (const obs::JsonValue* schema = doc->find("schema");
        schema != nullptr && schema->is_string() &&
        schema->str_v == search::kPoolStateSchema) {
      snap.search_pool_json.assign(line.data(), line.size());
      continue;
    }
    std::optional<TrialRecord> rec = trial_record_from_json(*doc);
    if (!rec.has_value()) {
      if (skipped_lines != nullptr) ++*skipped_lines;
      continue;
    }
    snap.trials[rec->key] = std::move(*rec);
  }
  if (!have_header) return std::nullopt;
  return snap;
}

std::optional<JournalSnapshot> merge_journals(const std::vector<std::string_view>& parts,
                                              std::size_t* skipped_lines) {
  if (skipped_lines != nullptr) *skipped_lines = 0;
  std::optional<JournalSnapshot> merged;
  for (std::string_view part : parts) {
    std::size_t skipped = 0;
    std::optional<JournalSnapshot> snap = load_journal(part, &skipped);
    if (skipped_lines != nullptr) *skipped_lines += skipped;
    if (!snap.has_value()) return std::nullopt;
    if (!merged.has_value()) {
      merged = std::move(snap);
      continue;
    }
    if (merged->identity_hash != snap->identity_hash) return std::nullopt;
    for (auto& [key, rec] : snap->trials) merged->trials.try_emplace(key, std::move(rec));
    if (merged->search_pool_json.empty())
      merged->search_pool_json = std::move(snap->search_pool_json);
  }
  return merged;
}

namespace {

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* data, std::size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void b(bool v) { u64(v ? 1 : 0); }
};

}  // namespace

std::uint64_t campaign_identity_hash(const CampaignConfig& config) {
  const ScenarioConfig& s = config.scenario;
  Fnv1a h;
  h.str("snake-campaign-identity/v1");
  h.str(to_string(s.protocol));
  h.str(s.protocol == Protocol::kTcp ? s.tcp_profile.name : "linux-3.13");
  h.u64(s.seed);
  h.i64(s.test_duration.ns());
  h.u64(s.download_bytes);
  h.f64(s.client1_exit_fraction);
  h.f64(s.dccp_offer_rate_pps);
  h.u64(s.dccp_payload_bytes);
  h.f64(s.dccp_data_fraction);
  h.u64(s.dccp_tx_queue_packets);
  h.i64(s.dccp_ccid);
  h.f64(s.topology.access_rate_bps);
  h.i64(s.topology.access_delay.ns());
  h.u64(s.topology.access_queue_packets);
  h.f64(s.topology.bottleneck_rate_bps);
  h.i64(s.topology.bottleneck_delay.ns());
  h.u64(s.topology.bottleneck_queue_packets);
  h.u64(static_cast<std::uint64_t>(s.topology.bottleneck_drop_policy));
  h.u64(s.event_budget);
  h.f64(s.wall_limit_seconds);
  h.b(s.faults != nullptr);
  // Trace-replay workloads fold the full workload definition in; the bulk
  // workload appends nothing so historic identities are unchanged.
  if (s.workload == Workload::kTrace) {
    h.str("workload=trace");
    h.str(s.trace_text);
    h.u64(s.trace_max_flows);
    h.f64(s.trace_time_scale);
  }
  h.f64(config.detect_threshold);
  h.u64(config.retest_seed_offset);
  h.u64(config.trial_attempts);
  h.u64(config.retry_seed_offset);
  return h.h;
}

}  // namespace snake::core
