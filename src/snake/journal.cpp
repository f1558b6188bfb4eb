#include "snake/journal.h"

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <type_traits>

#include "obs/json.h"
#include "snake/controller.h"
#include "util/strings.h"

namespace snake::core {

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

/// campaign_identity_hash's sink over visit_identity_fields: each field
/// folds into FNV-1a by its type.
struct IdentityHasher {
  Fnv1a h;
  void hash_only(const char* term) { h.str(term); }
  void hash_only(bool term) { h.b(term); }
  void operator()(const char*, const std::string& v) { h.str(v); }
  void operator()(const char*, const trace::TraceText& v) { h.str(v.text()); }
  void operator()(const char*, bool v) { h.b(v); }
  void operator()(const char*, double v) { h.f64(v); }
  void operator()(const char*, Duration v) { h.i64(v.ns()); }
  void operator()(const char*, Protocol v) { h.str(to_string(v)); }
  void operator()(const char*, Workload v) {
    if (v == Workload::kTrace) h.str("workload=trace");
  }
  template <class T>  // integers and the remaining enums
  void operator()(const char*, T v) {
    if constexpr (std::is_signed_v<T>)
      h.i64(v);
    else
      h.u64(static_cast<std::uint64_t>(v));
  }
};

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

std::string render_record(const TrialRecord& record) {
  obs::JsonWriter w;
  write_json(w, record);
  return w.take();
}

/// One validated log line: a checksummed record under its campaign identity.
struct LogLine {
  std::uint64_t identity = 0;
  TrialRecord record;
};

std::optional<LogLine> parse_line(std::string_view line) {
  std::optional<obs::JsonValue> doc = obs::parse_json(line);
  if (!doc.has_value() || !doc->is_object()) return std::nullopt;
  std::optional<std::uint64_t> identity = parse_hex16(str_field(*doc, "identity"));
  if (!identity.has_value()) return std::nullopt;
  // Content validation: the checksum is recomputed over the canonical
  // re-rendering of the parsed record, so any edit to it — a swapped key, a
  // forged verdict, a pasted-in identity — fails here.
  std::optional<TrialRecord> record = trial_record_from_json(*doc);
  std::optional<std::uint64_t> check = parse_hex16(str_field(*doc, "check"));
  if (!record.has_value() || !check.has_value() ||
      scoped_record_checksum(*identity, *record) != *check)
    return std::nullopt;
  return LogLine{*identity, std::move(*record)};
}

/// Calls fn(parsed) for each non-empty line. A line is only
/// trustworthy once its newline hit the disk: an unterminated tail — the
/// signature of a killed writer — arrives with parsed == nullopt.
template <typename Fn>
void for_each_line(std::string_view text, Fn&& fn) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const bool complete = nl != std::string_view::npos;
    std::string_view line = complete ? text.substr(pos, nl - pos) : text.substr(pos);
    pos = complete ? nl + 1 : text.size();
    if (!line.empty()) fn(complete ? parse_line(line) : std::nullopt);
  }
}

/// The file's contents; "" when it does not exist, nullopt when it exists
/// but cannot be read.
std::optional<std::string> read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::string();
  std::ostringstream text;
  text << in.rdbuf();
  if (in.bad()) return std::nullopt;
  return text.str();
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

std::uint64_t scoped_checksum(std::uint64_t scope, std::string_view text) {
  Fnv1a h;
  const std::string prefix = hex16(scope) + "|";
  h.bytes(prefix.data(), prefix.size());
  h.bytes(text.data(), text.size());
  return h.h;
}

std::uint64_t scoped_record_checksum(std::uint64_t scope, const TrialRecord& record) {
  return scoped_checksum(scope, render_record(record));
}

std::string encode_trial_line(std::uint64_t identity, const TrialRecord& record) {
  const std::string record_json = render_record(record);
  std::string line = "{\"identity\":\"" + hex16(identity) + "\",\"check\":\"" +
                     hex16(scoped_checksum(identity, record_json)) + "\",";
  line.append(record_json, 1);  // the record's members, after its '{'
  line.push_back('\n');
  return line;
}

void TrialJournal::append(std::uint64_t identity, const TrialRecord& record) {
  const std::string line = encode_trial_line(identity, record);
  std::lock_guard<std::mutex> lock(mutex_);
  sink_(line);
}

bool TrialLog::ingest_file(const std::string& path) {
  std::optional<std::string> text = read_text(path);
  if (!text.has_value()) return false;
  ingest(*text);
  return true;
}

void TrialLog::ingest(std::string_view text) {
  for_each_line(text, [this](std::optional<LogLine> parsed) {
    if (!parsed.has_value()) {
      ++rejected_;
      return;
    }
    entries_.try_emplace({parsed->identity, parsed->record.key}, std::move(parsed->record));
  });
}

const TrialRecord* TrialLog::find(std::uint64_t identity, const std::string& key) const {
  auto it = entries_.find({identity, key});
  return it == entries_.end() ? nullptr : &it->second;
}

void TrialLog::store(std::uint64_t identity, const TrialRecord& record) {
  if (!entries_.try_emplace({identity, record.key}, record).second) return;
  if (path_.empty()) return;
  std::ofstream out(path_, std::ios::binary | std::ios::app);
  if (out.is_open()) out << encode_trial_line(identity, record);
}

bool TrialLog::holds(std::uint64_t identity) const {
  auto it = entries_.lower_bound({identity, std::string()});
  return it != entries_.end() && it->first.first == identity;
}

std::size_t TrialLog::count(std::uint64_t identity) const {
  auto first = entries_.lower_bound({identity, std::string()});
  auto last = first;
  while (last != entries_.end() && last->first.first == identity) ++last;
  return static_cast<std::size_t>(std::distance(first, last));
}

TrialLog::CompactStats TrialLog::compact() {
  CompactStats stats;
  std::optional<std::string> text = path_.empty() ? std::string() : read_text(path_);
  if (!text.has_value()) return stats;
  if (text->empty()) {
    stats.ok = true;  // memory-only, or nothing to compact yet
    return stats;
  }

  std::set<std::pair<std::uint64_t, std::string>> seen;
  std::string out_text;
  for_each_line(*text, [&](std::optional<LogLine> parsed) {
    if (!parsed.has_value()) {
      ++stats.dropped_invalid;
    } else if (!seen.insert({parsed->identity, parsed->record.key}).second) {
      ++stats.dropped_duplicate;  // first copy wins, matching store()
    } else {
      out_text += encode_trial_line(parsed->identity, parsed->record);
      ++stats.kept;
    }
  });

  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) return stats;
    out << out_text;
    out.flush();
    if (!out.good()) return stats;
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) return stats;
  stats.ok = true;
  return stats;
}

std::uint64_t campaign_identity_hash(const CampaignConfig& config) {
  IdentityHasher hasher;
  hasher.h.str("snake-campaign-identity/v2");
  visit_identity_fields(config, hasher);
  return hasher.h.h;
}

}  // namespace snake::core
