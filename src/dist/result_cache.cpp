#include "dist/result_cache.h"

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "obs/json.h"
#include "util/strings.h"

namespace snake::dist {

namespace {

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string render_record(const core::TrialRecord& record) {
  obs::JsonWriter w;
  core::write_json(w, record);
  return w.take();
}

std::uint64_t line_check(std::uint64_t identity, const std::string& record_json) {
  // The checksum covers the identity *and* the canonical record rendering,
  // so neither can be edited (nor a record re-homed under another campaign's
  // identity) without the line failing validation.
  return fnv1a(hex16(identity) + "|" + record_json);
}

/// One validated cache line: identity + record, checksum already verified.
struct ParsedLine {
  std::uint64_t identity = 0;
  core::TrialRecord record;
};

std::optional<ParsedLine> parse_line(std::string_view line) {
  auto doc = obs::parse_json(line);
  if (!doc.has_value() || !doc->is_object()) return std::nullopt;
  const obs::JsonValue* identity_v = doc->find("identity");
  const obs::JsonValue* check_v = doc->find("check");
  const obs::JsonValue* record_v = doc->find("record");
  if (identity_v == nullptr || !identity_v->is_string() || check_v == nullptr ||
      !check_v->is_string() || record_v == nullptr) {
    return std::nullopt;
  }
  auto identity = parse_hex16(identity_v->str_v);
  auto check = parse_hex16(check_v->str_v);
  auto record = core::trial_record_from_json(*record_v);
  if (!identity.has_value() || !check.has_value() || !record.has_value() || record->key.empty()) {
    return std::nullopt;
  }
  // Content validation: the checksum is recomputed over the *canonical*
  // re-rendering of the parsed record, so any edit to the stored record —
  // a swapped strategy key, a forged verdict, a pasted-in identity — fails
  // here. Exact JSON round-tripping (journal.cpp) makes this sound.
  if (line_check(*identity, render_record(*record)) != *check) return std::nullopt;
  return ParsedLine{*identity, std::move(*record)};
}

template <typename Fn>
void for_each_line(std::string_view text, Fn&& fn) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    std::string_view line =
        eol == std::string_view::npos ? text.substr(pos) : text.substr(pos, eol - pos);
    pos = eol == std::string_view::npos ? text.size() : eol + 1;
    if (!line.empty()) fn(line);
  }
}

}  // namespace

std::uint64_t scoped_record_checksum(std::uint64_t scope, const core::TrialRecord& record) {
  return line_check(scope, render_record(record));
}

std::string ResultCache::encode_line(std::uint64_t identity, const core::TrialRecord& record) {
  const std::string record_json = render_record(record);
  obs::JsonWriter w;
  w.begin_object();
  w.key("identity").value(hex16(identity));
  w.key("check").value(hex16(line_check(identity, record_json)));
  w.key("record").raw(record_json);
  w.end_object();
  std::string line = w.take();
  line.push_back('\n');
  return line;
}

bool ResultCache::load() {
  if (path_.empty()) return true;
  std::ifstream in(path_, std::ios::binary);
  if (!in.is_open()) return true;  // no cache yet: start cold
  std::ostringstream text;
  text << in.rdbuf();
  if (in.bad()) return false;
  ingest(text.str());
  return true;
}

void ResultCache::ingest(std::string_view text) {
  for_each_line(text, [this](std::string_view line) {
    auto parsed = parse_line(line);
    if (!parsed.has_value()) {
      ++rejected_;  // includes the torn tail of a killed writer
      return;
    }
    entries_.try_emplace({parsed->identity, parsed->record.key}, std::move(parsed->record));
  });
}

ResultCache::CompactStats ResultCache::compact() {
  CompactStats stats;
  if (path_.empty()) {
    stats.ok = true;
    return stats;
  }
  std::ifstream in(path_, std::ios::binary);
  if (!in.is_open()) {
    stats.ok = true;  // nothing to compact yet
    return stats;
  }
  std::ostringstream text;
  text << in.rdbuf();
  if (in.bad()) return stats;
  in.close();

  std::set<std::pair<std::uint64_t, std::string>> seen;
  std::string out_text;
  for_each_line(text.str(), [&](std::string_view line) {
    auto parsed = parse_line(line);
    if (!parsed.has_value()) {
      ++stats.dropped_invalid;
      return;
    }
    if (!seen.insert({parsed->identity, parsed->record.key}).second) {
      ++stats.dropped_duplicate;  // first occurrence wins, matching put()
      return;
    }
    out_text += encode_line(parsed->identity, parsed->record);
    ++stats.kept;
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

const core::TrialRecord* ResultCache::find(std::uint64_t identity,
                                           const std::string& key) const {
  auto it = entries_.find({identity, key});
  return it == entries_.end() ? nullptr : &it->second;
}

void ResultCache::put(std::uint64_t identity, const core::TrialRecord& record) {
  auto [it, fresh] = entries_.try_emplace({identity, record.key}, record);
  if (!fresh) return;  // first occurrence wins, same as journal merge
  if (path_.empty()) return;
  std::ofstream out(path_, std::ios::binary | std::ios::app);
  if (!out.is_open()) return;  // caching is best-effort, results are not
  out << encode_line(identity, record);
}

const core::TrialRecord* ResultCache::View::lookup(const std::string& key) {
  return cache_->find(identity_, key);
}

void ResultCache::View::store(const core::TrialRecord& record) {
  cache_->put(identity_, record);
}

}  // namespace snake::dist
