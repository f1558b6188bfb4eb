#include "trace/trace.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <string_view>
#include <unordered_map>

#include "util/strings.h"

namespace snake::trace {

namespace {

constexpr const char* kMagic = "snake-trace/v1";

struct LineScanner {
  std::string_view text;
  std::size_t pos = 0;
  std::size_t line_no = 0;

  /// Next line, stripped of trailing CR; nullopt at end of input.
  std::optional<std::string_view> next() {
    if (pos >= text.size()) return std::nullopt;
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    return line;
  }
};

/// A record line split at whitespace: its first four tokens, views into the
/// trace text, and how many tokens the line has in all.
struct Tokens {
  std::string_view tok[4];
  std::size_t count = 0;
};

Tokens split_tokens(std::string_view line) {
  Tokens out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
    std::size_t start = i;
    while (i < line.size() && !std::isspace(static_cast<unsigned char>(line[i]))) ++i;
    if (i == start) continue;
    if (out.count < 4) out.tok[out.count] = line.substr(start, i - start);
    ++out.count;
  }
  return out;
}

bool parse_time(std::string_view tok, double& out) {
  // Plain decimal seconds only: no inf/nan/hex, no trailing junk. The token
  // is a view into a NUL-terminated text and ends at whitespace or a NUL,
  // neither of which extends a number, so strtod stops at its end or short
  // of it.
  if (tok.empty()) return false;
  char* end = nullptr;
  double v = std::strtod(tok.data(), &end);
  if (end != tok.data() + tok.size()) return false;
  if (!std::isfinite(v) || v < 0.0) return false;
  out = v;
  return true;
}

bool parse_bytes(std::string_view tok, std::uint64_t& out) {
  if (tok.empty() || tok.size() > 19) return false;  // 19 digits < 2^63
  std::uint64_t v = 0;
  for (char c : tok) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (v == 0) return false;  // a zero-byte burst is a malformed record
  out = v;
  return true;
}

void fail(std::string* error, std::size_t line_no, const char* what) {
  if (error != nullptr) *error = str_format("trace line %zu: %s", line_no, what);
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

}  // namespace

std::optional<ParsedTrace> parse_trace(const std::string& text, std::string* error) {
  LineScanner scanner{text};
  bool magic_seen = false;

  // Per-flow running state: the schedule folded so far plus what the
  // ordering rules need. Keys view the text, which outlives the parse.
  struct FlowState {
    FlowSchedule schedule;
    double last_at = 0.0;
  };
  std::unordered_map<std::string_view, FlowState> flows;

  while (std::optional<std::string_view> line = scanner.next()) {
    // '#' starts a comment; the magic line is itself a comment, so check it
    // before stripping.
    std::size_t first = line->find_first_not_of(" \t");
    if (first == std::string_view::npos) continue;
    if ((*line)[first] == '#') {
      if (!magic_seen) {
        std::string_view body = line->substr(first + 1);
        std::size_t b = body.find_first_not_of(" \t");
        if (b != std::string_view::npos && body.substr(b) == kMagic) magic_seen = true;
      }
      continue;
    }
    if (!magic_seen) {
      fail(error, scanner.line_no, "records before '# snake-trace/v1' magic");
      return std::nullopt;
    }

    const Tokens t = split_tokens(*line);
    if (t.count < 3) {
      fail(error, scanner.line_no, "expected '<time> <flow> <op> [bytes]'");
      return std::nullopt;
    }
    double at_s = 0.0;
    if (!parse_time(t.tok[0], at_s)) {
      fail(error, scanner.line_no, "bad timestamp (non-negative decimal seconds)");
      return std::nullopt;
    }
    const std::string_view flow = t.tok[1];
    const std::string_view op = t.tok[2];
    const bool open = op == "open", close = op == "close";
    const bool send = op == "send", recv = op == "recv";
    if (!open && !close && !send && !recv) {
      fail(error, scanner.line_no, "unknown op (want open/send/recv/close)");
      return std::nullopt;
    }
    std::uint64_t bytes = 0;
    if (send || recv) {
      if (t.count != 4 || !parse_bytes(t.tok[3], bytes)) {
        fail(error, scanner.line_no, "send/recv need a positive byte count");
        return std::nullopt;
      }
    } else if (t.count != 3) {
      fail(error, scanner.line_no, "open/close take no byte count");
      return std::nullopt;
    }

    if (open) {
      auto [slot, fresh] = flows.try_emplace(flow);
      if (!fresh) {
        fail(error, scanner.line_no, "duplicate open for flow");
        return std::nullopt;
      }
      slot->second.schedule.id = std::string(flow);
      slot->second.schedule.open_at_s = at_s;
      slot->second.last_at = at_s;
      continue;
    }
    auto it = flows.find(flow);
    if (it == flows.end()) {
      fail(error, scanner.line_no, "record for flow before its open");
      return std::nullopt;
    }
    FlowState& state = it->second;
    FlowSchedule& f = state.schedule;
    if (f.close_at_s.has_value()) {
      fail(error, scanner.line_no, "record for flow after its close");
      return std::nullopt;
    }
    if (at_s < state.last_at) {
      fail(error, scanner.line_no, "flow timestamps must be non-decreasing");
      return std::nullopt;
    }
    state.last_at = at_s;
    if (close) {
      f.close_at_s = at_s;
    } else if (send) {
      f.transfers.push_back(FlowTransfer{at_s, bytes, 0});
      f.total_client_bytes += bytes;
    } else {
      f.transfers.push_back(FlowTransfer{at_s, 0, bytes});
      f.total_server_bytes += bytes;
    }
  }
  if (!magic_seen) {
    fail(error, scanner.line_no, "missing '# snake-trace/v1' magic line");
    return std::nullopt;
  }

  ParsedTrace out;
  out.flows.reserve(flows.size());
  for (auto& [id, state] : flows) out.flows.push_back(std::move(state.schedule));
  std::sort(out.flows.begin(), out.flows.end(),
            [](const FlowSchedule& a, const FlowSchedule& b) { return a.id < b.id; });
  return out;
}

ReplayPlan build_replay_plan(const ParsedTrace& trace, const ReplayOptions& options) {
  const double scale = options.time_scale > 0.0 ? options.time_scale : 1.0;

  // Keyed-hash down-sampling: rank flows by fnv1a(id) mixed with the seed so
  // the kept subset is a property of the ids, never of file order. The
  // parsed flows are in id order, so the index breaks rank ties exactly as
  // the id would.
  std::vector<const FlowSchedule*> kept;
  if (options.max_flows > 0 && trace.flows.size() > options.max_flows) {
    const std::uint64_t seed = options.seed;
    std::vector<std::pair<std::uint64_t, std::size_t>> ranked;
    ranked.reserve(trace.flows.size());
    for (std::size_t i = 0; i < trace.flows.size(); ++i) {
      const std::string& id = trace.flows[i].id;
      ranked.emplace_back(fnv1a(fnv1a(kFnvOffset, id.data(), id.size()), &seed, sizeof seed), i);
    }
    const auto last = ranked.begin() + static_cast<std::ptrdiff_t>(options.max_flows);
    std::partial_sort(ranked.begin(), last, ranked.end());
    for (auto r = ranked.begin(); r != last; ++r) kept.push_back(&trace.flows[r->second]);
  } else {
    for (const FlowSchedule& f : trace.flows) kept.push_back(&f);
  }

  // Scale the survivors, then sort them into open order.
  ReplayPlan plan;
  plan.flows.reserve(kept.size());
  for (const FlowSchedule* source : kept) {
    FlowSchedule& f = plan.flows.emplace_back(*source);
    f.open_at_s *= scale;
    if (f.close_at_s.has_value()) *f.close_at_s *= scale;
    for (FlowTransfer& t : f.transfers) t.at_s *= scale;
  }
  std::sort(plan.flows.begin(), plan.flows.end(), [](const FlowSchedule& a, const FlowSchedule& b) {
    if (a.open_at_s != b.open_at_s) return a.open_at_s < b.open_at_s;
    return a.id < b.id;
  });

  for (const FlowSchedule& f : plan.flows) {
    plan.total_client_bytes += f.total_client_bytes;
    plan.total_server_bytes += f.total_server_bytes;
    double last = f.open_at_s;
    if (!f.transfers.empty()) last = std::max(last, f.transfers.back().at_s);
    if (f.close_at_s.has_value()) last = std::max(last, *f.close_at_s);
    plan.horizon_s = std::max(plan.horizon_s, last);
  }
  return plan;
}

std::uint64_t trace_text_hash(const std::string& text) {
  return fnv1a(kFnvOffset, text.data(), text.size());
}

TraceText::TraceText() {
  static const std::shared_ptr<const State> kEmpty = [] {
    auto state = std::make_shared<State>();
    state->parsed = parse_trace(state->text, &state->error);
    return state;
  }();
  state_ = kEmpty;
}

TraceText::TraceText(std::string text) {
  if (text.empty()) {
    *this = TraceText();
    return;
  }
  auto state = std::make_shared<State>();
  state->text = std::move(text);
  state->parsed = parse_trace(state->text, &state->error);
  state_ = std::move(state);
}

}  // namespace snake::trace
