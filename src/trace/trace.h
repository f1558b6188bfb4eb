// Trace-replay workloads: a dependency-free text format describing real
// per-flow application behaviour (when connections open, how many bytes each
// side pushes and when, when they close) plus the reconstructor that turns a
// trace into deterministic per-connection schedules a campaign can drive.
//
// The paper evaluates SNAKE against a fixed synthetic workload ("a large
// HTTP download"); trace replay lets a campaign exercise the same attack
// search against traffic shaped like a recorded deployment instead —
// short-lived request/response flows, long pauses, interleaved bidirectional
// bursts — while keeping every property campaigns rely on: the plan is a
// pure function of (trace text, options), so identical inputs give
// bit-identical trials on every backend.
//
// Format (one record per line, '#' comments and blank lines ignored):
//
//   # snake-trace/v1            <- required magic, first significant line
//   <time_s> <flow_id> open
//   <time_s> <flow_id> send <bytes>    <- client -> server payload
//   <time_s> <flow_id> recv <bytes>    <- server -> client payload
//   <time_s> <flow_id> close           <- client-initiated teardown
//
// Times are non-negative decimal seconds from trace start; flow ids are
// arbitrary whitespace-free tokens. Records for one flow must appear in
// non-decreasing time order, open first, close (if present) last. Flows
// without a close record stay open to the end of the run.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace snake::trace {

/// One data burst within a flow. Exactly one of the byte counts is nonzero:
/// a trace `send` becomes client bytes, a `recv` server bytes.
struct FlowTransfer {
  double at_s = 0.0;
  std::uint64_t client_bytes = 0;
  std::uint64_t server_bytes = 0;
};

/// Everything the replay applications need to drive one connection.
struct FlowSchedule {
  std::string id;
  double open_at_s = 0.0;
  std::optional<double> close_at_s;
  std::vector<FlowTransfer> transfers;  ///< non-decreasing at_s
  std::uint64_t total_client_bytes = 0;
  std::uint64_t total_server_bytes = 0;
};

/// A trace that passed validation: one schedule per flow, in id order, at
/// the trace's own timestamps (unscaled). Parsing folds records into these
/// as it validates them, so building a plan never walks the records again.
struct ParsedTrace {
  std::vector<FlowSchedule> flows;
};

/// Parses snake-trace/v1 text. Returns nullopt on any malformed line,
/// missing magic, or per-flow ordering violation; `error` (optional) gets a
/// one-line human-readable reason with the offending line number.
std::optional<ParsedTrace> parse_trace(const std::string& text, std::string* error = nullptr);

struct ReplayOptions {
  /// Keep at most this many flows (0 = all). Down-sampling is a keyed hash
  /// over flow ids, so the same (trace, seed, max_flows) always keeps the
  /// same subset regardless of trace record order.
  std::size_t max_flows = 0;
  std::uint64_t seed = 1;
  /// Multiplies every timestamp; <1 compresses a long trace into a short
  /// test window, >1 stretches it. Must be positive.
  double time_scale = 1.0;
};

struct ReplayPlan {
  /// Flows sorted by (open time, id) — the order the replay client opens
  /// connections in, which is also how the server pairs accepted
  /// connections with schedules.
  std::vector<FlowSchedule> flows;
  std::uint64_t total_client_bytes = 0;
  std::uint64_t total_server_bytes = 0;
  double horizon_s = 0.0;  ///< last scheduled instant across all flows
};

/// Selects and scales a plan from a parsed trace: ranks flow ids by the
/// seed-keyed hash, keeps the top `max_flows`, then scales the survivors'
/// timestamps and sorts them into open order. Costs a hash per flow plus a
/// copy of the kept flows, so a world build can afford it for every seed.
/// Pure function of its arguments: given the same trace text and options it
/// returns the same plan on every host, which is what lets distributed
/// workers rebuild identical workloads from the wire-shipped trace text.
ReplayPlan build_replay_plan(const ParsedTrace& trace, const ReplayOptions& options);

/// Stable 64-bit FNV-1a over the trace text — folded into the campaign
/// identity hash so journals from different traces never merge.
std::uint64_t trace_text_hash(const std::string& text);

/// A trace as a campaign carries it: the text, parsed once when the value
/// is made, shared immutably by every copy. Configs are copied per world
/// build and per trial; copying a TraceText copies a pointer, so a campaign
/// parses its trace once however many worlds replay it. Implicitly made
/// from the text, so a config takes its trace by plain assignment.
class TraceText {
 public:
  TraceText();  ///< the empty text, which does not parse
  TraceText(std::string text);
  TraceText(const char* text) : TraceText(std::string(text)) {}

  const std::string& text() const { return state_->text; }
  bool empty() const { return state_->text.empty(); }
  /// The parse, or nullptr when the text is malformed.
  const ParsedTrace* parsed() const {
    return state_->parsed.has_value() ? &*state_->parsed : nullptr;
  }
  /// parse_trace's line-numbered reason; "" when the text parsed.
  const std::string& error() const { return state_->error; }

 private:
  struct State {
    std::string text;
    std::optional<ParsedTrace> parsed;
    std::string error;
  };
  std::shared_ptr<const State> state_;
};

}  // namespace snake::trace
