// The trace-replay workload subsystem (src/trace + apps/trace_replay):
//  - snake-trace/v1 parser: canonical accepts, malformed rejects with line
//    numbers;
//  - replay-plan reconstruction: pure function of (trace, options),
//    independent of record interleaving, keyed down-sampling, time scaling,
//    bit-identical to a reference fold over the file's records;
//  - TraceText: copies of a config share the one parse;
//  - scenario integration: a kTrace run delivers exactly the plan's
//    server->client bytes, bit-identically across fresh and arena runs;
//  - campaign plumbing: the trace content is folded into the campaign
//    identity hash, rides the dist wire, and trace campaigns stay
//    bit-identical between snapshot-forked and from-zero trials and across
//    executor widths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/wire.h"
#include "obs/json.h"
#include "snake/arena.h"
#include "snake/controller.h"
#include "snake/journal.h"
#include "snake/scenario.h"
#include "tcp/profile.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace snake {
namespace {

using core::CampaignConfig;
using core::CampaignResult;
using core::Protocol;
using core::RunMetrics;
using core::ScenarioConfig;
using core::Workload;

// ------------------------------------------------------------------ parser

const char* kCanonicalTrace =
    "# snake-trace/v1\n"
    "# a comment, then two interleaved flows\n"
    "0.0 f1 open\n"
    "0.4 f2 open\n"
    "0.5 f1 recv 40000\n"
    "0.6 f2 send 2000\n"
    "1.0 f1 send 1000\n"
    "1.5 f2 recv 30000\n"
    "2.0 f1 close\n";

TEST(TraceParser, AcceptsCanonicalTrace) {
  std::string error;
  auto parsed = trace::parse_trace(kCanonicalTrace, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  // The seven records fold into two flows, in id order, at their own times.
  ASSERT_EQ(parsed->flows.size(), 2u);
  const trace::FlowSchedule& f1 = parsed->flows[0];
  EXPECT_EQ(f1.id, "f1");
  EXPECT_EQ(f1.open_at_s, 0.0);
  ASSERT_EQ(f1.transfers.size(), 2u);
  EXPECT_EQ(f1.transfers[0].at_s, 0.5);
  EXPECT_EQ(f1.transfers[0].server_bytes, 40000u);
  EXPECT_EQ(f1.transfers[1].client_bytes, 1000u);
  EXPECT_EQ(f1.close_at_s, 2.0);
  EXPECT_EQ(parsed->flows[1].id, "f2");
  EXPECT_FALSE(parsed->flows[1].close_at_s.has_value());
}

TEST(TraceParser, AcceptsCrlfAndLooseWhitespace) {
  std::string text = "  # snake-trace/v1\r\n\r\n0.0  f1\topen\r\n1.0 f1 send 10\r\n";
  EXPECT_TRUE(trace::parse_trace(text).has_value());
}

TEST(TraceParser, RejectsMalformedInputs) {
  struct Case {
    const char* name;
    std::string text;
  };
  const std::vector<Case> cases = {
      {"missing magic", "0.0 f1 open\n"},
      {"magic not a comment", "snake-trace/v1\n0.0 f1 open\n"},
      {"unknown op", "# snake-trace/v1\n0.0 f1 ping\n"},
      {"negative time", "# snake-trace/v1\n-1 f1 open\n"},
      {"non-numeric time", "# snake-trace/v1\nnoon f1 open\n"},
      {"inf time", "# snake-trace/v1\ninf f1 open\n"},
      {"short line", "# snake-trace/v1\n0.0 f1\n"},
      {"send without bytes", "# snake-trace/v1\n0.0 f1 open\n1 f1 send\n"},
      {"send with zero bytes", "# snake-trace/v1\n0.0 f1 open\n1 f1 send 0\n"},
      {"send with junk bytes", "# snake-trace/v1\n0.0 f1 open\n1 f1 send 1x\n"},
      {"open with bytes", "# snake-trace/v1\n0.0 f1 open 5\n"},
      {"duplicate open", "# snake-trace/v1\n0.0 f1 open\n1 f1 open\n"},
      {"record before open", "# snake-trace/v1\n0.0 f1 send 5\n"},
      {"record after close", "# snake-trace/v1\n0 f1 open\n1 f1 close\n2 f1 send 5\n"},
      {"time going backwards", "# snake-trace/v1\n5 f1 open\n1 f1 send 5\n"},
  };
  for (const Case& c : cases) {
    std::string error;
    EXPECT_FALSE(trace::parse_trace(c.text, &error).has_value()) << c.name;
    EXPECT_NE(error.find("trace line "), std::string::npos) << c.name << ": " << error;
  }
}

// -------------------------------------------------------------- replay plan

trace::ParsedTrace parse_or_die(const std::string& text) {
  std::string error;
  auto parsed = trace::parse_trace(text, &error);
  EXPECT_TRUE(parsed.has_value()) << error;
  return *parsed;
}

std::string plan_fingerprint(const trace::ReplayPlan& plan) {
  obs::JsonWriter w;
  w.begin_array();
  for (const trace::FlowSchedule& f : plan.flows) {
    w.begin_object();
    w.key("id").value(f.id);
    w.key("open").value(f.open_at_s);
    w.key("close").value(f.close_at_s.has_value() ? *f.close_at_s : -1.0);
    w.key("transfers").begin_array();
    for (const trace::FlowTransfer& t : f.transfers) {
      w.begin_array();
      w.value(t.at_s).value(t.client_bytes).value(t.server_bytes);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  return w.take();
}

TEST(ReplayPlan, IndependentOfRecordInterleaving) {
  // The same two flows, interleaved differently in the file (per-flow order
  // is a format invariant; cross-flow order is not). The plan must come out
  // identical.
  const char* grouped =
      "# snake-trace/v1\n"
      "0.0 f1 open\n"
      "0.5 f1 recv 40000\n"
      "1.0 f1 send 1000\n"
      "2.0 f1 close\n"
      "0.4 f2 open\n"
      "0.6 f2 send 2000\n"
      "1.5 f2 recv 30000\n";
  trace::ReplayOptions opts;
  trace::ReplayPlan a = trace::build_replay_plan(parse_or_die(kCanonicalTrace), opts);
  trace::ReplayPlan b = trace::build_replay_plan(parse_or_die(grouped), opts);
  EXPECT_EQ(plan_fingerprint(a), plan_fingerprint(b));
  EXPECT_EQ(a.total_server_bytes, 70000u);
  EXPECT_EQ(a.total_client_bytes, 3000u);
  EXPECT_DOUBLE_EQ(a.horizon_s, 2.0);
  // Flows come out in (open time, id) order.
  ASSERT_EQ(a.flows.size(), 2u);
  EXPECT_EQ(a.flows[0].id, "f1");
  EXPECT_EQ(a.flows[1].id, "f2");
}

std::string six_flow_trace() {
  std::string text = "# snake-trace/v1\n";
  for (int i = 0; i < 6; ++i) {
    std::string id = "flow" + std::to_string(i);
    double at = 0.1 * i;
    text += std::to_string(at) + " " + id + " open\n";
    text += std::to_string(at + 0.5) + " " + id + " recv 10000\n";
  }
  return text;
}

TEST(ReplayPlan, DownsampleIsKeyedByFlowIdNotFileOrder) {
  trace::ParsedTrace forward = parse_or_die(six_flow_trace());
  // The same six flows fed in reverse file order.
  std::string reversed = "# snake-trace/v1\n";
  for (int i = 5; i >= 0; --i) {
    std::string id = "flow" + std::to_string(i);
    double at = 0.1 * i;
    reversed += std::to_string(at) + " " + id + " open\n";
    reversed += std::to_string(at + 0.5) + " " + id + " recv 10000\n";
  }
  trace::ReplayOptions opts;
  opts.max_flows = 3;
  opts.seed = 1;
  trace::ReplayPlan a = trace::build_replay_plan(forward, opts);
  trace::ReplayPlan b = trace::build_replay_plan(parse_or_die(reversed), opts);
  ASSERT_EQ(a.flows.size(), 3u);
  EXPECT_EQ(plan_fingerprint(a), plan_fingerprint(b));
  EXPECT_EQ(a.total_server_bytes, 30000u);
}

TEST(ReplayPlan, DownsampleSeedSelectsDifferentSubsets) {
  trace::ParsedTrace parsed = parse_or_die(six_flow_trace());
  trace::ReplayOptions opts;
  opts.max_flows = 3;
  auto kept_ids = [&](std::uint64_t seed) {
    opts.seed = seed;
    trace::ReplayPlan plan = trace::build_replay_plan(parsed, opts);
    std::vector<std::string> ids;
    for (const auto& f : plan.flows) ids.push_back(f.id);
    return ids;
  };
  // Equal seeds agree; across a handful of seeds at least one picks a
  // different subset (the ranking mixes the seed into the keyed hash).
  EXPECT_EQ(kept_ids(1), kept_ids(1));
  const std::vector<std::string> base = kept_ids(1);
  bool any_different = false;
  for (std::uint64_t seed = 2; seed <= 6 && !any_different; ++seed)
    any_different = kept_ids(seed) != base;
  EXPECT_TRUE(any_different);
}

TEST(ReplayPlan, TimeScaleCompressesEveryInstant) {
  trace::ReplayOptions opts;
  opts.time_scale = 0.25;
  trace::ReplayPlan plan = trace::build_replay_plan(parse_or_die(kCanonicalTrace), opts);
  EXPECT_DOUBLE_EQ(plan.horizon_s, 0.5);
  ASSERT_FALSE(plan.flows.empty());
  EXPECT_DOUBLE_EQ(plan.flows[0].open_at_s, 0.0);
  ASSERT_FALSE(plan.flows[0].transfers.empty());
  EXPECT_DOUBLE_EQ(plan.flows[0].transfers[0].at_s, 0.125);
  // Byte counts are untouched.
  EXPECT_EQ(plan.total_server_bytes, 70000u);
}

TEST(ReplayPlan, TraceTextHashIsStableAndContentSensitive) {
  const std::string text = kCanonicalTrace;
  EXPECT_EQ(trace::trace_text_hash(text), trace::trace_text_hash(text));
  EXPECT_NE(trace::trace_text_hash(text), trace::trace_text_hash(text + "\n# tail"));
}

/// One trace line, as the reference fold consumes them: in file order.
struct RefRecord {
  double at_s = 0.0;
  std::string flow;
  enum Op { kOpen, kSend, kRecv, kClose } op = kOpen;
  std::uint64_t bytes = 0;
};

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// The reference plan builder: folds every record of the file into a
/// schedule per flow at the scaled time, ranks and cuts, then sorts into
/// open order. build_replay_plan must reproduce it bit for bit.
trace::ReplayPlan reference_plan(const std::vector<RefRecord>& records,
                                 const trace::ReplayOptions& options) {
  using trace::FlowSchedule;
  using trace::FlowTransfer;
  const double scale = options.time_scale > 0.0 ? options.time_scale : 1.0;
  std::map<std::string, FlowSchedule> by_id;
  for (const RefRecord& rec : records) {
    FlowSchedule& f = by_id[rec.flow];
    switch (rec.op) {
      case RefRecord::kOpen:
        f.id = rec.flow;
        f.open_at_s = rec.at_s * scale;
        break;
      case RefRecord::kClose:
        f.close_at_s = rec.at_s * scale;
        break;
      case RefRecord::kSend: {
        FlowTransfer t;
        t.at_s = rec.at_s * scale;
        t.client_bytes = rec.bytes;
        f.transfers.push_back(t);
        f.total_client_bytes += rec.bytes;
        break;
      }
      case RefRecord::kRecv: {
        FlowTransfer t;
        t.at_s = rec.at_s * scale;
        t.server_bytes = rec.bytes;
        f.transfers.push_back(t);
        f.total_server_bytes += rec.bytes;
        break;
      }
    }
  }
  std::vector<FlowSchedule> flows;
  for (auto& [id, f] : by_id) flows.push_back(std::move(f));
  if (options.max_flows > 0 && flows.size() > options.max_flows) {
    auto rank = [&](const FlowSchedule& f) {
      std::uint64_t h = fnv1a(1469598103934665603ULL, f.id.data(), f.id.size());
      std::uint64_t seed = options.seed;
      return fnv1a(h, &seed, sizeof seed);
    };
    std::sort(flows.begin(), flows.end(), [&](const FlowSchedule& a, const FlowSchedule& b) {
      std::uint64_t ra = rank(a), rb = rank(b);
      if (ra != rb) return ra < rb;
      return a.id < b.id;
    });
    flows.resize(options.max_flows);
  }
  std::sort(flows.begin(), flows.end(), [](const FlowSchedule& a, const FlowSchedule& b) {
    if (a.open_at_s != b.open_at_s) return a.open_at_s < b.open_at_s;
    return a.id < b.id;
  });
  trace::ReplayPlan plan;
  for (FlowSchedule& f : flows) {
    plan.total_client_bytes += f.total_client_bytes;
    plan.total_server_bytes += f.total_server_bytes;
    double last = f.open_at_s;
    if (!f.transfers.empty()) last = std::max(last, f.transfers.back().at_s);
    if (f.close_at_s.has_value()) last = std::max(last, *f.close_at_s);
    plan.horizon_s = std::max(plan.horizon_s, last);
    plan.flows.push_back(std::move(f));
  }
  return plan;
}

/// Exact equality, doubles included; "" when equal, else the first field
/// that differs.
std::string plan_difference(const trace::ReplayPlan& a, const trace::ReplayPlan& b) {
  if (a.flows.size() != b.flows.size()) return "flow count";
  if (a.total_client_bytes != b.total_client_bytes) return "total client bytes";
  if (a.total_server_bytes != b.total_server_bytes) return "total server bytes";
  if (a.horizon_s != b.horizon_s) return "horizon";
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    const trace::FlowSchedule& x = a.flows[i];
    const trace::FlowSchedule& y = b.flows[i];
    const std::string at = "flow " + std::to_string(i) + " ";
    if (x.id != y.id) return at + "id";
    if (x.open_at_s != y.open_at_s) return at + "open";
    if (x.close_at_s != y.close_at_s) return at + "close";
    if (x.total_client_bytes != y.total_client_bytes) return at + "client bytes";
    if (x.total_server_bytes != y.total_server_bytes) return at + "server bytes";
    if (x.transfers.size() != y.transfers.size()) return at + "transfer count";
    for (std::size_t t = 0; t < x.transfers.size(); ++t)
      if (x.transfers[t].at_s != y.transfers[t].at_s ||
          x.transfers[t].client_bytes != y.transfers[t].client_bytes ||
          x.transfers[t].server_bytes != y.transfers[t].server_bytes)
        return at + "transfer " + std::to_string(t);
  }
  return "";
}

/// A random valid trace as records in file order: flows with ids that sort
/// differently as strings and numbers, times on a coarse grid (so opens and
/// scaled instants tie), per-flow order kept, flows interleaved at random.
std::vector<RefRecord> random_records(Rng& rng) {
  const std::size_t flows = rng.uniform(0, 12);
  std::vector<std::vector<RefRecord>> per_flow(flows);
  for (std::size_t i = 0; i < flows; ++i) {
    const std::string id = "f" + std::to_string(rng.uniform(0, 1000)) + "_" + std::to_string(i);
    double at = 0.1 * static_cast<double>(rng.uniform(0, 8));
    per_flow[i].push_back(RefRecord{at, id, RefRecord::kOpen, 0});
    for (std::uint64_t n = rng.uniform(0, 4); n > 0; --n) {
      at += 0.1 * static_cast<double>(rng.uniform(0, 3));
      const RefRecord::Op op = rng.uniform(0, 1) == 0 ? RefRecord::kSend : RefRecord::kRecv;
      per_flow[i].push_back(RefRecord{at, id, op, rng.uniform(1, 90000)});
    }
    if (rng.uniform(0, 3) != 0)
      per_flow[i].push_back(RefRecord{at + 0.1 * static_cast<double>(rng.uniform(0, 2)), id,
                                      RefRecord::kClose, 0});
  }
  std::vector<RefRecord> out;
  std::vector<std::size_t> next(flows, 0);
  for (std::size_t left = flows; left > 0;) {
    const std::size_t i = rng.uniform(0, flows - 1);
    if (next[i] == per_flow[i].size()) continue;
    out.push_back(per_flow[i][next[i]++]);
    if (next[i] == per_flow[i].size()) --left;
  }
  return out;
}

std::string render(const std::vector<RefRecord>& records) {
  static const char* const kOps[] = {"open", "send", "recv", "close"};
  std::string text = "# snake-trace/v1\n";
  char line[160];
  for (const RefRecord& r : records) {
    std::snprintf(line, sizeof line, "%.17g %s %s", r.at_s, r.flow.c_str(), kOps[r.op]);
    text += line;
    if (r.bytes != 0) text += " " + std::to_string(r.bytes);
    text += "\n";
  }
  return text;
}

TEST(ReplayPlan, MatchesReferenceFold) {
  Rng rng(20240617);
  for (int round = 0; round < 60; ++round) {
    const std::vector<RefRecord> records = random_records(rng);
    const trace::ParsedTrace parsed = parse_or_die(render(records));
    const std::size_t flows = parsed.flows.size();
    for (std::uint64_t seed : {1ULL, 7ULL, 1000004ULL}) {
      for (std::size_t max_flows : {std::size_t{0}, std::size_t{1}, std::size_t{8}, flows + 1}) {
        for (double scale : {0.25, 1.0, 3.0}) {
          trace::ReplayOptions opts;
          opts.seed = seed;
          opts.max_flows = max_flows;
          opts.time_scale = scale;
          EXPECT_EQ(plan_difference(trace::build_replay_plan(parsed, opts),
                                    reference_plan(records, opts)),
                    "")
              << "round " << round << ", seed " << seed << ", max_flows " << max_flows
              << ", scale " << scale;
        }
      }
    }
  }
}

TEST(TraceText, CopiesShareOneParse) {
  ScenarioConfig config;
  config.trace_text = kCanonicalTrace;
  ASSERT_NE(config.trace_text.parsed(), nullptr);
  EXPECT_EQ(config.trace_text.error(), "");
  EXPECT_EQ(config.trace_text.parsed()->flows.size(), 2u);
  const ScenarioConfig copy = config;
  ScenarioConfig assigned;
  assigned = copy;
  EXPECT_EQ(copy.trace_text.parsed(), config.trace_text.parsed());
  EXPECT_EQ(assigned.trace_text.parsed(), config.trace_text.parsed());
  EXPECT_EQ(&assigned.trace_text.text(), &config.trace_text.text());

  // A malformed assignment replaces the parse for this config only and
  // keeps parse_trace's line-numbered reason.
  assigned.trace_text = "# snake-trace/v1\n0.0 web open\n0.5 web warp 10\n";
  EXPECT_EQ(assigned.trace_text.parsed(), nullptr);
  EXPECT_EQ(assigned.trace_text.error(), "trace line 3: unknown op (want open/send/recv/close)");
  EXPECT_NE(config.trace_text.parsed(), nullptr);

  // The default is the empty text, which is not a trace.
  EXPECT_TRUE(ScenarioConfig().trace_text.empty());
  EXPECT_EQ(ScenarioConfig().trace_text.parsed(), nullptr);
  EXPECT_NE(ScenarioConfig().trace_text.error().find("trace line 0"), std::string::npos);
}

// -------------------------------------------------------- scenario replay

/// A short trace whose whole schedule fits inside the scenario's pre-exit
/// window: the honest run must deliver every planned server byte.
const char* kScenarioTrace =
    "# snake-trace/v1\n"
    "0.0 web1 open\n"
    "0.2 web1 recv 80000\n"
    "0.6 web1 send 1500\n"
    "1.0 web1 recv 120000\n"
    "2.0 web1 close\n"
    "0.3 web2 open\n"
    "0.8 web2 recv 50000\n"
    "2.5 web2 close\n"
    "1.2 api open\n"
    "1.4 api send 700\n"
    "1.6 api recv 25000\n";

ScenarioConfig trace_scenario() {
  ScenarioConfig config;
  config.protocol = Protocol::kTcp;
  config.tcp_profile = tcp::linux_3_13_profile();
  config.workload = Workload::kTrace;
  config.trace_text = kScenarioTrace;
  config.trace_max_flows = 8;
  config.test_duration = Duration::seconds(8.0);
  config.seed = 11;
  return config;
}

TEST(TraceScenario, HonestRunDeliversEveryPlannedServerByte) {
  ScenarioConfig config = trace_scenario();
  trace::ReplayOptions opts;
  opts.max_flows = config.trace_max_flows;
  trace::ReplayPlan plan =
      trace::build_replay_plan(parse_or_die(config.trace_text.text()), opts);
  ASSERT_EQ(plan.flows.size(), 3u);

  RunMetrics m = core::run_scenario(config, std::nullopt);
  EXPECT_TRUE(m.target_established);
  EXPECT_FALSE(m.target_reset);
  EXPECT_EQ(m.target_bytes, plan.total_server_bytes);
  // The competing bulk download ran alongside, untouched by the workload
  // swap on the target side.
  EXPECT_TRUE(m.competing_established);
  EXPECT_GT(m.competing_bytes, plan.total_server_bytes);
}

TEST(TraceScenario, MalformedTraceDegradesToZeroFlowRun) {
  ScenarioConfig config = trace_scenario();
  config.trace_text = "not a trace\n";
  RunMetrics m = core::run_scenario(config, std::nullopt);
  EXPECT_EQ(m.target_bytes, 0u);
  EXPECT_FALSE(m.target_established);
  // The rest of the scenario still runs.
  EXPECT_TRUE(m.competing_established);
}

std::string metrics_fingerprint(const RunMetrics& m) {
  obs::JsonWriter w;
  core::write_json(w, m);
  return w.take();
}

TEST(TraceScenario, BitIdenticalAcrossFreshAndArenaRuns) {
  ScenarioConfig config = trace_scenario();
  RunMetrics fresh1 = core::run_scenario(config, std::nullopt);
  RunMetrics fresh2 = core::run_scenario(config, std::nullopt);
  core::ScenarioArena arena;
  RunMetrics pooled1 = core::run_scenario(arena, config, std::nullopt);
  RunMetrics pooled2 = core::run_scenario(arena, config, std::nullopt);
  EXPECT_EQ(metrics_fingerprint(fresh1), metrics_fingerprint(fresh2));
  EXPECT_EQ(metrics_fingerprint(fresh1), metrics_fingerprint(pooled1));
  EXPECT_EQ(metrics_fingerprint(fresh1), metrics_fingerprint(pooled2));
}

// ------------------------------------------------- campaign + dist plumbing

CampaignConfig trace_campaign() {
  CampaignConfig config;
  config.scenario = trace_scenario();
  config.scenario.test_duration = Duration::seconds(5.0);
  config.generator = strategy::tcp_generator_config();
  config.generator.hitseq_max_packets = 2000;
  config.executors = 2;
  config.max_strategies = 12;
  config.collect_metrics = false;  // registries legitimately differ
  return config;
}

TEST(TraceCampaign, MalformedTraceIsConfigError) {
  // Unlike a direct run_scenario (MalformedTraceDegradesToZeroFlowRun), a
  // campaign refuses an unparsable trace before its first trial and names
  // the offending line.
  CampaignConfig config = trace_campaign();
  config.scenario.trace_text = "# snake-trace/v1\n0.0 web open\n0.5 web warp 10\n";
  std::string error;
  try {
    (void)core::run_campaign(config);
  } catch (const std::invalid_argument& e) {
    error = e.what();
  }
  EXPECT_NE(error.find("trace line 3"), std::string::npos) << "got: " << error;
}

TEST(TraceCampaign, IdentityHashCoversTraceContent) {
  CampaignConfig base = trace_campaign();
  const std::uint64_t h = core::campaign_identity_hash(base);
  EXPECT_EQ(core::campaign_identity_hash(base), h);

  CampaignConfig other_text = trace_campaign();
  other_text.scenario.trace_text =
      other_text.scenario.trace_text.text() + "\n# trailing comment";
  EXPECT_NE(core::campaign_identity_hash(other_text), h);

  CampaignConfig other_cap = trace_campaign();
  other_cap.scenario.trace_max_flows = 2;
  EXPECT_NE(core::campaign_identity_hash(other_cap), h);

  CampaignConfig other_scale = trace_campaign();
  other_scale.scenario.trace_time_scale = 0.5;
  EXPECT_NE(core::campaign_identity_hash(other_scale), h);

  // A bulk campaign ignores the trace fields entirely: journals and cache
  // entries from pre-trace builds keep their identity.
  CampaignConfig bulk = trace_campaign();
  bulk.scenario.workload = Workload::kBulk;
  CampaignConfig bulk_stale = trace_campaign();
  bulk_stale.scenario.workload = Workload::kBulk;
  bulk_stale.scenario.trace_text = "leftover";
  EXPECT_EQ(core::campaign_identity_hash(bulk), core::campaign_identity_hash(bulk_stale));
  EXPECT_NE(core::campaign_identity_hash(bulk), h);
}

TEST(TraceWire, ScenarioConfigRoundTripsTraceFields) {
  dist::WorkerCampaign wc;
  wc.campaign.scenario = trace_scenario();
  wc.campaign.scenario.trace_time_scale = 0.75;
  wc.campaign.scenario.trace_max_flows = 5;
  std::optional<dist::Message> msg = dist::parse_message(dist::encode_campaign(wc));
  ASSERT_TRUE(msg.has_value());
  ASSERT_EQ(msg->type, dist::MsgType::kCampaign);
  const ScenarioConfig& got = msg->campaign.campaign.scenario;
  EXPECT_EQ(got.workload, Workload::kTrace);
  EXPECT_EQ(got.trace_text.text(), wc.campaign.scenario.trace_text.text());
  EXPECT_EQ(got.trace_max_flows, 5u);
  EXPECT_DOUBLE_EQ(got.trace_time_scale, 0.75);
  // Bulk configs stay bulk and ship no trace payload.
  dist::WorkerCampaign bulk;
  bulk.campaign.scenario = trace_scenario();
  bulk.campaign.scenario.workload = Workload::kBulk;
  std::optional<dist::Message> bulk_msg = dist::parse_message(dist::encode_campaign(bulk));
  ASSERT_TRUE(bulk_msg.has_value());
  EXPECT_EQ(bulk_msg->campaign.campaign.scenario.workload, Workload::kBulk);
  EXPECT_TRUE(bulk_msg->campaign.campaign.scenario.trace_text.empty());
}

TEST(TraceCampaign, BitIdenticalAcrossSnapshotsAndExecutorWidths) {
  // Each run's metrics are counted, then dropped before comparing reports:
  // registries legitimately differ.
  auto run = [](const CampaignConfig& config, std::uint64_t* forked_runs) {
    CampaignResult result = core::run_campaign(config);
    *forked_runs = result.metrics.counter("snapshot.forked_runs");
    result.metrics = obs::MetricsRegistry();
    return result;
  };
  CampaignConfig base = trace_campaign();
  base.collect_metrics = true;
  std::uint64_t forked = 0;
  const CampaignResult first = run(base, &forked);
  EXPECT_EQ(first.strategies_tried, 12u);
  EXPECT_GT(first.baseline.target_bytes, 0u);
  EXPECT_GT(forked, 0u) << "no trial was served from a snapshot";
  const std::string reference = first.to_json();

  // The from-zero twin: snapshot stores decline configs that carry an
  // inspector, so a no-op one makes every trial run from t=0.
  class NoopInspector : public core::RunInspector {
    void on_run_complete(sim::Dumbbell&, proxy::AttackProxy&, const RunMetrics&) override {}
  } noop;
  CampaignConfig from_zero = base;
  from_zero.scenario.inspector = &noop;
  EXPECT_EQ(run(from_zero, &forked).to_json(), reference);
  EXPECT_EQ(forked, 0u) << "the from-zero twin forked a trial";

  CampaignConfig wide = base;
  wide.executors = 4;
  EXPECT_EQ(run(wide, &forked).to_json(), reference);
}

}  // namespace
}  // namespace snake
