#include "traced.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <set>

#include "dccp/packet.h"
#include "dist/wire.h"
#include "obs/json.h"
#include "packet/codec.h"
#include "search/search.h"
#include "sim/dumbbell.h"
#include "sim/trace.h"
#include "snake/arena.h"
#include "snake/detector.h"
#include "snake/journal.h"
#include "snake/snapshot.h"
#include "statemachine/tracker.h"
#include "strategy/generator.h"
#include "tcp/segment.h"
#include "trace/trace.h"
#include "util/checksum.h"

namespace campbench {

using namespace snake;
using core::CampaignConfig;
using core::RunMetrics;
using core::ScenarioConfig;
using core::TrialRecord;
using Clock = std::chrono::steady_clock;

namespace {

/// Keeps results of timed loops observable so the loops are not optimized
/// away.
volatile std::uint64_t g_sink = 0;

/// Copies every packet an endpoint sent during one run.
class PacketCapture : public core::RunInspector {
 public:
  std::vector<sim::Packet> packets;
  void on_run_complete(sim::Dumbbell& net, proxy::AttackProxy&, const RunMetrics&) override {
    for (const sim::TraceEntry& e : net.network().trace().entries())
      if (e.kind == sim::TraceKind::kSend) packets.push_back(e.packet);
  }
};

/// Runs `pass` (which performs `ops` operations) as repeated spans until at
/// least 20 ms are spent, and returns nanoseconds per operation.
template <class F>
double ns_per_op(SpanLog& log, const char* name, std::size_t ops, F&& pass) {
  if (ops == 0) return 0.0;
  double spent = 0.0;
  std::size_t passes = 0;
  while (passes < 3 || spent < 0.02) {
    const int id = log.begin(name);
    pass();
    log.end(id);
    spent += log.duration(id);
    ++passes;
  }
  return spent * 1e9 / static_cast<double>(passes * ops);
}

std::vector<statemachine::EndpointTracker::Observation> as_observations(
    const std::vector<core::JournalObservation>& pairs) {
  std::vector<statemachine::EndpointTracker::Observation> out;
  for (const core::JournalObservation& o : pairs)
    out.push_back({o.state, o.packet_type, statemachine::TriggerKind::kSend});
  return out;
}

std::uint64_t counter(const obs::MetricsRegistry& reg, const std::string& name) {
  auto it = reg.counters().find(name);
  return it == reg.counters().end() ? 0 : it->second;
}

std::uint64_t counter_sum(const obs::MetricsRegistry& reg, const std::string& prefix,
                          const std::string& suffix) {
  std::uint64_t sum = 0;
  for (const auto& [name, v] : reg.counters())
    if (name.rfind(prefix, 0) == 0 && name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0)
      sum += v;
  return sum;
}

const obs::Histogram* histogram(const obs::MetricsRegistry& reg, const std::string& name) {
  auto it = reg.histograms().find(name);
  return it == reg.histograms().end() ? nullptr : &it->second;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

RunMetrics run_one(core::SnapshotStore& store, core::ScenarioArena& arena,
                   const ScenarioConfig& config, const strategy::Strategy& strat) {
  if (auto forked = store.run_trial(config, {strat})) return *forked;
  return core::run_scenario(arena, config, std::optional<strategy::Strategy>(strat));
}

}  // namespace

TracedReport run_traced(const Workload& w, const Inputs& in, std::uint64_t seed,
                        double seconds) {
  TracedReport report;
  auto put = [&](std::string name, double value, std::string unit) {
    report.metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  };
  auto mismatch = [&](std::string what) {
    report.problems.push_back(std::move(what));
    ++report.failed;
  };

  // ---- Untraced reference campaigns: the base for the tracing overhead and
  // the verdicts the traced run must reproduce.
  std::vector<double> plain_sps;
  ResultFacts reference;
  for (int i = 0; i < 3; ++i) {
    Rep rep = run_rep(w, in, seed);
    if (i == 0) reference = rep.facts;
    else if (!(rep.facts == reference)) mismatch("untraced campaigns disagree");
    plain_sps.push_back(rep.strategies_per_s);
    report.attempted += rep.result.strategies_tried;
    report.failed += rep.failed;
  }

  // ---- The traced campaign: journal sink plus spans around cache and fleet
  // calls. Everything else is the untraced campaign.
  SpanLog log;
  std::vector<TrialRecord> records;  // commit order
  core::TrialJournal journal([&](std::string_view line) {
    if (auto doc = obs::parse_json(std::string(line)))
      if (auto rec = core::trial_record_from_json(*doc)) records.push_back(std::move(*rec));
  });
  RepHooks hooks{&journal, &log};
  Rep traced = run_rep(w, in, seed, &hooks);
  report.attempted += traced.result.strategies_tried;
  report.failed += traced.failed;
  if (!(traced.facts == reference)) mismatch("traced campaign differs from untraced");
  if (records.size() != traced.result.strategies_tried)
    mismatch("journal holds " + std::to_string(records.size()) + " records for " +
             std::to_string(traced.result.strategies_tried) + " trials");
  const core::CampaignResult& result = traced.result;
  const obs::MetricsRegistry& reg = result.metrics;
  const double tried = static_cast<double>(result.strategies_tried);

  const std::string trace_text = w.trace_replay ? read_file(in.trace_path) : std::string();
  const CampaignConfig config = make_config(w, seed, trace_text);
  ScenarioConfig base = config.scenario;
  base.early_exit = config.early_exit;
  ScenarioConfig retest = base;
  retest.seed += config.retest_seed_offset;
  const packet::HeaderFormat& format = core::format_for_protocol(w.protocol);
  const statemachine::StateMachine& machine = core::machine_for_protocol(w.protocol);
  const bool tcp = w.protocol == core::Protocol::kTcp;

  // ---- tcp / dccp / apps: the non-attack baseline.
  core::ScenarioArena arena;
  RunMetrics baseline;
  {
    ScopedSpan span(log, tcp ? "tcp.baseline_run" : "dccp.baseline_run");
    baseline = core::run_scenario(arena, base, std::nullopt);
  }
  const RunMetrics retest_baseline = core::run_scenario(arena, retest, std::nullopt);
  const double baseline_ms = log.total(tcp ? "tcp.baseline_run" : "dccp.baseline_run") * 1e3;
  put("tcp.baseline_run_ms", tcp ? baseline_ms : 0.0, "ms");
  put("tcp.baseline_goodput_bytes", tcp ? static_cast<double>(baseline.target_bytes) : 0.0,
      "bytes");
  put("dccp.baseline_run_ms", tcp ? 0.0 : baseline_ms, "ms");

  // ---- trace: parse and plan, as every world build does today.
  std::size_t flows_replayed = 0;
  if (w.trace_replay) {
    std::optional<trace::ParsedTrace> parsed;
    {
      ScopedSpan span(log, "trace.parse");
      parsed = trace::parse_trace(trace_text);
    }
    if (!parsed.has_value()) {
      mismatch("generated trace does not parse");
    } else {
      trace::ReplayOptions opts;
      opts.max_flows = base.trace_max_flows;
      opts.seed = base.seed;
      opts.time_scale = base.trace_time_scale;
      ScopedSpan span(log, "trace.plan");
      flows_replayed = trace::build_replay_plan(*parsed, opts).flows.size();
    }
  }
  const std::uint64_t world_builds =
      w.trace_replay ? counter(reg, "scenario.baseline_runs") +
                           counter(reg, "snapshot.sessions_built") +
                           (counter(reg, "scenario.attack_runs") -
                            std::min(counter(reg, "scenario.attack_runs"),
                                     counter(reg, "snapshot.forked_runs")))
                     : 0;
  put("trace.parse_ms", log.total("trace.parse") * 1e3, "ms");
  put("trace.plan_ms", log.total("trace.plan") * 1e3, "ms");
  put("trace.text_bytes", static_cast<double>(trace_text.size()), "bytes");
  put("trace.world_builds", static_cast<double>(world_builds), "count");
  put("apps.trace_flows_replayed", static_cast<double>(flows_replayed), "count");

  // ---- strategy: the universe the campaign starts from.
  strategy::StrategyGenerator generator(format, machine, config.generator);
  std::vector<strategy::Strategy> initial, off_path;
  {
    ScopedSpan span(log, "strategy.generate");
    initial = generator.on_observations(baseline.client_observations,
                                        baseline.server_observations);
    off_path = generator.off_path_strategies();
  }
  put("strategy.universe_size", static_cast<double>(initial.size() + off_path.size()), "count");
  put("strategy.generate_ms", log.total("strategy.generate") * 1e3, "ms");

  // ---- Re-derive every committed strategy from the journal. Grid: the
  // generator fed the journaled observations. Greybox: the search engine
  // driven through the same commit sequence, which times on_result and
  // next_round and checks the engine's choices against the journal.
  std::map<std::string, strategy::Strategy> by_key;
  for (const auto* batch : {&initial, &off_path})
    for (const strategy::Strategy& s : *batch) by_key.emplace(strategy::canonical_key(s), s);
  if (!w.greybox) {
    for (const TrialRecord& rec : records) {
      if (rec.verdict != core::TrialVerdict::kCompleted) continue;
      for (strategy::Strategy& s : generator.on_observations(as_observations(rec.client_obs),
                                                             as_observations(rec.server_obs)))
        by_key.emplace(strategy::canonical_key(s), std::move(s));
    }
  } else {
    search::SearchEngine engine(config.search, config.scenario.seed, format, machine);
    engine.offer(initial);
    engine.offer(off_path);
    std::set<std::pair<std::string, std::string>> covered;
    std::size_t next = 0;
    bool diverged = false;
    while (!diverged && (config.max_strategies == 0 || next < config.max_strategies)) {
      std::vector<strategy::Strategy> round;
      {
        ScopedSpan span(log, "search.next_round");
        round = engine.next_round();
      }
      if (round.empty()) break;
      for (strategy::Strategy& s : round) {
        if (config.max_strategies != 0 && next >= config.max_strategies) break;
        const std::string key = strategy::canonical_key(s);
        if (next >= records.size() || records[next].key != key) {
          mismatch("greybox replay diverges from the journal at trial " + std::to_string(next));
          diverged = true;
          break;
        }
        const TrialRecord& rec = records[next++];
        search::TrialFeedback feedback;
        if (rec.verdict == core::TrialVerdict::kCompleted) {
          engine.offer(generator.on_observations(as_observations(rec.client_obs),
                                                 as_observations(rec.server_obs)));
          feedback.completed = true;
          feedback.found = rec.found;
          feedback.margin = rec.found ? core::impact_score(rec.detection) : 0.0;
          for (const auto* obs_list : {&rec.client_obs, &rec.server_obs})
            for (const core::JournalObservation& p : *obs_list)
              if (covered.emplace(p.state, p.packet_type).second)
                feedback.fresh_pairs.emplace_back(p.state, p.packet_type);
        }
        {
          ScopedSpan span(log, "search.on_result");
          engine.on_result(s, feedback);
        }
        by_key.emplace(key, std::move(s));
      }
    }
    if (!diverged && (engine.rounds() != result.search_rounds ||
                      engine.mutations_spawned() != result.search_mutations))
      mismatch("greybox replay ends with different rounds or mutations");
  }
  auto mean = [&](const char* span) { return ratio(log.total(span), log.count(span)); };
  put("search.on_result_us", mean("search.on_result") * 1e6, "us");
  put("search.next_round_ms", mean("search.next_round") * 1e3, "ms");
  put("search.rounds", static_cast<double>(result.search_rounds), "count");
  put("search.mutations", static_cast<double>(result.search_mutations), "count");

  // ---- snake + detector: replay an even sample of committed trials with
  // exact spans, mirroring execute_trial, and check each verdict against the
  // journal.
  core::SnapshotStore store;
  store.set_max_sessions_per_seed(1);
  std::vector<std::size_t> sample;
  for (std::size_t i = 0; i < records.size(); ++i)
    if (records[i].verdict == core::TrialVerdict::kCompleted && records[i].attempts == 1)
      sample.push_back(i);
  const std::size_t stride = std::max<std::size_t>(1, sample.size() / 400);
  const Clock::time_point replay_start = Clock::now();
  std::size_t replayed = 0;
  for (std::size_t k = 0; k < sample.size(); k += stride) {
    if (replayed >= 30 &&
        std::chrono::duration<double>(Clock::now() - replay_start).count() > seconds)
      break;
    const TrialRecord& rec = records[sample[k]];
    auto it = by_key.find(rec.key);
    if (it == by_key.end()) {
      mismatch("journaled strategy not re-derivable: " + rec.key);
      continue;
    }
    const strategy::Strategy& strat = it->second;
    ++replayed;
    ScopedSpan strategy_span(log, "snake.strategy");
    const int parent = strategy_span.id();
    RunMetrics run;
    {
      ScopedSpan span(log, "snake.trial", parent);
      run = run_one(store, arena, base, strat);
    }
    core::Detection first;
    {
      ScopedSpan span(log, "detector.detect", parent);
      first = core::detect(baseline, run, config.detect_threshold);
    }
    bool found = false;
    std::string signature;
    core::AttackClass cls = core::AttackClass::kTrueAttack;
    if (first.is_attack) {
      RunMetrics again;
      {
        ScopedSpan span(log, "snake.retest", parent);
        again = run_one(store, arena, retest, strat);
      }
      core::Detection second;
      {
        ScopedSpan span(log, "detector.detect", parent);
        second = core::detect(retest_baseline, again, config.detect_threshold);
      }
      if (second.is_attack) {
        found = true;
        {
          ScopedSpan span(log, "detector.classify", parent);
          cls = core::classify(strat, format, first, run);
        }
        ScopedSpan span(log, "detector.signature", parent);
        signature = core::attack_signature(strat, format, first, run, config.detect_threshold);
      }
    }
    if (found != rec.found || (found && (signature != rec.signature || cls != rec.cls)))
      mismatch("replayed verdict differs for " + rec.key);
  }
  report.attempted += replayed;
  put("detector.detect_us", mean("detector.detect") * 1e6, "us");
  const std::vector<double> trial_s = log.durations("snake.trial");
  put("snake.trials_replayed", static_cast<double>(replayed), "count");
  put("snake.trial_ms_p50", quantile(trial_s, 0.50) * 1e3, "ms");
  put("snake.trial_ms_p99", quantile(trial_s, 0.99) * 1e3, "ms");

  // ---- Counters the campaign registry holds.
  const double runs = static_cast<double>(counter(reg, "scenario.baseline_runs") +
                                          counter(reg, "scenario.attack_runs"));
  const double confirmed = static_cast<double>(counter(reg, "campaign.retest_confirmed"));
  const double rejected = static_cast<double>(counter(reg, "campaign.retest_rejected"));
  const obs::Histogram* run_hist = histogram(reg, "scenario.run_seconds");
  const double busy_s = run_hist != nullptr ? run_hist->sum : 0.0;
  put("snake.runs_per_strategy", ratio(runs, tried), "ratio");
  put("snake.retest_confirm_ratio", ratio(confirmed, confirmed + rejected), "ratio");
  put("snake.executor_idle_share",
      1.0 - ratio(busy_s, static_cast<double>(config.executors) * traced.wall_s), "ratio");
  put("snake.teardown_ms", traced.teardown_s * 1e3, "ms");
  const obs::Histogram* base_hist = histogram(reg, "campaign.baseline_seconds");
  put("snake.baseline_ms", base_hist != nullptr ? base_hist->sum * 1e3 : 0.0, "ms");

  const double forked = static_cast<double>(counter(reg, "snapshot.forked_runs"));
  const double fallback = static_cast<double>(counter(reg, "snapshot.fallback_runs"));
  const obs::Histogram* restore = histogram(reg, "snapshot.restore_seconds");
  const obs::Histogram* build = histogram(reg, "snapshot.session_build_seconds");
  put("snapshot.fork_ratio", ratio(forked, forked + fallback), "ratio");
  put("snapshot.restore_ms_p50", restore != nullptr ? histogram_quantile(*restore, 0.5) * 1e3 : 0.0,
      "ms");
  put("snapshot.session_build_ms",
      build != nullptr ? ratio(build->sum, static_cast<double>(build->count)) * 1e3 : 0.0, "ms");
  put("snapshot.sessions", static_cast<double>(counter(reg, "snapshot.sessions_built")), "count");

  const double events = static_cast<double>(counter(reg, "sim.events_executed"));
  const double link_fwd = static_cast<double>(counter_sum(reg, "link.", ".packets_forwarded"));
  const double link_drop = static_cast<double>(counter_sum(reg, "link.", ".packets_dropped"));
  put("sim.events_per_strategy", ratio(events, tried), "count");
  put("sim.event_ns", ratio(busy_s, events) * 1e9, "ns");
  put("sim.buffer_reuse_ratio",
      ratio(static_cast<double>(counter(reg, "sim.buffers_reused")),
            static_cast<double>(counter(reg, "sim.buffers_acquired"))),
      "ratio");
  put("sim.link.packets_per_strategy", ratio(link_fwd, tried), "count");
  put("sim.link.drop_ratio", ratio(link_drop, link_fwd + link_drop), "ratio");

  const double intercepted = static_cast<double>(counter(reg, "proxy.intercepted"));
  const double matched = static_cast<double>(counter(reg, "proxy.matched"));
  const double actions = static_cast<double>(counter_sum(reg, "proxy.action.", ""));
  put("proxy.intercepted_per_strategy", ratio(intercepted, tried), "count");
  put("proxy.match_ratio", ratio(matched, intercepted), "ratio");
  put("proxy.actions_per_strategy", ratio(actions, tried), "count");

  const double transitions = static_cast<double>(counter(reg, "tracker.client.transitions") +
                                                 counter(reg, "tracker.server.transitions"));
  const double unknown = static_cast<double>(counter(reg, "tracker.client.unknown_packets") +
                                             counter(reg, "tracker.server.unknown_packets"));
  put("statemachine.transitions_per_strategy", ratio(transitions, tried), "count");
  put("statemachine.unknown_ratio", ratio(unknown, 2.0 * intercepted), "ratio");

  // ---- packet + statemachine: unit costs over the packets of one baseline.
  PacketCapture capture;
  {
    ScenarioConfig traced_base = base;
    traced_base.inspector = &capture;
    core::run_scenario(traced_base, std::nullopt);
  }
  const std::vector<sim::Packet>& pkts = capture.packets;
  const packet::Codec codec(format);
  double options = 0.0;
  std::vector<tcp::Segment> segments;
  std::vector<dccp::DccpPacket> datagrams;
  for (const sim::Packet& p : pkts) {
    if (tcp) {
      if (auto s = tcp::parse_segment(p.bytes)) {
        options += (s->sack_permitted ? 1 : 0) + (s->sack_blocks.empty() ? 0 : 1);
        segments.push_back(std::move(*s));
      }
    } else if (auto d = dccp::parse_dccp(p.bytes)) {
      datagrams.push_back(std::move(*d));
    }
  }
  const double parse_ns = ns_per_op(log, "packet.parse", pkts.size(), [&] {
    for (const sim::Packet& p : pkts)
      g_sink = g_sink + (tcp ? tcp::parse_segment(p.bytes).has_value()
                             : dccp::parse_dccp(p.bytes).has_value());
  });
  const double serialize_ns =
      ns_per_op(log, "packet.serialize", tcp ? segments.size() : datagrams.size(), [&] {
        if (tcp)
          for (const tcp::Segment& s : segments) g_sink = g_sink + tcp::serialize(s).size();
        else
          for (const dccp::DccpPacket& d : datagrams) g_sink = g_sink + dccp::serialize(d).size();
      });
  const double classify_ns = ns_per_op(log, "packet.classify", pkts.size(), [&] {
    for (const sim::Packet& p : pkts)
      g_sink = g_sink + static_cast<std::uint64_t>(codec.classify_index(p.bytes) + 1);
  });
  const double checksum_ns = ns_per_op(log, "packet.checksum", pkts.size(), [&] {
    for (const sim::Packet& p : pkts) g_sink = g_sink + internet_checksum(p.bytes);
  });
  put("packet.parse_ns", parse_ns, "ns");
  put("packet.serialize_ns", serialize_ns, "ns");
  put("packet.classify_ns", classify_ns, "ns");
  put("packet.checksum_ns", checksum_ns, "ns");
  put("packet.options_per_segment", ratio(options, static_cast<double>(segments.size())),
      "count");

  std::vector<std::string> types;
  for (const sim::Packet& p : pkts) {
    const int t = codec.classify_index(p.bytes);
    types.push_back(t >= 0 ? codec.type_name(t) : std::string("?"));
  }
  const sim::Address client = pkts.empty() ? 0 : pkts.front().src;
  const sim::Address server = pkts.empty() ? 0 : pkts.front().dst;
  const double observe_ns = ns_per_op(log, "statemachine.observe", 2 * pkts.size(), [&] {
    statemachine::ConnectionTracker tracker(machine, client, server, TimePoint::origin());
    for (std::size_t i = 0; i < pkts.size(); ++i)
      tracker.observe_packet(pkts[i].src, pkts[i].dst, types[i], TimePoint::origin());
    g_sink = g_sink + tracker.client().transitions();
  });
  put("statemachine.observe_ns", observe_ns, "ns");

  // ---- journal, dist wire, cache, obs.
  const double encode_us = ns_per_op(log, "journal.record_encode", records.size(), [&] {
    for (const TrialRecord& rec : records) {
      obs::JsonWriter jw;
      core::write_json(jw, rec);
      g_sink = g_sink + jw.str().size();
    }
  }) * 1e-3;
  put("journal.record_encode_us", encode_us, "us");

  double frame_encode_us = 0.0, frame_parse_us = 0.0, frame_bytes = 0.0;
  if (w.fleet) {
    std::vector<std::string> frames;
    for (std::size_t i = 0; i < records.size(); ++i)
      frames.push_back(dist::encode_result(i, records[i]));
    for (const std::string& f : frames) frame_bytes += static_cast<double>(f.size());
    frame_bytes = ratio(frame_bytes, static_cast<double>(frames.size()));
    frame_encode_us = ns_per_op(log, "dist.frame_encode", records.size(), [&] {
      for (std::size_t i = 0; i < records.size(); ++i)
        g_sink = g_sink + dist::encode_result(i, records[i]).size();
    }) * 1e-3;
    std::size_t unparsed = 0;
    frame_parse_us = ns_per_op(log, "dist.frame_parse", frames.size(), [&] {
      unparsed = 0;
      for (const std::string& f : frames) unparsed += !dist::parse_message(f).has_value();
    }) * 1e-3;
    if (unparsed != 0) mismatch("result frames that do not parse: " + std::to_string(unparsed));
  }
  put("dist.spawn_ms", log.total("dist.start") * 1e3, "ms");
  put("dist.frame_encode_us", frame_encode_us, "us");
  put("dist.frame_parse_us", frame_parse_us, "us");
  put("dist.frame_bytes", frame_bytes, "bytes");
  put("dist.trials_stolen", static_cast<double>(traced.trials_stolen), "count");
  put("dist.inline_trials", static_cast<double>(traced.inline_trials), "count");

  put("cache.load_ms", log.total("cache.load") * 1e3, "ms");
  put("cache.lookup_us", mean("cache.lookup") * 1e6, "us");
  put("cache.store_us", mean("cache.store") * 1e6, "us");
  put("cache.hit_ratio", ratio(static_cast<double>(result.cache_hits), tried), "ratio");

  {
    ScopedSpan span(log, "obs.report");
    g_sink = g_sink + result.to_json().size();
  }
  put("obs.report_ms", log.total("obs.report") * 1e3, "ms");

  // ---- Where the traced strategy time goes. Spans time the trial body, the
  // retest and the detector directly; inside a run, the per-packet layers
  // are charged at their measured unit cost times the campaign's per-run
  // counts, and snapshot restore at the campaign's own timer. The rest of a
  // run (scheduler, endpoints, apps, proxy actions) is the unexplained share.
  const double strategy_s = log.total("snake.strategy");
  const double runs_replayed =
      static_cast<double>(log.count("snake.trial") + log.count("snake.retest"));
  const double pkts_per_run = ratio(link_fwd, runs);
  const double intercepted_per_run = ratio(intercepted, runs);
  const double packet_s =
      runs_replayed *
      (pkts_per_run * (parse_ns + serialize_ns) + intercepted_per_run * classify_ns) * 1e-9;
  const double statemachine_s = runs_replayed * 2.0 * intercepted_per_run * observe_ns * 1e-9;
  const double restore_s =
      runs_replayed * ratio(restore != nullptr ? restore->sum : 0.0, runs);
  const double detector_s = log.total("detector.detect") + log.total("detector.classify") +
                            log.total("detector.signature");
  const double packet_share = ratio(packet_s, strategy_s);
  const double statemachine_share = ratio(statemachine_s, strategy_s);
  const double restore_share = ratio(restore_s, strategy_s);
  const double detector_share = ratio(detector_s, strategy_s);
  put("packet.trial_share", packet_share, "ratio");
  put("statemachine.trial_share", statemachine_share, "ratio");
  put("snapshot.trial_share", restore_share, "ratio");
  put("detector.trial_share", detector_share, "ratio");
  put("layers.unexplained_share",
      strategy_s > 0 ? 1.0 - packet_share - statemachine_share - restore_share - detector_share
                     : 0.0,
      "ratio");

  // ---- Self time per layer: span time minus the time of its child spans.
  for (const char* layer : {"snake", "detector", "packet", "statemachine", "strategy", "search",
                            "trace", "dist", "cache", "journal", "obs", "tcp", "dccp"}) {
    const std::string prefix = std::string(layer) + ".";
    std::set<std::string> names;
    for (const SpanLog::Span& s : log.spans())
      if (s.name.rfind(prefix, 0) == 0) names.insert(s.name);
    double self = 0.0;
    for (const std::string& n : names) self += log.total_self(n);
    put(prefix + "self_ms", self * 1e3, "ms");
  }

  const double plain = median(plain_sps);
  put("tracing.untraced_strategies_per_s", plain, "1/s");
  put("tracing.traced_strategies_per_s", traced.strategies_per_s, "1/s");
  put("tracing.overhead", plain > 0 ? 1.0 - traced.strategies_per_s / plain : 0.0, "ratio");
  return report;
}

}  // namespace campbench
