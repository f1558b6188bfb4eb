#include "snake/controller.h"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>

#include "obs/json.h"
#include "packet/dccp_format.h"
#include "packet/tcp_format.h"
#include "snake/arena.h"
#include "snake/backend.h"
#include "snake/trial_runner.h"
#include "statemachine/protocol_specs.h"
#include "trace/trace.h"
#include "util/logging.h"
#include "util/strings.h"

namespace snake::core {

const packet::HeaderFormat& format_for_protocol(Protocol protocol) {
  return protocol == Protocol::kTcp ? packet::tcp_format() : packet::dccp_format();
}

const statemachine::StateMachine& machine_for_protocol(Protocol protocol) {
  return protocol == Protocol::kTcp ? statemachine::tcp_state_machine()
                                    : statemachine::dccp_state_machine();
}

void count_detection_reasons(obs::MetricsRegistry* reg, const Detection& d,
                             double threshold) {
  if (reg == nullptr || !d.is_attack) return;
  if (d.target_ratio <= threshold) ++reg->counter("campaign.reason.target_throughput_down");
  if (d.target_ratio >= 1.0 + threshold)
    ++reg->counter("campaign.reason.target_throughput_up");
  if (d.competing_ratio <= threshold)
    ++reg->counter("campaign.reason.competing_throughput_down");
  if (d.competing_ratio >= 1.0 + threshold)
    ++reg->counter("campaign.reason.competing_throughput_up");
  if (d.resource_exhaustion) ++reg->counter("campaign.reason.resource_exhaustion");
}

namespace {

void write_baseline_json(obs::JsonWriter& w, const RunMetrics& m) {
  w.begin_object();
  w.key("target_bytes").value(m.target_bytes);
  w.key("competing_bytes").value(m.competing_bytes);
  w.key("target_established").value(m.target_established);
  w.key("competing_established").value(m.competing_established);
  w.key("target_reset").value(m.target_reset);
  w.key("competing_reset").value(m.competing_reset);
  w.key("server1_stuck_sockets").value(static_cast<std::uint64_t>(m.server1_stuck_sockets));
  w.key("server2_stuck_sockets").value(static_cast<std::uint64_t>(m.server2_stuck_sockets));
  w.end_object();
}

/// Rebuilds the tracker-observation form on_observations consumes from the
/// journaled (state, packet type) send-pairs. The generator ignores
/// receive-events and dedups internally, so feeding the deduplicated list —
/// whether the trial ran live, was replayed from a journal or cache, or
/// crossed a process boundary — reproduces its output verbatim.
std::vector<statemachine::EndpointTracker::Observation> feedback_observations(
    const std::vector<JournalObservation>& pairs) {
  std::vector<statemachine::EndpointTracker::Observation> out;
  out.reserve(pairs.size());
  for (const JournalObservation& o : pairs)
    out.push_back({o.state, o.packet_type, statemachine::TriggerKind::kSend});
  return out;
}

/// Where a committed trial record came from; decides which tallies move and
/// whether the record is journaled/cached.
enum class TrialSource { kLive, kResume, kCache };

}  // namespace

std::string table1_header() {
  return str_format("%-12s %-12s %10s %10s %10s %10s %10s %8s", "Protocol", "Impl",
                    "Tried", "Found", "On-path", "FalsePos", "TrueStrat", "Attacks");
}

std::string CampaignResult::summary_row() const {
  return str_format("%-12s %-12s %10llu %10llu %10llu %10llu %10llu %8llu",
                    protocol == Protocol::kTcp ? "TCP" : "DCCP", implementation.c_str(),
                    (unsigned long long)strategies_tried,
                    (unsigned long long)attack_strategies_found, (unsigned long long)on_path,
                    (unsigned long long)false_positives,
                    (unsigned long long)true_attack_strategies,
                    (unsigned long long)unique_true_attacks);
}

std::string CampaignResult::to_json() const {
  obs::JsonWriter w;
  write_json(w);
  return w.take();
}

void CampaignResult::write_json(obs::JsonWriter& w) const {
  w.begin_object();
  w.key("schema").value("snake-campaign-report/v1");
  w.key("protocol").value(to_string(protocol));
  w.key("implementation").value(implementation);
  w.key("table1").begin_object();
  w.key("strategies_tried").value(strategies_tried);
  w.key("attack_strategies_found").value(attack_strategies_found);
  w.key("on_path").value(on_path);
  w.key("false_positives").value(false_positives);
  w.key("true_attack_strategies").value(true_attack_strategies);
  w.key("unique_true_attacks").value(unique_true_attacks);
  w.end_object();
  w.key("baseline");
  write_baseline_json(w, baseline);
  w.key("outcomes").begin_array();
  for (const StrategyOutcome& o : found) {
    w.begin_object();
    w.key("strategy").value(o.strat.describe());
    w.key("class").value(to_string(o.cls));
    w.key("signature").value(o.signature);
    w.key("detection");
    core::write_json(w, o.detection);
    w.end_object();
  }
  w.end_array();
  w.key("unique_signatures").begin_array();
  for (const std::string& sig : unique_signatures) w.value(sig);
  w.end_array();
  w.key("combinations").begin_object();
  w.key("tried").value(combinations_tried);
  w.key("stronger_than_parts").value(combinations_stronger);
  w.key("pairs").begin_array();
  for (const CombinedOutcome& c : combined) {
    w.begin_object();
    w.key("first").value(c.first.describe());
    w.key("second").value(c.second.describe());
    w.key("impact_score").value(c.impact_score);
    w.key("best_single_score").value(c.best_single_score);
    w.key("stronger_than_parts").value(c.stronger_than_parts);
    w.key("detection");
    core::write_json(w, c.detection);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("resilience").begin_object();
  w.key("trials_aborted").value(trials_aborted);
  w.key("trials_errored").value(trials_errored);
  w.key("trials_retried").value(trials_retried);
  w.key("strategies_quarantined").value(static_cast<std::uint64_t>(quarantined.size()));
  w.key("resume_skipped").value(resume_skipped);
  w.key("journal_errors").value(journal_errors);
  w.key("quarantined").begin_array();
  for (const Quarantined& q : quarantined) {
    w.begin_object();
    w.key("strategy").value(q.strat.describe());
    w.key("key").value(q.key);
    w.key("verdict").value(to_string(q.verdict));
    w.key("attempts").value(static_cast<std::uint64_t>(q.attempts));
    w.key("reason").value(q.reason);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("cache").begin_object();
  w.key("hits").value(cache_hits);
  w.key("stores").value(cache_stores);
  w.end_object();
  w.key("search").begin_object();
  w.key("mode").value(search::to_string(search_mode));
  w.key("trials_to_first_attack").value(trials_to_first_attack);
  w.key("rounds").value(search_rounds);
  w.key("mutations").value(search_mutations);
  w.end_object();
  w.key("metrics");
  metrics.write_json(w);
  w.end_object();
}

CampaignResult run_campaign(const CampaignConfig& config) {
  // run_scenario degrades an unparsable trace to a zero-flow target, and a
  // campaign of such trials would be silently meaningless. The trace was
  // parsed when the config got its text, so its error is already at hand.
  if (config.scenario.workload == Workload::kTrace && !config.scenario.trace_text.error().empty())
    throw std::invalid_argument("run_campaign: " + config.scenario.trace_text.error());
  const packet::HeaderFormat& format = format_for_protocol(config.scenario.protocol);
  const statemachine::StateMachine& machine = machine_for_protocol(config.scenario.protocol);
  strategy::StrategyGenerator generator(format, machine, config.generator);
  const double threshold = config.detect_threshold;

  CampaignResult result;
  result.protocol = config.scenario.protocol;
  result.implementation = config.scenario.protocol == Protocol::kTcp
                              ? config.scenario.tcp_profile.name
                              : "linux-3.13";
  result.search_mode = config.search_mode;

  // Greybox search engine (null in grid mode). Driven exclusively from the
  // commit path and the drain barrier below, which both run in deterministic
  // order whatever the backend — see the determinism contract in
  // search/search.h.
  std::unique_ptr<search::SearchEngine> engine;
  if (config.search_mode == search::SearchMode::kGreybox)
    engine = std::make_unique<search::SearchEngine>(config.search, config.scenario.seed,
                                                    format, machine);

  // The coordinator's registry: baselines, the commit path (which merges
  // each committed trial's own registry, in commit order) and the
  // combination phase. Trials record into per-trial registries, so the sim
  // hot path never shares a metrics slot across threads.
  obs::MetricsRegistry main_registry;
  obs::MetricsRegistry* main_reg = config.collect_metrics ? &main_registry : nullptr;

  // Journal lines and resume lookups are keyed by the campaign identity,
  // hashed only when one of them is attached (a trace workload hashes its
  // whole trace text).
  const std::uint64_t identity = config.journal != nullptr || config.resume != nullptr
                                     ? campaign_identity_hash(config)
                                     : 0;
  // Resume: a log holding nothing of this identity was recorded by a
  // campaign whose verdicts can differ (different protocol / profile / seed
  // / threshold / duration ...) — ignore it and run everything live.
  const TrialLog* resume = config.resume;
  if (resume != nullptr && !resume->holds(identity)) {
    if (main_reg != nullptr && !resume->empty())
      ++main_reg->counter("campaign.resume_incompatible");
    resume = nullptr;
  }
  // Non-attack baselines, one per seed used ("runs a non-attack test").
  // Fault rules are keyed by strategy id and target trials; the baselines
  // (and the combination phase, which reuses these configs) run clean.
  RunTemplates base = baseline_templates(config);
  base.run.metrics = main_reg;
  base.retest.metrics = main_reg;
  // The coordinator's arena serves the baselines now and the combination
  // phase later; each executor owns its own (arenas are single-threaded).
  ScenarioArena main_arena;
  RunMetrics baseline;
  RunMetrics retest_baseline;
  {
    obs::ScopedTimer timer(main_reg, "campaign.baseline_seconds");
    baseline = run_scenario(main_arena, base.run, std::nullopt);
    retest_baseline = run_scenario(main_arena, base.retest, std::nullopt);
  }
  result.baseline = baseline;

  // Work queue, fed up front with every off-path strategy and incrementally
  // with (type, state) strategies committed from trial feedback. Only the
  // coordinating thread touches it.
  std::deque<strategy::Strategy> queue;
  std::uint64_t queued_total = 0;

  // Batches are shuffled (deterministically) before queueing so a capped
  // campaign samples across attack categories instead of exhausting the
  // generator's emission order.
  std::mt19937_64 shuffle_rng(config.scenario.seed * 1000003 + 17);
  auto enqueue = [&](std::vector<strategy::Strategy> batch) {
    if (engine != nullptr) {
      // Greybox: generator output becomes the engine's unexplored universe;
      // strategies enter the dispatch queue in engine-chosen rounds instead.
      engine->offer(std::move(batch));
      return;
    }
    std::shuffle(batch.begin(), batch.end(), shuffle_rng);
    for (auto& s : batch) {
      queue.push_back(std::move(s));
      ++queued_total;
    }
  };

  // Malicious-client strategies from the baseline's observations first,
  // then the full off-path sweep.
  enqueue(generator.on_observations(baseline.client_observations,
                                    baseline.server_observations));
  enqueue(generator.off_path_strategies());

  // Trial backend: the caller's (worker processes, say), falling back to the
  // in-process pool when absent or failing to start.
  std::unique_ptr<ThreadBackend> local_backend;
  TrialBackend* backend = config.backend;
  if (backend == nullptr || !backend->start(config, baseline, retest_baseline)) {
    if (backend != nullptr) {
      backend->finish(nullptr);
      if (main_reg != nullptr) ++main_reg->counter("campaign.backend_fallback");
    }
    local_backend = std::make_unique<ThreadBackend>(config.executors);
    local_backend->start(config, baseline, retest_baseline);
    backend = local_backend.get();
  }

  // ---- The deterministic dispatch/commit loop. Trials are numbered in
  // dispatch order and committed strictly in that order, whatever order the
  // backend finishes them in: generator feedback, the queue-shuffling RNG,
  // journal appends and result accumulation all observe the same sequence a
  // one-executor campaign would, so the outcome is a pure function of the
  // seed for every backend and executor count.
  struct Pending {
    TrialRecord record;
    strategy::Strategy strat;
    TrialSource source = TrialSource::kLive;
    obs::MetricsRegistry metrics;  ///< the live run's; empty for replays
  };
  std::map<std::uint64_t, Pending> pending;               // finished, awaiting commit
  std::map<std::uint64_t, strategy::Strategy> in_flight;  // submitted to the backend
  std::uint64_t dispatched = 0;
  std::uint64_t committed = 0;
  // Send-pairs already fed back, so the backend broadcast carries each
  // newly covered pair once.
  std::set<std::pair<std::string, std::string>> covered_pairs;

  auto dispatch_one = [&]() {
    strategy::Strategy strat = std::move(queue.front());
    queue.pop_front();
    const std::uint64_t seq = dispatched++;
    const std::string key = strategy::canonical_key(strat);

    if (const TrialRecord* prior = resume != nullptr ? resume->find(identity, key) : nullptr;
        prior != nullptr) {
      // Resume fast path: replay the journaled outcome — detection payload,
      // failure tallies, and the generator feedback — without running the
      // simulation.
      if (main_reg != nullptr) ++main_reg->counter("campaign.resume_skipped");
      pending.emplace(seq, Pending{*prior, std::move(strat), TrialSource::kResume, {}});
      return;
    }
    if (config.cache != nullptr) {
      if (const TrialRecord* hit = config.cache->lookup(key); hit != nullptr) {
        // Cross-campaign cache hit: same replay discipline as resume.
        if (main_reg != nullptr) ++main_reg->counter("campaign.cache_hits");
        pending.emplace(seq, Pending{*hit, std::move(strat), TrialSource::kCache, {}});
        return;
      }
    }
    TrialTask task;
    task.seq = seq;
    task.strat = strat;
    in_flight.emplace(seq, std::move(strat));
    backend->submit(std::move(task));
  };

  auto commit_one = [&](Pending p) {
    TrialRecord& record = p.record;
    result.trials_aborted += record.aborted_attempts;
    result.trials_errored += record.errored_attempts;
    result.trials_retried += record.attempts - 1;
    if (p.source == TrialSource::kResume) ++result.resume_skipped;
    if (p.source == TrialSource::kCache) ++result.cache_hits;
    if (main_reg != nullptr) main_reg->merge_from(p.metrics);

    // Checkpoint (resume replays are already in this journal). Best-effort:
    // the results matter, the checkpoint does not.
    if (p.source != TrialSource::kResume && config.journal != nullptr) {
      try {
        config.journal->append(identity, record);
      } catch (...) {
        ++result.journal_errors;
        if (main_reg != nullptr) ++main_reg->counter("campaign.journal_errors");
      }
    }
    // Memoize fresh verdicts for future campaigns.
    if (p.source == TrialSource::kLive && config.cache != nullptr) {
      try {
        config.cache->store(record);
        ++result.cache_stores;
        if (main_reg != nullptr) ++main_reg->counter("campaign.cache_stores");
      } catch (...) {
        if (main_reg != nullptr) ++main_reg->counter("campaign.cache_errors");
      }
    }

    if (record.verdict == TrialVerdict::kCompleted) {
      // Feedback: states/types observed during this run may unlock new
      // (type, state) targets.
      enqueue(generator.on_observations(feedback_observations(record.client_obs),
                                        feedback_observations(record.server_obs)));
      std::vector<JournalObservation> fresh;
      for (const std::vector<JournalObservation>* o :
           {&record.client_obs, &record.server_obs})
        for (const JournalObservation& pair : *o)
          if (covered_pairs.emplace(pair.state, pair.packet_type).second)
            fresh.push_back(pair);
      if (!fresh.empty()) backend->on_feedback(fresh);
      if (engine != nullptr) {
        // Greybox fitness feedback. Every ingredient is derived from the
        // committed record and the monotone covered-pair set, so a replayed
        // trial (resume, warm cache) feeds back exactly what the live run
        // did — which is what keeps warm and cold greybox campaigns
        // bit-identical.
        search::TrialFeedback feedback;
        feedback.completed = true;
        feedback.found = record.found;
        feedback.margin = record.found ? impact_score(record.detection) : 0.0;
        feedback.fresh_pairs.reserve(fresh.size());
        for (const JournalObservation& pair : fresh)
          feedback.fresh_pairs.emplace_back(pair.state, pair.packet_type);
        engine->on_result(p.strat, feedback);
      }
      if (record.found) {
        if (result.trials_to_first_attack == 0)
          result.trials_to_first_attack = committed + 1;
        StrategyOutcome o;
        o.strat = std::move(p.strat);
        o.detection = record.detection;
        o.cls = record.cls;
        o.signature = record.signature;
        result.found.push_back(std::move(o));
      }
    } else {
      // Quarantined strategies score zero fitness.
      if (engine != nullptr) engine->on_result(p.strat, search::TrialFeedback{});
      CampaignResult::Quarantined q;
      q.strat = std::move(p.strat);
      q.key = std::move(record.key);
      q.verdict = record.verdict;
      q.attempts = record.attempts;
      q.reason = std::move(record.failure_reason);
      result.quarantined.push_back(std::move(q));
    }
    ++committed;
    if (config.on_progress) config.on_progress(committed, queued_total);
  };

  while (true) {
    // Dispatch ahead while there is queue and backend capacity; replayed
    // trials (resume/cache) go straight to the commit buffer.
    while (!queue.empty() && in_flight.size() < backend->capacity()) {
      if (config.max_strategies != 0 && dispatched >= config.max_strategies) {
        queue.clear();
        break;
      }
      dispatch_one();
    }
    if (config.max_strategies != 0 && dispatched >= config.max_strategies) queue.clear();

    // Commit everything contiguous from the committed watermark.
    bool committed_any = false;
    while (true) {
      auto it = pending.find(committed);
      if (it == pending.end()) break;
      Pending p = std::move(it->second);
      pending.erase(it);
      commit_one(std::move(p));
      committed_any = true;
    }
    if (committed_any) continue;  // feedback may have refilled the queue

    if (in_flight.empty()) {
      if (queue.empty()) {
        // Greybox drain barrier: every dispatched trial is committed, so the
        // engine has complete feedback. Pull the next round here — and only
        // here — so the round composition is a pure function of committed
        // results, independent of backend capacity or outcome timing.
        if (engine != nullptr &&
            (config.max_strategies == 0 || dispatched < config.max_strategies)) {
          std::vector<strategy::Strategy> round = engine->next_round();
          if (!round.empty()) {
            for (auto& s : round) {
              queue.push_back(std::move(s));
              ++queued_total;
            }
            continue;
          }
        }
        break;  // drained: every dispatched trial committed, search exhausted
      }
      continue;  // more queue, capacity freed up
    }
    TrialOutcome out = backend->wait_outcome();
    auto it = in_flight.find(out.seq);
    if (it == in_flight.end()) {
      // A backend must hand back exactly the seqs it was given; anything
      // else (a confused worker resent a result) is dropped, not committed.
      if (main_reg != nullptr) ++main_reg->counter("campaign.backend_bad_seq");
      continue;
    }
    pending.emplace(out.seq, Pending{std::move(out.record), std::move(it->second),
                                     TrialSource::kLive, std::move(out.metrics)});
    in_flight.erase(it);
  }

  backend->finish(config.collect_metrics ? &result.metrics : nullptr);
  result.strategies_tried = dispatched;
  if (engine != nullptr) {
    result.search_rounds = engine->rounds();
    result.search_mutations = engine->mutations_spawned();
  }

  // Quarantine commits happen in dispatch order already, but sort by
  // canonical key so reports stay comparable with historic journals and
  // independent of queue composition.
  std::sort(result.quarantined.begin(), result.quarantined.end(),
            [](const CampaignResult::Quarantined& a, const CampaignResult::Quarantined& b) {
              return a.key < b.key;
            });

  std::set<std::string> unique;
  for (const StrategyOutcome& o : result.found) {
    ++result.attack_strategies_found;
    switch (o.cls) {
      case AttackClass::kOnPath:
        ++result.on_path;
        break;
      case AttackClass::kFalsePositive:
        ++result.false_positives;
        break;
      case AttackClass::kTrueAttack:
        ++result.true_attack_strategies;
        unique.insert(o.signature);
        break;
    }
  }
  result.unique_true_attacks = unique.size();
  result.unique_signatures.assign(unique.begin(), unique.end());

  // ---- Combination phase (optional): pair the strongest distinct true
  // attacks and test whether any pair beats both of its components.
  if (config.combine_top >= 2 && !result.found.empty()) {
    obs::ScopedTimer combine_timer(main_reg, "campaign.combination_seconds");
    std::vector<const StrategyOutcome*> ranked;
    std::set<std::string> taken;
    for (const StrategyOutcome& o : result.found)
      if (o.cls == AttackClass::kTrueAttack) ranked.push_back(&o);
    std::sort(ranked.begin(), ranked.end(), [](const auto* a, const auto* b) {
      return impact_score(a->detection) > impact_score(b->detection);
    });
    std::vector<const StrategyOutcome*> top;
    for (const StrategyOutcome* o : ranked) {
      if (taken.contains(o->signature)) continue;
      taken.insert(o->signature);
      top.push_back(o);
      if (top.size() >= config.combine_top) break;
    }
    for (std::size_t i = 0; i < top.size(); ++i) {
      for (std::size_t j = i + 1; j < top.size(); ++j) {
        std::vector<strategy::Strategy> pair = {top[i]->strat, top[j]->strat};
        RunMetrics run = run_scenario(main_arena, base.run, pair);
        Detection d = detect(baseline, run, threshold);
        count_detection_reasons(main_reg, d, threshold);
        ++result.combinations_tried;
        CombinedOutcome c;
        c.first = top[i]->strat;
        c.second = top[j]->strat;
        c.detection = d;
        c.impact_score = impact_score(d);
        c.best_single_score =
            std::max(impact_score(top[i]->detection), impact_score(top[j]->detection));
        c.stronger_than_parts = c.impact_score > c.best_single_score + 1e-9;
        if (c.stronger_than_parts) ++result.combinations_stronger;
        result.combined.push_back(std::move(c));
      }
    }
  }

  if (config.collect_metrics) {
    result.metrics.merge_from(main_registry);
    result.metrics.counter("campaign.strategies_tried") += result.strategies_tried;
    result.metrics.gauge("campaign.detect_threshold") = threshold;
    if (engine != nullptr) {
      result.metrics.counter("campaign.search_rounds") += result.search_rounds;
      result.metrics.counter("campaign.search_mutations") += result.search_mutations;
    }
  }
  return result;
}

}  // namespace snake::core
