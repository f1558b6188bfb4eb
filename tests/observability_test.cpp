// Campaign observability tests:
//  - determinism: metrics instrumentation must not perturb campaign results
//    (identical-seed campaigns, metrics on vs off, byte-identical summaries);
//  - schema sanity: CampaignResult::to_json() parses and carries the fields
//    the bench reports promise (Table-I columns, per-stage timings,
//    per-attack-action counts);
//  - regression: the progress callback fires from the coordinating thread in
//    commit order — sequential, monotonic, and free to block without
//    stalling the executor pool;
//  - the configurable detection threshold is honoured end to end;
//  - the layer-count gate: every registry counter of a set of pinned
//    campaigns equals the value checked in at bench/BENCH_layers.json, so a
//    change that adds (or drops) work on any layer fails on a named counter.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "obs/json.h"
#include "snake/controller.h"
#include "snake/faultpoint.h"
#include "strategy/generator.h"
#include "tcp/profile.h"

namespace snake::core {
namespace {

CampaignConfig small_campaign_config() {
  CampaignConfig config;
  config.scenario.protocol = Protocol::kTcp;
  config.scenario.tcp_profile = tcp::linux_3_13_profile();
  config.scenario.test_duration = Duration::seconds(6.0);
  config.scenario.seed = 5;
  config.generator = strategy::tcp_generator_config();
  config.generator.hitseq_max_packets = 2000;
  config.executors = 2;
  config.max_strategies = 24;
  return config;
}

// ---------------------------------------------------------- determinism

TEST(Observability, MetricsDoNotPerturbCampaignResults) {
  // Single executor: with one worker the strategy schedule is fully
  // deterministic, so any divergence between the two runs can only come
  // from the instrumentation itself.
  CampaignConfig config = small_campaign_config();
  config.executors = 1;
  config.max_strategies = 30;
  config.combine_top = 2;  // the combination phase must be unperturbed too

  config.collect_metrics = true;
  CampaignResult with_metrics = run_campaign(config);
  config.collect_metrics = false;
  CampaignResult without_metrics = run_campaign(config);

  EXPECT_EQ(with_metrics.summary_row(), without_metrics.summary_row());
  EXPECT_EQ(with_metrics.unique_signatures, without_metrics.unique_signatures);
  EXPECT_EQ(with_metrics.strategies_tried, without_metrics.strategies_tried);
  EXPECT_EQ(with_metrics.combinations_tried, without_metrics.combinations_tried);
  EXPECT_EQ(with_metrics.baseline.target_bytes, without_metrics.baseline.target_bytes);
  EXPECT_EQ(with_metrics.found.size(), without_metrics.found.size());
  for (std::size_t i = 0; i < with_metrics.found.size(); ++i) {
    EXPECT_EQ(with_metrics.found[i].signature, without_metrics.found[i].signature);
    EXPECT_EQ(with_metrics.found[i].cls, without_metrics.found[i].cls);
  }

  // And the instrumented run actually collected something.
  EXPECT_FALSE(with_metrics.metrics.empty());
  EXPECT_TRUE(without_metrics.metrics.empty());
}

// --------------------------------------------------------- JSON schema

TEST(Observability, CampaignReportMatchesSchema) {
  CampaignConfig config = small_campaign_config();
  CampaignResult result = run_campaign(config);

  std::string doc = result.to_json();
  std::string error;
  auto parsed = obs::parse_json(doc, &error);
  ASSERT_TRUE(parsed.has_value()) << error;

  ASSERT_NE(parsed->find("schema"), nullptr);
  EXPECT_EQ(parsed->find("schema")->str_v, "snake-campaign-report/v1");
  EXPECT_EQ(parsed->find("protocol")->str_v, "tcp");
  EXPECT_EQ(parsed->find("implementation")->str_v, "linux-3.13");

  // Table-I columns.
  const obs::JsonValue* table1 = parsed->find("table1");
  ASSERT_NE(table1, nullptr);
  for (const char* column :
       {"strategies_tried", "attack_strategies_found", "on_path", "false_positives",
        "true_attack_strategies", "unique_true_attacks"}) {
    ASSERT_NE(table1->find(column), nullptr) << column;
    EXPECT_TRUE(table1->find(column)->is_number()) << column;
  }
  EXPECT_DOUBLE_EQ(table1->find("strategies_tried")->num_v,
                   static_cast<double>(result.strategies_tried));

  // Baseline and outcomes with detection ratios + signature.
  ASSERT_NE(parsed->find("baseline"), nullptr);
  EXPECT_TRUE(parsed->find("baseline")->find("target_bytes")->is_number());
  const obs::JsonValue* outcomes = parsed->find("outcomes");
  ASSERT_NE(outcomes, nullptr);
  ASSERT_TRUE(outcomes->is_array());
  EXPECT_EQ(outcomes->array_v.size(), result.found.size());
  for (const obs::JsonValue& o : outcomes->array_v) {
    ASSERT_NE(o.find("strategy"), nullptr);
    ASSERT_NE(o.find("signature"), nullptr);
    const obs::JsonValue* det = o.find("detection");
    ASSERT_NE(det, nullptr);
    EXPECT_TRUE(det->find("target_ratio")->is_number());
    EXPECT_TRUE(det->find("competing_ratio")->is_number());
  }

  // Combination phase block is always present (empty when disabled).
  ASSERT_NE(parsed->find("combinations"), nullptr);
  EXPECT_TRUE(parsed->find("combinations")->find("tried")->is_number());

  // Resilience block (additive to the v1 schema).
  const obs::JsonValue* resilience = parsed->find("resilience");
  ASSERT_NE(resilience, nullptr);
  for (const char* field : {"trials_aborted", "trials_errored", "trials_retried",
                            "strategies_quarantined", "resume_skipped", "journal_errors"}) {
    ASSERT_NE(resilience->find(field), nullptr) << field;
    EXPECT_TRUE(resilience->find(field)->is_number()) << field;
  }
  ASSERT_NE(resilience->find("quarantined"), nullptr);
  EXPECT_TRUE(resilience->find("quarantined")->is_array());
  EXPECT_EQ(resilience->find("quarantined")->array_v.size(), result.quarantined.size());

  // Metrics snapshot: per-stage timings and per-attack-action counts.
  const obs::JsonValue* metrics = parsed->find("metrics");
  ASSERT_NE(metrics, nullptr);
  const obs::JsonValue* counters = metrics->find("counters");
  ASSERT_NE(counters, nullptr);
  for (const char* counter :
       {"proxy.intercepted", "proxy.action.dropped", "proxy.action.injected",
        "sim.events_executed", "tracker.client.transitions", "campaign.strategies_tried",
        "scenario.attack_runs", "scenario.baseline_runs"}) {
    ASSERT_NE(counters->find(counter), nullptr) << counter;
  }
  EXPECT_GT(counters->find("sim.events_executed")->num_v, 0.0);
  const obs::JsonValue* histograms = metrics->find("histograms");
  ASSERT_NE(histograms, nullptr);
  for (const char* stage :
       {"campaign.baseline_seconds", "campaign.strategy_seconds", "scenario.run_seconds"}) {
    const obs::JsonValue* h = histograms->find(stage);
    ASSERT_NE(h, nullptr) << stage;
    EXPECT_GT(h->find("count")->num_v, 0.0) << stage;
  }
}

// ------------------------------------------------- progress callback fix

TEST(Observability, ProgressCallbackIsSequentialAndMonotonic) {
  // The coordinator invokes on_progress from its own thread, in commit
  // order: calls never overlap (no locking needed in the callback), the
  // committed count advances by exactly one per call, and the queued total
  // never goes backwards — the contract the distributed coordinator also
  // honours (see dist_test.cpp). The old pool invoked callbacks from worker
  // threads, where aggregate progress could appear to regress.
  CampaignConfig config = small_campaign_config();
  config.executors = 4;
  config.max_strategies = 24;

  std::atomic<int> in_callback{0};
  std::atomic<bool> overlapped{false};
  std::uint64_t last_done = 0;
  std::uint64_t last_queued = 0;
  bool monotonic = true;
  config.on_progress = [&](std::uint64_t done, std::uint64_t queued) {
    if (in_callback.fetch_add(1) + 1 > 1) overlapped = true;
    if (done != last_done + 1 || queued < last_queued) monotonic = false;
    last_done = done;
    last_queued = queued;
    in_callback.fetch_sub(1);
  };

  CampaignResult result = run_campaign(config);
  EXPECT_EQ(result.strategies_tried, 24u);
  EXPECT_FALSE(overlapped.load())
      << "progress callbacks overlapped: commits must be sequential";
  EXPECT_TRUE(monotonic) << "progress went backwards or skipped a commit";
  EXPECT_EQ(last_done, result.strategies_tried);
}

// ------------------------------------------------ resilience counters

TEST(Observability, ResilienceCountersMergeAcrossExecutors) {
  // Each executor tallies aborts/retries/quarantines into its private
  // registry; the merged campaign metrics must agree with the result-level
  // tallies exactly, whichever thread did the work.
  FaultPlan faults;
  faults.add(FaultRule{FaultKind::kThrowInTrial, 4, 1, 1});  // transient
  faults.add(FaultRule{FaultKind::kThrowInTrial, 4, 3, FaultRule::kAllAttempts});
  faults.add(FaultRule{FaultKind::kEventStorm, 4, 2, FaultRule::kAllAttempts});
  CampaignConfig config = small_campaign_config();
  config.executors = 3;
  config.scenario.faults = &faults;
  config.scenario.event_budget = 400000;

  CampaignResult result = run_campaign(config);
  EXPECT_GT(result.trials_aborted, 0u);
  EXPECT_GT(result.trials_errored, 0u);
  EXPECT_GT(result.trials_retried, 0u);
  EXPECT_FALSE(result.quarantined.empty());
  EXPECT_EQ(result.metrics.counter("campaign.trials_aborted"), result.trials_aborted);
  EXPECT_EQ(result.metrics.counter("campaign.trials_errored"), result.trials_errored);
  EXPECT_EQ(result.metrics.counter("campaign.trials_retried"), result.trials_retried);
  EXPECT_EQ(result.metrics.counter("campaign.strategies_quarantined"),
            result.quarantined.size());
  EXPECT_EQ(result.resume_skipped, 0u);
  // The scheduler-level watchdog counter saw at least every campaign abort.
  EXPECT_GE(result.metrics.counter("sim.watchdog_trips"), result.trials_aborted);
}

// --------------------------------------------- configurable threshold

TEST(Observability, CampaignHonoursDetectThreshold) {
  CampaignConfig config = small_campaign_config();
  config.executors = 2;
  config.max_strategies = 20;
  config.detect_threshold = 0.3;

  CampaignResult result = run_campaign(config);
  // Every confirmed outcome must satisfy the 0.3 criterion — and its
  // signature must carry a concrete effect class under that same threshold.
  for (const StrategyOutcome& o : result.found) {
    const Detection& d = o.detection;
    EXPECT_TRUE(d.target_ratio <= 0.3 || d.target_ratio >= 1.3 ||
                d.competing_ratio <= 0.3 || d.competing_ratio >= 1.3 ||
                d.resource_exhaustion)
        << "outcome detected outside the configured threshold: "
        << o.strat.describe();
    EXPECT_NE(o.signature.find('='), std::string::npos);
  }
  EXPECT_DOUBLE_EQ(result.metrics.gauge("campaign.detect_threshold"), 0.3);
}

// ------------------------------------------------- exact layer counts

TEST(Observability, BufferCountersIndependentOfExecutorCount) {
  // A snapshot-forked trial must count the buffers its run touched, not
  // everything its session world counted before: the scheduler snapshot
  // carries the pool counters like it carries the event counters.
  CampaignConfig config = small_campaign_config();
  config.executors = 1;
  CampaignResult one = run_campaign(config);
  config.executors = 4;
  CampaignResult four = run_campaign(config);
  ASSERT_GT(one.metrics.counter("snapshot.forked_runs"), 0u);
  EXPECT_EQ(one.metrics.counter("sim.buffers_acquired"),
            four.metrics.counter("sim.buffers_acquired"));
  EXPECT_EQ(one.metrics.counter("sim.buffers_released"),
            four.metrics.counter("sim.buffers_released"));
}

/// Counters that depend on which executor thread serves a trial: whether a
/// buffer came off a warm free list, and how many snapshot sessions were
/// built for the concurrent trials of one seed.
const std::set<std::string> kThreadDependentCounters = {"sim.buffers_reused",
                                                        "snapshot.sessions_built"};

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The campaigns bench/BENCH_layers.json pins: every Table I implementation
/// on a small grid, one greybox campaign on the enlarged space and one
/// trace-replay campaign. Fixed seed, two executors.
std::vector<std::pair<std::string, CampaignConfig>> pinned_campaigns() {
  auto table1_row = [](Protocol protocol, const tcp::TcpProfile& profile) {
    CampaignConfig config;
    config.scenario.protocol = protocol;
    config.scenario.tcp_profile = profile;
    config.scenario.test_duration = Duration::seconds(3.0);
    config.scenario.seed = 5;
    config.generator = protocol != Protocol::kTcp ? strategy::dccp_generator_config()
                       : profile.sack             ? strategy::tcp_sack_generator_config()
                                                  : strategy::tcp_generator_config();
    config.generator.hitseq_max_packets = 2000;
    config.executors = 2;
    config.max_strategies = 10;
    return config;
  };
  std::vector<std::pair<std::string, CampaignConfig>> pinned;
  for (const tcp::TcpProfile& profile : tcp::all_tcp_profiles())
    pinned.emplace_back("tcp/" + profile.name, table1_row(Protocol::kTcp, profile));
  pinned.emplace_back("dccp/linux-3.13",
                      table1_row(Protocol::kDccp, tcp::linux_3_13_profile()));

  CampaignConfig greybox = table1_row(Protocol::kTcp, tcp::linux_3_13_profile());
  strategy::enlarge_delivery_ladders(greybox.generator);
  greybox.search_mode = search::SearchMode::kGreybox;
  greybox.max_strategies = 16;
  pinned.emplace_back("greybox/enlarged", greybox);

  CampaignConfig trace = table1_row(Protocol::kTcp, tcp::linux_3_13_profile());
  trace.scenario.workload = Workload::kTrace;
  trace.scenario.trace_text =
      read_text(SNAKE_SOURCE_DIR "/tests/corpus/trace/valid_two_flows.trace");
  pinned.emplace_back("trace/valid_two_flows", trace);
  return pinned;
}

/// Renders the layer-count document: one counter per line, so a diff of
/// bench/BENCH_layers.json names exactly the counters a change moved.
std::string layer_document(
    const std::vector<std::pair<std::string, std::map<std::string, std::uint64_t>>>& counts) {
  std::ostringstream out;
  out << "{\n  \"schema\": \"snake-layer-counts/v1\",\n  \"excluded\": [";
  const char* sep = "";
  for (const std::string& name : kThreadDependentCounters) {
    out << sep << '"' << name << '"';
    sep = ", ";
  }
  out << "],\n  \"campaigns\": {";
  sep = "\n";
  for (const auto& [campaign, counters] : counts) {
    out << sep << "    \"" << campaign << "\": {";
    const char* inner = "\n";
    for (const auto& [counter, value] : counters) {
      out << inner << "      \"" << counter << "\": " << value;
      inner = ",\n";
    }
    out << "\n    }";
    sep = ",\n";
  }
  out << "\n  }\n}\n";
  return out.str();
}

TEST(LayerCounts, MatchCheckedIn) {
  // Work counts are exact and machine-independent: any change to how many
  // events, packets, transitions or trials a layer performs shows here as a
  // named counter. When a change is meant to move a count, replace
  // bench/BENCH_layers.json with the document this test prints.
  const std::string path = SNAKE_SOURCE_DIR "/bench/BENCH_layers.json";
  const std::optional<obs::JsonValue> checked_in = obs::parse_json(read_text(path));
  const obs::JsonValue* expected_campaigns =
      checked_in.has_value() ? checked_in->find("campaigns") : nullptr;
  EXPECT_NE(expected_campaigns, nullptr) << path << " is missing or not a layer-count document";

  std::vector<std::pair<std::string, std::map<std::string, std::uint64_t>>> fresh;
  bool mismatch = expected_campaigns == nullptr;
  for (const auto& [name, config] : pinned_campaigns()) {
    const CampaignResult result = run_campaign(config);
    std::map<std::string, std::uint64_t> actual;
    for (const auto& [counter, value] : result.metrics.counters())
      if (!kThreadDependentCounters.contains(counter)) actual[counter] = value;

    std::map<std::string, std::uint64_t> want;
    const obs::JsonValue* expected =
        expected_campaigns != nullptr ? expected_campaigns->find(name) : nullptr;
    if (expected != nullptr)
      for (const auto& [counter, value] : expected->object_v)
        want[counter] = obs::u64_of(value).value_or(0);
    std::set<std::string> names;
    for (const auto& [counter, value] : want) names.insert(counter);
    for (const auto& [counter, value] : actual) names.insert(counter);
    auto shown = [](const std::map<std::string, std::uint64_t>& m, const std::string& key) {
      auto it = m.find(key);
      return it == m.end() ? std::string("absent") : std::to_string(it->second);
    };
    for (const std::string& counter : names) {
      if (shown(want, counter) == shown(actual, counter)) continue;
      mismatch = true;
      ADD_FAILURE() << name << ": " << counter << ": expected " << shown(want, counter)
                    << ", actual " << shown(actual, counter);
    }
    fresh.emplace_back(name, std::move(actual));
  }
  if (mismatch)
    std::cout << "---- fresh " << path << " ----\n"
              << layer_document(fresh) << "---- end ----\n";
}

}  // namespace
}  // namespace snake::core
