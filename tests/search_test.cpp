// Greybox strategy search tests (src/search + the controller's greybox
// seam):
//  - unit + property coverage of the search primitives: fitness
//    monotonicity, power-schedule energy bounds, pool determinism (same
//    seed ⇒ identical mutation/round sequence) — failing property seeds
//    are printed like the chaos soak's;
//  - the determinism contract of greybox campaigns: bit-identical results
//    across executor counts, snapshot-forked vs from-zero trials,
//    single-process vs worker processes, and cold vs warm result caches;
//  - the differential guarantee: on a small strategy space an uncapped
//    greybox campaign visits the whole grid universe, so its attack set is
//    a superset of (in practice equal to) the exhaustive grid's — checked
//    under both the thread backend and the distributed backend.
//
// This binary supplies its own main(): a worker re-entered through
// /proc/self/exe must take the --snake-worker-child branch before gtest
// parses argv.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "dist/coordinator.h"
#include "dist/worker.h"
#include "obs/json.h"
#include "search/search.h"
#include "snake/controller.h"
#include "snake/journal.h"
#include "strategy/generator.h"
#include "tcp/profile.h"
#include "testing/property.h"

namespace snake {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- helpers

core::CampaignConfig greybox_campaign(std::uint64_t seed = 7) {
  core::CampaignConfig config;
  config.scenario.protocol = core::Protocol::kTcp;
  config.scenario.tcp_profile = tcp::linux_3_13_profile();
  config.scenario.test_duration = Duration::seconds(5.0);
  config.scenario.seed = seed;
  config.generator = strategy::tcp_generator_config();
  config.generator.hitseq_max_packets = 2000;
  config.executors = 2;
  config.max_strategies = 16;
  config.search_mode = search::SearchMode::kGreybox;
  // Small rounds force several refill barriers inside a 16-trial campaign,
  // so the tests actually exercise mid-campaign selection, not one batch.
  config.search.round_size = 4;
  config.search.max_mutations = 12;
  return config;
}

/// The deterministic surface of a CampaignResult (metrics excluded — see
/// dist_test.cpp), extended with the search counters this suite guards.
std::string result_fingerprint(const core::CampaignResult& r) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("summary").value(r.summary_row());
  w.key("tried").value(r.strategies_tried);
  w.key("mode").value(search::to_string(r.search_mode));
  w.key("first_attack").value(r.trials_to_first_attack);
  w.key("rounds").value(r.search_rounds);
  w.key("mutations").value(r.search_mutations);
  w.key("found").begin_array();
  for (const core::StrategyOutcome& o : r.found) {
    w.begin_object();
    w.key("key").value(strategy::canonical_key(o.strat));
    w.key("signature").value(o.signature);
    w.key("cls").value(static_cast<int>(o.cls));
    w.key("target_ratio").value(o.detection.target_ratio);
    w.key("competing_ratio").value(o.detection.competing_ratio);
    w.end_object();
  }
  w.end_array();
  w.key("signatures").begin_array();
  for (const std::string& s : r.unique_signatures) w.value(s);
  w.end_array();
  w.key("quarantined").begin_array();
  for (const auto& q : r.quarantined) w.value(q.key);
  w.end_array();
  w.key("baseline_target").value(r.baseline.target_bytes);
  w.key("baseline_competing").value(r.baseline.competing_bytes);
  w.end_object();
  return w.take();
}

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("snake-search-" + std::to_string(::getpid()) + "-" + std::to_string(counter()++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  static int& counter() {
    static int n = 0;
    return n;
  }
};

/// Runs `config` with a TrialJournal attached as its journal, and checks
/// that the journal holds one valid line per trial the campaign tried,
/// under the campaign's identity, whichever backend ran them.
core::CampaignResult run_journaled(core::CampaignConfig config) {
  std::string text;
  core::TrialJournal journal([&](std::string_view line) { text.append(line); });
  config.journal = &journal;
  core::CampaignResult result = core::run_campaign(config);
  core::TrialLog log;
  log.ingest(text);
  EXPECT_EQ(log.rejected(), 0u);
  EXPECT_EQ(log.count(core::campaign_identity_hash(config)), result.strategies_tried);
  EXPECT_EQ(log.size(), result.strategies_tried);
  return result;
}

/// Deterministic synthetic feedback derived from the strategy key alone, so
/// two engines driven over the same sequence see identical results without
/// running any simulation.
search::TrialFeedback synthetic_feedback(const std::string& key) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  search::TrialFeedback fb;
  fb.completed = true;
  fb.found = h % 5 == 0;
  fb.margin = fb.found ? static_cast<double>(h % 100) / 25.0 : 0.0;
  if (h % 3 == 0) fb.fresh_pairs.emplace_back("ESTABLISHED", "ACK");
  if (h % 7 == 0) fb.fresh_pairs.emplace_back("FIN_WAIT_1", "FIN");
  return fb;
}

std::vector<strategy::Strategy> sample_universe(std::uint64_t variant) {
  strategy::GeneratorConfig gc = strategy::tcp_generator_config();
  gc.enable_lie = variant % 2 == 0;
  gc.inject_packet_types = {"RST", "SYN"};
  gc.hitseq_max_packets = 100;
  strategy::StrategyGenerator gen(core::format_for_protocol(core::Protocol::kTcp),
                                  core::machine_for_protocol(core::Protocol::kTcp), gc);
  return gen.off_path_strategies();
}

/// Drives an engine for `rounds` rounds with synthetic feedback, returning
/// the emitted canonical-key sequence — the engine's full observable output.
std::vector<std::string> drive_engine(search::SearchEngine& engine, int rounds) {
  std::vector<std::string> keys;
  for (int r = 0; r < rounds; ++r) {
    std::vector<strategy::Strategy> round = engine.next_round();
    if (round.empty()) break;
    for (const strategy::Strategy& s : round) {
      const std::string key = strategy::canonical_key(s);
      keys.push_back(key);
      engine.on_result(s, synthetic_feedback(key));
    }
  }
  return keys;
}

// ----------------------------------------------------------- unit: scoring

TEST(SearchMode, ParseAndRenderRoundTrip) {
  EXPECT_STREQ(search::to_string(search::SearchMode::kGrid), "grid");
  EXPECT_STREQ(search::to_string(search::SearchMode::kGreybox), "greybox");
  EXPECT_EQ(search::search_mode_from_string("grid"), search::SearchMode::kGrid);
  EXPECT_EQ(search::search_mode_from_string("greybox"), search::SearchMode::kGreybox);
  EXPECT_FALSE(search::search_mode_from_string("").has_value());
  EXPECT_FALSE(search::search_mode_from_string("random").has_value());
}

TEST(Fitness, MonotoneInMarginAndCoverage) {
  testing::PropertyConfig pc = testing::PropertyConfig::from_env(50);
  auto failure = testing::for_each_seed(pc, [](std::uint64_t seed) -> std::optional<std::string> {
    std::mt19937_64 rng(seed);
    search::SearchConfig config;
    config.coverage_weight = static_cast<double>(rng() % 100) / 50.0;
    search::TrialFeedback fb;
    fb.completed = true;
    fb.found = true;
    fb.margin = static_cast<double>(rng() % 1000) / 100.0;
    const std::size_t pairs = rng() % 12;
    for (std::size_t i = 0; i < pairs; ++i)
      fb.fresh_pairs.emplace_back(std::string(1, 'S') + std::to_string(i), "T");
    const double base = search::fitness_score(fb, config);

    search::TrialFeedback more_margin = fb;
    more_margin.margin += static_cast<double>(rng() % 100) / 10.0;
    if (search::fitness_score(more_margin, config) < base)
      return "fitness decreased when margin increased";

    search::TrialFeedback more_coverage = fb;
    more_coverage.fresh_pairs.emplace_back("EXTRA", "T");
    if (search::fitness_score(more_coverage, config) < base)
      return "fitness decreased when coverage increased";

    search::TrialFeedback incomplete = fb;
    incomplete.completed = false;
    if (search::fitness_score(incomplete, config) != 0.0)
      return "incomplete trial scored nonzero fitness";
    return std::nullopt;
  });
  EXPECT_FALSE(failure.has_value())
      << "seed " << (failure ? failure->seed : 0) << ": " << (failure ? failure->message : "");
}

TEST(Energy, ScheduleStaysWithinBoundsAndMonotone) {
  testing::PropertyConfig pc = testing::PropertyConfig::from_env(50);
  auto failure = testing::for_each_seed(pc, [](std::uint64_t seed) -> std::optional<std::string> {
    std::mt19937_64 rng(seed);
    search::SearchConfig config;
    config.energy_min = 1 + rng() % 4;
    config.energy_max = config.energy_min + rng() % 8;
    config.energy_scale = static_cast<double>(rng() % 100) / 10.0;
    double prev_fitness = 0.0;
    std::uint32_t prev_energy = 0;
    for (int i = 0; i < 64; ++i) {
      const double fitness = prev_fitness + static_cast<double>(rng() % 1000) / 200.0 + 1e-6;
      const std::uint32_t energy = search::energy_for(fitness, config);
      if (energy < config.energy_min || energy > config.energy_max)
        return "energy " + std::to_string(energy) + " outside bounds for fitness " +
               std::to_string(fitness);
      if (energy < prev_energy) return "energy decreased as fitness increased";
      prev_fitness = fitness;
      prev_energy = energy;
    }
    if (search::energy_for(0.0, config) != 0) return "zero fitness earned energy";
    if (search::energy_for(-1.0, config) != 0) return "negative fitness earned energy";
    if (search::energy_for(1e308, config) != config.energy_max)
      return "huge fitness did not clamp to energy_max";
    return std::nullopt;
  });
  EXPECT_FALSE(failure.has_value())
      << "seed " << (failure ? failure->seed : 0) << ": " << (failure ? failure->message : "");
}

// -------------------------------------------------------- pool determinism

TEST(Pool, SameSeedProducesIdenticalMutationSequence) {
  testing::PropertyConfig pc = testing::PropertyConfig::from_env(10);
  auto failure = testing::for_each_seed(pc, [](std::uint64_t seed) -> std::optional<std::string> {
    search::SearchConfig config;
    config.round_size = 8;
    config.max_mutations = 64;
    const auto& format = core::format_for_protocol(core::Protocol::kTcp);
    const auto& machine = core::machine_for_protocol(core::Protocol::kTcp);
    search::SearchEngine a(config, seed, format, machine);
    search::SearchEngine b(config, seed, format, machine);
    a.offer(sample_universe(seed));
    b.offer(sample_universe(seed));
    const std::vector<std::string> keys_a = drive_engine(a, 6);
    const std::vector<std::string> keys_b = drive_engine(b, 6);
    if (keys_a.empty()) return "engine emitted nothing";
    if (keys_a != keys_b) return "same seed produced different emission sequences";
    if (a.rounds() != b.rounds() || a.mutations_spawned() != b.mutations_spawned())
      return "same seed produced different round or mutation counts";
    // The sequence must include mutation children, not just universe
    // passthrough — otherwise this test proves nothing about mutations.
    if (a.mutations_spawned() == 0) return "no mutation children were spawned";
    return std::nullopt;
  });
  EXPECT_FALSE(failure.has_value())
      << "seed " << (failure ? failure->seed : 0) << ": " << (failure ? failure->message : "");
}

TEST(Pool, EmitsEachCanonicalKeyAtMostOnce) {
  const auto& format = core::format_for_protocol(core::Protocol::kTcp);
  const auto& machine = core::machine_for_protocol(core::Protocol::kTcp);
  search::SearchConfig config;
  config.round_size = 16;
  config.max_mutations = 128;
  search::SearchEngine engine(config, 11, format, machine);
  engine.offer(sample_universe(0));
  const std::vector<std::string> keys = drive_engine(engine, 50);
  std::set<std::string> unique(keys.begin(), keys.end());
  EXPECT_EQ(unique.size(), keys.size()) << "engine emitted a duplicate canonical key";
}

TEST(Pool, DrainsWholeUniverseAndTerminates) {
  const auto& format = core::format_for_protocol(core::Protocol::kTcp);
  const auto& machine = core::machine_for_protocol(core::Protocol::kTcp);
  search::SearchConfig config;
  config.round_size = 32;
  config.max_mutations = 40;
  search::SearchEngine engine(config, 3, format, machine);
  std::vector<strategy::Strategy> universe = sample_universe(1);
  std::set<std::string> offered;
  for (const strategy::Strategy& s : universe) offered.insert(strategy::canonical_key(s));
  engine.offer(std::move(universe));
  const std::vector<std::string> keys = drive_engine(engine, 1000000);
  // Termination: drive_engine returned, children stayed under the budget...
  EXPECT_LE(engine.mutations_spawned(), config.max_mutations);
  // ...and every offered strategy was eventually emitted.
  std::set<std::string> emitted(keys.begin(), keys.end());
  for (const std::string& key : offered)
    ASSERT_TRUE(emitted.contains(key)) << "universe entry never emitted: " << key;
}

// ------------------------------------------- campaign-level bit-identity

TEST(GreyboxCampaign, ExecutorCountDoesNotChangeResults) {
  core::CampaignConfig config = greybox_campaign();
  config.executors = 1;
  const std::string one = result_fingerprint(core::run_campaign(config));
  config.executors = 4;
  const std::string four = result_fingerprint(core::run_campaign(config));
  EXPECT_EQ(one, four);
}

TEST(GreyboxCampaign, SnapshotsOnOffBitIdentical) {
  // Reference: the from-zero twin. Snapshot stores decline configs that
  // carry an inspector, so a no-op one makes every trial run from t=0.
  class NoopInspector : public core::RunInspector {
    void on_run_complete(sim::Dumbbell&, proxy::AttackProxy&,
                         const core::RunMetrics&) override {}
  } noop;
  core::CampaignConfig config = greybox_campaign();
  core::CampaignResult forked = core::run_campaign(config);
  config.scenario.inspector = &noop;
  core::CampaignResult from_zero = core::run_campaign(config);
  EXPECT_EQ(result_fingerprint(forked), result_fingerprint(from_zero));
  EXPECT_GT(forked.metrics.counter("snapshot.forked_runs"), 0u);
  EXPECT_EQ(from_zero.metrics.counter("snapshot.forked_runs"), 0u);
}

TEST(GreyboxCampaign, DistributedMatchesSingleProcessExactly) {
  core::CampaignConfig config = greybox_campaign();
  const core::CampaignResult single = core::run_campaign(config);

  dist::DistOptions options;
  options.workers = 2;
  dist::DistributedBackend backend(options);
  config.backend = &backend;
  core::CampaignResult distributed = run_journaled(config);

  EXPECT_EQ(result_fingerprint(single), result_fingerprint(distributed));
  EXPECT_EQ(distributed.metrics.counter("campaign.backend_fallback"), 0u)
      << "distributed backend fell back to the in-process pool";
  EXPECT_GT(distributed.search_rounds, 1u) << "campaign never exercised a refill barrier";
}

TEST(GreyboxCampaign, WarmCacheReproducesColdRun) {
  TempDir dir;
  const std::string cache_path = (dir.path / "cache.jsonl").string();
  core::CampaignConfig config = greybox_campaign();
  const std::uint64_t identity = core::campaign_identity_hash(config);

  core::TrialLog cold_cache(cache_path);
  ASSERT_TRUE(cold_cache.load());
  auto cold_view = cold_cache.view(identity);
  config.cache = &cold_view;
  const core::CampaignResult cold = core::run_campaign(config);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_stores, cold.strategies_tried);

  core::TrialLog warm_cache(cache_path);
  ASSERT_TRUE(warm_cache.load());
  auto warm_view = warm_cache.view(identity);
  config.cache = &warm_view;
  const core::CampaignResult warm = core::run_campaign(config);

  // The fitness feedback is derived from committed records, so replaying
  // every verdict from the cache walks the identical search trajectory.
  EXPECT_EQ(result_fingerprint(cold), result_fingerprint(warm));
  EXPECT_EQ(warm.cache_hits, warm.strategies_tried);
  EXPECT_EQ(warm.cache_stores, 0u);
}

TEST(TrialLogFormat, JournalServesAsCacheAndCacheAsResumeLog) {
  // One line format: the journal of a campaign is a valid result cache, and
  // a result-cache file is a valid resume log. Both replay the uninterrupted
  // campaign exactly, in either search mode.
  for (search::SearchMode mode : {search::SearchMode::kGrid, search::SearchMode::kGreybox}) {
    SCOPED_TRACE(search::to_string(mode));
    TempDir dir;
    const std::string cache_path = (dir.path / "cache.jsonl").string();
    core::CampaignConfig config = greybox_campaign();
    config.search_mode = mode;
    const std::uint64_t identity = core::campaign_identity_hash(config);

    std::string journal_text;
    core::TrialJournal journal([&](std::string_view line) { journal_text.append(line); });
    core::TrialLog cold(cache_path);
    auto cold_view = cold.view(identity);
    core::CampaignConfig recording = config;
    recording.journal = &journal;
    recording.cache = &cold_view;
    const core::CampaignResult uninterrupted = core::run_campaign(recording);

    core::TrialLog journal_log;
    journal_log.ingest(journal_text);
    EXPECT_EQ(journal_log.rejected(), 0u);
    auto journal_view = journal_log.view(identity);
    core::CampaignConfig cached = config;
    cached.cache = &journal_view;
    const core::CampaignResult from_journal = core::run_campaign(cached);
    EXPECT_EQ(from_journal.cache_hits, from_journal.strategies_tried);
    EXPECT_EQ(from_journal.cache_stores, 0u);
    EXPECT_EQ(result_fingerprint(from_journal), result_fingerprint(uninterrupted));

    core::TrialLog cache_log(cache_path);
    ASSERT_TRUE(cache_log.load());
    EXPECT_EQ(cache_log.rejected(), 0u);
    core::CampaignConfig resumed = config;
    resumed.resume = &cache_log;
    const core::CampaignResult from_cache = core::run_campaign(resumed);
    EXPECT_EQ(from_cache.resume_skipped, from_cache.strategies_tried);
    EXPECT_EQ(result_fingerprint(from_cache), result_fingerprint(uninterrupted));
  }
}

TEST(GreyboxCampaign, FirstAttackSoonerThanGridOnEnlargedSpace) {
  // The search's headline: on the enlarged delivery-attack ladders, the
  // feedback-guided search reaches its first confirmed attack in strictly
  // fewer trials than the exhaustive grid, and finds more attacks in the
  // same budget. Trial outcomes are mode-invariant, so the gap is ordering.
  core::CampaignConfig config;
  config.scenario.protocol = core::Protocol::kTcp;
  config.scenario.tcp_profile = tcp::linux_3_13_profile();
  config.scenario.test_duration = Duration::seconds(5.0);
  config.scenario.seed = 7;
  config.generator = strategy::tcp_generator_config();
  config.generator.hitseq_max_packets = 4000;
  strategy::enlarge_delivery_ladders(config.generator);
  config.executors = 2;
  config.max_strategies = 48;
  config.search_mode = search::SearchMode::kGreybox;
  const core::CampaignResult greybox = core::run_campaign(config);
  config.search_mode = search::SearchMode::kGrid;
  const core::CampaignResult grid = core::run_campaign(config);

  ASSERT_GT(greybox.trials_to_first_attack, 0u) << "greybox found no attack";
  ASSERT_GT(grid.trials_to_first_attack, 0u) << "grid found no attack";
  EXPECT_LT(greybox.trials_to_first_attack, grid.trials_to_first_attack);
  EXPECT_GT(greybox.attack_strategies_found, grid.attack_strategies_found);
}

TEST(GreyboxCampaign, SearchModeStaysOutOfCampaignIdentity) {
  core::CampaignConfig config = greybox_campaign();
  const std::uint64_t greybox = core::campaign_identity_hash(config);
  config.search_mode = search::SearchMode::kGrid;
  EXPECT_EQ(core::campaign_identity_hash(config), greybox)
      << "search mode must not invalidate caches/journals: it only changes "
         "which strategies get tried, never a single trial's outcome";
}

// --------------------------------------------------- differential vs grid

/// A deliberately small strategy space: one parameter per delivery attack,
/// no lie/reflect, no off-path sweep — small enough that both modes drain
/// it completely in seconds.
core::CampaignConfig tiny_space_campaign(search::SearchMode mode) {
  core::CampaignConfig config;
  config.scenario.protocol = core::Protocol::kTcp;
  config.scenario.tcp_profile = tcp::linux_3_13_profile();
  config.scenario.test_duration = Duration::seconds(5.0);
  config.scenario.seed = 5;
  config.generator.drop_probabilities = {100.0};
  config.generator.duplicate_counts = {10};
  config.generator.delay_seconds = {1.0};
  config.generator.batch_seconds = {2.0};
  config.generator.enable_reflect = false;
  config.generator.enable_lie = false;
  config.generator.inject_packet_types = {};  // no off-path universe
  config.executors = 2;
  config.max_strategies = 0;  // drain everything
  config.search_mode = mode;
  config.search.round_size = 8;
  config.search.max_mutations = 24;
  return config;
}

void expect_greybox_supersets_grid(core::TrialBackend* grid_backend,
                                   core::TrialBackend* greybox_backend) {
  core::CampaignConfig grid = tiny_space_campaign(search::SearchMode::kGrid);
  grid.backend = grid_backend;
  const core::CampaignResult grid_result = run_journaled(grid);

  core::CampaignConfig greybox = tiny_space_campaign(search::SearchMode::kGreybox);
  greybox.backend = greybox_backend;
  const core::CampaignResult greybox_result = run_journaled(greybox);

  // Greybox drains the same universe and adds mutation children on top, so
  // it must try at least as many strategies and find every attack the grid
  // found — by canonical key and by signature.
  EXPECT_GE(greybox_result.strategies_tried, grid_result.strategies_tried);
  ASSERT_FALSE(grid_result.found.empty()) << "grid found nothing; space too small to compare";

  std::set<std::string> greybox_keys;
  for (const core::StrategyOutcome& o : greybox_result.found)
    greybox_keys.insert(strategy::canonical_key(o.strat));
  for (const core::StrategyOutcome& o : grid_result.found)
    EXPECT_TRUE(greybox_keys.contains(strategy::canonical_key(o.strat)))
        << "grid attack missed by greybox: " << o.strat.describe();

  const std::set<std::string> grid_sigs(grid_result.unique_signatures.begin(),
                                        grid_result.unique_signatures.end());
  const std::set<std::string> greybox_sigs(greybox_result.unique_signatures.begin(),
                                           greybox_result.unique_signatures.end());
  for (const std::string& sig : grid_sigs)
    EXPECT_TRUE(greybox_sigs.contains(sig)) << "grid signature missed by greybox: " << sig;
}

TEST(Differential, GreyboxSupersetsGridUnderThreadBackend) {
  expect_greybox_supersets_grid(nullptr, nullptr);
}

TEST(Differential, GreyboxSupersetsGridUnderDistributedBackend) {
  dist::DistOptions options;
  options.workers = 2;
  dist::DistributedBackend grid_backend(options);
  dist::DistributedBackend greybox_backend(options);
  expect_greybox_supersets_grid(&grid_backend, &greybox_backend);
}

}  // namespace
}  // namespace snake

int main(int argc, char** argv) {
  // Worker re-entry MUST come before gtest sees argv: when this binary is
  // exec'd as a campaign worker, it is not a test run at all.
  if (auto code = snake::dist::maybe_run_worker(argc, argv)) return *code;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
