#include "workloads.h"

#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "dist/coordinator.h"
#include "dist/result_cache.h"
#include "strategy/generator.h"
#include "tcp/profile.h"

extern char** environ;

namespace campbench {

using snake::core::CampaignConfig;
using snake::core::CampaignResult;
using snake::core::Protocol;
using Clock = std::chrono::steady_clock;

namespace {

// Why these three, and why these sizes:
//  - tcp-bulk-grid is the paper's Table I unit of work: every (state, packet
//    type) strategy for linux-3.13 against the bulk download. Per-packet
//    layers and snapshot restore do the work; trace, search, dist and cache
//    sit idle, so it is the control for changes to those four.
//  - sack-trace-greybox puts SACK options and the scoreboard on every
//    segment, replays a down-sampled 20k-flow trace (whose text every world
//    build re-parses), and runs the greybox search with its drain barriers.
//    The cap keeps one campaign near five seconds on a 4-core host.
//    A capped greybox campaign's attack count swings by a quarter from one
//    seed to the next, so a run sums four campaigns on seeds derived from
//    the run's seed.
//  - dccp-fleet-cache runs DCCP CCID-2 on forked workers against a cache
//    pre-filled with the first 2,000 strategies of the seed's grid order, so
//    every campaign both replays cached verdicts and simulates and stores
//    the rest.
const Workload kWorkloads[] = {
    {"tcp-bulk-grid", Protocol::kTcp, "linux-3.13", false, false, false, false, 0, 3.0, 1},
    {"sack-trace-greybox", Protocol::kTcp, "sack-rfc2018", true, true, false, false, 160, 5.0, 4},
    {"dccp-fleet-cache", Protocol::kDccp, "", false, false, true, true, 0, 3.0, 1},
};

constexpr int kTraceFlows = 20000;      // generated trace size
constexpr int kTraceSeconds = 6;        // generated trace span
constexpr std::size_t kReplayFlows = 32;  // flows the campaign replays
constexpr std::uint64_t kPrefillTrials = 2000;  // of a DCCP universe of ~4,700

/// Spans the cache calls the campaign makes (traced run only).
class TimedCache : public snake::core::TrialCache {
 public:
  TimedCache(snake::core::TrialCache& inner, SpanLog& log, int parent)
      : inner_(inner), log_(log), parent_(parent) {}
  const snake::core::TrialRecord* lookup(const std::string& key) override {
    ScopedSpan span(log_, "cache.lookup", parent_);
    return inner_.lookup(key);
  }
  void store(const snake::core::TrialRecord& record) override {
    ScopedSpan span(log_, "cache.store", parent_);
    inner_.store(record);
  }

 private:
  snake::core::TrialCache& inner_;
  SpanLog& log_;
  int parent_;
};

/// Spans the fleet start-up (spawn + handshake + worker baselines) and
/// forwards everything else (traced run only).
class TimedBackend : public snake::core::TrialBackend {
 public:
  TimedBackend(snake::core::TrialBackend& inner, SpanLog& log, int parent)
      : inner_(inner), log_(log), parent_(parent) {}
  bool start(const CampaignConfig& config, const snake::core::RunMetrics& baseline,
             const snake::core::RunMetrics& retest_baseline) override {
    ScopedSpan span(log_, "dist.start", parent_);
    return inner_.start(config, baseline, retest_baseline);
  }
  std::size_t capacity() const override { return inner_.capacity(); }
  void submit(snake::core::TrialTask task) override { inner_.submit(std::move(task)); }
  snake::core::TrialOutcome wait_outcome() override { return inner_.wait_outcome(); }
  void on_feedback(const std::vector<snake::core::JournalObservation>& pairs) override {
    inner_.on_feedback(pairs);
  }
  void finish(snake::obs::MetricsRegistry* into) override { inner_.finish(into); }

 private:
  snake::core::TrialBackend& inner_;
  SpanLog& log_;
  int parent_;
};

double cpu_seconds(int who) {
  struct rusage u{};
  if (getrusage(who, &u) != 0) return 0.0;
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

/// This process plus every child it has reaped.
double cpu_seconds() { return cpu_seconds(RUSAGE_SELF) + cpu_seconds(RUSAGE_CHILDREN); }

void run_to_file(const std::vector<std::string>& argv, const std::string& out_path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, out_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) throw std::runtime_error("cannot start " + argv[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed for " + argv[0]);
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error(argv[0] + " failed");
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

std::uint64_t set_seed(const Workload& w, std::uint64_t seed, int index) {
  if (w.seeds_per_set == 1) return seed;
  return seed * static_cast<std::uint64_t>(w.seeds_per_set) + static_cast<std::uint64_t>(index);
}

int load_width() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int cores = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  if (cores <= 0) cores = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  return std::max(1, cores - 1);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

CampaignConfig make_config(const Workload& w, std::uint64_t seed,
                           const std::string& trace_text) {
  CampaignConfig c;
  c.scenario.protocol = w.protocol;
  if (w.protocol == Protocol::kTcp)
    c.scenario.tcp_profile = snake::tcp::tcp_profile_by_name(w.tcp_profile);
  c.scenario.test_duration = snake::Duration::seconds(w.virtual_seconds);
  c.scenario.seed = seed;
  if (w.trace_replay) {
    c.scenario.workload = snake::core::Workload::kTrace;
    c.scenario.trace_text = trace_text;
    c.scenario.trace_max_flows = kReplayFlows;
  }
  c.generator = w.protocol != Protocol::kTcp       ? snake::strategy::dccp_generator_config()
                : c.scenario.tcp_profile.sack ? snake::strategy::tcp_sack_generator_config()
                                              : snake::strategy::tcp_generator_config();
  // The sequence-number sweep cap bench_campaign uses: without it a TCP
  // universe is dominated by one hit-seq sweep.
  c.generator.hitseq_max_packets = 4000;
  c.executors = load_width();
  c.max_strategies = w.max_strategies;
  c.search_mode = w.greybox ? snake::search::SearchMode::kGreybox
                            : snake::search::SearchMode::kGrid;
  return c;
}

Inputs prepare_inputs(const Workload& w, std::uint64_t seed, const std::string& work_dir,
                      const std::string& trace_gen) {
  std::filesystem::create_directories(work_dir);
  Inputs in;
  const std::string stem = work_dir + "/" + w.name + "-" + std::to_string(seed);
  if (w.trace_replay) {
    in.trace_path = stem + ".trace";
    run_to_file({trace_gen, "--flows", std::to_string(kTraceFlows), "--seed",
                 std::to_string(seed), "--duration", std::to_string(kTraceSeconds)},
                in.trace_path);
  }
  if (w.prefilled_cache) {
    in.cache_seed_path = stem + ".cache.jsonl";
    in.cache_work_path = stem + ".work.jsonl";
    std::filesystem::remove(in.cache_seed_path);
    // The first kPrefillTrials strategies of the seed's own grid order: a
    // timed campaign replays exactly those from the cache and simulates and
    // stores the rest. The pre-fill runs in-process: records from workers
    // carry observations pruned against whatever coverage had reached the
    // worker, which makes a fleet-filled cache differ from run to run.
    CampaignConfig config = make_config(w, seed, "");
    config.collect_metrics = false;
    config.max_strategies = kPrefillTrials;
    snake::dist::ResultCache cache(in.cache_seed_path);
    snake::dist::ResultCache::View view = cache.view(snake::core::campaign_identity_hash(config));
    config.cache = &view;
    if (snake::core::run_campaign(config).cache_stores == 0)
      throw std::runtime_error("cache pre-fill stored nothing");
  }
  return in;
}

namespace {

Rep run_campaign_rep(const Workload& w, const Inputs& in, std::uint64_t seed,
                     const RepHooks* hooks, std::uint64_t max_strategies) {
  SpanLog* log = hooks != nullptr ? hooks->spans : nullptr;
  if (w.prefilled_cache)
    std::filesystem::copy_file(in.cache_seed_path, in.cache_work_path,
                               std::filesystem::copy_options::overwrite_existing);

  Rep rep;
  const double cpu0 = cpu_seconds();
  const int root = log != nullptr ? log->begin("snake.campaign") : -1;
  const Clock::time_point t0 = Clock::now();
  {
    std::string trace_text;
    if (w.trace_replay) {
      std::optional<ScopedSpan> span;
      if (log != nullptr) span.emplace(*log, "trace.read", root);
      trace_text = read_file(in.trace_path);
    }
    CampaignConfig config = make_config(w, seed, trace_text);
    if (max_strategies != 0) config.max_strategies = max_strategies;
    if (hooks != nullptr) config.journal = hooks->journal;

    std::optional<snake::dist::ResultCache> cache;
    std::optional<snake::dist::ResultCache::View> view;
    std::optional<TimedCache> timed_cache;
    if (w.prefilled_cache) {
      cache.emplace(in.cache_work_path);
      {
        std::optional<ScopedSpan> span;
        if (log != nullptr) span.emplace(*log, "cache.load", root);
        if (!cache->load()) throw std::runtime_error("cannot load " + in.cache_work_path);
      }
      view.emplace(cache->view(snake::core::campaign_identity_hash(config)));
      config.cache = &*view;
      if (log != nullptr) config.cache = &timed_cache.emplace(*view, *log, root);
    }

    std::optional<snake::dist::DistributedBackend> backend;
    std::optional<TimedBackend> timed_backend;
    if (w.fleet) {
      snake::dist::DistOptions opt;
      opt.workers = config.executors;
      backend.emplace(std::move(opt));
      config.backend = &*backend;
      if (log != nullptr) config.backend = &timed_backend.emplace(*backend, *log, root);
    }

    Clock::time_point first_commit{}, last_commit{};
    std::uint64_t first_count = 0, last_count = 0;
    config.on_progress = [&](std::uint64_t committed, std::uint64_t) {
      last_commit = Clock::now();
      last_count = committed;
      if (first_count == 0) {
        first_commit = last_commit;
        first_count = committed;
      }
    };
    rep.result = snake::core::run_campaign(config);
    const Clock::time_point t_end = Clock::now();
    if (first_count == 0) throw std::runtime_error("campaign committed no trial");
    rep.setup_s = std::chrono::duration<double>(first_commit - t0).count();
    rep.wall_s = std::chrono::duration<double>(t_end - t0).count();
    // The rate runs to the last commit: backend teardown after it (worker
    // shutdown waits up to a heartbeat interval) is not trial work.
    rep.teardown_s = std::chrono::duration<double>(t_end - last_commit).count();
    rep.commit_s = std::chrono::duration<double>(last_commit - first_commit).count();
    rep.commits = last_count - first_count;
    rep.strategies_per_s =
        rep.commit_s > 0 ? static_cast<double>(rep.commits) / rep.commit_s : 0.0;
    if (log != nullptr) {
      const double origin = log->spans()[static_cast<std::size_t>(root)].start_s;
      log->add("snake.setup", root, origin, origin + rep.setup_s);
    }
    if (backend.has_value()) {
      rep.workers_lost = backend->workers_lost();
      rep.trials_stolen = backend->trials_stolen();
      rep.inline_trials = backend->inline_trials();
    }
  }  // backend destroyed: workers reaped, so their CPU is in RUSAGE_CHILDREN
  if (log != nullptr) log->end(root);
  const CampaignResult& r = rep.result;
  rep.cpu_s = cpu_seconds() - cpu0;
  rep.cpu_ms_per_strategy =
      r.strategies_tried > 0 ? rep.cpu_s * 1e3 / static_cast<double>(r.strategies_tried) : 0.0;
  rep.facts.strategies_tried = r.strategies_tried;
  rep.facts.attacks_found = r.attack_strategies_found;
  rep.facts.unique_attacks = r.unique_true_attacks;
  rep.facts.signatures = r.unique_signatures;
  auto counter = [&](const char* name) {
    auto it = r.metrics.counters().find(name);
    return it == r.metrics.counters().end() ? std::uint64_t{0} : it->second;
  };
  rep.failed = r.trials_aborted + r.trials_errored + r.quarantined.size() +
               static_cast<std::uint64_t>(rep.workers_lost) + rep.inline_trials +
               counter("campaign.backend_fallback");
  return rep;
}

}  // namespace

void remove_inputs(const Inputs& in) {
  for (const std::string* path : {&in.trace_path, &in.cache_seed_path, &in.cache_work_path})
    if (!path->empty()) std::filesystem::remove(*path);
}

Rep run_rep(const Workload& w, const Inputs& in, std::uint64_t seed, const RepHooks* hooks) {
  return run_campaign_rep(w, in, seed, hooks, 0);
}

Rep run_setup_rep(const Workload& w, const Inputs& in, std::uint64_t seed) {
  // Both backends dispatch ahead at most 4 trials per executor or worker.
  return run_campaign_rep(w, in, seed, nullptr,
                          4 * static_cast<std::uint64_t>(load_width()));
}

bool reset_peak_rss() {
  malloc_trim(0);  // hand freed input-generation memory back first
  std::ofstream out("/proc/self/clear_refs");
  out << "5";  // resets VmHWM (Linux 4.0 and later)
  out.close();
  return static_cast<bool>(out);
}

double peak_rss_mib(int workers) {
  std::ifstream status("/proc/self/status");
  double self_kib = -1.0;
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) self_kib = std::strtod(line.c_str() + 6, nullptr);
  if (self_kib < 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  struct rusage kids{};
  getrusage(RUSAGE_CHILDREN, &kids);
  // Linux reports ru_maxrss in KiB.
  return (self_kib + static_cast<double>(workers) * static_cast<double>(kids.ru_maxrss)) /
         1024.0;
}

}  // namespace campbench
