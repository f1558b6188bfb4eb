// Campaign benchmark driver.
//
//   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
//                  --work DIR --trace-gen PATH
//
// Runs one workload (see workloads.cpp) through core::run_campaign. With
// --trace 0 it times short set-up-only campaigns for a fifth of S seconds,
// then repeats the workload's set of full campaigns while S allows (at
// least three campaigns), and reports the median over sets of each timing
// and the set's attack counts; with --trace 1 it reports per-layer metrics
// (traced.cpp). Every repetition of the set must commit the same
// strategies, attacks and signatures, and for the default seed they must
// match the fingerprint recorded below. The
// last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when the result is correct.
//
// The binary re-enters itself as a distributed worker (dist::maybe_run_worker)
// for the fleet workload.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "dist/worker.h"
#include "obs/json.h"
#include "traced.h"
#include "workloads.h"

using namespace campbench;

namespace {

constexpr std::uint64_t kDefaultSeed = 1;

/// fingerprint() of each workload's campaign at the default seed.
const std::map<std::string, std::string> kDefaultFingerprints = {
    {"tcp-bulk-grid", "b07a571c84d222be"},
    {"sack-trace-greybox", "89d8ffad742f85fa"},
    {"dccp-fleet-cache", "f6cc4c9a50890323"},
};

// Full campaigns per run, and the short set-up-only campaigns before them.
constexpr int kMinCampaigns = 3;
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 25;
constexpr double kSetupShare = 0.2;

int usage() {
  std::fprintf(stderr,
               "usage: campaign_bench --workload NAME --seed N --seconds S --trace 0|1 "
               "--work DIR --trace-gen PATH\n");
  return 2;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  snake::obs::JsonWriter w;
  w.begin_object();
  w.key("correct").value(correct);
  w.key("attempted").value(attempted);
  w.key("failed").value(failed);
  w.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  if (auto code = snake::dist::maybe_run_worker(argc, argv)) return *code;

  std::string workload, work_dir, trace_gen;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return usage();
    const char* flag = argv[i];
    const char* value = argv[++i];
    char* end = nullptr;
    if (!std::strcmp(flag, "--workload")) {
      workload = value;
    } else if (!std::strcmp(flag, "--seed")) {
      seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage();
    } else if (!std::strcmp(flag, "--seconds")) {
      seconds = std::strtod(value, &end);
      if (*end != '\0' || seconds <= 0) return usage();
    } else if (!std::strcmp(flag, "--trace")) {
      trace = std::atoi(value);
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) return usage();
    } else if (!std::strcmp(flag, "--work")) {
      work_dir = value;
    } else if (!std::strcmp(flag, "--trace-gen")) {
      trace_gen = value;
    } else {
      return usage();
    }
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr || work_dir.empty() || trace_gen.empty()) return usage();

  try {
    const int k = w->seeds_per_set;
    std::vector<Inputs> inputs;
    for (int j = 0; j < k; ++j)
      inputs.push_back(prepare_inputs(*w, set_seed(*w, seed, j), work_dir, trace_gen));
    if (!reset_peak_rss())
      std::fprintf(stderr, "warning: peak RSS not reset; it includes input generation\n");
    std::fprintf(stderr, "%s seed %llu: %d executor%s%s, %d campaign%s per set\n", w->name,
                 static_cast<unsigned long long>(seed), load_width(),
                 load_width() == 1 ? "" : "s", w->fleet ? " (worker processes)" : " (threads)", k,
                 k == 1 ? "" : "s");

    if (trace == 1) {
      TracedReport r = run_traced(*w, inputs.front(), set_seed(*w, seed, 0), seconds);
      for (const std::string& p : r.problems) std::fprintf(stderr, "MISMATCH: %s\n", p.c_str());
      for (const Inputs& in : inputs) remove_inputs(in);
      print_result(r.problems.empty(), r.attempted, r.failed, r.metrics);
      return r.problems.empty() ? 0 : 1;
    }

    const auto start = std::chrono::steady_clock::now();
    auto used = [&] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    };
    std::vector<double> setup, sps, cpu, set_walls;
    std::uint64_t attempted = 0, failed = 0, mismatches = 0;
    // Set-up samples first, from short campaigns, within a fifth of the time.
    while (setup.size() < kMinSetups ||
           (setup.size() < kMaxSetups && used() < kSetupShare * seconds)) {
      const int j = static_cast<int>(setup.size()) % k;
      Rep rep = run_setup_rep(*w, inputs[j], set_seed(*w, seed, j));
      setup.push_back(rep.setup_s);
      attempted += rep.facts.strategies_tried;
      failed += rep.failed;
    }
    std::fprintf(stderr, "  %zu set-up campaigns: median %.4f s, spread %.3f\n", setup.size(),
                 median(setup), iqr_share(setup));

    // Then whole sets of full campaigns, at least kMinCampaigns campaigns,
    // while another set fits in the time left.
    std::vector<ResultFacts> sets;
    const double full_start = used();
    while (static_cast<int>(sets.size()) * k < kMinCampaigns ||
           used() + median(set_walls) <= seconds) {
      const double set_start = used();
      std::vector<ResultFacts> parts;
      double commit_s = 0.0, cpu_s = 0.0;
      std::uint64_t commits = 0, tried = 0;
      for (int j = 0; j < k; ++j) {
        Rep rep = run_rep(*w, inputs[j], set_seed(*w, seed, j));
        std::fprintf(stderr,
                     "  set %zu campaign %d: setup %.4f s, %.2f strategies/s, "
                     "%.4f cpu ms/strategy, %llu tried, %llu attacks, %llu unique\n",
                     sets.size(), j, rep.setup_s, rep.strategies_per_s, rep.cpu_ms_per_strategy,
                     static_cast<unsigned long long>(rep.facts.strategies_tried),
                     static_cast<unsigned long long>(rep.facts.attacks_found),
                     static_cast<unsigned long long>(rep.facts.unique_attacks));
        setup.push_back(rep.setup_s);
        commit_s += rep.commit_s;
        commits += rep.commits;
        cpu_s += rep.cpu_s;
        tried += rep.facts.strategies_tried;
        attempted += rep.facts.strategies_tried;
        failed += rep.failed;
        parts.push_back(std::move(rep.facts));
      }
      // A set's rate and CPU cost pool its campaigns, whose seeds differ.
      sps.push_back(commit_s > 0 ? static_cast<double>(commits) / commit_s : 0.0);
      cpu.push_back(tried > 0 ? cpu_s * 1e3 / static_cast<double>(tried) : 0.0);
      sets.push_back(merge(parts));
      set_walls.push_back(used() - set_start);
      if (!(sets.back() == sets.front())) {
        std::fprintf(stderr, "MISMATCH: set %zu differs from set 0\n", sets.size() - 1);
        ++mismatches;
      }
    }
    const ResultFacts& facts = sets.front();
    const std::string print = fingerprint(facts);
    std::fprintf(stderr,
                 "  %zu set%s in %.1f s, fingerprint %s; spread: setup %.3f, rate %.3f, "
                 "cpu %.3f\n",
                 sets.size(), sets.size() == 1 ? "" : "s", used() - full_start, print.c_str(),
                 iqr_share(setup), iqr_share(sps), iqr_share(cpu));
    if (seed == kDefaultSeed && print != kDefaultFingerprints.at(w->name)) {
      std::fprintf(stderr, "MISMATCH: fingerprint %s, recorded %s\n", print.c_str(),
                   kDefaultFingerprints.at(w->name).c_str());
      ++mismatches;
    }
    failed += mismatches;

    const std::vector<Metric> metrics = {
        {"strategies_per_s", median(sps), "1/s"},
        {"cpu_ms_per_strategy", median(cpu), "ms"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mib", peak_rss_mib(w->fleet ? load_width() : 0), "MiB"},
        {"attacks_found", static_cast<double>(facts.attacks_found), "count"},
        {"unique_attacks", static_cast<double>(facts.unique_attacks), "count"},
    };
    for (const Inputs& in : inputs) remove_inputs(in);
    print_result(mismatches == 0, attempted, failed, metrics);
    return mismatches == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 1;
  }
}
