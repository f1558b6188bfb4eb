// The traced run: per-layer metrics from spans the benchmark records around
// calls into each layer's public functions, plus the counters the campaign
// registry already holds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace campbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct TracedReport {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< correctness mismatches, one line each
};

/// `seconds` bounds the trial-replay phase.
TracedReport run_traced(const Workload& w, const Inputs& in, std::uint64_t seed,
                        double seconds);

}  // namespace campbench
