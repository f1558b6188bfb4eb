// Statistics and bookkeeping shared by the campaign benchmark driver: exact
// sample quantiles, the quartile spread the benchmark's stability rule is
// written in, the bucket-interpolated quantile the campaign histograms
// give, a result fingerprint, and a span log with self-time accounting.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace campbench {

/// Exact quantile of a sample by linear interpolation between order
/// statistics (q in [0, 1]; 0 for an empty sample).
double quantile(std::vector<double> values, double q);

double median(std::vector<double> values);

/// First and third quartile as Python's statistics.quantiles(values, n=4)
/// gives them (its default "exclusive" method). Needs at least two values;
/// fewer give {v, v} or {0, 0}.
struct Quartiles {
  double q1 = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> values);

/// (q3 - q1) / median: the spread the benchmark is judged by.
double iqr_share(const std::vector<double>& values);

/// Quantile estimated from a fixed-bucket histogram, interpolating linearly
/// inside the bucket the target rank lands in, with the +inf tail pinned to
/// the observed maximum. This is what a campaign's ScopedTimer histograms
/// can give, and it is only good to bucket resolution.
double histogram_quantile(const snake::obs::Histogram& h, double q);

/// What must repeat exactly for one workload and seed.
struct ResultFacts {
  std::uint64_t strategies_tried = 0;
  std::uint64_t attacks_found = 0;
  std::uint64_t unique_attacks = 0;
  std::vector<std::string> signatures;  ///< unique attack signatures, any order

  bool operator==(const ResultFacts& other) const;
};

/// The facts of a set of campaigns: counts summed, signature sets united
/// (so unique_attacks counts distinct signatures across the set).
ResultFacts merge(const std::vector<ResultFacts>& parts);

/// FNV-1a over the counts and the sorted signature set, as 16 hex digits.
std::string fingerprint(const ResultFacts& facts);

/// Spans recorded by the benchmark around calls into the program's layers.
/// Spans are kept in memory; a span's self time is its duration minus the
/// part of it its direct children cover.
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0.0;  ///< seconds since the log was created
    double end_s = 0.0;
  };

  SpanLog();

  /// Opens a span under `parent` (-1 = root) and returns its id.
  int begin(std::string name, int parent = -1);
  void end(int id);
  /// Records a finished span directly (for tests and for durations measured
  /// elsewhere).
  int add(std::string name, int parent, double start_s, double end_s);

  const std::vector<Span>& spans() const { return spans_; }
  double duration(int id) const;
  double self_time(int id) const;

  /// Sums over every span of one name.
  double total(const std::string& name) const;
  double total_self(const std::string& name) const;
  std::size_t count(const std::string& name) const;
  std::vector<double> durations(const std::string& name) const;

 private:
  double self_time(int id, const std::vector<int>& children) const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, int parent = -1)
      : log_(&log), id_(log.begin(std::move(name), parent)) {}
  ~ScopedSpan() { log_->end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace campbench
