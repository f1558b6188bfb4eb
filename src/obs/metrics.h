// Campaign observability: a lightweight metrics registry.
//
// The paper's controller makes every decision from runtime-observed signals
// (per-state packet counts, throughput ratios, socket tables), but the
// reproduction only surfaced one summary row per campaign. This registry
// records *why*: named counters, gauges and fixed-bucket histograms that the
// simulator substrate, the attack proxy, the state tracker and the campaign
// controller all write into.
//
// Design constraints (and why):
//  - Slots are plain `std::uint64_t` / `double` and lookups return stable
//    references, so hot-path code resolves a slot once and then does a bare
//    increment. No atomics, no locks: the simulator is single-threaded per
//    scenario, and each campaign trial records into a fresh registry of its
//    own, which the controller merges when it commits the trial.
//  - Instrumentation must not perturb behaviour. Nothing here touches the
//    simulation RNG or the virtual clock; ScopedTimer reads the *wall*
//    clock, which only ever lands in a metric value. A determinism test
//    (observability_test.cpp) holds campaigns to byte-identical results with
//    metrics enabled and disabled.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace snake::obs {

class JsonWriter;
struct JsonValue;

/// Fixed-bucket histogram. `bounds` are ascending upper bounds; an implicit
/// +inf bucket catches the tail, so `counts.size() == bounds.size() + 1`.
struct Histogram {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  /// Log-scale auto-ranging: when a value lands beyond the top bound and
  /// nothing has reached the +inf tail yet, append bounds along the same
  /// 1-3-10 ladder default_time_bounds() uses until the value is covered
  /// (capped at kMaxAutoBounds; later outliers then fall in the tail as
  /// usual). Off by default so explicitly-bounded histograms stay fixed.
  bool auto_extend = false;

  /// Hard cap on bounds growth under auto_extend (64 half-decade steps cover
  /// any representable double we could plausibly time).
  static constexpr std::size_t kMaxAutoBounds = 64;

  void record(double v);
  void merge_from(const Histogram& other);

  /// Grows `bounds` along the 1-3-10 ladder until `v` is covered (or the
  /// cap is hit), inserting empty buckets before the +inf tail.
  void extend_bounds_to(double v);
};

/// Upper bounds (seconds) suited to wall-clock stage timings: 100 us .. 30 s.
const std::vector<double>& default_time_bounds();

/// Named metric slots. Counters and gauges hand out references into
/// node-stable maps, valid for the registry's lifetime.
class MetricsRegistry {
 public:
  /// Monotonic counter slot (created zeroed on first use).
  std::uint64_t& counter(std::string_view name);
  /// Last-value / extremum slot (created zeroed on first use).
  double& gauge(std::string_view name);
  /// Convenience: gauge(name) = max(gauge(name), v) — for high-watermarks.
  void gauge_max(std::string_view name, double v);
  /// Histogram slot; `bounds` and `auto_extend` apply only on first
  /// creation.
  Histogram& histogram(std::string_view name,
                       const std::vector<double>& bounds = default_time_bounds(),
                       bool auto_extend = false);

  /// Folds another registry in: counters add, gauges keep the maximum
  /// (every gauge in this system is a high-watermark), histograms add
  /// bucket-wise. Used to merge each committed trial's registry into the
  /// campaign's.
  void merge_from(const MetricsRegistry& other);

  /// Folds a parsed write_json() document in with merge_from() semantics —
  /// the cross-process form in which a worker process's result frame carries
  /// its trial's registry to the coordinator (src/dist). Histogram bucket
  /// layouts are reconstructed from the "le" bounds, so merged snapshots line
  /// up exactly with in-process merges. Returns false (registry untouched)
  /// when the document does not have write_json's shape.
  bool merge_from_json(const JsonValue& doc);

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  const std::map<std::string, std::uint64_t, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, double, std::less<>>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }

  /// Writes {"counters":{...},"gauges":{...},"histograms":{...}} as one
  /// JSON value (deterministic: maps iterate in name order).
  void write_json(JsonWriter& w) const;
  std::string to_json() const;

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// Records wall-clock seconds into `registry->histogram(name)` when it goes
/// out of scope (or at stop()). A null registry makes it a no-op, so call
/// sites don't branch on whether metrics are enabled.
class ScopedTimer {
 public:
  ScopedTimer(MetricsRegistry* registry, std::string name)
      : registry_(registry), name_(std::move(name)) {
    if (registry_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() { stop(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Records now and disarms; returns elapsed seconds (0 when disabled).
  double stop();

 private:
  MetricsRegistry* registry_;
  std::string name_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace snake::obs
