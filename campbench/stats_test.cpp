// Tests of the benchmark's own statistics: exact quantiles, the quartile
// spread (checked against values Python's statistics.quantiles gives), the
// histogram-interpolated quantile it replaces for per-trial latency, the
// result fingerprint and span self time.
#include <gtest/gtest.h>

#include "stats.h"

namespace campbench {
namespace {

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(quantile({3, 1, 2}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile({10, 20}, 0.25), 12.5);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(median({5}), 5.0);
}

TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(i);
  Quartiles q = quartiles(ten);
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([7, 1, 4], n=4) == [1.0, 4.0, 7.0]
  q = quartiles({7, 1, 4});
  EXPECT_DOUBLE_EQ(q.q1, 1.0);
  EXPECT_DOUBLE_EQ(q.q3, 7.0);
  // statistics.quantiles([2, 4], n=4) == [1.5, 3.0, 4.5]
  q = quartiles({4, 2});
  EXPECT_DOUBLE_EQ(q.q1, 1.5);
  EXPECT_DOUBLE_EQ(q.q3, 4.5);
}

TEST(Quartiles, SpreadIsShareOfMedian) {
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(100 + i);
  // (108.25 - 102.75) / 105.5
  EXPECT_NEAR(iqr_share(ten), 5.5 / 105.5, 1e-12);
  EXPECT_DOUBLE_EQ(iqr_share({0, 0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(iqr_share({4, 4, 4, 4}), 0.0);
}

TEST(HistogramQuantile, ExactP99DiffersFromBucketInterpolation) {
  // 99 trials of 9 ms and one of 900 ms, in the 1-3-10 ladder the campaign
  // timers use. The interpolated p99 lands inside the 3-10 ms bucket; the
  // exact p99 sits between the two order statistics that bracket it.
  snake::obs::Histogram h;
  h.bounds = snake::obs::default_time_bounds();
  h.counts.assign(h.bounds.size() + 1, 0);
  std::vector<double> samples;
  for (int i = 0; i < 99; ++i) samples.push_back(0.009);
  samples.push_back(0.900);
  for (double s : samples) h.record(s);

  const double exact = quantile(samples, 0.99);
  const double interpolated = histogram_quantile(h, 0.99);
  EXPECT_NEAR(exact, 0.009 + 0.01 * (0.900 - 0.009), 1e-12);
  EXPECT_LE(interpolated, 0.010);
  EXPECT_GT(std::abs(exact - interpolated), 0.005);
  // The top bucket is pinned to the single slowest trial.
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 1.0), 0.900);
}

TEST(HistogramQuantile, EmptyIsZero) {
  snake::obs::Histogram h;
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.5), 0.0);
}

TEST(Fingerprint, IgnoresSignatureOrderAndSeesEveryField) {
  ResultFacts a{3541, 255, 12, {"b", "a", "c"}};
  ResultFacts b{3541, 255, 12, {"c", "b", "a"}};
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  EXPECT_TRUE(a == b);
  EXPECT_EQ(fingerprint(a).size(), 16u);

  ResultFacts c = a;
  c.strategies_tried = 3540;
  EXPECT_NE(fingerprint(a), fingerprint(c));
  c = a;
  c.attacks_found = 254;
  EXPECT_NE(fingerprint(a), fingerprint(c));
  c = a;
  c.unique_attacks = 11;
  EXPECT_NE(fingerprint(a), fingerprint(c));
  c = a;
  c.signatures = {"a", "b"};
  EXPECT_NE(fingerprint(a), fingerprint(c));
  EXPECT_FALSE(a == c);
  // Field boundaries matter: {"ab"} is not {"a", "b"}.
  ResultFacts d{1, 1, 1, {"ab"}}, e{1, 1, 1, {"a", "b"}};
  EXPECT_NE(fingerprint(d), fingerprint(e));
}

TEST(Fingerprint, MergeSumsCountsAndUnitesSignatures) {
  ResultFacts a{160, 40, 2, {"x", "y"}};
  ResultFacts b{160, 30, 2, {"y", "z"}};
  ResultFacts m = merge({a, b});
  EXPECT_EQ(m.strategies_tried, 320u);
  EXPECT_EQ(m.attacks_found, 70u);
  EXPECT_EQ(m.unique_attacks, 3u);
  EXPECT_EQ(m.signatures, (std::vector<std::string>{"x", "y", "z"}));
  EXPECT_TRUE(merge({a}) == a);
}

TEST(SpanLog, SelfTimeSubtractsTheUnionOfChildren) {
  SpanLog log;
  const int root = log.add("snake.strategy", -1, 0.0, 10.0);
  log.add("snake.trial", root, 1.0, 4.0);
  log.add("detector.detect", root, 3.0, 5.0);  // overlaps the trial by 1
  const int retest = log.add("snake.retest", root, 6.0, 8.0);
  log.add("packet.parse", retest, 6.5, 7.0);  // grandchild: not root's concern
  EXPECT_DOUBLE_EQ(log.duration(root), 10.0);
  EXPECT_DOUBLE_EQ(log.self_time(root), 10.0 - 4.0 - 2.0);
  EXPECT_DOUBLE_EQ(log.self_time(retest), 1.5);
  EXPECT_DOUBLE_EQ(log.total_self("snake.retest"), 1.5);
  EXPECT_DOUBLE_EQ(log.total("snake.trial"), 3.0);
  EXPECT_EQ(log.count("detector.detect"), 1u);
}

TEST(SpanLog, ScopedSpanRecordsANonNegativeDuration) {
  SpanLog log;
  {
    ScopedSpan outer(log, "obs.report");
    ScopedSpan inner(log, "obs.write", outer.id());
  }
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_GE(log.duration(0), log.duration(1));
  EXPECT_GE(log.self_time(0), 0.0);
  EXPECT_EQ(log.durations("obs.write").size(), 1u);
}

}  // namespace
}  // namespace campbench
