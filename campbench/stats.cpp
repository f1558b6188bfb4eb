#include "stats.h"

#include <algorithm>
#include <cstdio>
#include <set>

namespace campbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

Quartiles quartiles(std::vector<double> values) {
  if (values.empty()) return {};
  if (values.size() == 1) return {values[0], values[0]};
  std::sort(values.begin(), values.end());
  // statistics.quantiles(data, n=4, method="exclusive"): m = len + 1,
  // cut i sits at rank i*m/4 (1-based), clamped to [1, len-1].
  const long n = 4;
  const long len = static_cast<long>(values.size());
  const long m = len + 1;
  auto cut = [&](long i) {
    long j = i * m / n;
    j = std::clamp(j, 1L, len - 1);
    const long delta = i * m - j * n;
    return (values[j - 1] * static_cast<double>(n - delta) +
            values[j] * static_cast<double>(delta)) /
           static_cast<double>(n);
  };
  return {cut(1), cut(3)};
}

double iqr_share(const std::vector<double>& values) {
  const double mid = median(values);
  if (mid == 0.0) return 0.0;
  const Quartiles q = quartiles(values);
  return (q.q3 - q.q1) / mid;
}

double histogram_quantile(const snake::obs::Histogram& h, double q) {
  if (h.count == 0) return 0.0;
  const double target = q * static_cast<double>(h.count);
  std::uint64_t cum = 0;
  double lo = 0.0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    const double hi = i < h.bounds.size() ? std::min(h.bounds[i], h.max) : h.max;
    if (static_cast<double>(cum + h.counts[i]) >= target && h.counts[i] > 0) {
      const double frac =
          (target - static_cast<double>(cum)) / static_cast<double>(h.counts[i]);
      return lo + frac * (std::max(hi, lo) - lo);
    }
    cum += h.counts[i];
    lo = std::max(hi, lo);
  }
  return h.max;
}

bool ResultFacts::operator==(const ResultFacts& other) const {
  std::vector<std::string> a = signatures, b = other.signatures;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return strategies_tried == other.strategies_tried && attacks_found == other.attacks_found &&
         unique_attacks == other.unique_attacks && a == b;
}

ResultFacts merge(const std::vector<ResultFacts>& parts) {
  ResultFacts out;
  std::set<std::string> united;
  for (const ResultFacts& p : parts) {
    out.strategies_tried += p.strategies_tried;
    out.attacks_found += p.attacks_found;
    united.insert(p.signatures.begin(), p.signatures.end());
  }
  out.signatures.assign(united.begin(), united.end());
  out.unique_attacks = out.signatures.size();
  return out;
}

std::string fingerprint(const ResultFacts& facts) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ULL;
    }
    h ^= 0xff;  // field separator, so "ab"+"c" differs from "a"+"bc"
    h *= 1099511628211ULL;
  };
  mix(std::to_string(facts.strategies_tried));
  mix(std::to_string(facts.attacks_found));
  mix(std::to_string(facts.unique_attacks));
  std::vector<std::string> sorted = facts.signatures;
  std::sort(sorted.begin(), sorted.end());
  for (const std::string& s : sorted) mix(s);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

SpanLog::SpanLog() : origin_(Clock::now()) {}

int SpanLog::begin(std::string name, int parent) {
  const double now = std::chrono::duration<double>(Clock::now() - origin_).count();
  spans_.push_back(Span{std::move(name), parent, now, now});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_s =
      std::chrono::duration<double>(Clock::now() - origin_).count();
}

int SpanLog::add(std::string name, int parent, double start_s, double end_s) {
  spans_.push_back(Span{std::move(name), parent, start_s, end_s});
  return static_cast<int>(spans_.size() - 1);
}

double SpanLog::duration(int id) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return s.end_s - s.start_s;
}

double SpanLog::self_time(int id) const {
  std::vector<int> kids;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent == id) kids.push_back(static_cast<int>(i));
  return self_time(id, kids);
}

double SpanLog::self_time(int id, const std::vector<int>& children) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  // Union of the direct children's intervals, clipped to the parent, so
  // overlapping children are not subtracted twice.
  std::vector<std::pair<double, double>> kids;
  for (int k : children) {
    const Span& c = spans_[static_cast<std::size_t>(k)];
    kids.emplace_back(std::max(c.start_s, s.start_s), std::min(c.end_s, s.end_s));
  }
  std::sort(kids.begin(), kids.end());
  double covered = 0.0, reach = s.start_s;
  for (const auto& [a, b] : kids) {
    const double from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  return (s.end_s - s.start_s) - covered;
}

double SpanLog::total(const std::string& name) const {
  double sum = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == name) sum += duration(static_cast<int>(i));
  return sum;
}

double SpanLog::total_self(const std::string& name) const {
  std::vector<std::vector<int>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent >= 0)
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(static_cast<int>(i));
  double sum = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == name) sum += self_time(static_cast<int>(i), children[i]);
  return sum;
}

std::size_t SpanLog::count(const std::string& name) const {
  return static_cast<std::size_t>(std::count_if(
      spans_.begin(), spans_.end(), [&](const Span& s) { return s.name == name; }));
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == name) out.push_back(duration(static_cast<int>(i)));
  return out;
}

}  // namespace campbench
