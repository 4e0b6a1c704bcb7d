// Unit test of the benchmark's percentile helper and span analysis.
// Exits 0 when every check passes; prints each failure.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // n, n-1, ..., 1 (unsorted on purpose)
}

}  // namespace

int main() {
  using namespace provbench;

  // Nearest rank: the value at rank ceil(q * n).
  std::vector<double> sorted = {1, 2, 3, 4};
  Expect(Near(NearestRank(sorted, 0.5), 2), "median of 4 is the 2nd value");
  Expect(Near(NearestRank(sorted, 0.75), 3), "p75 of 4 is the 3rd value");
  Expect(Near(NearestRank(sorted, 1.0), 4), "p100 is the max");
  Expect(Near(NearestRank({7}, 0.99), 7), "one sample is every percentile");

  // A percentile counts only with >= 10 samples beyond it.
  Expect(SamplesBeyond(1000, 0.99) == 10, "p99 of 1000 has 10 beyond");
  Expect(PercentileValid(1000, 0.99), "p99 of 1000 is valid");
  Expect(!PercentileValid(999, 0.99), "p99 of 999 is not");
  Expect(!PercentileValid(40, 0.99), "p99 of 40 is the max, not a p99");
  Expect(PercentileValid(20, 0.5) && !PercentileValid(19, 0.5),
         "the median needs 20 samples");

  // Summaries pick the highest valid percentile.
  Summary s40 = Summarize(Ramp(40));
  Expect(s40.count == 40, "count");
  Expect(Near(s40.median, 20), "median of 1..40 is 20");
  Expect(Near(s40.tail_pct, 75), "40 samples support p75 at most");
  Expect(Near(s40.tail, 30), "p75 of 1..40 is 30");
  Expect(!s40.p99_valid && s40.p99 == 0, "no p99 from 40 samples");
  Expect(Near(s40.mean, 20.5), "mean of 1..40");

  Summary s1000 = Summarize(Ramp(1000));
  Expect(s1000.p99_valid && Near(s1000.p99, 990), "p99 of 1..1000 is 990");
  Expect(Near(s1000.p95, 950) && Near(s1000.p90, 900), "p95 and p90 of 1..1000");
  Expect(s40.p95 == 0 && s40.p90 == 0, "40 samples support neither p90 nor p95");
  Expect(Near(s1000.tail_pct, 99), "1000 samples support p99, not p99.9");
  Summary s10000 = Summarize(Ramp(10000));
  Expect(Near(s10000.tail_pct, 99.9) && Near(s10000.tail, 9990),
         "10000 samples support p99.9");

  Expect(Summarize({}).count == 0 && Median({}) == 0, "empty input");
  Expect(Near(Median({5, 1, 3}), 3), "median of 3 unsorted values");

  // Span analysis: root time not covered by direct children.
  SpanLog log(0);
  uint32_t root = log.Begin("loop", 0, 0);
  uint32_t child = log.Begin("work", root, 1);
  log.AddCounter(child, "rows", 3);
  log.End(child);
  log.End(root);
  std::vector<const SpanLog*> logs = {&log};
  Expect(CounterSum(logs, "work", "rows") == 3 &&
             CounterSum(logs, "", "rows") == 3 &&
             CounterSum(logs, "loop", "rows") == 0,
         "counter sums by span name");
  const double frac = UnattributedFrac(logs, {"loop"});
  Expect(frac >= 0 && frac <= 1, "unattributed share is a fraction");
  Expect(SpanCount(logs, "work") == 1, "span count");
  Expect(UnattributedFrac(logs, {"missing"}) == 0, "no root, no share");
  Expect(Near(Scaled({1.5, 2}, 1e3)[0], 1500), "scaled");

  if (failures == 0) std::printf("stats_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
