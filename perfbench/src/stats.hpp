// Sample statistics for the benchmark's timings.
//
// A timing is reported as its median plus the highest percentile that
// still has at least kMinTail samples beyond it, with the sample count
// next to both: a "p99" over 40 samples is just the maximum, so the
// benchmark refuses to call it one.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace provbench {

// Samples that must lie strictly above a percentile for it to be
// reported.
inline constexpr size_t kMinTail = 10;

// Nearest-rank percentile of `sorted` (ascending, non-empty): the value
// at rank ceil(q * n), q in (0, 1]. q = 0.5 is the median.
double NearestRank(const std::vector<double>& sorted, double q);

// Samples strictly beyond the nearest-rank q-percentile of n samples.
size_t SamplesBeyond(size_t n, double q);

// True when the q-percentile of n samples has >= kMinTail beyond it.
bool PercentileValid(size_t n, double q);

struct Summary {
  size_t count = 0;
  double median = 0;
  double mean = 0;
  // The highest of {99.9, 99, 95, 90, 75, 50} whose percentile is
  // valid for `count` samples (0 when even the median is not).
  double tail_pct = 0;
  double tail = 0;
  // p90 / p95 / p99 when valid, else 0 (callers that need them must
  // collect enough samples).
  double p90 = 0;
  double p95 = 0;
  double p99 = 0;
  bool p99_valid = false;

  // "median 1.2 ms, p99 3.4 ms (n=1234)".
  std::string Describe(const char* unit) const;
};

// Summarizes `samples` (copied and sorted). Empty input yields a zero
// Summary.
Summary Summarize(std::vector<double> samples);

// Median of `samples` (nearest rank); 0 when empty.
double Median(std::vector<double> samples);

}  // namespace provbench
