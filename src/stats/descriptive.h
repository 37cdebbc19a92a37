// Descriptive statistics over double sequences. NaN inputs are treated as
// missing and skipped (the paper keeps missing values as "valid data" for
// trees; summaries must still be computable over such columns).
#ifndef ROADMINE_STATS_DESCRIPTIVE_H_
#define ROADMINE_STATS_DESCRIPTIVE_H_

#include <cstddef>
#include <vector>

namespace roadmine::stats {

// Five-number summary plus mean/stddev, as used for the Figure-4 cluster
// crash-count box plots.
struct Summary {
  size_t count = 0;       // Non-missing observations.
  double min = 0.0;
  double q1 = 0.0;        // 25th percentile.
  double median = 0.0;
  double q3 = 0.0;        // 75th percentile.
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;    // Sample standard deviation (n - 1).

  double iqr() const { return q3 - q1; }
};

// Arithmetic mean of non-missing values; NaN if none.
double Mean(const std::vector<double>& values);

// Unbiased sample variance (n - 1) of non-missing values; NaN if count < 2.
double Variance(const std::vector<double>& values);

// sqrt(Variance).
double StdDev(const std::vector<double>& values);

// Linear-interpolation quantile (R type 7). `p` in [0, 1]. NaN when empty.
double Quantile(std::vector<double> values, double p);

// Quantile over values that are already sorted ascending and NaN-free.
// Identical to Quantile on the same data, without the per-call copy +
// sort — the form for loops that take k edges from one column.
double QuantileSorted(const std::vector<double>& sorted_values, double p);

// Nearest-rank quantile: the element of 0-based rank
// floor(p * (n - 1) + 0.5) in ascending order, found by nth_element on
// the copy, so the result is always an observed value; 0 when empty.
// `values` must be NaN-free. The form latency summaries report.
double NearestRankQuantile(std::vector<double> values, double p);

// All requested quantiles with a single copy + sort of `values` (NaNs
// skipped as usual). Element i corresponds to ps[i].
std::vector<double> Quantiles(std::vector<double> values,
                              const std::vector<double>& ps);

// Median (Quantile at 0.5).
double Median(std::vector<double> values);

// Interquartile range (Q3 - Q1).
double Iqr(std::vector<double> values);

// Full summary in one pass over a copy.
Summary Summarize(const std::vector<double>& values);

// Pearson correlation of paired observations (pairs with any NaN skipped);
// NaN when fewer than 2 complete pairs or zero variance.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

// Sample skewness (adjusted Fisher-Pearson); NaN when count < 3.
double Skewness(const std::vector<double>& values);

}  // namespace roadmine::stats

#endif  // ROADMINE_STATS_DESCRIPTIVE_H_
