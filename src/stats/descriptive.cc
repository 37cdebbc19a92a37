#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace roadmine::stats {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::vector<double> DropMissing(const std::vector<double>& values) {
  std::vector<double> clean;
  clean.reserve(values.size());
  for (double v : values) {
    if (!std::isnan(v)) clean.push_back(v);
  }
  return clean;
}

// Quantile over an already-clean, already-sorted vector.
double SortedQuantile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return kNaN;
  if (sorted.size() == 1) return sorted[0];
  p = std::clamp(p, 0.0, 1.0);
  const double h = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(h));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = h - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  size_t n = 0;
  for (double v : values) {
    if (std::isnan(v)) continue;
    sum += v;
    ++n;
  }
  return n == 0 ? kNaN : sum / static_cast<double>(n);
}

double Variance(const std::vector<double>& values) {
  // Welford's algorithm for numerical stability.
  double mean = 0.0;
  double m2 = 0.0;
  size_t n = 0;
  for (double v : values) {
    if (std::isnan(v)) continue;
    ++n;
    const double delta = v - mean;
    mean += delta / static_cast<double>(n);
    m2 += delta * (v - mean);
  }
  if (n < 2) return kNaN;
  return m2 / static_cast<double>(n - 1);
}

double StdDev(const std::vector<double>& values) {
  const double var = Variance(values);
  return std::isnan(var) ? kNaN : std::sqrt(var);
}

double Quantile(std::vector<double> values, double p) {
  std::vector<double> clean = DropMissing(values);
  std::sort(clean.begin(), clean.end());
  return SortedQuantile(clean, p);
}

double QuantileSorted(const std::vector<double>& sorted_values, double p) {
  return SortedQuantile(sorted_values, p);
}

double NearestRankQuantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const auto rank =
      static_cast<size_t>(p * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

std::vector<double> Quantiles(std::vector<double> values,
                              const std::vector<double>& ps) {
  std::vector<double> clean = DropMissing(values);
  std::sort(clean.begin(), clean.end());
  std::vector<double> out;
  out.reserve(ps.size());
  for (double p : ps) out.push_back(SortedQuantile(clean, p));
  return out;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Iqr(std::vector<double> values) {
  std::vector<double> clean = DropMissing(values);
  std::sort(clean.begin(), clean.end());
  return SortedQuantile(clean, 0.75) - SortedQuantile(clean, 0.25);
}

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  std::vector<double> clean = DropMissing(values);
  s.count = clean.size();
  if (clean.empty()) {
    s.min = s.q1 = s.median = s.q3 = s.max = s.mean = s.stddev = kNaN;
    return s;
  }
  std::sort(clean.begin(), clean.end());
  s.min = clean.front();
  s.max = clean.back();
  s.q1 = SortedQuantile(clean, 0.25);
  s.median = SortedQuantile(clean, 0.5);
  s.q3 = SortedQuantile(clean, 0.75);
  s.mean = Mean(clean);
  s.stddev = clean.size() >= 2 ? StdDev(clean) : 0.0;
  return s;
}

double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  const size_t n = std::min(x.size(), y.size());
  double sx = 0.0, sy = 0.0;
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    if (std::isnan(x[i]) || std::isnan(y[i])) continue;
    sx += x[i];
    sy += y[i];
    ++count;
  }
  if (count < 2) return kNaN;
  const double mx = sx / static_cast<double>(count);
  const double my = sy / static_cast<double>(count);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (std::isnan(x[i]) || std::isnan(y[i])) continue;
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx == 0.0 || syy == 0.0) return kNaN;
  return sxy / std::sqrt(sxx * syy);
}

double Skewness(const std::vector<double>& values) {
  std::vector<double> clean = DropMissing(values);
  const size_t n = clean.size();
  if (n < 3) return kNaN;
  const double mean = Mean(clean);
  double m2 = 0.0, m3 = 0.0;
  for (double v : clean) {
    const double d = v - mean;
    m2 += d * d;
    m3 += d * d * d;
  }
  m2 /= static_cast<double>(n);
  m3 /= static_cast<double>(n);
  if (m2 <= 0.0) return kNaN;
  const double g1 = m3 / std::pow(m2, 1.5);
  const double nd = static_cast<double>(n);
  return g1 * std::sqrt(nd * (nd - 1.0)) / (nd - 2.0);
}

}  // namespace roadmine::stats
