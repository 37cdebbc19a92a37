#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace roadmine::stats {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(MeanTest, Basic) { EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0); }

TEST(MeanTest, SkipsMissing) {
  EXPECT_DOUBLE_EQ(Mean({1.0, kNaN, 3.0}), 2.0);
}

TEST(MeanTest, AllMissingIsNaN) {
  EXPECT_TRUE(std::isnan(Mean({kNaN, kNaN})));
  EXPECT_TRUE(std::isnan(Mean({})));
}

TEST(VarianceTest, SampleVariance) {
  // Var of {2, 4, 4, 4, 5, 5, 7, 9} = 32/7 (sample).
  EXPECT_NEAR(Variance({2, 4, 4, 4, 5, 5, 7, 9}), 32.0 / 7.0, 1e-12);
}

TEST(VarianceTest, NeedsTwoValues) {
  EXPECT_TRUE(std::isnan(Variance({5.0})));
  EXPECT_TRUE(std::isnan(Variance({5.0, kNaN})));
}

TEST(StdDevTest, SqrtOfVariance) {
  EXPECT_NEAR(StdDev({1.0, 3.0}), std::sqrt(2.0), 1e-12);
}

TEST(QuantileTest, Type7Interpolation) {
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.75), 3.25);
  EXPECT_DOUBLE_EQ(Quantile(values, 1.0), 4.0);
}

TEST(QuantileTest, UnsortedInputHandled) {
  EXPECT_DOUBLE_EQ(Quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
}

TEST(QuantileTest, SingletonAndEmpty) {
  EXPECT_DOUBLE_EQ(Quantile({7.0}, 0.99), 7.0);
  EXPECT_TRUE(std::isnan(Quantile({}, 0.5)));
}

TEST(MedianTest, OddCount) { EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0); }

TEST(IqrTest, Basic) {
  EXPECT_DOUBLE_EQ(Iqr({1.0, 2.0, 3.0, 4.0}), 1.5);
}

TEST(SummarizeTest, FullSummary) {
  const Summary s = Summarize({5.0, 1.0, 3.0, 2.0, 4.0});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.q1, 2.0);
  EXPECT_DOUBLE_EQ(s.q3, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.iqr(), 2.0);
}

TEST(SummarizeTest, MissingSkipped) {
  const Summary s = Summarize({kNaN, 2.0, kNaN, 4.0});
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
}

TEST(SummarizeTest, EmptyIsAllNaN) {
  const Summary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_TRUE(std::isnan(s.median));
}

TEST(PearsonCorrelationTest, PerfectCorrelations) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
}

TEST(PearsonCorrelationTest, SkipsIncompletePairs) {
  EXPECT_NEAR(PearsonCorrelation({1, kNaN, 2, 3}, {2, 5, 4, 6}), 1.0, 1e-12);
}

TEST(PearsonCorrelationTest, DegenerateCases) {
  EXPECT_TRUE(std::isnan(PearsonCorrelation({1, 1, 1}, {2, 3, 4})));
  EXPECT_TRUE(std::isnan(PearsonCorrelation({1}, {2})));
}

TEST(SkewnessTest, SymmetricIsZero) {
  EXPECT_NEAR(Skewness({1, 2, 3, 4, 5}), 0.0, 1e-12);
}

TEST(SkewnessTest, RightSkewPositive) {
  EXPECT_GT(Skewness({1, 1, 1, 1, 2, 3, 10}), 1.0);
}

TEST(SkewnessTest, NeedsThreeValues) {
  EXPECT_TRUE(std::isnan(Skewness({1.0, 2.0})));
}

// The sorted-input overload must be bit-identical to the copying form on
// the same data — it exists so per-edge loops sort once per column, not
// once per edge.
TEST(QuantileTest, SortedOverloadMatchesCopyingForm) {
  std::vector<double> values;
  for (int i = 0; i < 257; ++i) {
    values.push_back(std::fmod(static_cast<double>(i) * 37.0, 101.0));
  }
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (int b = 0; b <= 20; ++b) {
    const double p = static_cast<double>(b) / 20.0;
    EXPECT_DOUBLE_EQ(QuantileSorted(sorted, p), Quantile(values, p)) << p;
  }
}

TEST(QuantileTest, QuantilesBatchMatchesPerCall) {
  std::vector<double> values = {5.0, kNaN, 1.0, 3.0, kNaN, 2.0, 4.0};
  std::vector<double> ps = {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0};
  std::vector<double> batch = Quantiles(values, ps);
  ASSERT_EQ(batch.size(), ps.size());
  for (size_t i = 0; i < ps.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], Quantile(values, ps[i])) << ps[i];
  }
}

TEST(QuantileTest, SortedOverloadEmptyAndSingle) {
  EXPECT_TRUE(std::isnan(QuantileSorted({}, 0.5)));
  EXPECT_DOUBLE_EQ(QuantileSorted({7.0}, 0.25), 7.0);
}

TEST(QuantileTest, NearestRankPicksAnObservedValue) {
  // Rank floor(p * (n - 1) + 0.5) of the ascending order, whatever the
  // input order: 0 -> 10, 1 -> 20, 2 -> 30, 3 -> 40.
  const std::vector<double> values = {40.0, 10.0, 30.0, 20.0};
  EXPECT_EQ(NearestRankQuantile(values, 0.0), 10.0);
  EXPECT_EQ(NearestRankQuantile(values, 0.5), 30.0);  // Rank 2 (1.5 + 0.5).
  EXPECT_EQ(NearestRankQuantile(values, 0.49), 20.0);
  EXPECT_EQ(NearestRankQuantile(values, 0.99), 40.0);
  EXPECT_EQ(NearestRankQuantile(values, 1.0), 40.0);
  EXPECT_EQ(NearestRankQuantile({7.0}, 0.99), 7.0);
  EXPECT_EQ(NearestRankQuantile({}, 0.5), 0.0);
}

}  // namespace
}  // namespace roadmine::stats
