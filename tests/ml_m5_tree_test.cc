#include "ml/m5_tree.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "eval/regression_metrics.h"
#include "ml/regression_tree.h"
#include "util/rng.h"

namespace roadmine::ml {
namespace {

// Piecewise-linear target: slope changes at x = 5.
data::Dataset PiecewiseLinearDataset(size_t n, double noise_sd,
                                     uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> x, y;
  for (size_t i = 0; i < n; ++i) {
    const double xi = rng.Uniform(0.0, 10.0);
    const double yi = (xi < 5.0 ? 2.0 * xi : 10.0 - 3.0 * (xi - 5.0)) +
                      rng.Normal(0.0, noise_sd);
    x.push_back(xi);
    y.push_back(yi);
  }
  data::Dataset ds;
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  return ds;
}

double FitR2(size_t n, double noise, uint64_t seed, auto& model,
             data::Dataset& ds) {
  std::vector<double> actuals;
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    actuals.push_back(ds.column(1).NumericAt(r));
  }
  auto r2 =
      eval::RSquared(*model.PredictBatch(ds, ds.AllRowIndices()), actuals);
  EXPECT_TRUE(r2.ok());
  (void)n;
  (void)noise;
  (void)seed;
  return r2.ok() ? *r2 : 0.0;
}

TEST(M5TreeTest, FitsPiecewiseLinearAccurately) {
  data::Dataset ds = PiecewiseLinearDataset(2000, 0.2, 1);
  M5TreeParams params;
  params.tree.min_samples_leaf = 40;
  M5Tree m5(params);
  ASSERT_TRUE(m5.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  EXPECT_GT(FitR2(2000, 0.2, 1, m5, ds), 0.97);
}

TEST(M5TreeTest, BeatsPlainRegressionTreeOnLinearStructure) {
  data::Dataset ds = PiecewiseLinearDataset(2000, 0.2, 3);
  RegressionTreeParams tree_params;
  tree_params.max_leaves = 6;
  tree_params.min_samples_leaf = 40;
  RegressionTree plain(tree_params);
  ASSERT_TRUE(plain.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());

  M5TreeParams m5_params;
  m5_params.tree = tree_params;
  M5Tree m5(m5_params);
  ASSERT_TRUE(m5.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());

  const double plain_r2 = FitR2(0, 0, 0, plain, ds);
  const double m5_r2 = FitR2(0, 0, 0, m5, ds);
  EXPECT_GT(m5_r2, plain_r2);
}

TEST(M5TreeTest, PureLinearFunctionNearExact) {
  util::Rng rng(5);
  std::vector<double> a, b, y;
  for (int i = 0; i < 500; ++i) {
    a.push_back(rng.Uniform(-1.0, 1.0));
    b.push_back(rng.Uniform(-1.0, 1.0));
    y.push_back(3.0 * a.back() - 2.0 * b.back() + 1.0);
  }
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("a", a)).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("b", b)).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  M5TreeParams params;
  params.smoothing = 0.0;  // No shrinkage toward node means.
  M5Tree m5(params);
  ASSERT_TRUE(m5.Fit(ds, "y", {"a", "b"}, ds.AllRowIndices()).ok());
  for (size_t r = 0; r < 10; ++r) {
    EXPECT_NEAR(m5.Predict(ds, r), ds.column(2).NumericAt(r), 0.15);
  }
}

TEST(M5TreeTest, TinyLeavesFallBackToMeans) {
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x", {1, 2, 3})).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("y", {1, 2, 3})).ok());
  M5Tree m5;
  ASSERT_TRUE(m5.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  // 3 rows < d + 2 threshold for ridge with smoothing: prediction must be
  // finite and near the data range regardless.
  const double p = m5.Predict(ds, 1);
  EXPECT_TRUE(std::isfinite(p));
  EXPECT_GT(p, 0.0);
  EXPECT_LT(p, 4.0);
}

TEST(M5TreeTest, LeafOfInfiniteFeatureValuesFallsBackToMean) {
  // x = -inf on every fifth row, those rows positive: the structure splits
  // them into a leaf of their own, whose normal equations solve to NaN.
  util::Rng rng(5);
  std::vector<double> x, w, y;
  for (size_t i = 0; i < 200; ++i) {
    const bool at_negative_infinity = i % 5 == 0;
    x.push_back(at_negative_infinity ? -std::numeric_limits<double>::infinity()
                                      : rng.Uniform(0.0, 10.0));
    w.push_back(rng.Uniform(0.0, 10.0));
    y.push_back(at_negative_infinity || rng.Bernoulli(0.2) ? 1.0 : 0.0);
  }
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("w", w)).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  M5TreeParams params;
  params.tree.min_samples_split = 10;
  params.tree.min_samples_leaf = 5;
  M5Tree m5(params);
  ASSERT_TRUE(m5.Fit(ds, "y", {"x", "w"}, ds.AllRowIndices()).ok());
  auto scores = m5.PredictBatch(ds, ds.AllRowIndices());
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  for (size_t r = 0; r < scores->size(); ++r) {
    EXPECT_TRUE(std::isfinite((*scores)[r])) << "row " << r;
  }
}

TEST(M5TreeTest, SmoothingMovesPredictionTowardAncestors) {
  data::Dataset ds = PiecewiseLinearDataset(2000, 0.2, 7);
  M5TreeParams no_smooth;
  no_smooth.smoothing = 0.0;
  no_smooth.tree.min_samples_leaf = 40;
  M5TreeParams heavy_smooth = no_smooth;
  heavy_smooth.smoothing = 500.0;

  M5Tree raw(no_smooth), smooth(heavy_smooth);
  ASSERT_TRUE(raw.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  ASSERT_TRUE(smooth.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());

  // Global mean of y.
  double mean = 0.0;
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    mean += ds.column(1).NumericAt(r);
  }
  mean /= static_cast<double>(ds.num_rows());

  // Heavy smoothing must pull an extreme prediction toward the mean.
  size_t extreme_row = 0;
  double extreme_val = -1e9;
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    if (ds.column(1).NumericAt(r) > extreme_val) {
      extreme_val = ds.column(1).NumericAt(r);
      extreme_row = r;
    }
  }
  EXPECT_LT(std::fabs(smooth.Predict(ds, extreme_row) - mean),
            std::fabs(raw.Predict(ds, extreme_row) - mean) + 1e-9);
}

TEST(M5TreeTest, CategoricalFeaturesUsedForStructureOnly) {
  std::vector<std::string> cat;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    cat.push_back(i % 2 == 0 ? "a" : "b");
    y.push_back(i % 2 == 0 ? 5.0 : 15.0);
  }
  data::Dataset ds;
  ASSERT_TRUE(
      ds.AddColumn(data::Column::CategoricalFromStrings("c", cat)).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  M5TreeParams params;
  params.tree.min_samples_leaf = 20;
  params.smoothing = 0.0;
  M5Tree m5(params);
  ASSERT_TRUE(m5.Fit(ds, "y", {"c"}, ds.AllRowIndices()).ok());
  EXPECT_NEAR(m5.Predict(ds, 0), 5.0, 0.5);
  EXPECT_NEAR(m5.Predict(ds, 1), 15.0, 0.5);
}

}  // namespace
}  // namespace roadmine::ml
