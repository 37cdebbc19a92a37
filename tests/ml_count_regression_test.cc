#include "ml/count_regression.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace roadmine::ml {
namespace {

// Counts ~ Poisson(exp(0.8 x1 - 0.5 x2 + 0.3)).
data::Dataset PoissonDataset(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> x1, x2, y;
  for (size_t i = 0; i < n; ++i) {
    const double a = rng.Normal(0.0, 1.0);
    const double b = rng.Normal(0.0, 1.0);
    const double mu = std::exp(0.8 * a - 0.5 * b + 0.3);
    x1.push_back(a);
    x2.push_back(b);
    y.push_back(static_cast<double>(rng.Poisson(mu)));
  }
  data::Dataset ds;
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("x1", x1)).ok());
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("x2", x2)).ok());
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  return ds;
}

TEST(PoissonRegressionTest, RecoversCoefficients) {
  data::Dataset ds = PoissonDataset(8000, 1);
  PoissonRegression model;
  ASSERT_TRUE(model.Fit(ds, "y", {"x1", "x2"}, ds.AllRowIndices()).ok());
  ASSERT_EQ(model.coefficients().size(), 2u);
  // The encoder standardizes with sample std ~1, so coefficients are
  // near the generating values.
  EXPECT_NEAR(model.coefficients()[0], 0.8, 0.08);
  EXPECT_NEAR(model.coefficients()[1], -0.5, 0.08);
  EXPECT_NEAR(model.intercept(), 0.3, 0.08);
}

TEST(PoissonRegressionTest, MeanPredictionsUnbiased) {
  data::Dataset ds = PoissonDataset(6000, 3);
  PoissonRegression model;
  ASSERT_TRUE(model.Fit(ds, "y", {"x1", "x2"}, ds.AllRowIndices()).ok());
  double predicted = 0.0, actual = 0.0;
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    predicted += model.PredictMean(ds, r);
    actual += ds.column(2).NumericAt(r);
  }
  EXPECT_NEAR(predicted / actual, 1.0, 0.03);
}

TEST(PoissonRegressionTest, PseudoR2PositiveWithSignal) {
  data::Dataset ds = PoissonDataset(4000, 5);
  PoissonRegression model;
  ASSERT_TRUE(model.Fit(ds, "y", {"x1", "x2"}, ds.AllRowIndices()).ok());
  EXPECT_GT(model.pseudo_r_squared(), 0.15);
  EXPECT_GT(model.deviance(), 0.0);
}

TEST(PoissonRegressionTest, NoSignalGivesNearZeroPseudoR2) {
  util::Rng rng(7);
  std::vector<double> x, y;
  for (int i = 0; i < 3000; ++i) {
    x.push_back(rng.Normal(0.0, 1.0));
    y.push_back(static_cast<double>(rng.Poisson(2.0)));
  }
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  PoissonRegression model;
  ASSERT_TRUE(model.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  EXPECT_NEAR(model.pseudo_r_squared(), 0.0, 0.01);
}

TEST(PoissonRegressionTest, Errors) {
  data::Dataset ds = PoissonDataset(100, 9);
  PoissonRegression model;
  EXPECT_FALSE(model.Fit(ds, "y", {"x1"}, {}).ok());
  EXPECT_FALSE(model.Fit(ds, "nope", {"x1"}, ds.AllRowIndices()).ok());

  data::Dataset negative;
  ASSERT_TRUE(negative.AddColumn(data::Column::Numeric("x", {1, 2})).ok());
  ASSERT_TRUE(negative.AddColumn(data::Column::Numeric("y", {1, -3})).ok());
  EXPECT_FALSE(model.Fit(negative, "y", {"x"}, negative.AllRowIndices()).ok());
}

TEST(PoissonRegressionTest, PredictMeanManyChecksItsInput) {
  data::Dataset ds = PoissonDataset(200, 13);
  PoissonRegression model;
  EXPECT_EQ(model.PredictMeanMany(ds, {0}).status().code(),
            util::StatusCode::kFailedPrecondition);
  ASSERT_TRUE(model.Fit(ds, "y", {"x1", "x2"}, ds.AllRowIndices()).ok());

  const std::vector<size_t> rows = {5, 0, 199, 5};
  auto means = model.PredictMeanMany(ds, rows);
  ASSERT_TRUE(means.ok()) << means.status().ToString();
  ASSERT_EQ(means->size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ((*means)[i], model.PredictMean(ds, rows[i])) << "row " << rows[i];
  }

  EXPECT_EQ(model.PredictMeanMany(ds, {0, ds.num_rows()}).status().code(),
            util::StatusCode::kInvalidArgument);
  data::Dataset without_x2;
  ASSERT_TRUE(
      without_x2.AddColumn(data::Column::Numeric("x1", {0.5, 1.5})).ok());
  EXPECT_EQ(model.PredictMeanMany(without_x2, {0}).status().code(),
            util::StatusCode::kInvalidArgument);
}

// Zero-inflated data: a structural-zero gate driven by x1.
data::Dataset ZipDataset(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> x1, y;
  for (size_t i = 0; i < n; ++i) {
    const double a = rng.Normal(0.0, 1.0);
    // P(structural zero) high when a < 0.
    const bool structural_zero = rng.Bernoulli(a < 0.0 ? 0.8 : 0.1);
    const double mu = std::exp(1.2);  // Count branch independent of a.
    x1.push_back(a);
    y.push_back(structural_zero ? 0.0
                                : static_cast<double>(rng.Poisson(mu)));
  }
  data::Dataset ds;
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("x1", x1)).ok());
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  return ds;
}

TEST(ZeroInflatedPoissonTest, GateTracksStructuralZeros) {
  data::Dataset ds = ZipDataset(6000, 11);
  ZeroInflatedPoisson zip;
  ASSERT_TRUE(zip.Fit(ds, "y", {"x1"}, ds.AllRowIndices()).ok());
  // Probe at a = -2 (mostly structural zeros) vs a = +2 (mostly counts).
  data::Dataset probe;
  ASSERT_TRUE(probe.AddColumn(data::Column::Numeric("x1", {-2.0, 2.0})).ok());
  ASSERT_TRUE(probe.AddColumn(data::Column::Numeric("y", {0.0, 0.0})).ok());
  EXPECT_GT(zip.PredictZeroProbability(probe, 0),
            zip.PredictZeroProbability(probe, 1) + 0.3);
}

TEST(ZeroInflatedPoissonTest, CountBranchNotDraggedDownByZeros) {
  data::Dataset ds = ZipDataset(6000, 13);
  ZeroInflatedPoisson zip;
  ASSERT_TRUE(zip.Fit(ds, "y", {"x1"}, ds.AllRowIndices()).ok());
  PoissonRegression plain;
  ASSERT_TRUE(plain.Fit(ds, "y", {"x1"}, ds.AllRowIndices()).ok());
  // True count-branch mean is e^1.2 ~ 3.32; the plain Poisson averages the
  // structural zeros in and lands much lower.
  data::Dataset probe;
  ASSERT_TRUE(probe.AddColumn(data::Column::Numeric("x1", {0.0})).ok());
  ASSERT_TRUE(probe.AddColumn(data::Column::Numeric("y", {0.0})).ok());
  const double zip_mu = zip.PredictCountBranchMean(probe, 0);
  const double plain_mu = plain.PredictMean(probe, 0);
  EXPECT_NEAR(zip_mu, std::exp(1.2), 0.5);
  EXPECT_LT(plain_mu, zip_mu - 0.4);
}

TEST(ZeroInflatedPoissonTest, MixtureMeanMatchesObservedMean) {
  data::Dataset ds = ZipDataset(6000, 17);
  ZeroInflatedPoisson zip;
  ASSERT_TRUE(zip.Fit(ds, "y", {"x1"}, ds.AllRowIndices()).ok());
  double predicted = 0.0, actual = 0.0;
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    predicted += zip.PredictMean(ds, r);
    actual += ds.column(1).NumericAt(r);
  }
  EXPECT_NEAR(predicted / actual, 1.0, 0.1);
}

TEST(ZeroInflatedPoissonTest, Errors) {
  ZeroInflatedPoisson zip;
  data::Dataset all_positive;
  ASSERT_TRUE(
      all_positive.AddColumn(data::Column::Numeric("x", {1, 2, 3})).ok());
  ASSERT_TRUE(
      all_positive.AddColumn(data::Column::Numeric("y", {1, 2, 3})).ok());
  EXPECT_FALSE(
      zip.Fit(all_positive, "y", {"x"}, all_positive.AllRowIndices()).ok());

  data::Dataset all_zero;
  ASSERT_TRUE(
      all_zero.AddColumn(data::Column::Numeric("x", {1, 2, 3})).ok());
  ASSERT_TRUE(
      all_zero.AddColumn(data::Column::Numeric("y", {0, 0, 0})).ok());
  EXPECT_FALSE(
      zip.Fit(all_zero, "y", {"x"}, all_zero.AllRowIndices()).ok());
}

}  // namespace
}  // namespace roadmine::ml
