#include "ml/naive_bayes.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace roadmine::ml {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Two well-separated Gaussians.
data::Dataset GaussianDataset(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> x, y;
  for (size_t i = 0; i < n; ++i) {
    const bool positive = rng.Bernoulli(0.5);
    x.push_back(rng.Normal(positive ? 3.0 : -3.0, 1.0));
    y.push_back(positive ? 1.0 : 0.0);
  }
  data::Dataset ds;
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  return ds;
}

TEST(NaiveBayesTest, SeparatesGaussians) {
  data::Dataset ds = GaussianDataset(2000, 1);
  NaiveBayesClassifier nb;
  ASSERT_TRUE(nb.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  size_t correct = 0;
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    correct +=
        nb.Predict(ds, r) == (ds.column(1).NumericAt(r) != 0.0 ? 1 : 0);
  }
  EXPECT_GT(static_cast<double>(correct) / ds.num_rows(), 0.97);
}

TEST(NaiveBayesTest, ProbabilitiesCalibratedDirectionally) {
  data::Dataset ds = GaussianDataset(2000, 3);
  NaiveBayesClassifier nb;
  ASSERT_TRUE(nb.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  // A point deep in the positive region.
  data::Dataset probe;
  ASSERT_TRUE(probe.AddColumn(data::Column::Numeric("x", {5.0, -5.0})).ok());
  ASSERT_TRUE(probe.AddColumn(data::Column::Numeric("y", {1.0, 0.0})).ok());
  EXPECT_GT(nb.PredictProba(probe, 0), 0.95);
  EXPECT_LT(nb.PredictProba(probe, 1), 0.05);
}

TEST(NaiveBayesTest, CategoricalEvidence) {
  std::vector<std::string> cat;
  std::vector<double> y;
  util::Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const bool positive = rng.Bernoulli(0.5);
    // Category correlates strongly with the class.
    const bool flip = rng.Bernoulli(0.1);
    cat.push_back((positive != flip) ? "wet" : "dry");
    y.push_back(positive ? 1.0 : 0.0);
  }
  data::Dataset ds;
  ASSERT_TRUE(
      ds.AddColumn(data::Column::CategoricalFromStrings("c", cat)).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  NaiveBayesClassifier nb;
  ASSERT_TRUE(nb.Fit(ds, "y", {"c"}, ds.AllRowIndices()).ok());
  size_t correct = 0;
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    correct +=
        nb.Predict(ds, r) == (ds.column(1).NumericAt(r) != 0.0 ? 1 : 0);
  }
  EXPECT_GT(static_cast<double>(correct) / ds.num_rows(), 0.85);
}

TEST(NaiveBayesTest, MissingFeatureFallsBackToPrior) {
  data::Dataset ds = GaussianDataset(500, 7);
  NaiveBayesClassifier nb;
  ASSERT_TRUE(nb.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  data::Dataset probe;
  ASSERT_TRUE(probe.AddColumn(data::Column::Numeric("x", {kNaN})).ok());
  ASSERT_TRUE(probe.AddColumn(data::Column::Numeric("y", {0.0})).ok());
  // With no evidence, the posterior equals the prior (~0.5 here).
  EXPECT_NEAR(nb.PredictProba(probe, 0), 0.5, 0.1);
}

// A finite value whose squared z-score overflows under both classes
// (|x| near DBL_MAX, or 1e200 against sigma 0.5) makes both Gaussian
// log-densities -inf. Like a missing value it carries no evidence, so
// the row scores the prior rather than exp(-inf - -inf) = NaN.
TEST(NaiveBayesTest, OverflowingFiniteValuesScoreThePrior) {
  util::Rng rng(13);
  std::vector<double> x, y;
  for (int i = 0; i < 200; ++i) {
    const bool positive = rng.Bernoulli(0.5);
    x.push_back(rng.Normal(positive ? 2.0 : 0.0, 0.5));
    y.push_back(positive ? 1.0 : 0.0);
  }
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  NaiveBayesClassifier nb;
  ASSERT_TRUE(nb.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());

  data::Dataset probe;
  ASSERT_TRUE(
      probe.AddColumn(data::Column::Numeric("x", {kNaN, 1e308, -1e308, 1e200}))
          .ok());
  ASSERT_TRUE(probe.AddColumn(data::Column::Numeric("y", {0, 0, 0, 0})).ok());
  const double prior = nb.PredictProba(probe, 0);
  ASSERT_GT(prior, 0.0);
  ASSERT_LT(prior, 1.0);
  for (size_t r = 1; r < probe.num_rows(); ++r) {
    EXPECT_EQ(nb.PredictProba(probe, r), prior) << "row " << r;
  }
}

// Two features can each rule out a different class: feature a's value is
// impossible under class 0's narrow Gaussian but not under class 1's wide
// one, and feature b the other way round. Both sums are then -inf, and
// the row scores the prior instead of NaN.
TEST(NaiveBayesTest, FeaturesRulingOutBothClassesScoreThePrior) {
  util::Rng rng(17);
  std::vector<double> a, b, y;
  for (int i = 0; i < 200; ++i) {
    const bool positive = rng.Bernoulli(0.5);
    a.push_back(rng.Normal(0.0, positive ? 1e100 : 0.5));
    b.push_back(rng.Normal(0.0, positive ? 0.5 : 1e100));
    y.push_back(positive ? 1.0 : 0.0);
  }
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("a", a)).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("b", b)).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  NaiveBayesClassifier nb;
  ASSERT_TRUE(nb.Fit(ds, "y", {"a", "b"}, ds.AllRowIndices()).ok());

  data::Dataset probe;
  ASSERT_TRUE(probe.AddColumn(data::Column::Numeric("a", {kNaN, 1e160})).ok());
  ASSERT_TRUE(probe.AddColumn(data::Column::Numeric("b", {kNaN, 1e160})).ok());
  ASSERT_TRUE(probe.AddColumn(data::Column::Numeric("y", {0, 0})).ok());
  const double p = nb.PredictProba(probe, 1);
  EXPECT_TRUE(std::isfinite(p));
  EXPECT_EQ(p, nb.PredictProba(probe, 0));  // The prior.
  auto batch = nb.PredictBatch(probe, {1});
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ((*batch)[0], p);
}

TEST(NaiveBayesTest, LaplaceSmoothingHandlesUnseenCategory) {
  // Category "rare" never co-occurs with class 1 in training.
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::CategoricalFromStrings(
                               "c", {"a", "a", "rare", "a", "a", "a"}))
                  .ok());
  ASSERT_TRUE(
      ds.AddColumn(data::Column::Numeric("y", {1, 1, 0, 0, 1, 0})).ok());
  NaiveBayesClassifier nb;
  ASSERT_TRUE(nb.Fit(ds, "y", {"c"}, ds.AllRowIndices()).ok());
  const double p = nb.PredictProba(ds, 2);
  EXPECT_GT(p, 0.0);
  EXPECT_LT(p, 1.0);
}

TEST(NaiveBayesTest, SingleClassTrainingRejected) {
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x", {1, 2, 3})).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("y", {1, 1, 1})).ok());
  NaiveBayesClassifier nb;
  EXPECT_FALSE(nb.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
}

TEST(NaiveBayesTest, PriorsShiftPosterior) {
  // 90/10 class balance with an uninformative feature: posterior ~ prior.
  util::Rng rng(11);
  std::vector<double> x, y;
  for (int i = 0; i < 1000; ++i) {
    x.push_back(rng.Normal(0.0, 1.0));
    y.push_back(rng.Bernoulli(0.9) ? 1.0 : 0.0);
  }
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  NaiveBayesClassifier nb;
  ASSERT_TRUE(nb.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  double mean_p = 0.0;
  for (size_t r = 0; r < 100; ++r) mean_p += nb.PredictProba(ds, r);
  EXPECT_NEAR(mean_p / 100.0, 0.9, 0.08);
}

}  // namespace
}  // namespace roadmine::ml
