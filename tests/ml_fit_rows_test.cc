// Every learner's Fit(dataset, ..., rows) validates the row list before it
// indexes a per-row array with a row id: an empty list, or any id at or
// past the dataset's row count, is an InvalidArgumentError, never an
// out-of-bounds read.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ml/bagging.h"
#include "ml/common.h"
#include "ml/count_regression.h"
#include "ml/decision_tree.h"
#include "ml/gradient_boosting.h"
#include "ml/kmeans.h"
#include "ml/logistic_regression.h"
#include "ml/m5_tree.h"
#include "ml/naive_bayes.h"
#include "ml/neural_net.h"
#include "ml/regression_tree.h"
#include "util/rng.h"

namespace roadmine::ml {
namespace {

// 200 rows: numeric x, categorical c, 0/1 target y (a count for the
// Poisson learners too).
data::Dataset SmallDataset() {
  util::Rng rng(17);
  std::vector<double> x, y;
  std::vector<std::string> c;
  for (size_t i = 0; i < 200; ++i) {
    const double v = rng.Uniform(0.0, 10.0);
    x.push_back(v);
    c.push_back(rng.Bernoulli(0.5) ? "sealed" : "unsealed");
    y.push_back(v + rng.Normal(0.0, 2.0) > 5.0 ? 1.0 : 0.0);
  }
  data::Dataset ds;
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  EXPECT_TRUE(ds.AddColumn(data::Column::CategoricalFromStrings("c", c)).ok());
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  return ds;
}

util::Status FitLearner(const std::string& learner, const data::Dataset& ds,
                        const std::vector<size_t>& rows) {
  const std::vector<std::string> features = {"x", "c"};
  if (learner == "decision_tree") {
    return DecisionTreeClassifier().Fit(ds, "y", features, rows);
  }
  if (learner == "regression_tree") {
    return RegressionTree().Fit(ds, "y", features, rows);
  }
  if (learner == "m5_tree") return M5Tree().Fit(ds, "y", features, rows);
  if (learner == "bagged_trees") {
    BaggedTreesParams params;
    params.num_trees = 3;
    return BaggedTreesClassifier(params).Fit(ds, "y", features, rows);
  }
  if (learner == "gradient_boosted_trees") {
    return GradientBoostedTrees(GradientBoostedTreesParams{.num_trees = 3})
        .Fit(ds, "y", features, rows);
  }
  if (learner == "naive_bayes") {
    return NaiveBayesClassifier().Fit(ds, "y", features, rows);
  }
  if (learner == "logistic_regression") {
    return LogisticRegression().Fit(ds, "y", features, rows);
  }
  if (learner == "neural_net") {
    return NeuralNetClassifier(NeuralNetParams{.epochs = 2})
        .Fit(ds, "y", features, rows);
  }
  if (learner == "poisson_regression") {
    return PoissonRegression().Fit(ds, "y", features, rows);
  }
  if (learner == "zero_inflated_poisson") {
    return ZeroInflatedPoisson().Fit(ds, "y", features, rows);
  }
  if (learner == "kmeans") {
    return KMeans(KMeansParams{.k = 2}).Fit(ds, features, rows).status();
  }
  return util::InvalidArgumentError("unknown learner " + learner);
}

class FitRowsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FitRowsTest, FitsInRangeRows) {
  const data::Dataset ds = SmallDataset();
  EXPECT_TRUE(FitLearner(GetParam(), ds, ds.AllRowIndices()).ok());
}

TEST_P(FitRowsTest, RejectsEmptyRows) {
  const data::Dataset ds = SmallDataset();
  EXPECT_EQ(FitLearner(GetParam(), ds, {}).code(),
            util::StatusCode::kInvalidArgument);
}

TEST_P(FitRowsTest, RejectsRowPastTheEnd) {
  const data::Dataset ds = SmallDataset();
  std::vector<size_t> far = ds.AllRowIndices();
  far.push_back(ds.num_rows() + 100000);
  EXPECT_EQ(FitLearner(GetParam(), ds, far).code(),
            util::StatusCode::kInvalidArgument);

  // The first id past the end, in the middle of the list.
  std::vector<size_t> next = ds.AllRowIndices();
  next.insert(next.begin() + 50, ds.num_rows());
  EXPECT_EQ(FitLearner(GetParam(), ds, next).code(),
            util::StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    AllLearners, FitRowsTest,
    ::testing::Values("decision_tree", "regression_tree", "m5_tree",
                      "bagged_trees", "gradient_boosted_trees", "naive_bayes",
                      "logistic_regression", "neural_net",
                      "poisson_regression", "zero_inflated_poisson",
                      "kmeans"));

TEST(CheckFitRowsTest, RejectsEmptyAndOutOfRangeIds) {
  EXPECT_TRUE(CheckFitRows({0, 4, 4, 2}, 5).ok());
  EXPECT_EQ(CheckFitRows({}, 5).code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(CheckFitRows({0, 5}, 5).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(CheckFitRows({3}, 0).code(), util::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace roadmine::ml
