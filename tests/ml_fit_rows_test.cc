// Every learner's Fit(dataset, ..., rows) validates the row list before it
// indexes a per-row array with a row id: an empty list, or any id at or
// past the dataset's row count, is an InvalidArgumentError, never an
// out-of-bounds read. Every learner's PredictBatch validates its input the
// same way: the fitted columns by name and type, and every row id.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ml/bagging.h"
#include "ml/common.h"
#include "ml/count_regression.h"
#include "ml/decision_tree.h"
#include "ml/feature_index.h"
#include "ml/gradient_boosting.h"
#include "ml/histogram_index.h"
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

std::unique_ptr<Predictor> FitPredictor(const std::string& learner,
                                        const data::Dataset& ds) {
  const auto fitted = [&ds](auto model) -> std::unique_ptr<Predictor> {
    EXPECT_TRUE(model.Fit(ds, "y", {"x", "c"}, ds.AllRowIndices()).ok());
    return std::make_unique<decltype(model)>(std::move(model));
  };
  if (learner == "decision_tree") return fitted(DecisionTreeClassifier());
  if (learner == "regression_tree") return fitted(RegressionTree());
  if (learner == "m5_tree") return fitted(M5Tree());
  if (learner == "bagged_trees") {
    return fitted(BaggedTreesClassifier(BaggedTreesParams{.num_trees = 3, .tree = {}}));
  }
  if (learner == "gradient_boosted_trees") {
    return fitted(
        GradientBoostedTrees(GradientBoostedTreesParams{.num_trees = 3}));
  }
  if (learner == "naive_bayes") return fitted(NaiveBayesClassifier());
  if (learner == "logistic_regression") return fitted(LogisticRegression());
  if (learner == "neural_net") {
    return fitted(NeuralNetClassifier(NeuralNetParams{.epochs = 2}));
  }
  ADD_FAILURE() << "unknown learner " << learner;
  return nullptr;
}

// SmallDataset's 200 rows with x and c replaced by the given columns.
data::Dataset WithFeatures(data::Column x, data::Column c) {
  data::Dataset ds;
  EXPECT_TRUE(ds.AddColumn(std::move(x)).ok());
  EXPECT_TRUE(ds.AddColumn(std::move(c)).ok());
  EXPECT_TRUE(ds.AddColumn(SmallDataset().column(2)).ok());  // y.
  return ds;
}

class PredictRowsTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    model_ = FitPredictor(GetParam(), ds_);
    ASSERT_NE(model_, nullptr);
  }

  util::StatusCode CodeOf(const data::Dataset& ds,
                          const std::vector<size_t>& rows) const {
    return model_->PredictBatch(ds, rows).status().code();
  }

  const data::Dataset ds_ = SmallDataset();
  std::unique_ptr<Predictor> model_;
};

TEST_P(PredictRowsTest, ScoresInRangeRowsAndAnEmptyList) {
  auto all = model_->PredictBatch(ds_, ds_.AllRowIndices());
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all->size(), ds_.num_rows());
  auto none = model_->PredictBatch(ds_, {});
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_TRUE(none->empty());
}

TEST_P(PredictRowsTest, RejectsRowPastTheEnd) {
  for (const size_t past : {ds_.num_rows(), size_t{1} << 40}) {
    std::vector<size_t> rows = ds_.AllRowIndices();
    rows.insert(rows.begin() + 50, past);
    EXPECT_EQ(CodeOf(ds_, rows), util::StatusCode::kInvalidArgument) << past;
  }
}

TEST_P(PredictRowsTest, RejectsDatasetWithoutAFittedColumn) {
  // A numeric "z" sits where the fitted "x" was.
  const data::Dataset renamed =
      WithFeatures(data::Column::Numeric("z", ds_.column(0).numeric_values()),
                   ds_.column(1));
  EXPECT_EQ(CodeOf(renamed, {0, 1, 2}), util::StatusCode::kInvalidArgument);
}

TEST_P(PredictRowsTest, RejectsColumnOfTheOtherType) {
  std::vector<std::string> x_names, c_names;
  std::vector<double> c_values;
  for (size_t r = 0; r < ds_.num_rows(); ++r) {
    x_names.push_back(r % 2 == 0 ? "low" : "high");
    c_values.push_back(static_cast<double>(ds_.column(1).CodeAt(r)));
  }
  const data::Dataset categorical_x = WithFeatures(
      data::Column::CategoricalFromStrings("x", x_names), ds_.column(1));
  EXPECT_EQ(CodeOf(categorical_x, {0, 1, 2}),
            util::StatusCode::kInvalidArgument);
  const data::Dataset numeric_c =
      WithFeatures(ds_.column(0), data::Column::Numeric("c", c_values));
  EXPECT_EQ(CodeOf(numeric_c, {0, 1, 2}), util::StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    EveryPredictor, PredictRowsTest,
    ::testing::Values("decision_tree", "regression_tree", "m5_tree",
                      "bagged_trees", "gradient_boosted_trees", "naive_bayes",
                      "logistic_regression", "neural_net"));

// Reduced-error pruning reads its validation rows the same way: an empty
// list or an id past the dataset is an InvalidArgumentError, and the tree
// stays as fitted (an empty list used to collapse it to its root).
class PruneRowsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(tree_.Fit(ds_, "y", {"x", "c"}, ds_.AllRowIndices()).ok());
    ASSERT_GT(tree_.leaf_count(), 1u);
    fitted_ = tree_.Serialize();
  }

  const data::Dataset ds_ = SmallDataset();
  DecisionTreeClassifier tree_;
  std::string fitted_;
};

TEST_F(PruneRowsTest, RejectsEmptyRowsAndKeepsTheTree) {
  EXPECT_EQ(tree_.PruneReducedError(ds_, "y", {}).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(tree_.Serialize(), fitted_);
}

TEST_F(PruneRowsTest, RejectsRowPastTheEndAndKeepsTheTree) {
  std::vector<size_t> rows = ds_.AllRowIndices();
  rows.push_back(ds_.num_rows() + 100000);
  EXPECT_EQ(tree_.PruneReducedError(ds_, "y", rows).code(),
            util::StatusCode::kInvalidArgument);
  rows.back() = ds_.num_rows();
  EXPECT_EQ(tree_.PruneReducedError(ds_, "y", rows).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(tree_.Serialize(), fitted_);
}

// HistogramIndex::Build reads a column value at every build row id, so it
// validates the row list as every Fit does: an empty list or an id past
// the dataset is an InvalidArgumentError, not an out-of-bounds read.
TEST(HistogramIndexRowsTest, RejectsEmptyRowsAndRowPastTheEnd) {
  const data::Dataset ds = SmallDataset();
  auto features = ResolveFeatures(ds, {"x", "c"}, "y");
  ASSERT_TRUE(features.ok());
  EXPECT_EQ(HistogramIndex::Build(ds, *features, {}).status().code(),
            util::StatusCode::kInvalidArgument);
  for (const size_t past : {ds.num_rows(), size_t{1} << 40}) {
    std::vector<size_t> rows = ds.AllRowIndices();
    rows[50] = past;
    EXPECT_EQ(HistogramIndex::Build(ds, *features, rows).status().code(),
              util::StatusCode::kInvalidArgument)
        << past;
  }
}

// Value ranks passed to HistogramIndex::Build must come from an index over
// a dataset of the same row count that covers every numeric feature.
TEST(HistogramIndexRowsTest, RejectsFeatureIndexThatDoesNotCoverTheFit) {
  const data::Dataset ds = SmallDataset();
  auto features = ResolveFeatures(ds, {"x", "c"}, "y");
  ASSERT_TRUE(features.ok());
  const std::vector<size_t> rows = ds.AllRowIndices();

  auto covering = FeatureIndex::Build(ds, *features);
  ASSERT_TRUE(covering.ok());
  EXPECT_TRUE(
      HistogramIndex::Build(ds, *features, rows, {}, nullptr, &*covering).ok());

  data::Dataset shorter;
  ASSERT_TRUE(shorter.AddColumn(data::Column::Numeric("x", {1.0, 2.0})).ok());
  ASSERT_TRUE(shorter
                  .AddColumn(data::Column::CategoricalFromStrings(
                      "c", {"sealed", "unsealed"}))
                  .ok());
  auto stale =
      FeatureIndex::Build(shorter, std::vector<std::string>{"x", "c"});
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(HistogramIndex::Build(ds, *features, rows, {}, nullptr, &*stale)
                .status()
                .code(),
            util::StatusCode::kInvalidArgument);

  auto categorical_only =
      FeatureIndex::Build(ds, std::vector<std::string>{"c"});
  ASSERT_TRUE(categorical_only.ok());
  EXPECT_EQ(HistogramIndex::Build(ds, *features, rows, {}, nullptr,
                                  &*categorical_only)
                .status()
                .code(),
            util::StatusCode::kInvalidArgument);
}

TEST(CheckFitRowsTest, RejectsEmptyAndOutOfRangeIds) {
  EXPECT_TRUE(CheckFitRows({0, 4, 4, 2}, 5).ok());
  EXPECT_EQ(CheckFitRows({}, 5).code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(CheckFitRows({0, 5}, 5).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(CheckFitRows({3}, 0).code(), util::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace roadmine::ml
