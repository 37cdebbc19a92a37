#include "eval/cross_validation.h"

#include <gtest/gtest.h>

#include "ml/naive_bayes.h"
#include "util/rng.h"

namespace roadmine::eval {
namespace {

data::Dataset SeparableDataset(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> x, y;
  for (size_t i = 0; i < n; ++i) {
    const bool positive = rng.Bernoulli(0.5);
    x.push_back(rng.Normal(positive ? 2.0 : -2.0, 1.0));
    y.push_back(positive ? 1.0 : 0.0);
  }
  data::Dataset ds;
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  return ds;
}

BinaryTrainer NaiveBayesTrainer() {
  return [](const data::Dataset& ds, const std::vector<size_t>& train)
             -> util::Result<FoldScorer> {
    auto model = std::make_shared<ml::NaiveBayesClassifier>();
    ROADMINE_RETURN_IF_ERROR(model->Fit(ds, "y", {"x"}, train));
    return FoldScorer([model, &ds](const std::vector<size_t>& rows) {
      return model->PredictBatch(ds, rows);
    });
  };
}

TEST(CrossValidationTest, EveryRowScoredExactlyOnce) {
  data::Dataset ds = SeparableDataset(500, 1);
  auto cv = CrossValidateBinary(ds, "y", NaiveBayesTrainer());
  ASSERT_TRUE(cv.ok());
  EXPECT_EQ(cv->pooled_confusion.total(), 500u);
  EXPECT_EQ(cv->per_fold.size(), 10u);
}

TEST(CrossValidationTest, SeparableDataScoresWell) {
  data::Dataset ds = SeparableDataset(800, 3);
  auto cv = CrossValidateBinary(ds, "y", NaiveBayesTrainer());
  ASSERT_TRUE(cv.ok());
  EXPECT_GT(cv->assessment.accuracy, 0.9);
  EXPECT_GT(cv->auc, 0.95);
  EXPECT_GT(cv->assessment.mcpv, 0.85);
}

TEST(CrossValidationTest, FoldCountConfigurable) {
  data::Dataset ds = SeparableDataset(300, 5);
  CrossValidationOptions options;
  options.folds = 5;
  auto cv = CrossValidateBinary(ds, "y", NaiveBayesTrainer(), options);
  ASSERT_TRUE(cv.ok());
  EXPECT_EQ(cv->per_fold.size(), 5u);
}

TEST(CrossValidationTest, DeterministicForFixedSeed) {
  data::Dataset ds = SeparableDataset(300, 7);
  auto cv1 = CrossValidateBinary(ds, "y", NaiveBayesTrainer());
  auto cv2 = CrossValidateBinary(ds, "y", NaiveBayesTrainer());
  ASSERT_TRUE(cv1.ok());
  ASSERT_TRUE(cv2.ok());
  EXPECT_EQ(cv1->pooled_confusion.true_positive,
            cv2->pooled_confusion.true_positive);
  EXPECT_DOUBLE_EQ(cv1->auc, cv2->auc);
}

TEST(CrossValidationTest, TrainerErrorPropagates) {
  data::Dataset ds = SeparableDataset(100, 9);
  BinaryTrainer failing = [](const data::Dataset&,
                             const std::vector<size_t>&)
      -> util::Result<FoldScorer> {
    return util::InternalError("training exploded");
  };
  auto cv = CrossValidateBinary(ds, "y", failing);
  ASSERT_FALSE(cv.ok());
  EXPECT_EQ(cv.status().message(), "training exploded");
}

TEST(CrossValidationTest, MissingTargetFails) {
  data::Dataset ds = SeparableDataset(100, 11);
  EXPECT_FALSE(CrossValidateBinary(ds, "nope", NaiveBayesTrainer()).ok());
}

TEST(CrossValidationTest, NonStratifiedOptionWorks) {
  data::Dataset ds = SeparableDataset(400, 13);
  CrossValidationOptions options;
  options.stratified = false;
  auto cv = CrossValidateBinary(ds, "y", NaiveBayesTrainer(), options);
  ASSERT_TRUE(cv.ok());
  EXPECT_EQ(cv->pooled_confusion.total(), 400u);
}

}  // namespace
}  // namespace roadmine::eval
