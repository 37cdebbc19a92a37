#include "ml/gradient_boosting.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "serve/flat_model.h"
#include "serve/model_store.h"
#include "util/rng.h"

namespace roadmine::ml {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// y = 1 iff x0 > 5 or x1 > 8 (mildly nonlinear, two numeric features).
data::Dataset TwoFeatureDataset(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> x0, x1, y;
  for (size_t i = 0; i < n; ++i) {
    const double a = rng.Uniform(0.0, 10.0);
    const double b = rng.Uniform(0.0, 10.0);
    x0.push_back(a);
    x1.push_back(b);
    y.push_back(a > 5.0 || b > 8.0 ? 1.0 : 0.0);
  }
  data::Dataset ds;
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("x0", x0)).ok());
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("x1", x1)).ok());
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  return ds;
}

GradientBoostedTreesParams SmallParams() {
  GradientBoostedTreesParams params;
  params.num_trees = 20;
  params.max_depth = 3;
  params.learning_rate = 0.3;
  return params;
}

TEST(GradientBoostingTest, LearnsAxisAlignedBoundary) {
  data::Dataset ds = TwoFeatureDataset(1200, 1);
  GradientBoostedTrees model(SmallParams());
  ASSERT_TRUE(model.Fit(ds, "y", {"x0", "x1"}, ds.AllRowIndices()).ok());
  EXPECT_TRUE(model.fitted());
  EXPECT_EQ(model.tree_count(), 20u);
  EXPECT_GT(model.total_leaves(), model.tree_count());

  size_t correct = 0;
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    const int truth = ds.column(2).NumericAt(r) != 0.0 ? 1 : 0;
    correct += model.Predict(ds, r) == truth;
  }
  EXPECT_GT(static_cast<double>(correct) / ds.num_rows(), 0.97);
}

TEST(GradientBoostingTest, BaseScoreIsSmoothedLogOddsPrior) {
  data::Dataset ds = TwoFeatureDataset(500, 2);
  GradientBoostedTrees model(SmallParams());
  ASSERT_TRUE(model.Fit(ds, "y", {"x0", "x1"}, ds.AllRowIndices()).ok());
  double positives = 0.0;
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    positives += ds.column(2).NumericAt(r);
  }
  const double prior = (positives + 1.0) / (static_cast<double>(ds.num_rows()) + 2.0);
  EXPECT_DOUBLE_EQ(model.base_score(), std::log(prior / (1.0 - prior)));
}

TEST(GradientBoostingTest, RejectsDegenerateParamsAndEmptyRows) {
  data::Dataset ds = TwoFeatureDataset(50, 3);
  GradientBoostedTrees model(SmallParams());
  EXPECT_FALSE(model.Fit(ds, "y", {"x0"}, {}).ok());
  GradientBoostedTreesParams zero_trees = SmallParams();
  zero_trees.num_trees = 0;
  EXPECT_FALSE(GradientBoostedTrees(zero_trees)
                   .Fit(ds, "y", {"x0"}, ds.AllRowIndices())
                   .ok());
  GradientBoostedTreesParams bad_lr = SmallParams();
  bad_lr.learning_rate = 0.0;
  EXPECT_FALSE(GradientBoostedTrees(bad_lr)
                   .Fit(ds, "y", {"x0"}, ds.AllRowIndices())
                   .ok());
}

TEST(GradientBoostingTest, HandlesMissingAndCategoricalFeatures) {
  util::Rng rng(4);
  std::vector<double> x, y;
  std::vector<std::string> surface;
  const std::vector<std::string> kinds = {"chip", "asphalt", "concrete"};
  for (size_t i = 0; i < 800; ++i) {
    const double xi = rng.Uniform(0.0, 10.0);
    const size_t s = static_cast<size_t>(rng.UniformInt(0, 2));
    const bool missing_x = rng.Bernoulli(0.1);
    x.push_back(missing_x ? kNaN : xi);
    surface.push_back(rng.Bernoulli(0.05) ? "" : kinds[s]);
    const bool label = (!missing_x && xi > 6.0) || s == 2;
    y.push_back(label ? 1.0 : 0.0);
  }
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  ASSERT_TRUE(
      ds.AddColumn(data::Column::CategoricalFromStrings("surface", surface))
          .ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());

  GradientBoostedTrees model(SmallParams());
  ASSERT_TRUE(model.Fit(ds, "y", {"x", "surface"}, ds.AllRowIndices()).ok());
  size_t correct = 0;
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    const int truth = ds.column(2).NumericAt(r) != 0.0 ? 1 : 0;
    correct += model.Predict(ds, r) == truth;
  }
  EXPECT_GT(static_cast<double>(correct) / ds.num_rows(), 0.9);
}

TEST(GradientBoostingDeterminismTest, BitIdenticalAcrossThreadCounts) {
  // Small enough for every engine batch to run inline; ml_gbt_growth_test
  // covers fits large enough for threaded batches.
  data::Dataset ds = TwoFeatureDataset(6000, 5);
  GradientBoostedTreesParams params = SmallParams();
  params.num_trees = 8;
  params.subsample = 0.8;
  params.colsample = 0.5;
  GradientBoostedTrees serial_model(params);
  ASSERT_TRUE(
      serial_model.Fit(ds, "y", {"x0", "x1"}, ds.AllRowIndices()).ok());
  const std::string serial_text = serial_model.Serialize();

  for (size_t threads : {2u, 8u}) {
    exec::ThreadPool pool(threads);
    GradientBoostedTreesParams threaded = params;
    threaded.executor = &pool;
    GradientBoostedTrees threaded_model(threaded);
    ASSERT_TRUE(
        threaded_model.Fit(ds, "y", {"x0", "x1"}, ds.AllRowIndices()).ok());
    EXPECT_EQ(threaded_model.Serialize(), serial_text)
        << threads << " threads";
  }
}

TEST(GradientBoostingDeterminismTest, SubsamplingIsSeedDeterministic) {
  data::Dataset ds = TwoFeatureDataset(1000, 6);
  GradientBoostedTreesParams params = SmallParams();
  params.subsample = 0.6;
  params.colsample = 0.5;
  GradientBoostedTrees a(params), b(params);
  ASSERT_TRUE(a.Fit(ds, "y", {"x0", "x1"}, ds.AllRowIndices()).ok());
  ASSERT_TRUE(b.Fit(ds, "y", {"x0", "x1"}, ds.AllRowIndices()).ok());
  EXPECT_EQ(a.Serialize(), b.Serialize());

  GradientBoostedTreesParams reseeded = params;
  reseeded.seed = params.seed + 1;
  GradientBoostedTrees c(reseeded);
  ASSERT_TRUE(c.Fit(ds, "y", {"x0", "x1"}, ds.AllRowIndices()).ok());
  EXPECT_NE(c.Serialize(), a.Serialize());
}

TEST(GradientBoostingSerializationTest, RoundTripsPredictions) {
  data::Dataset ds = TwoFeatureDataset(700, 7);
  GradientBoostedTreesParams params = SmallParams();
  params.subsample = 0.9;
  GradientBoostedTrees model(params);
  ASSERT_TRUE(model.Fit(ds, "y", {"x0", "x1"}, ds.AllRowIndices()).ok());

  auto restored = GradientBoostedTrees::Deserialize(model.Serialize(), ds);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->tree_count(), model.tree_count());
  EXPECT_EQ(restored->base_score(), model.base_score());
  auto original = model.PredictBatch(ds, ds.AllRowIndices());
  auto reloaded = restored->PredictBatch(ds, ds.AllRowIndices());
  ASSERT_TRUE(original.ok() && reloaded.ok());
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    EXPECT_EQ((*reloaded)[r], (*original)[r]) << "row " << r;
  }
  EXPECT_EQ(restored->Serialize(), model.Serialize());
}

TEST(GradientBoostingSerializationTest, RejectsCorruptText) {
  data::Dataset ds = TwoFeatureDataset(100, 8);
  EXPECT_FALSE(GradientBoostedTrees::Deserialize("not-a-model", ds).ok());
  GradientBoostedTrees model(SmallParams());
  ASSERT_TRUE(model.Fit(ds, "y", {"x0", "x1"}, ds.AllRowIndices()).ok());
  std::string text = model.Serialize();
  text.resize(text.size() / 2);  // Truncate mid-stream.
  EXPECT_FALSE(GradientBoostedTrees::Deserialize(text, ds).ok());
}

TEST(GradientBoostingServingTest, FlatModelIsBitIdentical) {
  data::Dataset ds = TwoFeatureDataset(900, 9);
  GradientBoostedTrees model(SmallParams());
  ASSERT_TRUE(model.Fit(ds, "y", {"x0", "x1"}, ds.AllRowIndices()).ok());

  auto flat = serve::CompileModel(model);
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ(flat->kind(), serve::FlatModel::Kind::kGbt);
  EXPECT_EQ(flat->tree_count(), model.tree_count());
  EXPECT_STREQ(flat->name(), "flat_gbt");

  auto source = model.PredictBatch(ds, ds.AllRowIndices());
  auto served = flat->PredictBatch(ds, ds.AllRowIndices());
  ASSERT_TRUE(source.ok() && served.ok());
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    EXPECT_EQ((*served)[r], (*source)[r]) << "row " << r;
  }

  // And the flat form itself round-trips through its own text format.
  auto reloaded = serve::FlatModel::Deserialize(flat->Serialize(), ds);
  ASSERT_TRUE(reloaded.ok());
  auto reserved = reloaded->PredictBatch(ds, ds.AllRowIndices());
  ASSERT_TRUE(reserved.ok());
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    EXPECT_EQ((*reserved)[r], (*source)[r]) << "row " << r;
  }
}

TEST(GradientBoostingServingTest, LoadPredictorDispatchesOnHeader) {
  data::Dataset ds = TwoFeatureDataset(300, 10);
  GradientBoostedTrees model(SmallParams());
  ASSERT_TRUE(model.Fit(ds, "y", {"x0", "x1"}, ds.AllRowIndices()).ok());

  auto loaded = serve::LoadPredictor(model.Serialize(), ds);
  ASSERT_TRUE(loaded.ok());
  EXPECT_STREQ((*loaded)->name(), "gradient_boosted_trees");
  auto original = model.PredictBatch(ds, ds.AllRowIndices());
  auto via_store = (*loaded)->PredictBatch(ds, ds.AllRowIndices());
  ASSERT_TRUE(original.ok() && via_store.ok());
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    EXPECT_EQ((*via_store)[r], (*original)[r]);
  }
}

TEST(GradientBoostingServingTest, SchemaMismatchIsRejected) {
  data::Dataset ds = TwoFeatureDataset(200, 11);
  GradientBoostedTrees model(SmallParams());
  ASSERT_TRUE(model.Fit(ds, "y", {"x0", "x1"}, ds.AllRowIndices()).ok());
  data::Dataset other;
  ASSERT_TRUE(other.AddColumn(data::Column::Numeric("z", {1.0, 2.0})).ok());
  EXPECT_FALSE(model.PredictBatch(other, other.AllRowIndices()).ok());
}

}  // namespace
}  // namespace roadmine::ml
