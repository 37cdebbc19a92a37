#include "ml/regression_tree.h"

#include <cmath>

#include <gtest/gtest.h>

#include "eval/regression_metrics.h"
#include "util/rng.h"

namespace roadmine::ml {
namespace {

// Piecewise-constant target: y = 10 for x < 3, 20 for 3 <= x < 7, 5 after.
data::Dataset StepDataset(size_t n, double noise_sd, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> x, y;
  for (size_t i = 0; i < n; ++i) {
    const double xi = rng.Uniform(0.0, 10.0);
    double yi = xi < 3.0 ? 10.0 : (xi < 7.0 ? 20.0 : 5.0);
    yi += rng.Normal(0.0, noise_sd);
    x.push_back(xi);
    y.push_back(yi);
  }
  data::Dataset ds;
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  return ds;
}

TEST(RegressionTreeTest, RecoversStepFunction) {
  data::Dataset ds = StepDataset(2000, 0.5, 1);
  RegressionTreeParams params;
  params.min_samples_leaf = 20;
  RegressionTree tree(params);
  ASSERT_TRUE(tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());

  std::vector<double> predictions = *tree.PredictBatch(ds, ds.AllRowIndices());
  std::vector<double> actuals;
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    actuals.push_back(ds.column(1).NumericAt(r));
  }
  auto r2 = eval::RSquared(predictions, actuals);
  ASSERT_TRUE(r2.ok());
  EXPECT_GT(*r2, 0.95);
}

TEST(RegressionTreeTest, ConstantTargetSingleLeaf) {
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x", {1, 2, 3, 4})).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("y", {7, 7, 7, 7})).ok());
  RegressionTree tree;
  ASSERT_TRUE(tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.Predict(ds, 0), 7.0);
}

TEST(RegressionTreeTest, LeafBudgetControlsModelSize) {
  data::Dataset ds = StepDataset(3000, 2.0, 3);
  RegressionTreeParams small, large;
  small.max_leaves = 3;
  small.min_samples_leaf = 10;
  large.max_leaves = 30;
  large.min_samples_leaf = 10;
  large.significance_level = 0.5;

  RegressionTree small_tree(small), large_tree(large);
  ASSERT_TRUE(small_tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  ASSERT_TRUE(large_tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  EXPECT_LE(small_tree.leaf_count(), 3u);
  EXPECT_GT(large_tree.leaf_count(), small_tree.leaf_count());
}

TEST(RegressionTreeTest, FTestBlocksNoiseSplits) {
  util::Rng rng(5);
  std::vector<double> x, y;
  for (int i = 0; i < 500; ++i) {
    x.push_back(rng.Uniform(0.0, 1.0));
    y.push_back(rng.Normal(0.0, 1.0));  // Pure noise.
  }
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  RegressionTreeParams params;
  params.significance_level = 0.0005;
  RegressionTree tree(params);
  ASSERT_TRUE(tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  EXPECT_LE(tree.leaf_count(), 3u);
}

TEST(RegressionTreeTest, CategoricalSplitOnGroupMeans) {
  std::vector<std::string> cat;
  std::vector<double> y;
  util::Rng rng(7);
  for (int i = 0; i < 600; ++i) {
    const int mod = i % 3;
    cat.push_back(mod == 0 ? "low" : (mod == 1 ? "mid" : "high"));
    y.push_back(mod * 10.0 + rng.Normal(0.0, 0.5));
  }
  data::Dataset ds;
  ASSERT_TRUE(
      ds.AddColumn(data::Column::CategoricalFromStrings("c", cat)).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  RegressionTree tree;
  ASSERT_TRUE(tree.Fit(ds, "y", {"c"}, ds.AllRowIndices()).ok());
  EXPECT_NEAR(tree.Predict(ds, 0), 0.0, 1.0);   // "low".
  EXPECT_NEAR(tree.Predict(ds, 2), 20.0, 1.0);  // "high".
}

TEST(RegressionTreeTest, PathToLeafStartsAtRootEndsAtLeaf) {
  data::Dataset ds = StepDataset(1000, 0.5, 9);
  RegressionTree tree;
  ASSERT_TRUE(tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  std::vector<int> path;
  const int leaf = FindLeaf(tree.nodes(), tree.features(), ds, 0, &path);
  ASSERT_GE(path.size(), 1u);
  EXPECT_EQ(path.front(), 0);
  EXPECT_EQ(path.back(), leaf);
}

TEST(RegressionTreeTest, MissingTargetRejected) {
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x", {1, 2})).ok());
  ASSERT_TRUE(
      ds.AddColumn(data::Column::Numeric("y", {1.0, std::nan("")})).ok());
  RegressionTree tree;
  EXPECT_FALSE(tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
}

TEST(RegressionTreeTest, CategoricalTargetRejected) {
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x", {1, 2})).ok());
  ASSERT_TRUE(ds.AddColumn(
                    data::Column::CategoricalFromStrings("y", {"a", "b"}))
                  .ok());
  RegressionTree tree;
  EXPECT_FALSE(tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
}

// Mirror of the decision-tree midpoint regression tests: adjacent
// representable doubles (midpoint rounds onto the right value) and
// huge same-sign magnitudes (midpoint overflows to inf) both used to
// collapse a cleanly separable split into a single leaf.
TEST(RegressionTreeTest, SplitsAdjacentRepresentableDoubles) {
  const double a = std::nextafter(1.0, 2.0);
  const double b = std::nextafter(a, 2.0);
  std::vector<double> x, y;
  for (int i = 0; i < 40; ++i) {
    x.push_back(i % 2 == 0 ? a : b);
    y.push_back(i % 2 == 0 ? 10.0 : 20.0);
  }
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  RegressionTreeParams params;
  params.min_samples_leaf = 5;
  params.min_samples_split = 10;
  RegressionTree tree(params);
  ASSERT_TRUE(tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  EXPECT_EQ(tree.leaf_count(), 2u);
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    EXPECT_DOUBLE_EQ(tree.Predict(ds, r), r % 2 == 0 ? 10.0 : 20.0);
  }
}

TEST(RegressionTreeTest, SplitsHugeMagnitudeFeaturesWithoutOverflow) {
  std::vector<double> x, y;
  for (int i = 0; i < 40; ++i) {
    x.push_back(i % 2 == 0 ? 1.5e308 : 1.7e308);
    y.push_back(i % 2 == 0 ? 10.0 : 20.0);
  }
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  RegressionTreeParams params;
  params.min_samples_leaf = 5;
  params.min_samples_split = 10;
  RegressionTree tree(params);
  ASSERT_TRUE(tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  EXPECT_EQ(tree.leaf_count(), 2u);
  for (const auto& node : tree.nodes()) {
    if (node.is_leaf) continue;
    EXPECT_TRUE(std::isfinite(node.threshold));
  }
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    EXPECT_DOUBLE_EQ(tree.Predict(ds, r), r % 2 == 0 ? 10.0 : 20.0);
  }
}

}  // namespace
}  // namespace roadmine::ml
