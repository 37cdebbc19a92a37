#include "ml/decision_tree.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace roadmine::ml {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// y = 1 iff x > 5 (with a little label noise when `noise` > 0).
data::Dataset ThresholdDataset(size_t n, double noise, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> x, y;
  for (size_t i = 0; i < n; ++i) {
    const double xi = rng.Uniform(0.0, 10.0);
    double yi = xi > 5.0 ? 1.0 : 0.0;
    if (rng.Bernoulli(noise)) yi = 1.0 - yi;
    x.push_back(xi);
    y.push_back(yi);
  }
  data::Dataset ds;
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  return ds;
}

TEST(DecisionTreeTest, LearnsAxisAlignedBoundary) {
  data::Dataset ds = ThresholdDataset(1000, 0.0, 1);
  DecisionTreeParams params;
  params.min_samples_leaf = 5;
  params.min_samples_split = 10;
  DecisionTreeClassifier tree(params);
  ASSERT_TRUE(tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  EXPECT_TRUE(tree.fitted());

  size_t correct = 0;
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    const int truth = ds.column(1).NumericAt(r) != 0.0 ? 1 : 0;
    correct += tree.Predict(ds, r) == truth;
  }
  EXPECT_GT(static_cast<double>(correct) / ds.num_rows(), 0.99);
}

TEST(DecisionTreeTest, PureNodeStaysLeaf) {
  data::Dataset ds;
  ASSERT_TRUE(
      ds.AddColumn(data::Column::Numeric("x", {1, 2, 3, 4, 5, 6})).ok());
  ASSERT_TRUE(
      ds.AddColumn(data::Column::Numeric("y", {1, 1, 1, 1, 1, 1})).ok());
  DecisionTreeClassifier tree;
  ASSERT_TRUE(tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_GT(tree.PredictProba(ds, 0), 0.5);
}

TEST(DecisionTreeTest, InsignificantSplitRejectedByChiSquare) {
  // Labels independent of x: the chi-square gate should refuse to split.
  util::Rng rng(3);
  std::vector<double> x, y;
  for (int i = 0; i < 400; ++i) {
    x.push_back(rng.Uniform(0.0, 1.0));
    y.push_back(rng.Bernoulli(0.5) ? 1.0 : 0.0);
  }
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  DecisionTreeParams params;
  params.significance_level = 0.001;
  DecisionTreeClassifier tree(params);
  ASSERT_TRUE(tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  EXPECT_LE(tree.leaf_count(), 2u);
}

TEST(DecisionTreeTest, MaxLeavesBudgetRespected) {
  data::Dataset ds = ThresholdDataset(2000, 0.15, 5);
  DecisionTreeParams params;
  params.max_leaves = 4;
  params.min_samples_leaf = 5;
  params.min_samples_split = 10;
  DecisionTreeClassifier tree(params);
  ASSERT_TRUE(tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  EXPECT_LE(tree.leaf_count(), 4u);
  EXPECT_GE(tree.leaf_count(), 2u);
}

TEST(DecisionTreeTest, MaxDepthRespected) {
  data::Dataset ds = ThresholdDataset(2000, 0.2, 7);
  DecisionTreeParams params;
  params.max_depth = 2;
  params.min_samples_leaf = 5;
  DecisionTreeClassifier tree(params);
  ASSERT_TRUE(tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  EXPECT_LE(tree.depth(), 2);
}

TEST(DecisionTreeTest, CategoricalSplit) {
  // y depends only on the category.
  std::vector<std::string> cat;
  std::vector<double> y;
  for (int i = 0; i < 300; ++i) {
    const int mod = i % 3;
    cat.push_back(mod == 0 ? "bad" : (mod == 1 ? "ok" : "good"));
    y.push_back(mod == 0 ? 1.0 : 0.0);
  }
  data::Dataset ds;
  ASSERT_TRUE(
      ds.AddColumn(data::Column::CategoricalFromStrings("c", cat)).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  DecisionTreeParams params;
  params.min_samples_leaf = 10;
  DecisionTreeClassifier tree(params);
  ASSERT_TRUE(tree.Fit(ds, "y", {"c"}, ds.AllRowIndices()).ok());
  for (size_t r = 0; r < 6; ++r) {
    const int truth = ds.column(1).NumericAt(r) != 0.0 ? 1 : 0;
    EXPECT_EQ(tree.Predict(ds, r), truth) << "row " << r;
  }
}

TEST(DecisionTreeTest, MissingValuesRoutedNotDropped) {
  // x missing for 30% of rows; missing rows are overwhelmingly positive, so
  // the learned missing-direction should classify them positive.
  util::Rng rng(11);
  std::vector<double> x, y;
  for (int i = 0; i < 1200; ++i) {
    if (i % 10 < 3) {
      x.push_back(kNaN);
      y.push_back(rng.Bernoulli(0.9) ? 1.0 : 0.0);
    } else {
      const double xi = rng.Uniform(0.0, 10.0);
      x.push_back(xi);
      y.push_back(xi > 5.0 ? 1.0 : 0.0);
    }
  }
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  DecisionTreeParams params;
  params.min_samples_leaf = 20;
  DecisionTreeClassifier tree(params);
  ASSERT_TRUE(tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());

  size_t missing_correct = 0, missing_total = 0;
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    if (!std::isnan(ds.column(0).NumericAt(r))) continue;
    ++missing_total;
    missing_correct +=
        tree.Predict(ds, r) == (ds.column(1).NumericAt(r) != 0.0 ? 1 : 0);
  }
  ASSERT_GT(missing_total, 0u);
  EXPECT_GT(static_cast<double>(missing_correct) / missing_total, 0.8);
}

TEST(DecisionTreeTest, PruningNeverIncreasesLeaves) {
  data::Dataset ds = ThresholdDataset(3000, 0.25, 13);
  util::Rng rng(17);
  std::vector<size_t> train, validation;
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    (r % 3 == 0 ? validation : train).push_back(r);
  }
  DecisionTreeParams params;
  params.min_samples_leaf = 5;
  params.min_samples_split = 10;
  params.significance_level = 0.5;  // Deliberately overgrow.
  DecisionTreeClassifier tree(params);
  ASSERT_TRUE(tree.Fit(ds, "y", {"x"}, train).ok());
  const size_t before = tree.leaf_count();
  ASSERT_TRUE(tree.PruneReducedError(ds, "y", validation).ok());
  EXPECT_LE(tree.leaf_count(), before);
  EXPECT_GE(tree.leaf_count(), 1u);
}

TEST(DecisionTreeTest, ExtractRulesCoversEveryLeaf) {
  data::Dataset ds = ThresholdDataset(500, 0.0, 19);
  DecisionTreeParams params;
  params.min_samples_leaf = 10;
  DecisionTreeClassifier tree(params);
  ASSERT_TRUE(tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  const std::vector<std::string> rules = tree.ExtractRules();
  EXPECT_EQ(rules.size(), tree.leaf_count());
  for (const std::string& rule : rules) {
    EXPECT_NE(rule.find("IF "), std::string::npos);
    EXPECT_NE(rule.find("THEN"), std::string::npos);
  }
}

TEST(DecisionTreeTest, ToStringRendersTree) {
  data::Dataset ds = ThresholdDataset(500, 0.0, 23);
  DecisionTreeClassifier tree;
  ASSERT_TRUE(tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  EXPECT_NE(tree.ToString().find("split"), std::string::npos);
}

TEST(DecisionTreeTest, FitErrors) {
  data::Dataset ds = ThresholdDataset(50, 0.0, 29);
  DecisionTreeClassifier tree;
  EXPECT_FALSE(tree.Fit(ds, "y", {"x"}, {}).ok());
  EXPECT_FALSE(tree.Fit(ds, "nope", {"x"}, ds.AllRowIndices()).ok());
  EXPECT_FALSE(tree.Fit(ds, "y", {"nope"}, ds.AllRowIndices()).ok());
  EXPECT_FALSE(tree.Fit(ds, "y", {"y"}, ds.AllRowIndices()).ok());
  EXPECT_FALSE(tree.Fit(ds, "y", {}, ds.AllRowIndices()).ok());
}

class SplitCriterionTest : public ::testing::TestWithParam<SplitCriterion> {};

TEST_P(SplitCriterionTest, AllCriteriaLearnTheBoundary) {
  data::Dataset ds = ThresholdDataset(1000, 0.05, 31);
  DecisionTreeParams params;
  params.criterion = GetParam();
  params.min_samples_leaf = 10;
  DecisionTreeClassifier tree(params);
  ASSERT_TRUE(tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  size_t correct = 0;
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    const double xi = ds.column(0).NumericAt(r);
    correct += tree.Predict(ds, r) == (xi > 5.0 ? 1 : 0);
  }
  EXPECT_GT(static_cast<double>(correct) / ds.num_rows(), 0.93)
      << SplitCriterionName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Criteria, SplitCriterionTest,
                         ::testing::Values(SplitCriterion::kChiSquare,
                                           SplitCriterion::kGini,
                                           SplitCriterion::kEntropy));

TEST(DecisionTreeTest, PredictProbaWithinUnitInterval) {
  data::Dataset ds = ThresholdDataset(800, 0.3, 37);
  DecisionTreeClassifier tree;
  ASSERT_TRUE(tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  for (size_t r = 0; r < ds.num_rows(); r += 17) {
    const double p = tree.PredictProba(ds, r);
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
  }
}

// Two classes sitting on adjacent representable doubles: the exact
// midpoint is not representable, and `0.5 * (a + b)` rounds half-to-even
// onto `b` itself, so rows equal to `b` routed left and the split
// degenerated (right child empty -> no split at all).
TEST(DecisionTreeTest, SplitsAdjacentRepresentableDoubles) {
  const double a = std::nextafter(1.0, 2.0);
  const double b = std::nextafter(a, 2.0);
  ASSERT_LT(a, b);
  std::vector<double> x, y;
  for (int i = 0; i < 40; ++i) {
    x.push_back(i % 2 == 0 ? a : b);
    y.push_back(i % 2 == 0 ? 0.0 : 1.0);
  }
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  DecisionTreeParams params;
  params.min_samples_leaf = 5;
  params.min_samples_split = 10;
  DecisionTreeClassifier tree(params);
  ASSERT_TRUE(tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  EXPECT_EQ(tree.leaf_count(), 2u);
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    EXPECT_EQ(tree.Predict(ds, r), r % 2 == 0 ? 0 : 1) << "row " << r;
  }
  for (const auto& node : tree.nodes()) {
    if (node.is_leaf) continue;
    EXPECT_GE(node.threshold, a);
    EXPECT_LT(node.threshold, b);
  }
}

// Same-sign features near the double range limit: `0.5 * (a + b)`
// overflowed `a + b` to inf, so every row routed left and the perfectly
// separable split was discarded as degenerate.
TEST(DecisionTreeTest, SplitsHugeMagnitudeFeaturesWithoutOverflow) {
  std::vector<double> x, y;
  for (int i = 0; i < 40; ++i) {
    x.push_back(i % 2 == 0 ? 1.5e308 : 1.7e308);
    y.push_back(i % 2 == 0 ? 0.0 : 1.0);
  }
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  DecisionTreeParams params;
  params.min_samples_leaf = 5;
  params.min_samples_split = 10;
  DecisionTreeClassifier tree(params);
  ASSERT_TRUE(tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  EXPECT_EQ(tree.leaf_count(), 2u);
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    EXPECT_EQ(tree.Predict(ds, r), r % 2 == 0 ? 0 : 1) << "row " << r;
  }
  for (const auto& node : tree.nodes()) {
    if (node.is_leaf) continue;
    EXPECT_TRUE(std::isfinite(node.threshold));
  }
  // The mirrored case must behave identically.
  for (double& v : x) v = -v;
  data::Dataset neg;
  ASSERT_TRUE(neg.AddColumn(data::Column::Numeric("x", x)).ok());
  ASSERT_TRUE(neg.AddColumn(data::Column::Numeric("y", y)).ok());
  DecisionTreeClassifier mirrored(params);
  ASSERT_TRUE(mirrored.Fit(neg, "y", {"x"}, neg.AllRowIndices()).ok());
  EXPECT_EQ(mirrored.leaf_count(), 2u);
}

}  // namespace
}  // namespace roadmine::ml
