// FlatModel equivalence enforcement: compiled predictions must be
// bit-identical to the source model on every dataset and row list (partial,
// reversed and repeated 64-row blocks included), including missing values,
// infinities and categorical splits, and invariant to the scoring thread
// count. Row ids past the dataset and thresholds the block kernel cannot
// route are rejected.
#include "serve/flat_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/thresholds.h"
#include "exec/executor.h"
#include "ml/bagging.h"
#include "ml/decision_tree.h"
#include "ml/gradient_boosting.h"
#include "ml/m5_tree.h"
#include "ml/regression_tree.h"
#include "roadgen/dataset_builder.h"
#include "roadgen/generator.h"
#include "serve/scoring_service.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace roadmine::serve {

// Reaches the trees of a compiled model to set thresholds that no model
// file or training run can carry.
class FlatModelTestPeer {
 public:
  // The first numeric split of the first tree, or node_count() if none.
  static size_t FirstNumericSplit(const FlatModel& model) {
    const std::vector<FlatModel::Node>& nodes = model.trees_[0];
    for (size_t id = 0; id < nodes.size(); ++id) {
      if (!nodes[id].is_leaf && model.features_[nodes[id].feature].type ==
                                    data::ColumnType::kNumeric) {
        return id;
      }
    }
    return model.node_count();
  }

  // Sets the first tree's split `node`'s threshold and links the trees
  // again.
  static util::Status Relink(FlatModel& model, size_t node, double threshold) {
    model.trees_[0][node].threshold = threshold;
    return model.Link();
  }
};

namespace {

// Segment inventory with the generator's natural missingness (f60) and
// categorical attributes, plus a CP-4 binary target.
data::Dataset RoadDataset(size_t n, uint64_t seed) {
  roadgen::GeneratorConfig config;
  config.num_segments = n;
  config.seed = seed;
  roadgen::RoadNetworkGenerator gen(config);
  auto segments = gen.Generate();
  EXPECT_TRUE(segments.ok());
  auto ds = roadgen::BuildSegmentDataset(*segments);
  EXPECT_TRUE(ds.ok());
  EXPECT_TRUE(core::AddCrashProneTarget(*ds, roadgen::kSegmentCrashCountColumn,
                                        4)
                  .ok());
  return std::move(*ds);
}

std::vector<size_t> AllRows(const data::Dataset& ds) {
  return ds.AllRowIndices();
}

// Row lists around the 64-row scoring block: short, exact, one past, two
// blocks plus change, every row reversed, and a list that repeats rows.
std::vector<std::vector<size_t>> RowLists(const data::Dataset& ds) {
  std::vector<std::vector<size_t>> lists;
  for (size_t n : {1u, 63u, 64u, 65u, 130u}) {
    std::vector<size_t> rows(n);
    for (size_t i = 0; i < n; ++i) rows[i] = (i * 37 + 11) % ds.num_rows();
    lists.push_back(std::move(rows));
  }
  std::vector<size_t> reversed = ds.AllRowIndices();
  std::reverse(reversed.begin(), reversed.end());
  lists.push_back(std::move(reversed));
  std::vector<size_t> repeated;
  for (size_t i = 0; i < 150; ++i) repeated.push_back((i % 7) * (i % 5));
  lists.push_back(std::move(repeated));
  return lists;
}

// The flat model scores every row list exactly as the source model does,
// and its batch path agrees with PredictRow on every row.
void ExpectSameScores(const ml::Predictor& source, const FlatModel& flat,
                      const data::Dataset& ds) {
  for (const std::vector<size_t>& rows : RowLists(ds)) {
    auto want = source.PredictBatch(ds, rows);
    auto got = flat.PredictBatch(ds, rows);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*want, *got) << rows.size() << " rows";
  }
  auto batch = flat.PredictBatch(ds, AllRows(ds));
  ASSERT_TRUE(batch.ok());
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    auto one = flat.PredictRow(ds, r);
    ASSERT_TRUE(one.ok());
    ASSERT_EQ(*one, (*batch)[r]) << "row " << r;
  }
}

TEST(FlatModelTest, DecisionTreeBitIdentity) {
  data::Dataset ds = RoadDataset(3000, 21);
  ml::DecisionTreeClassifier tree{
      ml::DecisionTreeParams{.min_samples_leaf = 25}};
  ASSERT_TRUE(tree.Fit(ds, core::ThresholdTargetName(4),
                       roadgen::RoadAttributeColumns(), ds.AllRowIndices())
                  .ok());
  auto flat = CompileModel(tree);
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ(flat->kind(), FlatModel::Kind::kDecisionTree);
  EXPECT_STREQ(flat->name(), "flat_decision_tree");
  EXPECT_TRUE(flat->compiled());
  EXPECT_EQ(flat->tree_count(), 1u);
  EXPECT_EQ(flat->node_count(), tree.node_count());

  auto want = tree.PredictBatch(ds, AllRows(ds));
  auto got = flat->PredictBatch(ds, AllRows(ds));
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*want, *got);  // Bit-identical, not merely close.
  ExpectSameScores(tree, *flat, ds);
}

TEST(FlatModelTest, BaggedEnsembleBitIdentity) {
  data::Dataset ds = RoadDataset(2000, 33);
  ml::BaggedTreesParams params;
  params.num_trees = 9;
  params.tree.min_samples_leaf = 30;
  ml::BaggedTreesClassifier bagged(params);
  ASSERT_TRUE(bagged.Fit(ds, core::ThresholdTargetName(4),
                         roadgen::RoadAttributeColumns(), ds.AllRowIndices())
                  .ok());
  auto flat = CompileModel(bagged);
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ(flat->kind(), FlatModel::Kind::kBaggedTrees);
  EXPECT_EQ(flat->tree_count(), 9u);

  auto want = bagged.PredictBatch(ds, AllRows(ds));
  auto got = flat->PredictBatch(ds, AllRows(ds));
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*want, *got);
  ExpectSameScores(bagged, *flat, ds);
}

TEST(FlatModelTest, RegressionTreeBitIdentity) {
  data::Dataset ds = RoadDataset(2500, 5);
  ml::RegressionTree tree{ml::RegressionTreeParams{.min_samples_leaf = 20}};
  ASSERT_TRUE(tree.Fit(ds, roadgen::kSegmentCrashCountColumn,
                       roadgen::RoadAttributeColumns(), ds.AllRowIndices())
                  .ok());
  auto flat = CompileModel(tree);
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ(flat->kind(), FlatModel::Kind::kRegressionTree);

  auto want = tree.PredictBatch(ds, AllRows(ds));
  auto got = flat->PredictBatch(ds, AllRows(ds));
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*want, *got);
  ExpectSameScores(tree, *flat, ds);
}

TEST(FlatModelTest, M5TreeBitIdentityWithSmoothing) {
  data::Dataset ds = RoadDataset(2500, 9);
  ml::M5TreeParams params;
  params.tree.min_samples_leaf = 25;
  params.smoothing = 15.0;  // Smoothing on: the path-walk must match too.
  ml::M5Tree m5(params);
  ASSERT_TRUE(m5.Fit(ds, roadgen::kSegmentCrashCountColumn,
                     roadgen::RoadAttributeColumns(), ds.AllRowIndices())
                  .ok());
  auto flat = CompileModel(m5);
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ(flat->kind(), FlatModel::Kind::kM5Tree);

  auto want = m5.PredictBatch(ds, AllRows(ds));
  auto got = flat->PredictBatch(ds, AllRows(ds));
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*want, *got);
  ExpectSameScores(m5, *flat, ds);
}

TEST(FlatModelTest, GbtBitIdentity) {
  data::Dataset ds = RoadDataset(2500, 27);
  ml::GradientBoostedTreesParams params;
  params.num_trees = 12;
  params.max_depth = 4;
  ml::GradientBoostedTrees gbt(params);
  ASSERT_TRUE(gbt.Fit(ds, core::ThresholdTargetName(4),
                      roadgen::RoadAttributeColumns(), ds.AllRowIndices())
                  .ok());
  auto flat = CompileModel(gbt);
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ(flat->kind(), FlatModel::Kind::kGbt);
  EXPECT_EQ(flat->tree_count(), 12u);
  ExpectSameScores(gbt, *flat, ds);
}

TEST(FlatModelTest, HandRolledMissingAndCategoricalBitIdentity) {
  // Explicit NaNs and categorical splits so both routing branches and the
  // category bitmask path are exercised deterministically. `district` has
  // 90 levels, so its split masks span two 64-bit words.
  util::Rng rng(7);
  std::vector<double> x, y;
  std::vector<std::string> surface, district;
  for (size_t i = 0; i < 1200; ++i) {
    const double xi = rng.Uniform(0.0, 10.0);
    const bool chip = rng.Bernoulli(0.4);
    const int64_t level = rng.UniformInt(0, 89);
    x.push_back(rng.Bernoulli(0.1) ? std::numeric_limits<double>::quiet_NaN()
                                   : xi);
    surface.push_back(chip ? "chip_seal" : (rng.Bernoulli(0.3) ? "concrete"
                                                               : "asphalt"));
    district.push_back(rng.Bernoulli(0.05) ? std::string()
                                           : std::to_string(level));
    y.push_back((xi > 5.0 || chip || level % 9 == 4) ? 1.0 : 0.0);
  }
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  ASSERT_TRUE(
      ds.AddColumn(data::Column::CategoricalFromStrings("surface", surface))
          .ok());
  ASSERT_TRUE(
      ds.AddColumn(data::Column::CategoricalFromStrings("district", district))
          .ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());

  ml::DecisionTreeClassifier tree{
      ml::DecisionTreeParams{.min_samples_leaf = 15}};
  ASSERT_TRUE(
      tree.Fit(ds, "y", {"x", "surface", "district"}, ds.AllRowIndices())
          .ok());
  auto flat = CompileModel(tree);
  ASSERT_TRUE(flat.ok());

  // Some serialized split carries a mask wider than one word.
  bool wide_mask = false;
  for (const std::string& line : util::Split(flat->Serialize(), '\n')) {
    const std::vector<std::string> parts = util::Split(line, '\t');
    if (parts.size() == 11 && parts[0] == "node" && parts[10].size() > 64) {
      wide_mask = true;
    }
  }
  EXPECT_TRUE(wide_mask);

  auto want = tree.PredictBatch(ds, AllRows(ds));
  auto got = flat->PredictBatch(ds, AllRows(ds));
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*want, *got);
  ExpectSameScores(tree, *flat, ds);
}

// Numeric columns holding -inf, +inf and -0.0 beside NaN. `x` is -inf
// exactly where y is 1 (and NaN where y is `missing_label`), so a tree's
// first split falls between -inf and the next value: threshold
// SplitMidpoint(-inf, v) = -inf, with missing rows sent to the side whose
// mean they match. +inf rows (y 1 half the time) give later splits.
data::Dataset NonFiniteDataset(double missing_label, uint64_t seed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  util::Rng rng(seed);
  std::vector<double> x, z, y;
  for (size_t i = 0; i < 400; ++i) {
    double xi = rng.Uniform(-5.0, 5.0);
    double yi = 0.0;
    switch (i % 8) {
      case 0:
        xi = -kInf;
        yi = 1.0;
        break;
      case 1:
        xi = std::numeric_limits<double>::quiet_NaN();
        yi = missing_label;
        break;
      case 2:
        xi = kInf;
        yi = rng.Bernoulli(0.5) ? 1.0 : 0.0;
        break;
      case 3:
        xi = -0.0;
        break;
      case 4:
        xi = 0.0;
        break;
    }
    x.push_back(xi);
    const double zi = rng.Uniform(0.0, 1.0);
    z.push_back(zi < 0.1 ? -kInf : (zi > 0.9 ? kInf : zi));
    y.push_back(yi);
  }
  data::Dataset ds;
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("z", z)).ok());
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  return ds;
}

// (missing direction, threshold) of every numeric split in `flat`'s text.
std::vector<std::pair<int, double>> NumericSplits(const FlatModel& flat) {
  std::vector<std::pair<int, double>> splits;
  for (const std::string& line : util::Split(flat.Serialize(), '\n')) {
    const std::vector<std::string> parts = util::Split(line, '\t');
    if (parts.size() != 11 || parts[0] != "node" || parts[1] == "-1" ||
        parts[10] != "-") {
      continue;
    }
    // %.17g writes -inf as "-inf", which util::ParseDouble refuses.
    const double threshold = parts[2] == "-inf"
                                 ? -std::numeric_limits<double>::infinity()
                                 : std::stod(parts[2]);
    splits.emplace_back(std::stoi(parts[3]), threshold);
  }
  return splits;
}

// Flat PredictBatch equals the source model's PredictBatch and PredictRow
// on every row, for consecutive batches of `batch` rows.
void ExpectSameScoresInBatches(const ml::Predictor& source,
                               const FlatModel& flat,
                               const data::Dataset& ds, size_t batch) {
  for (size_t begin = 0; begin < ds.num_rows(); begin += batch) {
    std::vector<size_t> rows;
    for (size_t r = begin; r < std::min(ds.num_rows(), begin + batch); ++r) {
      rows.push_back(r);
    }
    auto want = source.PredictBatch(ds, rows);
    auto got = flat.PredictBatch(ds, rows);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(*want, *got) << batch << "-row batch at row " << begin;
    for (size_t i = 0; i < rows.size(); ++i) {
      auto one = flat.PredictRow(ds, rows[i]);
      ASSERT_TRUE(one.ok());
      ASSERT_EQ(*one, (*got)[i]) << "row " << rows[i];
    }
  }
}

TEST(FlatModelTest, InfinitiesAndNegativeZeroRouteLikeTheSourceModel) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<std::string> features = {"x", "z"};
  for (const double missing_label : {1.0, 0.0}) {
    SCOPED_TRACE(missing_label);
    const data::Dataset ds = NonFiniteDataset(missing_label, 11);
    // Missing rows share the -inf rows' label (1) or the rest's (0), so
    // the -inf split sends them left or right.
    const std::pair<int, double> root_split = {missing_label == 1.0 ? 1 : 0,
                                               -kInf};

    ml::DecisionTreeClassifier dt{
        ml::DecisionTreeParams{.min_samples_leaf = 5}};
    ASSERT_TRUE(dt.Fit(ds, "y", features, ds.AllRowIndices()).ok());
    auto flat_dt = CompileModel(dt);
    ASSERT_TRUE(flat_dt.ok());
    const auto dt_splits = NumericSplits(*flat_dt);
    ASSERT_FALSE(dt_splits.empty());
    EXPECT_EQ(dt_splits.front(), root_split);

    ml::RegressionTree rt{ml::RegressionTreeParams{.min_samples_leaf = 5}};
    ASSERT_TRUE(rt.Fit(ds, "y", features, ds.AllRowIndices()).ok());
    auto flat_rt = CompileModel(rt);
    ASSERT_TRUE(flat_rt.ok());
    const auto rt_splits = NumericSplits(*flat_rt);
    ASSERT_FALSE(rt_splits.empty());
    EXPECT_EQ(rt_splits.front(), root_split);

    ml::GradientBoostedTreesParams params;
    params.num_trees = 6;
    params.max_depth = 3;
    ml::GradientBoostedTrees gbt(params);
    ASSERT_TRUE(gbt.Fit(ds, "y", features, ds.AllRowIndices()).ok());
    auto flat_gbt = CompileModel(gbt);
    ASSERT_TRUE(flat_gbt.ok());
    const auto gbt_splits = NumericSplits(*flat_gbt);
    EXPECT_TRUE(std::any_of(gbt_splits.begin(), gbt_splits.end(),
                            [](const std::pair<int, double>& split) {
                              return split.second == -kInf;
                            }));

    for (size_t batch : {1u, 5u, 64u, 65u}) {
      ExpectSameScoresInBatches(dt, *flat_dt, ds, batch);
      ExpectSameScoresInBatches(rt, *flat_rt, ds, batch);
      ExpectSameScoresInBatches(gbt, *flat_gbt, ds, batch);
    }
  }
}

TEST(FlatModelTest, LinkRejectsThresholdsTheKernelCannotRoute) {
  const data::Dataset ds = NonFiniteDataset(1.0, 11);
  ml::DecisionTreeClassifier dt{
      ml::DecisionTreeParams{.min_samples_leaf = 5}};
  ASSERT_TRUE(dt.Fit(ds, "y", {"x", "z"}, ds.AllRowIndices()).ok());
  auto flat = CompileModel(dt);
  ASSERT_TRUE(flat.ok());
  const size_t split = FlatModelTestPeer::FirstNumericSplit(*flat);
  ASSERT_LT(split, flat->node_count());
  for (const double threshold : {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(FlatModelTestPeer::Relink(*flat, split, threshold).code(),
              util::StatusCode::kInvalidArgument)
        << threshold;
  }
  for (const double threshold : {-std::numeric_limits<double>::infinity(),
                                 std::numeric_limits<double>::max(), 0.0}) {
    EXPECT_TRUE(FlatModelTestPeer::Relink(*flat, split, threshold).ok())
        << threshold;
  }
}

TEST(FlatModelTest, RowsPastTheDatasetAreInvalidArgument) {
  data::Dataset ds = RoadDataset(300, 19);
  ml::GradientBoostedTreesParams params;
  params.num_trees = 3;
  params.max_depth = 3;
  ml::GradientBoostedTrees gbt(params);
  ASSERT_TRUE(gbt.Fit(ds, core::ThresholdTargetName(4),
                      roadgen::RoadAttributeColumns(), ds.AllRowIndices())
                  .ok());
  auto flat = CompileModel(gbt);
  ASSERT_TRUE(flat.ok());
  const size_t n = ds.num_rows();
  for (const size_t past : {n, n + (size_t{1} << 40)}) {
    EXPECT_EQ(flat->PredictRow(ds, past).status().code(),
              util::StatusCode::kInvalidArgument);
    for (const std::vector<size_t>& rows :
         {std::vector<size_t>{past}, std::vector<size_t>{0, 1, past},
          std::vector<size_t>(70, past)}) {
      EXPECT_EQ(flat->PredictBatch(ds, rows).status().code(),
                util::StatusCode::kInvalidArgument)
          << rows.size() << " rows";
    }
  }
  auto empty = flat->PredictBatch(ds, {});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_TRUE(flat->PredictRow(ds, n - 1).ok());
}

TEST(FlatModelTest, CompiledFormSurvivesItsOwnRoundTrip) {
  data::Dataset ds = RoadDataset(1500, 13);
  ml::M5TreeParams params;
  params.tree.min_samples_leaf = 30;
  ml::M5Tree m5(params);
  ASSERT_TRUE(m5.Fit(ds, roadgen::kSegmentCrashCountColumn,
                     roadgen::RoadAttributeColumns(), ds.AllRowIndices())
                  .ok());
  auto flat = CompileModel(m5);
  ASSERT_TRUE(flat.ok());
  auto reloaded = FlatModel::Deserialize(flat->Serialize(), ds);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->kind(), flat->kind());
  EXPECT_EQ(reloaded->node_count(), flat->node_count());
  EXPECT_EQ(reloaded->Serialize(), flat->Serialize());

  auto want = flat->PredictBatch(ds, AllRows(ds));
  auto got = reloaded->PredictBatch(ds, AllRows(ds));
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*want, *got);
}

TEST(FlatModelTest, ThreadCountInvariantThroughScoringService) {
  // Flat and source predictions must agree at 1, 2, and 8 executor threads
  // — the repo-wide determinism contract applied to serving.
  data::Dataset ds = RoadDataset(2000, 41);
  ml::BaggedTreesParams params;
  params.num_trees = 7;
  params.tree.min_samples_leaf = 40;
  auto bagged = std::make_shared<ml::BaggedTreesClassifier>(params);
  ASSERT_TRUE(bagged
                  ->Fit(ds, core::ThresholdTargetName(4),
                        roadgen::RoadAttributeColumns(), ds.AllRowIndices())
                  .ok());
  auto flat = CompileModel(*bagged);
  ASSERT_TRUE(flat.ok());
  auto flat_model = std::make_shared<FlatModel>(std::move(*flat));

  auto serial_scores = [&](const ml::Predictor& model) {
    auto out = model.PredictBatch(ds, ds.AllRowIndices());
    EXPECT_TRUE(out.ok());
    return *out;
  };
  const std::vector<double> want_source = serial_scores(*bagged);
  const std::vector<double> want_flat = serial_scores(*flat_model);
  EXPECT_EQ(want_source, want_flat);

  for (size_t threads : {1u, 2u, 8u}) {
    exec::ThreadPool pool(threads);
    ScoringService service(ScoringServiceOptions{.executor = &pool, .slo = {}});
    ASSERT_TRUE(service.Register("source", "v1", bagged).ok());
    ASSERT_TRUE(service.Register("flat", "v1", flat_model).ok());
    auto source = service.ScoreBatch("source", "v1", ds, ds.AllRowIndices());
    auto flat_scores = service.ScoreBatch("flat", "v1", ds,
                                          ds.AllRowIndices());
    ASSERT_TRUE(source.ok());
    ASSERT_TRUE(flat_scores.ok());
    EXPECT_EQ(*source, want_source) << threads << " threads";
    EXPECT_EQ(*flat_scores, want_flat) << threads << " threads";
  }
}

TEST(FlatModelTest, UnfittedModelsRejected) {
  EXPECT_FALSE(CompileModel(ml::DecisionTreeClassifier{}).ok());
  EXPECT_FALSE(CompileModel(ml::BaggedTreesClassifier{}).ok());
  EXPECT_FALSE(CompileModel(ml::RegressionTree{}).ok());
  EXPECT_FALSE(CompileModel(ml::M5Tree{}).ok());
}

TEST(FlatModelTest, UncompiledModelRefusesToScore) {
  data::Dataset ds = RoadDataset(200, 3);
  FlatModel empty;
  EXPECT_FALSE(empty.compiled());
  EXPECT_FALSE(empty.PredictBatch(ds, {0}).ok());
}

}  // namespace
}  // namespace roadmine::serve
