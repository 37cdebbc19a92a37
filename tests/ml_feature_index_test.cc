// Bit-identity property tests for the pre-sorted FeatureIndex: the
// indexed split search must choose exactly the splits the legacy
// per-node-sort path chooses — same features, same thresholds, same
// routing — on randomized roadgen datasets, including missing-value and
// constant-column cases, for any fit-row order (shuffled and bootstrap
// rows included). Serialized trees print doubles with %.17g, so string
// equality of Serialize() output is bit identity.
#include "ml/feature_index.h"

#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/thresholds.h"
#include "eval/trainers.h"
#include "exec/executor.h"
#include "ml/bagging.h"
#include "ml/classifier.h"
#include "ml/decision_tree.h"
#include "ml/m5_tree.h"
#include "ml/regression_tree.h"
#include "ml/tree_growth.h"
#include "obs/metrics.h"
#include "roadgen/dataset_builder.h"
#include "roadgen/generator.h"
#include "util/rng.h"

namespace roadmine::ml {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Roadgen dataset with the CP-8 target plus the adversarial columns the
// index must handle: a constant numeric attribute, an all-missing numeric
// attribute, a numeric attribute with injected NaNs, and a single-level
// categorical attribute.
data::Dataset AugmentedRoadgenDataset(size_t segments, uint64_t seed) {
  roadgen::GeneratorConfig config;
  config.num_segments = segments;
  config.seed = seed;
  roadgen::RoadNetworkGenerator gen(config);
  auto generated = gen.Generate();
  EXPECT_TRUE(generated.ok());
  auto ds = roadgen::BuildCrashOnlyDataset(
      *generated, gen.SimulateCrashRecords(*generated));
  EXPECT_TRUE(ds.ok());
  EXPECT_TRUE(
      core::AddCrashProneTarget(*ds, roadgen::kSegmentCrashCountColumn, 8)
          .ok());

  util::Rng rng(seed * 31 + 7);
  const size_t n = ds->num_rows();
  std::vector<double> constant(n, 4.5);
  std::vector<double> all_missing(n, kNaN);
  std::vector<double> gappy;
  std::vector<std::string> one_level;
  gappy.reserve(n);
  one_level.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    gappy.push_back(rng.Bernoulli(0.2) ? kNaN : rng.Uniform(0.0, 100.0));
    one_level.push_back("sealed");
  }
  EXPECT_TRUE(
      ds->AddColumn(data::Column::Numeric("const_num", constant)).ok());
  EXPECT_TRUE(
      ds->AddColumn(data::Column::Numeric("all_missing", all_missing)).ok());
  EXPECT_TRUE(ds->AddColumn(data::Column::Numeric("gappy", gappy)).ok());
  EXPECT_TRUE(
      ds->AddColumn(
            data::Column::CategoricalFromStrings("one_level", one_level))
          .ok());
  return std::move(*ds);
}

std::vector<std::string> AugmentedFeatures() {
  std::vector<std::string> features = roadgen::RoadAttributeColumns();
  features.push_back("const_num");
  features.push_back("all_missing");
  features.push_back("gappy");
  features.push_back("one_level");
  return features;
}

DecisionTreeParams BaseTreeParams() {
  DecisionTreeParams params;
  params.min_samples_leaf = 10;
  params.min_samples_split = 20;
  params.max_leaves = 32;
  return params;
}

std::string FitSerialized(const data::Dataset& ds,
                          const std::vector<std::string>& features,
                          const std::vector<size_t>& rows,
                          DecisionTreeParams params) {
  DecisionTreeClassifier tree(params);
  EXPECT_TRUE(tree.Fit(ds, "crash_prone_gt8", features, rows).ok());
  return tree.Serialize();
}

// --- FeatureIndex::Build structural invariants --------------------------

TEST(FeatureIndexBuildTest, SortedOrderMissingSegregationAndConstants) {
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric(
                               "x", {3.0, kNaN, 1.0, 3.0, kNaN, 2.0, 3.0}))
                  .ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::CategoricalFromStrings(
                               "c", {"b", "a", "", "b", "a", "b", "a"}))
                  .ok());
  ASSERT_TRUE(
      ds.AddColumn(data::Column::Numeric("flat", std::vector<double>(7, 2.0)))
          .ok());
  auto index = FeatureIndex::Build(ds, {"x", "c", "flat"});
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->num_rows(), 7u);

  const FeatureIndex::NumericColumn* x = index->Numeric(0);
  ASSERT_NE(x, nullptr);
  // Dense value ranks per row (equal values share one); missing flagged.
  constexpr uint32_t kMissing = FeatureIndex::kMissingRank;
  EXPECT_EQ(x->rank,
            (std::vector<uint32_t>{2, kMissing, 0, 2, kMissing, 1, 2}));
  EXPECT_EQ(x->distinct, 3u);
  EXPECT_FALSE(x->constant);

  const FeatureIndex::CategoricalColumn* c = index->Categorical(1);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->missing_rows, (std::vector<uint32_t>{2}));
  EXPECT_EQ(c->populated_levels, 2u);
  EXPECT_FALSE(c->constant);
  // Every bucket ascends and holds rows of exactly its level.
  ASSERT_EQ(c->bucket_begin.size(),
            ds.column(1).category_count() + 1);
  for (size_t level = 0; level + 1 < c->bucket_begin.size(); ++level) {
    for (size_t i = c->bucket_begin[level]; i < c->bucket_begin[level + 1];
         ++i) {
      EXPECT_EQ(ds.column(1).CodeAt(c->bucket_rows[i]),
                static_cast<int32_t>(level));
      if (i > c->bucket_begin[level]) {
        EXPECT_LT(c->bucket_rows[i - 1], c->bucket_rows[i]);
      }
    }
  }

  const FeatureIndex::NumericColumn* flat = index->Numeric(2);
  ASSERT_NE(flat, nullptr);
  EXPECT_TRUE(flat->constant);

  // Coverage: indexed columns with matching types only.
  EXPECT_TRUE(index->Covers({{0, data::ColumnType::kNumeric, "x"}}));
  EXPECT_FALSE(index->Covers({{0, data::ColumnType::kCategorical, "x"}}));
  EXPECT_EQ(index->Numeric(1), nullptr);
  EXPECT_EQ(index->Categorical(0), nullptr);
}

TEST(FeatureIndexBuildTest, AllMissingAndSingleLevelColumnsAreConstant) {
  data::Dataset ds = AugmentedRoadgenDataset(120, 11);
  auto index = FeatureIndex::Build(ds, AugmentedFeatures());
  ASSERT_TRUE(index.ok());
  auto col = [&](const char* name) {
    auto c = ds.ColumnIndex(name);
    EXPECT_TRUE(c.ok());
    return *c;
  };
  EXPECT_TRUE(index->Numeric(col("const_num"))->constant);
  EXPECT_TRUE(index->Numeric(col("all_missing"))->constant);
  EXPECT_EQ(index->Numeric(col("all_missing"))->distinct, 0u);
  EXPECT_EQ(index->Numeric(col("all_missing"))->rank,
            std::vector<uint32_t>(ds.num_rows(), FeatureIndex::kMissingRank));
  EXPECT_TRUE(index->Categorical(col("one_level"))->constant);
  EXPECT_FALSE(index->Numeric(col("gappy"))->constant);
}

TEST(FeatureIndexBuildTest, ParallelBuildIsIdenticalToSerial) {
  data::Dataset ds = AugmentedRoadgenDataset(400, 23);
  const std::vector<std::string> features = AugmentedFeatures();
  auto serial = FeatureIndex::Build(ds, features);
  ASSERT_TRUE(serial.ok());
  exec::ThreadPool pool(4);
  auto parallel = FeatureIndex::Build(ds, features, &pool);
  ASSERT_TRUE(parallel.ok());
  for (size_t c = 0; c < ds.num_columns(); ++c) {
    const auto* sn = serial->Numeric(c);
    const auto* pn = parallel->Numeric(c);
    ASSERT_EQ(sn == nullptr, pn == nullptr);
    if (sn != nullptr) {
      EXPECT_EQ(sn->rank, pn->rank);
      EXPECT_EQ(sn->distinct, pn->distinct);
      EXPECT_EQ(sn->constant, pn->constant);
    }
    const auto* sc = serial->Categorical(c);
    const auto* pc = parallel->Categorical(c);
    ASSERT_EQ(sc == nullptr, pc == nullptr);
    if (sc != nullptr) {
      EXPECT_EQ(sc->bucket_rows, pc->bucket_rows);
      EXPECT_EQ(sc->bucket_begin, pc->bucket_begin);
      EXPECT_EQ(sc->missing_rows, pc->missing_rows);
    }
  }
}

// --- IndexedSplitWorkspace order -----------------------------------------

// The legacy path stable-sorts each node's gathered rows by value, so ties
// keep their position in the fit's rows and missing rows keep fit order;
// the workspace must list rows in exactly that order, not by row id.
TEST(IndexedSplitWorkspaceTest, TiesFollowFitPositionAndMissingRowsFitOrder) {
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric(
                               "x", {2.0, kNaN, 1.0, 2.0, kNaN, 2.0, 1.0}))
                  .ok());
  auto index = FeatureIndex::Build(ds, {"x"});
  ASSERT_TRUE(index.ok());
  const std::vector<FeatureRef> features = {
      {0, data::ColumnType::kNumeric, "x"}};
  // Shuffled; row 3 is listed twice (positions 2 and 6); missing row 4
  // comes before missing row 1.
  const std::vector<size_t> rows = {5, 4, 3, 0, 1, 6, 3, 2};
  auto listed = [](const uint32_t* begin, size_t count) {
    return std::vector<uint32_t>(begin, begin + count);
  };

  exec::ThreadPool pool(4);
  for (exec::Executor* executor : {static_cast<exec::Executor*>(nullptr),
                                   static_cast<exec::Executor*>(&pool)}) {
    IndexedSplitWorkspace workspace(*index, ds, features, rows, executor);
    const IndexedSplitWorkspace::NumericView root = workspace.NodeNumeric(0, 0);
    EXPECT_EQ(listed(root.rows, root.count),
              (std::vector<uint32_t>{6, 2, 5, 3, 0, 3}));
    EXPECT_EQ(std::vector<double>(root.values, root.values + root.count),
              (std::vector<double>{1.0, 1.0, 2.0, 2.0, 2.0, 2.0}));
    EXPECT_EQ(listed(root.missing_rows, root.missing_count),
              (std::vector<uint32_t>{4, 1}));

    // Splitting keeps that order inside each child.
    workspace.SplitNode(0, 1, 2, [](uint32_t r) { return r != 3 && r != 4; });
    const IndexedSplitWorkspace::NumericView left = workspace.NodeNumeric(1, 0);
    const IndexedSplitWorkspace::NumericView right =
        workspace.NodeNumeric(2, 0);
    EXPECT_EQ(listed(left.rows, left.count),
              (std::vector<uint32_t>{6, 2, 5, 0}));
    EXPECT_EQ(listed(left.missing_rows, left.missing_count),
              (std::vector<uint32_t>{1}));
    EXPECT_EQ(listed(right.rows, right.count), (std::vector<uint32_t>{3, 3}));
    EXPECT_EQ(listed(right.missing_rows, right.missing_count),
              (std::vector<uint32_t>{4}));
  }
}

// --- Decision tree bit identity: indexed vs legacy ----------------------

using BitIdentityConfig = std::tuple<SplitCriterion, uint64_t /*seed*/>;

class TreeBitIdentityTest : public ::testing::TestWithParam<BitIdentityConfig> {
};

TEST_P(TreeBitIdentityTest, IndexedEqualsLegacyOnRoadgenData) {
  const auto [criterion, seed] = GetParam();
  data::Dataset ds = AugmentedRoadgenDataset(700, seed);
  const std::vector<std::string> features = AugmentedFeatures();
  const std::vector<size_t> rows = ds.AllRowIndices();

  DecisionTreeParams params = BaseTreeParams();
  params.criterion = criterion;
  params.use_feature_index = false;
  const std::string legacy = FitSerialized(ds, features, rows, params);
  params.use_feature_index = true;
  const std::string indexed = FitSerialized(ds, features, rows, params);
  EXPECT_EQ(indexed, legacy);

  // Parallel split search must not perturb the choice either.
  exec::ThreadPool pool(4);
  params.executor = &pool;
  EXPECT_EQ(FitSerialized(ds, features, rows, params), legacy);
}

TEST_P(TreeBitIdentityTest, IndexedEqualsLegacyOnBootstrapRows) {
  const auto [criterion, seed] = GetParam();
  data::Dataset ds = AugmentedRoadgenDataset(500, seed + 100);
  const std::vector<std::string> features = AugmentedFeatures();

  // Bootstrap-style multiset: duplicates, shuffled, some rows absent.
  util::Rng rng(seed * 13 + 1);
  std::vector<size_t> rows;
  rows.reserve(ds.num_rows());
  for (size_t i = 0; i < ds.num_rows(); ++i) {
    rows.push_back(static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(ds.num_rows()) - 1)));
  }

  DecisionTreeParams params = BaseTreeParams();
  params.criterion = criterion;
  params.use_feature_index = false;
  const std::string legacy = FitSerialized(ds, features, rows, params);
  params.use_feature_index = true;
  EXPECT_EQ(FitSerialized(ds, features, rows, params), legacy);
}

INSTANTIATE_TEST_SUITE_P(
    CriteriaAndSeeds, TreeBitIdentityTest,
    ::testing::Combine(::testing::Values(SplitCriterion::kChiSquare,
                                         SplitCriterion::kGini,
                                         SplitCriterion::kEntropy),
                       ::testing::Values<uint64_t>(3, 17, 29)));

TEST(TreeBitIdentityTest, SharedPrebuiltIndexEqualsPrivateBuild) {
  data::Dataset ds = AugmentedRoadgenDataset(600, 41);
  const std::vector<std::string> features = AugmentedFeatures();
  const std::vector<size_t> rows = ds.AllRowIndices();
  auto shared = FeatureIndex::Build(ds, features);
  ASSERT_TRUE(shared.ok());

  DecisionTreeParams params = BaseTreeParams();
  const std::string privately_built = FitSerialized(ds, features, rows, params);
  params.feature_index = &*shared;
  EXPECT_EQ(FitSerialized(ds, features, rows, params), privately_built);
}

TEST(TreeBitIdentityTest, MismatchedSharedIndexIsRejected) {
  data::Dataset ds = AugmentedRoadgenDataset(300, 5);
  data::Dataset other = AugmentedRoadgenDataset(200, 5);
  const std::vector<std::string> features = AugmentedFeatures();
  auto stale = FeatureIndex::Build(other, features);
  ASSERT_TRUE(stale.ok());

  DecisionTreeParams params = BaseTreeParams();
  params.feature_index = &*stale;  // Built over a different row count.
  DecisionTreeClassifier tree(params);
  EXPECT_FALSE(
      tree.Fit(ds, "crash_prone_gt8", features, ds.AllRowIndices()).ok());
}

// --- Regression tree bit identity ---------------------------------------

TEST(RegressionBitIdentityTest, IndexedEqualsLegacyOnAscendingRows) {
  for (uint64_t seed : {7u, 19u}) {
    data::Dataset ds = AugmentedRoadgenDataset(700, seed);
    const std::vector<std::string> features = AugmentedFeatures();
    const std::vector<size_t> rows = ds.AllRowIndices();

    RegressionTreeParams params;
    params.min_samples_leaf = 10;
    params.min_samples_split = 20;
    params.max_leaves = 32;
    params.use_feature_index = false;
    RegressionTree legacy(params);
    ASSERT_TRUE(
        legacy.Fit(ds, roadgen::kSegmentCrashCountColumn, features, rows)
            .ok());
    params.use_feature_index = true;
    RegressionTree indexed(params);
    ASSERT_TRUE(
        indexed.Fit(ds, roadgen::kSegmentCrashCountColumn, features, rows)
            .ok());
    EXPECT_EQ(indexed.ToString(), legacy.ToString());
    for (size_t r = 0; r < ds.num_rows(); r += 17) {
      EXPECT_DOUBLE_EQ(indexed.Predict(ds, r), legacy.Predict(ds, r));
    }

    exec::ThreadPool pool(4);
    params.executor = &pool;
    RegressionTree parallel(params);
    ASSERT_TRUE(
        parallel.Fit(ds, roadgen::kSegmentCrashCountColumn, features, rows)
            .ok());
    EXPECT_EQ(parallel.ToString(), legacy.ToString());
  }
}

TEST(RegressionBitIdentityTest, NonAscendingRowsGrowOverTheIndexBitIdentically) {
  data::Dataset ds = AugmentedRoadgenDataset(400, 31);
  const std::vector<std::string> features = AugmentedFeatures();
  std::vector<size_t> rows = ds.AllRowIndices();
  util::Rng rng(9);
  rng.Shuffle(rows);
  ASSERT_FALSE(StrictlyAscending(rows));

  RegressionTreeParams params;
  params.min_samples_leaf = 10;
  params.min_samples_split = 20;
  params.max_leaves = 16;
  params.use_feature_index = false;
  RegressionTree legacy(params);
  ASSERT_TRUE(legacy.Fit(ds, roadgen::kSegmentCrashCountColumn, features, rows)
                  .ok());
  // Shuffled rows grow over a private index (one FeatureIndex build); the
  // result must not change.
  obs::LatencyHistogram& builds =
      obs::MetricsRegistry::Global().GetHistogram("ml.feature_index.build_ms");
  const size_t builds_before = builds.count();
  params.use_feature_index = true;
  RegressionTree indexed(params);
  ASSERT_TRUE(
      indexed.Fit(ds, roadgen::kSegmentCrashCountColumn, features, rows)
          .ok());
  EXPECT_EQ(builds.count(), builds_before + 1);
  EXPECT_EQ(indexed.ToString(), legacy.ToString());
}

// Roadgen data plus the columns that expose accumulation-order bugs,
// which integer targets hide because their sums are exact in any order:
//   * y_real: a real-valued target (crash count, level effect and uniform
//     noise), whose running sums round differently in different orders;
//   * levels: a five-value numeric feature with NaNs (many ties, many
//     missing rows);
//   * levels_mirror: -levels, which induces the same partitions scanned
//     from the other end, so its gains tie with levels' up to rounding.
data::Dataset OrderSensitiveDataset(size_t segments, uint64_t seed) {
  data::Dataset ds = AugmentedRoadgenDataset(segments, seed);
  const data::Column& count =
      *ds.ColumnByName(roadgen::kSegmentCrashCountColumn).value();
  util::Rng rng(seed * 7 + 3);
  std::vector<double> target, levels, mirror;
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    const double level = rng.Bernoulli(0.15)
                             ? kNaN
                             : static_cast<double>(rng.UniformInt(0, 4));
    levels.push_back(level);
    mirror.push_back(-level);
    target.push_back(0.5 * count.NumericAt(r) +
                     (std::isnan(level) ? 1.3 : 0.4 * level) +
                     rng.Uniform(0.0, 1.0));
  }
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("y_real", target)).ok());
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("levels", levels)).ok());
  EXPECT_TRUE(
      ds.AddColumn(data::Column::Numeric("levels_mirror", mirror)).ok());
  return ds;
}

std::vector<std::string> OrderSensitiveFeatures() {
  std::vector<std::string> features = AugmentedFeatures();
  features.push_back("levels");
  features.push_back("levels_mirror");
  return features;
}

// Serialized (%.17g) regression tree and M5 tree fitted on `rows`.
std::pair<std::string, std::string> FitRegressionSerialized(
    const data::Dataset& ds, const std::vector<size_t>& rows,
    bool use_feature_index, exec::Executor* executor) {
  RegressionTreeParams params;
  params.min_samples_leaf = 10;
  params.min_samples_split = 20;
  params.max_leaves = 32;
  params.use_feature_index = use_feature_index;
  params.executor = executor;
  const std::vector<std::string> features = OrderSensitiveFeatures();
  RegressionTree tree(params);
  EXPECT_TRUE(tree.Fit(ds, "y_real", features, rows).ok());
  M5Tree m5(M5TreeParams{.tree = params});
  EXPECT_TRUE(m5.Fit(ds, "y_real", features, rows).ok());
  return {tree.Serialize(), m5.Serialize()};
}

// Indexed vs legacy on one row list, serially and on 4 threads.
void ExpectIndexedEqualsLegacy(const data::Dataset& ds,
                               const std::vector<size_t>& rows) {
  const auto legacy = FitRegressionSerialized(ds, rows, false, nullptr);
  EXPECT_GT(legacy.first.size(), 0u);
  const auto serial = FitRegressionSerialized(ds, rows, true, nullptr);
  EXPECT_EQ(serial.first, legacy.first);
  EXPECT_EQ(serial.second, legacy.second);
  exec::ThreadPool pool(4);
  const auto parallel = FitRegressionSerialized(ds, rows, true, &pool);
  EXPECT_EQ(parallel.first, legacy.first);
  EXPECT_EQ(parallel.second, legacy.second);
}

TEST(RegressionBitIdentityTest, IndexedEqualsLegacyOnShuffledRows) {
  for (uint64_t seed : {7u, 19u}) {
    // Over 4,096 rows, so the 4-thread fit also scans the root in parallel.
    data::Dataset ds = OrderSensitiveDataset(6000, seed);
    ASSERT_GE(ds.num_rows(), 4096u);
    std::vector<size_t> rows = ds.AllRowIndices();
    util::Rng rng(seed + 1);
    rng.Shuffle(rows);
    ExpectIndexedEqualsLegacy(ds, rows);
  }
}

TEST(RegressionBitIdentityTest, IndexedEqualsLegacyOnBootstrapRows) {
  for (uint64_t seed : {7u, 19u}) {
    data::Dataset ds = OrderSensitiveDataset(6000, seed + 50);
    // Bootstrap multiset: duplicates, shuffled, some rows absent.
    util::Rng rng(seed * 13 + 1);
    std::vector<size_t> rows;
    rows.reserve(ds.num_rows());
    for (size_t i = 0; i < ds.num_rows(); ++i) {
      rows.push_back(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(ds.num_rows()) - 1)));
    }
    ExpectIndexedEqualsLegacy(ds, rows);
  }
}

TEST(StrictlyAscendingTest, DetectsOrderAndDuplicates) {
  EXPECT_TRUE(StrictlyAscending({}));
  EXPECT_TRUE(StrictlyAscending({4}));
  EXPECT_TRUE(StrictlyAscending({0, 1, 5, 9}));
  EXPECT_FALSE(StrictlyAscending({0, 1, 1, 2}));
  EXPECT_FALSE(StrictlyAscending({2, 1}));
}

// --- Bagged ensemble over one shared index ------------------------------

TEST(BaggingBitIdentityTest, IndexedEnsembleEqualsLegacy) {
  data::Dataset ds = AugmentedRoadgenDataset(500, 53);
  const std::vector<std::string> features = AugmentedFeatures();
  const std::vector<size_t> rows = ds.AllRowIndices();

  BaggedTreesParams params;
  params.num_trees = 8;
  params.tree = BaseTreeParams();
  params.tree.use_feature_index = false;
  BaggedTreesClassifier legacy(params);
  ASSERT_TRUE(legacy.Fit(ds, "crash_prone_gt8", features, rows).ok());

  params.tree.use_feature_index = true;  // One index shared by all members.
  BaggedTreesClassifier indexed(params);
  ASSERT_TRUE(indexed.Fit(ds, "crash_prone_gt8", features, rows).ok());

  EXPECT_EQ(indexed.total_leaves(), legacy.total_leaves());
  const std::vector<double> legacy_scores = *legacy.PredictBatch(ds, rows);
  const std::vector<double> indexed_scores = *indexed.PredictBatch(ds, rows);
  ASSERT_EQ(indexed_scores.size(), legacy_scores.size());
  for (size_t i = 0; i < legacy_scores.size(); ++i) {
    EXPECT_DOUBLE_EQ(indexed_scores[i], legacy_scores[i]);
  }
}

// --- Which fits read an index ------------------------------------------

size_t IndexBuilds() {
  return obs::MetricsRegistry::Global()
      .GetHistogram("ml.feature_index.build_ms")
      .count();
}

TEST(ReadsFeatureIndexTest, OnlyTheIndexedExactSearchReadsOne) {
  EXPECT_TRUE(ReadsFeatureIndex(/*use_feature_index=*/true,
                                /*use_histogram=*/false));
  EXPECT_FALSE(ReadsFeatureIndex(true, true));
  EXPECT_FALSE(ReadsFeatureIndex(false, false));
  EXPECT_FALSE(ReadsFeatureIndex(false, true));
}

// A histogram-mode ensemble shares no index: its members would not read
// one. An exact-mode ensemble builds exactly one for all its members.
TEST(ReadsFeatureIndexTest, HistogramBaggedFitBuildsNoIndex) {
  data::Dataset ds = AugmentedRoadgenDataset(300, 61);
  const std::vector<std::string> features = AugmentedFeatures();
  BaggedTreesParams params;
  params.num_trees = 3;
  params.tree = BaseTreeParams();
  params.tree.use_histogram = true;
  size_t before = IndexBuilds();
  ASSERT_TRUE(BaggedTreesClassifier(params)
                  .Fit(ds, "crash_prone_gt8", features, ds.AllRowIndices())
                  .ok());
  EXPECT_EQ(IndexBuilds(), before);

  params.tree.use_histogram = false;
  before = IndexBuilds();
  ASSERT_TRUE(BaggedTreesClassifier(params)
                  .Fit(ds, "crash_prone_gt8", features, ds.AllRowIndices())
                  .ok());
  EXPECT_EQ(IndexBuilds(), before + 1);
}

// The same rule holds for a CV trainer's folds.
TEST(ReadsFeatureIndexTest, HistogramCvFoldBuildsNoIndex) {
  data::Dataset ds = AugmentedRoadgenDataset(300, 67);
  const std::vector<std::string> features = AugmentedFeatures();
  for (const char* name : {"decision_tree", "bagged_trees"}) {
    SCOPED_TRACE(name);
    ClassifierSpec spec = Spec(name);
    spec.decision_tree.use_histogram = true;
    spec.bagged_trees.num_trees = 3;
    spec.bagged_trees.tree.use_histogram = true;
    const eval::BinaryTrainer trainer =
        eval::ClassifierTrainer(spec, "crash_prone_gt8", features);
    const size_t before = IndexBuilds();
    ASSERT_TRUE(trainer(ds, ds.AllRowIndices()).ok());
    EXPECT_EQ(IndexBuilds(), before);
  }
}

}  // namespace
}  // namespace roadmine::ml
