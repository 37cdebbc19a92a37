#include "core/study.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/thresholds.h"
#include "data/split.h"
#include "eval/binary_metrics.h"
#include "eval/confusion.h"
#include "eval/regression_metrics.h"
#include "eval/roc.h"
#include "exec/executor.h"
#include "ml/feature_index.h"
#include "ml/gradient_boosting.h"
#include "ml/m5_tree.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "roadgen/dataset_builder.h"
#include "roadgen/generator.h"

namespace roadmine::core {
namespace {

// A small network keeps the sweep fast while preserving the structure.
data::Dataset SmallCrashOnlyDataset() {
  roadgen::GeneratorConfig config;
  config.num_segments = 3000;
  config.seed = 21;
  roadgen::RoadNetworkGenerator gen(config);
  auto segments = gen.Generate();
  EXPECT_TRUE(segments.ok());
  auto ds =
      roadgen::BuildCrashOnlyDataset(*segments, gen.SimulateCrashRecords(*segments));
  EXPECT_TRUE(ds.ok());
  return std::move(*ds);
}

StudyConfig FastConfig() {
  StudyConfig config;
  config.thresholds = {2, 8, 32};
  config.cv_folds = 3;
  config.tree_params.max_leaves = 24;
  config.regression_params.max_leaves = 24;
  config.seed = 5;
  return config;
}

TEST(CrashPronenessStudyTest, TreeSweepProducesWellFormedRows) {
  data::Dataset ds = SmallCrashOnlyDataset();
  CrashPronenessStudy study(FastConfig());
  auto results = study.RunTreeSweep(ds);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 3u);
  for (const ThresholdModelResult& row : *results) {
    EXPECT_GT(row.crash_prone + row.non_crash_prone, 0u);
    EXPECT_GE(row.mcpv, 0.0);
    EXPECT_LE(row.mcpv, 1.0);
    EXPECT_GE(row.misclassification_rate, 0.0);
    EXPECT_LE(row.misclassification_rate, 1.0);
    EXPECT_GE(row.tree_leaves, 1u);
    EXPECT_GE(row.regression_leaves, 1u);
    EXPECT_LE(row.r_squared, 1.0);
    EXPECT_GE(row.gbt_leaves, 1u);
    EXPECT_GE(row.gbt_mcpv, 0.0);
    EXPECT_LE(row.gbt_mcpv, 1.0);
    EXPECT_GE(row.gbt_kappa, -1.0);
    EXPECT_LE(row.gbt_kappa, 1.0);
    EXPECT_GE(row.gbt_auc, 0.0);
    EXPECT_LE(row.gbt_auc, 1.0);
  }
  // Class sizes must shrink as the threshold rises (Table 1's shape).
  EXPECT_GT((*results)[0].crash_prone, (*results)[1].crash_prone);
  EXPECT_GT((*results)[1].crash_prone, (*results)[2].crash_prone);
}

TEST(CrashPronenessStudyTest, TreeSweepAddsTargetColumns) {
  data::Dataset ds = SmallCrashOnlyDataset();
  CrashPronenessStudy study(FastConfig());
  ASSERT_TRUE(study.RunTreeSweep(ds).ok());
  EXPECT_TRUE(ds.HasColumn("crash_prone_gt2"));
  EXPECT_TRUE(ds.HasColumn("crash_prone_gt8"));
  EXPECT_TRUE(ds.HasColumn("crash_prone_gt32"));
}

TEST(CrashPronenessStudyTest, ModelsBeatChanceAtModerateThresholds) {
  data::Dataset ds = SmallCrashOnlyDataset();
  CrashPronenessStudy study(FastConfig());
  auto results = study.RunTreeSweep(ds);
  ASSERT_TRUE(results.ok());
  // At CP-8, attribute signal should give a clearly non-trivial model.
  const ThresholdModelResult& cp8 = (*results)[1];
  EXPECT_GT(cp8.mcpv, 0.6);
  EXPECT_GT(cp8.kappa, 0.3);
  EXPECT_GT(cp8.r_squared, 0.2);
  // The boosted ensemble should be at least competitive with the single
  // tree on the same split.
  EXPECT_GT(cp8.gbt_mcpv, 0.6);
  EXPECT_GT(cp8.gbt_auc, 0.7);
}

TEST(CrashPronenessStudyTest, BayesSweepWellFormed) {
  data::Dataset ds = SmallCrashOnlyDataset();
  CrashPronenessStudy study(FastConfig());
  auto results = study.RunBayesSweep(ds);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 3u);
  for (const BayesThresholdResult& row : *results) {
    EXPECT_GE(row.correctly_classified, 0.0);
    EXPECT_LE(row.correctly_classified, 1.0);
    EXPECT_GE(row.roc_area, 0.0);
    EXPECT_LE(row.roc_area, 1.0);
    EXPECT_GE(row.kappa, -1.0);
    EXPECT_LE(row.kappa, 1.0);
  }
  // The Bayes model should rank far better than chance at CP-8.
  EXPECT_GT((*results)[1].roc_area, 0.75);
}

TEST(CrashPronenessStudyTest, MissingCountColumnFails) {
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x", {1, 2, 3})).ok());
  CrashPronenessStudy study(FastConfig());
  EXPECT_FALSE(study.RunTreeSweep(ds).ok());
}

TEST(CrashPronenessStudyTest, ExplicitFeatureListRespected) {
  data::Dataset ds = SmallCrashOnlyDataset();
  StudyConfig config = FastConfig();
  config.thresholds = {8};
  config.feature_columns = {"f60", "aadt"};
  CrashPronenessStudy study(config);
  auto results = study.RunTreeSweep(ds);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 1u);
}

TEST(CrashPronenessStudyTest, SweepWritesManifestWithConfiguredSeed) {
  data::Dataset ds = SmallCrashOnlyDataset();
  StudyConfig config = FastConfig();
  config.artifact_dir = ::testing::TempDir() + "/roadmine_study_artifacts";
  CrashPronenessStudy study(config);
  ASSERT_TRUE(study.RunTreeSweep(ds).ok());

  const std::string path = config.artifact_dir + "/manifest_tree_sweep.json";
  auto manifest = obs::ReadFileToString(path);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_TRUE(obs::ValidateJson(*manifest).ok()) << *manifest;
  // The configured seed (FastConfig uses 5) must be echoed verbatim.
  EXPECT_NE(manifest->find("\"seed\": 5"), std::string::npos) << *manifest;
  EXPECT_NE(manifest->find("\"tool\": \"core.study.tree_sweep\""),
            std::string::npos);
  EXPECT_NE(manifest->find("\"thresholds\": \"2,8,32\""), std::string::npos);
#if ROADMINE_TRACE_ENABLED
  // When the collector is live, the sweep's spans land next to the
  // manifest.
  if (obs::TraceCollector::Global().enabled()) {
    EXPECT_TRUE(
        obs::ReadFileToString(config.artifact_dir + "/trace_tree_sweep.jsonl")
            .ok());
  }
#endif
}

// The sweeps' reference: both tree param sets on the per-node sort.
StudyConfig PerNodeSortConfig(StudyConfig config) {
  config.tree_params.use_feature_index = false;
  config.regression_params.use_feature_index = false;
  return config;
}

void ExpectSameRows(const std::vector<ThresholdModelResult>& got,
                    const std::vector<ThresholdModelResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i));
    EXPECT_EQ(got[i].threshold, want[i].threshold);
    EXPECT_EQ(got[i].non_crash_prone, want[i].non_crash_prone);
    EXPECT_EQ(got[i].crash_prone, want[i].crash_prone);
    EXPECT_EQ(got[i].r_squared, want[i].r_squared);
    EXPECT_EQ(got[i].regression_leaves, want[i].regression_leaves);
    EXPECT_EQ(got[i].negative_predictive_value,
              want[i].negative_predictive_value);
    EXPECT_EQ(got[i].positive_predictive_value,
              want[i].positive_predictive_value);
    EXPECT_EQ(got[i].misclassification_rate, want[i].misclassification_rate);
    EXPECT_EQ(got[i].mcpv, want[i].mcpv);
    EXPECT_EQ(got[i].kappa, want[i].kappa);
    EXPECT_EQ(got[i].tree_leaves, want[i].tree_leaves);
    EXPECT_EQ(got[i].gbt_mcpv, want[i].gbt_mcpv);
    EXPECT_EQ(got[i].gbt_kappa, want[i].gbt_kappa);
    EXPECT_EQ(got[i].gbt_auc, want[i].gbt_auc);
    EXPECT_EQ(got[i].gbt_leaves, want[i].gbt_leaves);
  }
}

void ExpectSameRows(const std::vector<SupportingModelResult>& got,
                    const std::vector<SupportingModelResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i));
    EXPECT_EQ(got[i].threshold, want[i].threshold);
    EXPECT_EQ(got[i].logistic_mcpv, want[i].logistic_mcpv);
    EXPECT_EQ(got[i].logistic_kappa, want[i].logistic_kappa);
    EXPECT_EQ(got[i].neural_net_mcpv, want[i].neural_net_mcpv);
    EXPECT_EQ(got[i].neural_net_kappa, want[i].neural_net_kappa);
    EXPECT_EQ(got[i].m5_r_squared, want[i].m5_r_squared);
  }
}

size_t FeatureIndexBuilds() {
  return obs::MetricsRegistry::Global()
      .GetHistogram("ml.feature_index.build_ms")
      .count();
}

// Every tree of a sweep grows over one shared FeatureIndex on the
// (shuffled) train rows; every field must equal the per-node-sort sweep's,
// serially and on a 4-worker pool.
TEST(CrashPronenessStudyTest, TreeSweepOverOneSharedIndexEqualsPerNodeSort) {
  data::Dataset ds = SmallCrashOnlyDataset();
  exec::ThreadPool pool(4);
  for (exec::Executor* executor : {static_cast<exec::Executor*>(nullptr),
                                   static_cast<exec::Executor*>(&pool)}) {
    StudyConfig config = FastConfig();
    config.executor = executor;
    auto want = CrashPronenessStudy(PerNodeSortConfig(config)).RunTreeSweep(ds);
    ASSERT_TRUE(want.ok());
    const size_t builds_before = FeatureIndexBuilds();
    auto got = CrashPronenessStudy(config).RunTreeSweep(ds);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(FeatureIndexBuilds(), builds_before + 1);
    ExpectSameRows(*got, *want);
  }
}

// The sweep bins each GBT fit's train rows from the value ranks of its
// shared FeatureIndex; every GBT field must equal a plain Fit's on the same
// split and seed, which bins its train rows itself.
TEST(CrashPronenessStudyTest, TreeSweepGbtRowsEqualPlainFits) {
  data::Dataset ds = SmallCrashOnlyDataset();
  exec::ThreadPool pool(4);
  StudyConfig config = FastConfig();
  config.executor = &pool;
  auto got = CrashPronenessStudy(config).RunTreeSweep(ds);
  ASSERT_TRUE(got.ok());

  std::vector<std::string> features;
  for (const std::string& name : roadgen::RoadAttributeColumns()) {
    if (ds.HasColumn(name)) features.push_back(name);
  }
  for (size_t i = 0; i < config.thresholds.size(); ++i) {
    const std::string target = ThresholdTargetName(config.thresholds[i]);
    SCOPED_TRACE(target);
    util::Rng split_rng(util::Rng::SplitSeed(config.seed, i));
    auto split = data::StratifiedTrainValidationSplit(
        ds, target, config.train_fraction, split_rng);
    ASSERT_TRUE(split.ok());
    ml::GradientBoostedTreesParams params = config.gbt_params;
    params.seed = util::Rng::SplitSeed(config.seed ^ params.seed, i);
    ml::GradientBoostedTrees gbt(params);
    ASSERT_TRUE(gbt.Fit(ds, target, features, split->train).ok());
    auto probs = gbt.PredictBatch(ds, split->validation);
    ASSERT_TRUE(probs.ok());
    auto labels = ml::ExtractBinaryLabels(ds, target);
    ASSERT_TRUE(labels.ok());
    eval::ConfusionMatrix cm;
    std::vector<int> validation_labels;
    for (size_t j = 0; j < split->validation.size(); ++j) {
      const int label = (*labels)[split->validation[j]];
      validation_labels.push_back(label);
      cm.Add(label != 0, (*probs)[j] >= 0.5);
    }
    const eval::BinaryAssessment assessment = eval::Assess(cm);
    auto auc = eval::RocAuc(*probs, validation_labels);
    ASSERT_TRUE(auc.ok());
    const ThresholdModelResult& row = (*got)[i];
    ASSERT_GT(row.gbt_leaves, 0u);
    EXPECT_EQ(row.gbt_mcpv, assessment.mcpv);
    EXPECT_EQ(row.gbt_kappa, assessment.kappa);
    EXPECT_EQ(row.gbt_auc, *auc);
    EXPECT_EQ(row.gbt_leaves, gbt.total_leaves());
  }
}

// The supporting sweep must also equal its per-node-sort twin, serially
// and on a 4-worker pool. Its M5 trees use M5Tree's default params, not
// the config's tree params, and grow over a private index; so their R^2
// is also checked against M5 on the per-node sort, fitted here on the
// sweep's split.
TEST(CrashPronenessStudyTest, SupportingSweepEqualsPerNodeSort) {
  data::Dataset ds = SmallCrashOnlyDataset();
  StudyConfig config = FastConfig();
  config.thresholds = {2, 8};
  exec::ThreadPool pool(4);
  std::vector<SupportingModelResult> serial;
  for (exec::Executor* executor : {static_cast<exec::Executor*>(nullptr),
                                   static_cast<exec::Executor*>(&pool)}) {
    config.executor = executor;
    auto want =
        CrashPronenessStudy(PerNodeSortConfig(config)).RunSupportingSweep(ds);
    ASSERT_TRUE(want.ok());
    auto got = CrashPronenessStudy(config).RunSupportingSweep(ds);
    ASSERT_TRUE(got.ok());
    ExpectSameRows(*got, *want);
    if (executor == nullptr) serial = *got;
  }

  std::vector<std::string> features;
  for (const std::string& name : roadgen::RoadAttributeColumns()) {
    if (ds.HasColumn(name)) features.push_back(name);
  }
  for (size_t i = 0; i < config.thresholds.size(); ++i) {
    const std::string target = ThresholdTargetName(config.thresholds[i]);
    util::Rng split_rng(util::Rng::SplitSeed(config.seed ^ 0xabcdefULL, i));
    auto split = data::StratifiedTrainValidationSplit(
        ds, target, config.train_fraction, split_rng);
    ASSERT_TRUE(split.ok());
    ml::M5TreeParams params;
    params.tree.use_feature_index = false;
    ml::M5Tree m5(params);
    ASSERT_TRUE(m5.Fit(ds, target, features, split->train).ok());
    auto labels = ml::ExtractNumericTarget(ds, target);
    ASSERT_TRUE(labels.ok());
    std::vector<double> actuals;
    for (size_t r : split->validation) actuals.push_back((*labels)[r]);
    auto predictions = m5.PredictBatch(ds, split->validation);
    ASSERT_TRUE(predictions.ok());
    auto r2 = eval::RSquared(*predictions, actuals);
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(serial[i].m5_r_squared, *r2) << target;
  }
}

// An index the caller put in either param set is used as given: the sweep
// builds none, and a stale one (another dataset's) fails the sweep.
TEST(CrashPronenessStudyTest, TreeSweepUsesCallerProvidedIndex) {
  data::Dataset ds = SmallCrashOnlyDataset();
  std::vector<std::string> features;
  for (const std::string& name : roadgen::RoadAttributeColumns()) {
    if (ds.HasColumn(name)) features.push_back(name);
  }
  auto index = ml::FeatureIndex::Build(ds, features);
  ASSERT_TRUE(index.ok());
  StudyConfig config = FastConfig();
  auto want = CrashPronenessStudy(config).RunTreeSweep(ds);
  ASSERT_TRUE(want.ok());

  config.tree_params.feature_index = &*index;
  config.regression_params.feature_index = &*index;
  const size_t builds_before = FeatureIndexBuilds();
  auto got = CrashPronenessStudy(config).RunTreeSweep(ds);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(FeatureIndexBuilds(), builds_before);
  ExpectSameRows(*got, *want);

  data::Dataset other;
  ASSERT_TRUE(other.AddColumn(data::Column::Numeric("f60", {0.3, 0.5})).ok());
  auto stale = ml::FeatureIndex::Build(other, {"f60"});
  ASSERT_TRUE(stale.ok());
  for (int which = 0; which < 2; ++which) {
    StudyConfig stale_config = FastConfig();
    if (which == 0) stale_config.tree_params.feature_index = &*stale;
    if (which == 1) stale_config.regression_params.feature_index = &*stale;
    EXPECT_FALSE(CrashPronenessStudy(stale_config).RunTreeSweep(ds).ok())
        << which;
  }
}

TEST(SelectBestThresholdTest, PicksPeakMcpv) {
  std::vector<ThresholdModelResult> results(3);
  results[0].threshold = 2;
  results[0].mcpv = 0.70;
  results[1].threshold = 8;
  results[1].mcpv = 0.90;
  results[2].threshold = 32;
  results[2].mcpv = 0.60;
  EXPECT_EQ(CrashPronenessStudy::SelectBestThreshold(results), 8);
}

TEST(SelectBestThresholdTest, NearTieResolvesTowardZeroBoundary) {
  // The paper's rule: prefer the threshold "near the crash/no crash
  // boundary" when efficiencies are comparable.
  std::vector<ThresholdModelResult> results(3);
  results[0].threshold = 4;
  results[0].mcpv = 0.895;
  results[1].threshold = 8;
  results[1].mcpv = 0.900;
  results[2].threshold = 64;
  results[2].mcpv = 0.40;
  EXPECT_EQ(CrashPronenessStudy::SelectBestThreshold(results, 0.01), 4);
}

TEST(SelectBestThresholdTest, UnorderedInputHandled) {
  std::vector<ThresholdModelResult> results(2);
  results[0].threshold = 32;
  results[0].mcpv = 0.5;
  results[1].threshold = 4;
  results[1].mcpv = 0.9;
  EXPECT_EQ(CrashPronenessStudy::SelectBestThreshold(results), 4);
}

TEST(SelectBestThresholdTest, EmptyInputGivesZero) {
  EXPECT_EQ(CrashPronenessStudy::SelectBestThreshold({}), 0);
}

}  // namespace
}  // namespace roadmine::core
