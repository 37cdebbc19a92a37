// The exec layer's non-negotiable invariant, asserted end to end:
// results are BIT-identical between serial execution and any thread
// count, for every hot path wired through an Executor — cross-validation
// folds, study sweep rows, bagged ensembles, and roadgen synthesis.
#include <gtest/gtest.h>

#include <cstring>

#include "core/study.h"
#include "core/thresholds.h"
#include "data/dataset.h"
#include "eval/cross_validation.h"
#include "eval/trainers.h"
#include "exec/executor.h"
#include "ml/bagging.h"
#include "ml/classifier.h"
#include "roadgen/dataset_builder.h"
#include "roadgen/generator.h"
#include "util/rng.h"

namespace roadmine {
namespace {

// Thread counts every invariant is checked at (beyond serial).
const size_t kThreadCounts[] = {1, 2, 8};

// Chunk grains the CV/study/bagging invariants are additionally swept
// at: per-index, an uneven prime, and effectively-one-chunk. The serial
// baseline always runs at the default (auto) grain, so every comparison
// also crosses a boundary-layout change.
const size_t kGrainSweep[] = {1, 7, 1u << 30};

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Bit-exact dataset equality, NaN-safe (NaN encodes missing values).
void ExpectDatasetsIdentical(const data::Dataset& a, const data::Dataset& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const data::Column& ca = a.column(c);
    const data::Column& cb = b.column(c);
    ASSERT_EQ(ca.name(), cb.name());
    ASSERT_EQ(ca.type(), cb.type());
    if (ca.type() == data::ColumnType::kNumeric) {
      const auto& va = ca.numeric_values();
      const auto& vb = cb.numeric_values();
      ASSERT_EQ(va.size(), vb.size());
      for (size_t i = 0; i < va.size(); ++i) {
        ASSERT_EQ(Bits(va[i]), Bits(vb[i]))
            << "column " << ca.name() << " row " << i;
      }
    } else {
      ASSERT_EQ(ca.codes(), cb.codes()) << "column " << ca.name();
    }
  }
}

roadgen::GeneratorConfig SmallNetworkConfig(exec::Executor* executor) {
  roadgen::GeneratorConfig config;
  config.num_segments = 1500;
  config.seed = 404;
  config.executor = executor;
  return config;
}

data::Dataset BuildCrashOnly(exec::Executor* executor) {
  roadgen::RoadNetworkGenerator gen(SmallNetworkConfig(executor));
  auto segments = gen.Generate();
  EXPECT_TRUE(segments.ok());
  const auto records = gen.SimulateCrashRecords(*segments);
  auto dataset = roadgen::BuildCrashOnlyDataset(*segments, records, {},
                                                executor);
  EXPECT_TRUE(dataset.ok());
  return std::move(*dataset);
}

TEST(ExecEquivalenceTest, RoadgenPipelineBitIdentical) {
  roadgen::RoadNetworkGenerator serial_gen(SmallNetworkConfig(nullptr));
  auto serial_segments = serial_gen.Generate();
  ASSERT_TRUE(serial_segments.ok());
  const auto serial_records =
      serial_gen.SimulateCrashRecords(*serial_segments);
  auto serial_crash_only = roadgen::BuildCrashOnlyDataset(
      *serial_segments, serial_records);
  auto serial_both = roadgen::BuildCrashNoCrashDataset(
      *serial_segments, serial_records);
  ASSERT_TRUE(serial_crash_only.ok());
  ASSERT_TRUE(serial_both.ok());

  for (size_t grain : kGrainSweep) {
    SCOPED_TRACE("grain=" + std::to_string(grain));
    exec::ScopedGrainForTesting scoped_grain(grain);
    for (size_t threads : kThreadCounts) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      exec::ThreadPool pool(threads);
      roadgen::RoadNetworkGenerator gen(SmallNetworkConfig(&pool));
      auto segments = gen.Generate();
      ASSERT_TRUE(segments.ok());
      const auto records = gen.SimulateCrashRecords(*segments);
      ASSERT_EQ(records.size(), serial_records.size());
      auto crash_only =
          roadgen::BuildCrashOnlyDataset(*segments, records, {}, &pool);
      auto both =
          roadgen::BuildCrashNoCrashDataset(*segments, records, {}, &pool);
      ASSERT_TRUE(crash_only.ok());
      ASSERT_TRUE(both.ok());
      ExpectDatasetsIdentical(*serial_crash_only, *crash_only);
      ExpectDatasetsIdentical(*serial_both, *both);
    }
  }
}

eval::CrossValidationResult RunCv(const data::Dataset& dataset,
                                  exec::Executor* executor) {
  const eval::BinaryTrainer trainer = eval::ClassifierTrainer(
      ml::Spec("naive_bayes"), core::ThresholdTargetName(4),
      roadgen::RoadAttributeColumns());
  eval::CrossValidationOptions options;
  options.folds = 5;
  options.seed = 19;
  options.executor = executor;
  auto cv = eval::CrossValidateBinary(dataset, core::ThresholdTargetName(4),
                                      trainer, options);
  EXPECT_TRUE(cv.ok());
  return *cv;
}

TEST(ExecEquivalenceTest, CrossValidationBitIdentical) {
  data::Dataset dataset = BuildCrashOnly(nullptr);
  ASSERT_TRUE(core::AddCrashProneTarget(
                  dataset, roadgen::kSegmentCrashCountColumn, 4)
                  .ok());

  const eval::CrossValidationResult serial = RunCv(dataset, nullptr);
  auto expect_matches_serial = [&](const eval::CrossValidationResult& other) {
    EXPECT_EQ(serial.pooled_confusion.true_positive,
              other.pooled_confusion.true_positive);
    EXPECT_EQ(serial.pooled_confusion.false_positive,
              other.pooled_confusion.false_positive);
    EXPECT_EQ(serial.pooled_confusion.true_negative,
              other.pooled_confusion.true_negative);
    EXPECT_EQ(serial.pooled_confusion.false_negative,
              other.pooled_confusion.false_negative);
    EXPECT_EQ(Bits(serial.auc), Bits(other.auc));
    EXPECT_EQ(Bits(serial.assessment.mcpv), Bits(other.assessment.mcpv));
    EXPECT_EQ(Bits(serial.assessment.kappa), Bits(other.assessment.kappa));
    ASSERT_EQ(serial.per_fold.size(), other.per_fold.size());
    for (size_t f = 0; f < serial.per_fold.size(); ++f) {
      EXPECT_EQ(Bits(serial.per_fold[f].accuracy),
                Bits(other.per_fold[f].accuracy));
      EXPECT_EQ(Bits(serial.per_fold[f].mcpv), Bits(other.per_fold[f].mcpv));
    }
  };

  for (size_t grain : kGrainSweep) {
    SCOPED_TRACE("grain=" + std::to_string(grain));
    exec::ScopedGrainForTesting scoped_grain(grain);
    expect_matches_serial(RunCv(dataset, nullptr));
    for (size_t threads : kThreadCounts) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      exec::ThreadPool pool(threads);
      expect_matches_serial(RunCv(dataset, &pool));
    }
  }
}

core::StudyConfig SmallStudyConfig(exec::Executor* executor) {
  core::StudyConfig config;
  config.thresholds = {2, 4, 8};
  config.cv_folds = 3;
  config.tree_params.max_leaves = 16;
  config.regression_params.max_leaves = 16;
  config.seed = 55;
  config.executor = executor;
  return config;
}

TEST(ExecEquivalenceTest, TreeSweepRowsBitIdentical) {
  data::Dataset dataset = BuildCrashOnly(nullptr);
  core::CrashPronenessStudy serial_study(SmallStudyConfig(nullptr));
  auto serial = serial_study.RunTreeSweep(dataset);
  ASSERT_TRUE(serial.ok());

  for (size_t grain : kGrainSweep) {
    SCOPED_TRACE("grain=" + std::to_string(grain));
    exec::ScopedGrainForTesting scoped_grain(grain);
    for (size_t threads : kThreadCounts) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      exec::ThreadPool pool(threads);
      core::CrashPronenessStudy study(SmallStudyConfig(&pool));
      auto parallel = study.RunTreeSweep(dataset);
      ASSERT_TRUE(parallel.ok());
      ASSERT_EQ(serial->size(), parallel->size());
      for (size_t i = 0; i < serial->size(); ++i) {
        const auto& s = (*serial)[i];
        const auto& p = (*parallel)[i];
        EXPECT_EQ(s.threshold, p.threshold);
        EXPECT_EQ(s.non_crash_prone, p.non_crash_prone);
        EXPECT_EQ(s.crash_prone, p.crash_prone);
        EXPECT_EQ(Bits(s.r_squared), Bits(p.r_squared));
        EXPECT_EQ(s.regression_leaves, p.regression_leaves);
        EXPECT_EQ(Bits(s.negative_predictive_value),
                  Bits(p.negative_predictive_value));
        EXPECT_EQ(Bits(s.positive_predictive_value),
                  Bits(p.positive_predictive_value));
        EXPECT_EQ(Bits(s.misclassification_rate),
                  Bits(p.misclassification_rate));
        EXPECT_EQ(Bits(s.mcpv), Bits(p.mcpv));
        EXPECT_EQ(Bits(s.kappa), Bits(p.kappa));
        EXPECT_EQ(s.tree_leaves, p.tree_leaves);
        EXPECT_EQ(Bits(s.gbt_mcpv), Bits(p.gbt_mcpv));
        EXPECT_EQ(Bits(s.gbt_kappa), Bits(p.gbt_kappa));
        EXPECT_EQ(Bits(s.gbt_auc), Bits(p.gbt_auc));
        EXPECT_EQ(s.gbt_leaves, p.gbt_leaves);
      }
    }
  }
}

TEST(ExecEquivalenceTest, BayesSweepRowsBitIdentical) {
  data::Dataset dataset = BuildCrashOnly(nullptr);
  core::CrashPronenessStudy serial_study(SmallStudyConfig(nullptr));
  auto serial = serial_study.RunBayesSweep(dataset);
  ASSERT_TRUE(serial.ok());

  for (size_t threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    exec::ThreadPool pool(threads);
    core::CrashPronenessStudy study(SmallStudyConfig(&pool));
    auto parallel = study.RunBayesSweep(dataset);
    ASSERT_TRUE(parallel.ok());
    ASSERT_EQ(serial->size(), parallel->size());
    for (size_t i = 0; i < serial->size(); ++i) {
      const auto& s = (*serial)[i];
      const auto& p = (*parallel)[i];
      EXPECT_EQ(s.threshold, p.threshold);
      EXPECT_EQ(Bits(s.correctly_classified), Bits(p.correctly_classified));
      EXPECT_EQ(Bits(s.roc_area), Bits(p.roc_area));
      EXPECT_EQ(Bits(s.kappa), Bits(p.kappa));
      EXPECT_EQ(Bits(s.mcpv), Bits(p.mcpv));
    }
  }
}

TEST(ExecEquivalenceTest, BaggedEnsembleBitIdentical) {
  data::Dataset dataset = BuildCrashOnly(nullptr);
  ASSERT_TRUE(core::AddCrashProneTarget(
                  dataset, roadgen::kSegmentCrashCountColumn, 4)
                  .ok());
  const std::string target = core::ThresholdTargetName(4);
  const std::vector<size_t> rows = dataset.AllRowIndices();

  ml::BaggedTreesParams params;
  params.num_trees = 8;
  params.tree.max_leaves = 16;
  params.feature_fraction = 0.6;
  ml::BaggedTreesClassifier serial_model(params);
  ASSERT_TRUE(serial_model
                  .Fit(dataset, target, roadgen::RoadAttributeColumns(), rows)
                  .ok());
  const std::vector<double> serial_probs =
      *serial_model.PredictBatch(dataset, rows);

  for (size_t grain : kGrainSweep) {
    SCOPED_TRACE("grain=" + std::to_string(grain));
    exec::ScopedGrainForTesting scoped_grain(grain);
    for (size_t threads : kThreadCounts) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      exec::ThreadPool pool(threads);
      params.executor = &pool;
      ml::BaggedTreesClassifier model(params);
      ASSERT_TRUE(
          model.Fit(dataset, target, roadgen::RoadAttributeColumns(), rows)
              .ok());
      const std::vector<double> probs = *model.PredictBatch(dataset, rows);
      ASSERT_EQ(serial_probs.size(), probs.size());
      for (size_t i = 0; i < probs.size(); ++i) {
        ASSERT_EQ(Bits(serial_probs[i]), Bits(probs[i])) << "row " << i;
      }
    }
  }
}

}  // namespace
}  // namespace roadmine
