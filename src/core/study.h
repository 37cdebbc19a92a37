// The crash-proneness study driver: Phases 1 and 2 of the paper.
//
// For each CP-t threshold the driver (keeping the variable list constant,
// as the paper does):
//   1. derives the binary target from the segment crash count;
//   2. fits a regression tree on the target as an interval variable and
//      reports validation R-squared + leaf count;
//   3. fits a chi-square decision tree on the Boolean target and reports
//      NPV, PPV, misclassification, MCPV, Kappa + leaf count;
// trees use a stratified train/validation split (the paper's choice for
// raw model quality), supporting models use 10-fold cross-validation.
#ifndef ROADMINE_CORE_STUDY_H_
#define ROADMINE_CORE_STUDY_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "eval/binary_metrics.h"
#include "ml/decision_tree.h"
#include "ml/gradient_boosting.h"
#include "ml/regression_tree.h"
#include "util/status.h"

namespace roadmine::exec {
class Executor;
}  // namespace roadmine::exec

namespace roadmine::core {

struct StudyConfig {
  // CP thresholds to sweep. Phase 1 prepends 0 (crash vs no-crash).
  std::vector<int> thresholds = {2, 4, 8, 16, 32, 64};
  // Column holding the 4-year segment crash count.
  std::string count_column = "segment_crash_count";
  // Feature columns; empty = all road-attribute columns present in the
  // dataset (bookkeeping/targets excluded automatically).
  std::vector<std::string> feature_columns;
  double train_fraction = 0.67;
  size_t cv_folds = 10;
  // Tree sizing mirrors the paper's "suitable tree size" configuration
  // pass: a best-first leaf budget plus a leaf-population floor large
  // enough that single high-crash segments cannot be memorized.
  ml::DecisionTreeParams tree_params{.min_samples_leaf = 30,
                                     .max_leaves = 64};
  ml::RegressionTreeParams regression_params{.min_samples_leaf = 30,
                                             .max_leaves = 160};
  // Gradient-boosted trees ride the same sweep as the production-scale
  // comparison point (histogram-binned, shallow, subsampled). Each
  // threshold reseeds from a child stream, so leave `seed` here as the
  // base. The executor is NOT forwarded: sweep fits already occupy the
  // study executor, and nesting would not change the fitted model anyway.
  ml::GradientBoostedTreesParams gbt_params{.num_trees = 40,
                                            .max_depth = 4,
                                            .subsample = 0.8,
                                            .colsample = 0.8};
  uint64_t seed = 1234;
  // Optional parallelism (not owned, may be null = serial): the tree
  // sweep runs one task per (CP threshold, model) fit, longest first; the
  // other sweeps run one task per CP-threshold row, and their
  // per-threshold cross-validations fan their folds onto the same
  // executor. Every threshold draws its randomness from a child stream of
  // `seed` keyed by its position in `thresholds`, so sweep results are
  // bit-identical at any thread count.
  exec::Executor* executor = nullptr;
  // When non-empty, each sweep writes observability artifacts into this
  // directory (created if missing): a run manifest
  // (manifest_<sweep>.json with the seed, config echo, dataset shape and
  // host info) and, when tracing is compiled in, the collected spans as
  // trace_<sweep>.jsonl. Artifact failures are logged, not fatal — the
  // sweep result stands on its own.
  std::string artifact_dir;
};

// One Table-3/Table-4 row.
struct ThresholdModelResult {
  int threshold = 0;
  size_t non_crash_prone = 0;
  size_t crash_prone = 0;
  // Regression tree (interval target).
  double r_squared = 0.0;
  size_t regression_leaves = 0;
  // Decision tree (Boolean target), validation-set assessment.
  double negative_predictive_value = 0.0;
  double positive_predictive_value = 0.0;
  double misclassification_rate = 0.0;
  double mcpv = 0.0;
  double kappa = 0.0;
  size_t tree_leaves = 0;
  // Gradient-boosted trees (Boolean target), same validation split.
  double gbt_mcpv = 0.0;
  double gbt_kappa = 0.0;
  double gbt_auc = 0.0;
  size_t gbt_leaves = 0;
};

// One Table-5 row (naive Bayes under 10-fold CV).
struct BayesThresholdResult {
  int threshold = 0;
  double correctly_classified = 0.0;
  double negative_predictive_value = 0.0;
  double positive_predictive_value = 0.0;
  double weighted_precision = 0.0;
  double weighted_recall = 0.0;
  double roc_area = 0.0;
  double kappa = 0.0;
  double mcpv = 0.0;
};

// One supporting-models row (logistic / neural net / M5 trends).
struct SupportingModelResult {
  int threshold = 0;
  double logistic_mcpv = 0.0;
  double logistic_kappa = 0.0;
  double neural_net_mcpv = 0.0;
  double neural_net_kappa = 0.0;
  double m5_r_squared = 0.0;
};

class CrashPronenessStudy {
 public:
  explicit CrashPronenessStudy(StudyConfig config)
      : config_(std::move(config)) {}

  const StudyConfig& config() const { return config_; }

  // Tree sweep (Tables 3/4): pass the crash/no-crash dataset for Phase 1 or
  // the crash-only dataset for Phase 2. `dataset` gains the derived target
  // columns as a side effect.
  [[nodiscard]] util::Result<std::vector<ThresholdModelResult>> RunTreeSweep(
      data::Dataset& dataset) const;

  // Naive Bayes sweep under cross-validation (Table 5).
  [[nodiscard]] util::Result<std::vector<BayesThresholdResult>> RunBayesSweep(
      data::Dataset& dataset) const;

  // Logistic regression / neural net / M5 sweep (§4 "additional modeling").
  [[nodiscard]] util::Result<std::vector<SupportingModelResult>> RunSupportingSweep(
      data::Dataset& dataset) const;

  // The paper's selection rule: the best threshold is the one with the
  // highest model efficiency (MCPV) "near the crash/no crash boundary" —
  // ties within `tolerance` resolve toward the smaller threshold.
  // Thresholds whose minority class falls below `min_minority_share` of
  // the dataset (default 5%) are excluded as unreliable, encoding the
  // paper's caveat
  // that "the high classification rate at 64 crashes is due to the low
  // instance count and crashes referencing the same road segment". If
  // every row is excluded, the guard is dropped.
  static int SelectBestThreshold(
      const std::vector<ThresholdModelResult>& results,
      double tolerance = 0.01, double min_minority_share = 0.05);

 private:
  // Resolved feature list for `dataset` (config override or defaults).
  std::vector<std::string> FeaturesFor(const data::Dataset& dataset) const;

  // Emits manifest_<sweep>.json (+ trace_<sweep>.jsonl when tracing is
  // enabled) into config_.artifact_dir; no-op when artifact_dir is empty.
  void EmitSweepArtifacts(const std::string& sweep,
                          const data::Dataset& dataset,
                          size_t result_rows) const;

  StudyConfig config_;
};

}  // namespace roadmine::core

#endif  // ROADMINE_CORE_STUDY_H_
