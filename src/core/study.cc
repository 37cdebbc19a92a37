#include "core/study.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "core/thresholds.h"
#include "data/split.h"
#include "exec/executor.h"
#include "obs/logging.h"
#include "obs/run_manifest.h"
#include "obs/trace.h"
#include "eval/confusion.h"
#include "eval/cross_validation.h"
#include "eval/regression_metrics.h"
#include "eval/roc.h"
#include "eval/trainers.h"
#include "ml/classifier.h"
#include "ml/common.h"
#include "ml/feature_index.h"
#include "ml/histogram_index.h"
#include "ml/m5_tree.h"
#include "ml/tree_growth.h"
#include "roadgen/dataset_builder.h"

namespace roadmine::core {

using util::Result;

namespace {

// Serial pre-pass shared by the sweeps: derives every CP-t target column
// (a dataset mutation, so it cannot run concurrently) and tallies class
// sizes. After this, each threshold's modeling task only reads the
// dataset and can run on any executor thread.
Result<std::vector<ThresholdClassCounts>> PrepareTargets(
    data::Dataset& dataset, const StudyConfig& config) {
  std::vector<ThresholdClassCounts> counts;
  counts.reserve(config.thresholds.size());
  for (int threshold : config.thresholds) {
    ROADMINE_RETURN_IF_ERROR(
        AddCrashProneTarget(dataset, config.count_column, threshold));
    auto c = CountThresholdClasses(dataset, config.count_column, threshold);
    if (!c.ok()) return c.status();
    counts.push_back(*c);
  }
  return counts;
}

// The tree sweep's fits, in the order its batch runs them: longest first.
enum class TreeSweepLearner { kGbt, kRegressionTree, kDecisionTree };
constexpr size_t kTreeSweepLearners = 3;
constexpr const char* kTreeSweepLearnerNames[kTreeSweepLearners] = {
    "gbt", "regression_tree", "decision_tree"};

// Regression tree on the target as an interval variable: validation R^2
// and leaf count.
util::Status FitRegressionRow(const data::Dataset& dataset,
                              const std::string& target,
                              const std::vector<std::string>& features,
                              const data::TrainValidationIndices& split,
                              const ml::RegressionTreeParams& params,
                              ThresholdModelResult* row) {
  ml::RegressionTree tree(params);
  ROADMINE_RETURN_IF_ERROR(tree.Fit(dataset, target, features, split.train));
  auto labels = ml::ExtractNumericTarget(dataset, target);
  if (!labels.ok()) return labels.status();
  std::vector<double> actuals;
  actuals.reserve(split.validation.size());
  for (size_t r : split.validation) actuals.push_back((*labels)[r]);
  auto predictions = tree.PredictBatch(dataset, split.validation);
  if (!predictions.ok()) return predictions.status();
  auto r2 = eval::RSquared(*predictions, actuals);
  row->r_squared = r2.ok() ? *r2 : 0.0;
  row->regression_leaves = tree.leaf_count();
  return util::Status::Ok();
}

// Chi-square decision tree on the Boolean target: validation assessment
// and leaf count.
util::Status FitDecisionRow(const data::Dataset& dataset,
                            const std::string& target,
                            const std::vector<std::string>& features,
                            const data::TrainValidationIndices& split,
                            const ml::DecisionTreeParams& params,
                            ThresholdModelResult* row) {
  ml::DecisionTreeClassifier tree(params);
  ROADMINE_RETURN_IF_ERROR(tree.Fit(dataset, target, features, split.train));
  auto labels = ml::ExtractBinaryLabels(dataset, target);
  if (!labels.ok()) return labels.status();
  eval::ConfusionMatrix cm;
  for (size_t r : split.validation) {
    cm.Add((*labels)[r] != 0, tree.Predict(dataset, r) != 0);
  }
  const eval::BinaryAssessment assessment = eval::Assess(cm);
  row->negative_predictive_value = assessment.negative_predictive_value;
  row->positive_predictive_value = assessment.positive_predictive_value;
  row->misclassification_rate = assessment.misclassification_rate;
  row->mcpv = assessment.mcpv;
  row->kappa = assessment.kappa;
  row->tree_leaves = tree.leaf_count();
  return util::Status::Ok();
}

// Gradient-boosted trees on the same Boolean target and split: the
// production-scale comparison row next to the paper's single tree. Unless
// `params` already carries bins, the train rows are binned here, from
// `ranks` when the sweep holds a FeatureIndex.
util::Status FitGbtRow(const data::Dataset& dataset, const std::string& target,
                       const std::vector<std::string>& features,
                       const data::TrainValidationIndices& split,
                       ml::GradientBoostedTreesParams params,
                       const ml::FeatureIndex* ranks,
                       ThresholdModelResult* row) {
  std::optional<ml::HistogramIndex> bins;
  if (params.histogram_index == nullptr) {
    auto refs = ml::ResolveFeatures(dataset, features, target);
    if (!refs.ok()) return refs.status();
    auto built = ml::HistogramIndex::Build(dataset, *refs, split.train,
                                           {.max_bins = params.max_bins},
                                           params.executor, ranks);
    if (!built.ok()) return built.status();
    params.histogram_index = &bins.emplace(std::move(*built));
  }
  ml::GradientBoostedTrees gbt(params);
  ROADMINE_RETURN_IF_ERROR(gbt.Fit(dataset, target, features, split.train));
  auto labels = ml::ExtractBinaryLabels(dataset, target);
  if (!labels.ok()) return labels.status();
  auto probs = gbt.PredictBatch(dataset, split.validation);
  if (!probs.ok()) return probs.status();
  eval::ConfusionMatrix cm;
  std::vector<int> validation_labels;
  validation_labels.reserve(split.validation.size());
  for (size_t j = 0; j < split.validation.size(); ++j) {
    const int label = (*labels)[split.validation[j]];
    validation_labels.push_back(label);
    cm.Add(label != 0, (*probs)[j] >= 0.5);
  }
  const eval::BinaryAssessment assessment = eval::Assess(cm);
  row->gbt_mcpv = assessment.mcpv;
  row->gbt_kappa = assessment.kappa;
  auto auc = eval::RocAuc(*probs, validation_labels);
  row->gbt_auc = auc.ok() ? *auc : 0.0;
  row->gbt_leaves = gbt.total_leaves();
  return util::Status::Ok();
}

}  // namespace

std::vector<std::string> CrashPronenessStudy::FeaturesFor(
    const data::Dataset& dataset) const {
  if (!config_.feature_columns.empty()) return config_.feature_columns;
  // Default: every road-attribute column that exists in this dataset.
  std::vector<std::string> features;
  for (const std::string& name : roadgen::RoadAttributeColumns()) {
    if (dataset.HasColumn(name)) features.push_back(name);
  }
  return features;
}

Result<std::vector<ThresholdModelResult>> CrashPronenessStudy::RunTreeSweep(
    data::Dataset& dataset) const {
  const std::vector<std::string> features = FeaturesFor(dataset);
  if (features.empty()) {
    return util::InvalidArgumentError("no feature columns available");
  }

  auto counts = PrepareTargets(dataset, config_);
  if (!counts.ok()) return counts.status();

  // One FeatureIndex for the whole sweep: only target columns change
  // between thresholds, so every threshold's regression and decision tree
  // grows over it, and every GBT fit bins its train rows from its value
  // ranks. An index the caller already set in either param set is used as
  // given.
  ml::RegressionTreeParams regression_params = config_.regression_params;
  ml::DecisionTreeParams tree_params = config_.tree_params;
  const bool regression_shares =
      ml::ReadsFeatureIndex(regression_params.use_feature_index,
                            /*use_histogram=*/false) &&
      regression_params.feature_index == nullptr;
  const bool tree_shares = ml::ReadsFeatureIndex(tree_params.use_feature_index,
                                                 tree_params.use_histogram) &&
                           tree_params.feature_index == nullptr;
  std::optional<ml::FeatureIndex> sweep_index;
  if (regression_shares || tree_shares) {
    auto built = ml::FeatureIndex::Build(dataset, features, config_.executor);
    if (!built.ok()) return built.status();
    sweep_index.emplace(std::move(*built));
    if (regression_shares) regression_params.feature_index = &*sweep_index;
    if (tree_shares) tree_params.feature_index = &*sweep_index;
  }
  const ml::FeatureIndex* ranks = sweep_index ? &*sweep_index : nullptr;

  // Each live threshold's split, drawn from child stream i of the study
  // seed, so row i is identical however its fits interleave. Degenerate
  // thresholds (a single class) cannot be modeled; their rows keep zeroed
  // metrics rather than failing the sweep.
  std::vector<ThresholdModelResult> results(config_.thresholds.size());
  std::vector<data::TrainValidationIndices> splits(config_.thresholds.size());
  std::vector<size_t> live;
  for (size_t i = 0; i < config_.thresholds.size(); ++i) {
    ThresholdModelResult& row = results[i];
    row.threshold = config_.thresholds[i];
    row.non_crash_prone = (*counts)[i].non_crash_prone;
    row.crash_prone = (*counts)[i].crash_prone;
    if (row.non_crash_prone == 0 || row.crash_prone == 0) continue;
    util::Rng split_rng(util::Rng::SplitSeed(config_.seed, i));
    auto split = data::StratifiedTrainValidationSplit(
        dataset, ThresholdTargetName(row.threshold), config_.train_fraction,
        split_rng);
    if (!split.ok()) return split.status();
    splits[i] = std::move(*split);
    live.push_back(i);
  }

  // One task per (threshold, learner), longest fits first so that no
  // long fit starts last: every GBT fit, then every regression tree, then
  // every decision tree. Each task writes only its own learner's fields
  // of row i.
  ROADMINE_RETURN_IF_ERROR(exec::ParallelFor(
      config_.executor, kTreeSweepLearners * live.size(),
      [&](size_t task) -> util::Status {
        const size_t i = live[task % live.size()];
        const size_t learner = task / live.size();
        const std::string target = ThresholdTargetName(results[i].threshold);
        ROADMINE_TRACE_SPAN("study.tree_sweep.cp" +
                            std::to_string(results[i].threshold) + "." +
                            kTreeSweepLearnerNames[learner]);
        switch (static_cast<TreeSweepLearner>(learner)) {
          case TreeSweepLearner::kGbt: {
            // Reseeded per threshold from a child stream so row i is
            // reproducible in isolation.
            ml::GradientBoostedTreesParams params = config_.gbt_params;
            params.seed = util::Rng::SplitSeed(config_.seed ^ params.seed, i);
            return FitGbtRow(dataset, target, features, splits[i], params,
                             ranks, &results[i]);
          }
          case TreeSweepLearner::kRegressionTree:
            return FitRegressionRow(dataset, target, features, splits[i],
                                    regression_params, &results[i]);
          case TreeSweepLearner::kDecisionTree:
            return FitDecisionRow(dataset, target, features, splits[i],
                                  tree_params, &results[i]);
        }
        return util::Status::Ok();
      }));
  EmitSweepArtifacts("tree_sweep", dataset, results.size());
  return results;
}

Result<std::vector<BayesThresholdResult>> CrashPronenessStudy::RunBayesSweep(
    data::Dataset& dataset) const {
  const std::vector<std::string> features = FeaturesFor(dataset);
  if (features.empty()) {
    return util::InvalidArgumentError("no feature columns available");
  }

  auto counts = PrepareTargets(dataset, config_);
  if (!counts.ok()) return counts.status();

  std::vector<BayesThresholdResult> results(config_.thresholds.size());
  ROADMINE_RETURN_IF_ERROR(exec::ParallelFor(
      config_.executor, config_.thresholds.size(),
      [&](size_t i) -> util::Status {
        const int threshold = config_.thresholds[i];
        ROADMINE_TRACE_SPAN("study.bayes_sweep.cp" + std::to_string(threshold));
        const std::string target = ThresholdTargetName(threshold);

        BayesThresholdResult& row = results[i];
        row.threshold = threshold;
        if ((*counts)[i].non_crash_prone == 0 ||
            (*counts)[i].crash_prone == 0) {
          return util::Status::Ok();
        }

        const eval::BinaryTrainer trainer = eval::ClassifierTrainer(
            ml::Spec("naive_bayes"), target, features);

        eval::CrossValidationOptions options;
        options.folds = config_.cv_folds;
        options.seed = config_.seed ^ static_cast<uint64_t>(threshold);
        options.executor = config_.executor;
        auto cv = eval::CrossValidateBinary(dataset, target, trainer, options);
        if (!cv.ok()) return cv.status();

        row.correctly_classified = cv->assessment.accuracy;
        row.negative_predictive_value =
            cv->assessment.negative_predictive_value;
        row.positive_predictive_value =
            cv->assessment.positive_predictive_value;
        row.weighted_precision = cv->assessment.weighted_precision;
        row.weighted_recall = cv->assessment.weighted_recall;
        row.roc_area = cv->auc;
        row.kappa = cv->assessment.kappa;
        row.mcpv = cv->assessment.mcpv;
        return util::Status::Ok();
      }));
  EmitSweepArtifacts("bayes_sweep", dataset, results.size());
  return results;
}

Result<std::vector<SupportingModelResult>>
CrashPronenessStudy::RunSupportingSweep(data::Dataset& dataset) const {
  const std::vector<std::string> features = FeaturesFor(dataset);
  if (features.empty()) {
    return util::InvalidArgumentError("no feature columns available");
  }

  auto counts = PrepareTargets(dataset, config_);
  if (!counts.ok()) return counts.status();

  std::vector<SupportingModelResult> results(config_.thresholds.size());
  ROADMINE_RETURN_IF_ERROR(exec::ParallelFor(
      config_.executor, config_.thresholds.size(),
      [&](size_t i) -> util::Status {
        const int threshold = config_.thresholds[i];
        ROADMINE_TRACE_SPAN("study.supporting_sweep.cp" +
                            std::to_string(threshold));
        const std::string target = ThresholdTargetName(threshold);

        SupportingModelResult& row = results[i];
        row.threshold = threshold;
        if ((*counts)[i].non_crash_prone == 0 ||
            (*counts)[i].crash_prone == 0) {
          return util::Status::Ok();
        }

        eval::CrossValidationOptions options;
        options.folds = config_.cv_folds;
        options.seed = config_.seed ^ static_cast<uint64_t>(threshold * 31);
        options.executor = config_.executor;

        // Logistic regression, 10-fold CV.
        {
          const eval::BinaryTrainer trainer = eval::ClassifierTrainer(
              ml::Spec("logistic_regression"), target, features);
          auto cv =
              eval::CrossValidateBinary(dataset, target, trainer, options);
          if (!cv.ok()) return cv.status();
          row.logistic_mcpv = cv->assessment.mcpv;
          row.logistic_kappa = cv->assessment.kappa;
        }

        // Neural network, 10-fold CV.
        {
          // Low-capacity, regularized MLP: crash rows from one segment are
          // near-duplicates, so an over-parameterized network "solves" the
          // extreme thresholds by memorizing segments across CV folds. The
          // paper's SAS-era networks were comparably small.
          ml::ClassifierSpec spec = ml::Spec("neural_net");
          spec.neural_net.hidden_layers = {8};
          spec.neural_net.l2 = 2e-3;
          spec.neural_net.epochs = 12;
          const eval::BinaryTrainer trainer =
              eval::ClassifierTrainer(std::move(spec), target, features);
          auto cv =
              eval::CrossValidateBinary(dataset, target, trainer, options);
          if (!cv.ok()) return cv.status();
          row.neural_net_mcpv = cv->assessment.mcpv;
          row.neural_net_kappa = cv->assessment.kappa;
        }

        // M5 model tree on the interval target, train/validation R-squared.
        {
          util::Rng split_rng(
              util::Rng::SplitSeed(config_.seed ^ 0xabcdefULL, i));
          auto split = data::StratifiedTrainValidationSplit(
              dataset, target, config_.train_fraction, split_rng);
          if (!split.ok()) return split.status();
          ml::M5Tree tree;
          ROADMINE_RETURN_IF_ERROR(
              tree.Fit(dataset, target, features, split->train));
          auto labels = ml::ExtractNumericTarget(dataset, target);
          if (!labels.ok()) return labels.status();
          std::vector<double> actuals;
          actuals.reserve(split->validation.size());
          for (size_t r : split->validation) actuals.push_back((*labels)[r]);
          auto predictions = tree.PredictBatch(dataset, split->validation);
          if (!predictions.ok()) return predictions.status();
          auto r2 = eval::RSquared(*predictions, actuals);
          row.m5_r_squared = r2.ok() ? *r2 : 0.0;
        }
        return util::Status::Ok();
      }));
  EmitSweepArtifacts("supporting_sweep", dataset, results.size());
  return results;
}

void CrashPronenessStudy::EmitSweepArtifacts(const std::string& sweep,
                                             const data::Dataset& dataset,
                                             size_t result_rows) const {
  if (config_.artifact_dir.empty()) return;

  obs::RunManifest manifest("core.study." + sweep);
  manifest.SetSeed(config_.seed);
  manifest.Set("run", "result_rows", static_cast<uint64_t>(result_rows));

  std::string thresholds;
  for (int t : config_.thresholds) {
    if (!thresholds.empty()) thresholds += ",";
    thresholds += std::to_string(t);
  }
  manifest.Set("study_config", "thresholds", thresholds);
  manifest.Set("study_config", "count_column", config_.count_column);
  manifest.Set("study_config", "train_fraction", config_.train_fraction);
  manifest.Set("study_config", "cv_folds",
               static_cast<uint64_t>(config_.cv_folds));
  manifest.Set("study_config", "tree_min_samples_leaf",
               static_cast<uint64_t>(config_.tree_params.min_samples_leaf));
  manifest.Set("study_config", "tree_max_leaves",
               static_cast<uint64_t>(config_.tree_params.max_leaves));
  manifest.Set("study_config", "regression_min_samples_leaf",
               static_cast<uint64_t>(
                   config_.regression_params.min_samples_leaf));
  manifest.Set("study_config", "regression_max_leaves",
               static_cast<uint64_t>(config_.regression_params.max_leaves));

  manifest.Set("dataset", "rows", static_cast<uint64_t>(dataset.num_rows()));
  manifest.Set("dataset", "columns",
               static_cast<uint64_t>(dataset.num_columns()));
  manifest.Set("dataset", "features",
               static_cast<uint64_t>(FeaturesFor(dataset).size()));

  const std::string manifest_path =
      config_.artifact_dir + "/manifest_" + sweep + ".json";
  if (util::Status status = manifest.WriteJson(manifest_path); !status.ok()) {
    obs::LogWarn("run manifest write failed",
                 {{"path", manifest_path}, {"error", status.ToString()}});
  }

#if ROADMINE_TRACE_ENABLED
  obs::TraceCollector& collector = obs::TraceCollector::Global();
  if (collector.enabled()) {
    const std::string trace_path =
        config_.artifact_dir + "/trace_" + sweep + ".jsonl";
    if (util::Status status = collector.WriteJsonl(trace_path); !status.ok()) {
      obs::LogWarn("trace write failed",
                   {{"path", trace_path}, {"error", status.ToString()}});
    }
  }
#endif
}

int CrashPronenessStudy::SelectBestThreshold(
    const std::vector<ThresholdModelResult>& results, double tolerance,
    double min_minority_share) {
  if (results.empty()) return 0;

  // Reliability guard: drop thresholds whose minority class is too small
  // to assess (the paper's CP-64 caveat).
  std::vector<ThresholdModelResult> eligible;
  for (const ThresholdModelResult& row : results) {
    const double total = static_cast<double>(row.crash_prone +
                                             row.non_crash_prone);
    const double minority =
        static_cast<double>(std::min(row.crash_prone, row.non_crash_prone));
    if (total > 0.0 && minority / total >= min_minority_share) {
      eligible.push_back(row);
    }
  }
  if (eligible.empty()) eligible = results;

  double best_mcpv = 0.0;
  for (const ThresholdModelResult& row : eligible) {
    best_mcpv = std::max(best_mcpv, row.mcpv);
  }
  // Smallest threshold whose MCPV is within `tolerance` of the best — the
  // paper's "highest classification rate near the crash/no crash boundary".
  std::sort(eligible.begin(), eligible.end(),
            [](const ThresholdModelResult& a, const ThresholdModelResult& b) {
              return a.threshold < b.threshold;
            });
  for (const ThresholdModelResult& row : eligible) {
    if (row.mcpv >= best_mcpv - tolerance) return row.threshold;
  }
  return eligible.front().threshold;
}

}  // namespace roadmine::core
