// Workload `study`: the analyst's CP-t threshold study (paper Tables 3-5).
//
// Timed job: Phase 1 RunTreeSweep (CP-0..64 on the crash/no-crash rows),
// Phase 2 RunTreeSweep (CP-2..64 on the crash-only rows), RunBayesSweep
// (10-fold CV) and SelectBestThreshold, on a 4-worker pool. All small
// in-RAM fits: it never touches pages, CSV or serve.
//
// Harness prep (untimed): roadgen network + crash records. Setup
// (setup_s): building the Phase 1/2 datasets from them (the paper's join).
//
// The traced run replays, serially and outside the library, every
// per-threshold call the sweeps make (index builds, fits, predictions,
// CV, AUC, target derivation and splits) under trace spans, and puts the
// rows beside the wall time of a serial sweep on the same datasets.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <vector>

#include "common.h"
#include "core/study.h"
#include "core/thresholds.h"
#include "data/csv_io.h"
#include "data/split.h"
#include "eval/confusion.h"
#include "eval/cross_validation.h"
#include "eval/regression_metrics.h"
#include "eval/roc.h"
#include "eval/trainers.h"
#include "exec/executor.h"
#include "exec/profiler.h"
#include "ml/classifier.h"
#include "ml/common.h"
#include "ml/feature_index.h"
#include "ml/histogram_index.h"
#include "roadgen/dataset_builder.h"
#include "roadgen/generator.h"
#include "util/rng.h"

namespace roadbench {

namespace rm = roadmine;
using rm::util::Result;
using rm::util::Status;

namespace {

constexpr size_t kPoolWidth = 4;
constexpr int kSetupsPerJob = 8;

struct PaperInputs {
  std::vector<rm::roadgen::RoadSegment> segments;
  std::vector<rm::roadgen::CrashRecord> records;
};

struct PaperDatasets {
  rm::data::Dataset crash_only;      // Phase 2 (~16.7k rows).
  rm::data::Dataset crash_no_crash;  // Phase 1 (~32.9k rows).
};

struct StudyOutcome {
  std::vector<rm::core::ThresholdModelResult> phase1;
  std::vector<rm::core::ThresholdModelResult> phase2;
  std::vector<rm::core::BayesThresholdResult> bayes;
  int best_threshold = 0;
  double best_mcpv = 0.0;
};

Result<PaperInputs> MakeInputs(uint64_t seed, rm::exec::Executor* executor) {
  rm::roadgen::GeneratorConfig config;  // Calibrated paper scale.
  config.seed = rm::util::Rng::SplitSeed(seed, 1);
  config.executor = executor;
  rm::roadgen::RoadNetworkGenerator generator(config);
  auto segments = generator.Generate();
  if (!segments.ok()) return segments.status();
  PaperInputs inputs;
  inputs.records = generator.SimulateCrashRecords(*segments);
  inputs.segments = std::move(*segments);
  return inputs;
}

Result<PaperDatasets> BuildDatasets(const PaperInputs& inputs,
                                    rm::exec::Executor* executor) {
  auto crash_only = rm::roadgen::BuildCrashOnlyDataset(
      inputs.segments, inputs.records, {}, executor);
  if (!crash_only.ok()) return crash_only.status();
  auto both = rm::roadgen::BuildCrashNoCrashDataset(
      inputs.segments, inputs.records, {}, executor);
  if (!both.ok()) return both.status();
  return PaperDatasets{std::move(*crash_only), std::move(*both)};
}

rm::core::StudyConfig Phase1Config(rm::exec::Executor* executor) {
  rm::core::StudyConfig config;
  config.thresholds = rm::core::Phase1Thresholds();
  config.executor = executor;
  return config;
}

rm::core::StudyConfig Phase2Config(rm::exec::Executor* executor) {
  rm::core::StudyConfig config;  // CP-2..64.
  config.executor = executor;
  return config;
}

Result<StudyOutcome> RunJob(PaperDatasets& data, rm::exec::Executor* executor) {
  StudyOutcome out;
  const rm::core::CrashPronenessStudy phase1(Phase1Config(executor));
  const rm::core::CrashPronenessStudy phase2(Phase2Config(executor));
  auto p1 = phase1.RunTreeSweep(data.crash_no_crash);
  if (!p1.ok()) return p1.status();
  auto p2 = phase2.RunTreeSweep(data.crash_only);
  if (!p2.ok()) return p2.status();
  auto bayes = phase2.RunBayesSweep(data.crash_only);
  if (!bayes.ok()) return bayes.status();
  out.phase1 = std::move(*p1);
  out.phase2 = std::move(*p2);
  out.bayes = std::move(*bayes);
  out.best_threshold = rm::core::CrashPronenessStudy::SelectBestThreshold(
      out.phase2);
  for (const auto& row : out.phase2) {
    if (row.threshold == out.best_threshold) out.best_mcpv = row.mcpv;
  }
  return out;
}

bool SameRow(const rm::core::ThresholdModelResult& a,
             const rm::core::ThresholdModelResult& b) {
  return a.threshold == b.threshold &&
         a.non_crash_prone == b.non_crash_prone &&
         a.crash_prone == b.crash_prone && a.r_squared == b.r_squared &&
         a.regression_leaves == b.regression_leaves &&
         a.negative_predictive_value == b.negative_predictive_value &&
         a.positive_predictive_value == b.positive_predictive_value &&
         a.misclassification_rate == b.misclassification_rate &&
         a.mcpv == b.mcpv && a.kappa == b.kappa &&
         a.tree_leaves == b.tree_leaves && a.gbt_mcpv == b.gbt_mcpv &&
         a.gbt_kappa == b.gbt_kappa && a.gbt_auc == b.gbt_auc &&
         a.gbt_leaves == b.gbt_leaves;
}

bool SameBayesRow(const rm::core::BayesThresholdResult& a,
                  const rm::core::BayesThresholdResult& b) {
  return a.threshold == b.threshold &&
         a.correctly_classified == b.correctly_classified &&
         a.negative_predictive_value == b.negative_predictive_value &&
         a.positive_predictive_value == b.positive_predictive_value &&
         a.weighted_precision == b.weighted_precision &&
         a.weighted_recall == b.weighted_recall && a.roc_area == b.roc_area &&
         a.kappa == b.kappa && a.mcpv == b.mcpv;
}

bool SameOutcome(const StudyOutcome& a, const StudyOutcome& b) {
  return std::equal(a.phase1.begin(), a.phase1.end(), b.phase1.begin(),
                    b.phase1.end(), SameRow) &&
         std::equal(a.phase2.begin(), a.phase2.end(), b.phase2.begin(),
                    b.phase2.end(), SameRow) &&
         std::equal(a.bayes.begin(), a.bayes.end(), b.bayes.begin(),
                    b.bayes.end(), SameBayesRow) &&
         a.best_threshold == b.best_threshold && a.best_mcpv == b.best_mcpv;
}

// Sanity of one job's output: the sweeps cover their thresholds and the
// selected Phase 2 row has a usable MCPV.
bool Plausible(const StudyOutcome& out) {
  return out.phase1.size() == rm::core::Phase1Thresholds().size() &&
         out.phase2.size() == rm::core::StandardThresholds().size() &&
         out.bayes.size() == out.phase2.size() && out.best_threshold > 0 &&
         out.best_mcpv > 0.0 && out.best_mcpv <= 1.0;
}

std::vector<std::string> Features(const rm::data::Dataset& dataset) {
  std::vector<std::string> features;
  for (const std::string& name : rm::roadgen::RoadAttributeColumns()) {
    if (dataset.HasColumn(name)) features.push_back(name);
  }
  return features;
}

struct LeafCounts {
  double tree_leaves = 0;
  double gbt_trees = 0;
  double gbt_leaves = 0;
};

// Replays RunTreeSweep's per-threshold calls serially under "study/<layer>"
// spans, checking each fit's leaves, MCPV and AUC against the sweep's row.
void ReplayTreeSweep(Report& report, rm::data::Dataset& dataset,
                     const rm::core::StudyConfig& config,
                     const std::vector<rm::core::ThresholdModelResult>& expected,
                     LeafCounts& counts) {
  const std::vector<std::string> features = Features(dataset);
  std::vector<rm::core::ThresholdClassCounts> classes;
  {
    Span span("study/core.self");
    for (int threshold : config.thresholds) {
      report.CheckStatus(rm::core::AddCrashProneTarget(
                             dataset, config.count_column, threshold),
                         "replay: derive target");
      auto c = rm::core::CountThresholdClasses(dataset, config.count_column,
                                               threshold);
      report.CheckStatus(c.status(), "replay: count classes");
      classes.push_back(c.ok() ? *c : rm::core::ThresholdClassCounts{});
    }
  }
  for (size_t i = 0; i < config.thresholds.size() && i < expected.size(); ++i) {
    const auto& want = expected[i];
    if (classes[i].crash_prone == 0 || classes[i].non_crash_prone == 0) continue;
    const std::string target = rm::core::ThresholdTargetName(config.thresholds[i]);

    Result<rm::data::TrainValidationIndices> split =
        rm::util::InvalidArgumentError("unset");
    {
      Span span("study/core.self");
      rm::util::Rng rng(rm::util::Rng::SplitSeed(config.seed, i));
      split = rm::data::StratifiedTrainValidationSplit(
          dataset, target, config.train_fraction, rng);
    }
    if (!report.CheckStatus(split.status(), "replay: split")) continue;
    const std::vector<size_t>& train = split->train;
    const std::vector<size_t>& validation = split->validation;

    // Regression tree: the sweep's fit builds a FeatureIndex when the
    // train rows are strictly ascending, then grows over it.
    {
      rm::ml::RegressionTreeParams params = config.regression_params;
      std::optional<rm::ml::FeatureIndex> index;
      if (params.use_feature_index && rm::ml::StrictlyAscending(train)) {
        Span span("study/ml.feature_index");
        auto built = rm::ml::FeatureIndex::Build(dataset, features);
        if (report.CheckStatus(built.status(), "replay: feature index")) {
          index.emplace(std::move(*built));
          params.feature_index = &*index;
        }
      }
      rm::ml::RegressionTree tree(params);
      Status fit;
      {
        Span span("study/ml.regression_tree.fit");
        fit = tree.Fit(dataset, target, features, train);
      }
      if (report.CheckStatus(fit, "replay: regression tree fit")) {
        Span span("study/ml.predict");
        report.CheckStatus(tree.PredictBatch(dataset, validation).status(),
                           "replay: regression tree predict");
      }
      report.Check(tree.leaf_count() == want.regression_leaves,
                   "replayed regression tree matches the sweep");
    }

    // Chi-square decision tree.
    {
      rm::ml::DecisionTreeParams params = config.tree_params;
      std::optional<rm::ml::FeatureIndex> index;
      if (params.use_feature_index && !params.use_histogram) {
        Span span("study/ml.feature_index");
        auto built = rm::ml::FeatureIndex::Build(dataset, features);
        if (report.CheckStatus(built.status(), "replay: feature index")) {
          index.emplace(std::move(*built));
          params.feature_index = &*index;
        }
      }
      rm::ml::DecisionTreeClassifier tree(params);
      Status fit;
      {
        Span span("study/ml.decision_tree.fit");
        fit = tree.Fit(dataset, target, features, train);
      }
      if (report.CheckStatus(fit, "replay: decision tree fit")) {
        std::vector<int> predicted;
        {
          Span span("study/ml.predict");
          predicted.reserve(validation.size());
          for (size_t r : validation) predicted.push_back(tree.Predict(dataset, r));
        }
        Span span("study/core.self");
        auto labels = rm::ml::ExtractBinaryLabels(dataset, target);
        if (report.CheckStatus(labels.status(), "replay: labels")) {
          rm::eval::ConfusionMatrix cm;
          for (size_t j = 0; j < validation.size(); ++j) {
            cm.Add((*labels)[validation[j]] != 0, predicted[j] != 0);
          }
          report.Check(rm::eval::Assess(cm).mcpv == want.mcpv,
                       "replayed decision tree MCPV matches the sweep");
        }
      }
      report.Check(tree.leaf_count() == want.tree_leaves,
                   "replayed decision tree matches the sweep");
      counts.tree_leaves += static_cast<double>(tree.leaf_count());
    }

    // Gradient-boosted trees: binning, then growth over the prebuilt index.
    {
      rm::ml::GradientBoostedTreesParams params = config.gbt_params;
      params.seed = rm::util::Rng::SplitSeed(config.seed ^ params.seed, i);
      auto refs = rm::ml::ResolveFeatures(dataset, features, target);
      if (!report.CheckStatus(refs.status(), "replay: resolve features")) continue;
      std::optional<rm::ml::HistogramIndex> hist;
      {
        Span span("study/ml.histogram_index");
        auto built = rm::ml::HistogramIndex::Build(
            dataset, *refs, train, {.max_bins = params.max_bins});
        if (report.CheckStatus(built.status(), "replay: histogram index")) {
          hist.emplace(std::move(*built));
          params.histogram_index = &*hist;
        }
      }
      rm::ml::GradientBoostedTrees gbt(params);
      Status fit;
      {
        Span span("study/ml.gbt.grow");
        fit = gbt.Fit(dataset, target, features, train);
      }
      if (!report.CheckStatus(fit, "replay: gbt fit")) continue;
      Result<std::vector<double>> probs = std::vector<double>{};
      {
        Span span("study/ml.predict");
        probs = gbt.PredictBatch(dataset, validation);
      }
      if (!report.CheckStatus(probs.status(), "replay: gbt predict")) continue;
      std::vector<int> labels_v;
      {
        Span span("study/core.self");
        auto labels = rm::ml::ExtractBinaryLabels(dataset, target);
        if (!report.CheckStatus(labels.status(), "replay: labels")) continue;
        for (size_t r : validation) labels_v.push_back((*labels)[r]);
      }
      Span span("study/eval.roc_auc");
      auto auc = rm::eval::RocAuc(*probs, labels_v);
      report.Check(auc.ok() && *auc == want.gbt_auc,
                   "replayed GBT AUC matches the sweep");
      report.Check(gbt.total_leaves() == want.gbt_leaves,
                   "replayed GBT matches the sweep");
      counts.gbt_trees += static_cast<double>(gbt.tree_count());
      counts.gbt_leaves += static_cast<double>(gbt.total_leaves());
    }
  }
}

// Replays RunBayesSweep: each threshold's CrossValidateBinary with the
// sweep's trainer, the naive Bayes fits timed inside it.
void ReplayBayesSweep(Report& report, rm::data::Dataset& dataset,
                      const rm::core::StudyConfig& config,
                      const std::vector<rm::core::BayesThresholdResult>& expected) {
  const std::vector<std::string> features = Features(dataset);
  for (size_t i = 0; i < config.thresholds.size() && i < expected.size(); ++i) {
    const int threshold = config.thresholds[i];
    const std::string target = rm::core::ThresholdTargetName(threshold);
    {
      Span span("study/core.self");
      report.CheckStatus(rm::core::AddCrashProneTarget(
                             dataset, config.count_column, threshold),
                         "replay: derive target");
      auto c = rm::core::CountThresholdClasses(dataset, config.count_column,
                                               threshold);
      if (!report.CheckStatus(c.status(), "replay: count classes") ||
          c->crash_prone == 0 || c->non_crash_prone == 0) {
        continue;
      }
    }
    const rm::eval::BinaryTrainer inner = rm::eval::ClassifierTrainer(
        rm::ml::Spec("naive_bayes"), target, features);
    const rm::eval::BinaryTrainer timed =
        [&inner](const rm::data::Dataset& d, const std::vector<size_t>& rows) {
          Span span("study/ml.naive_bayes.fit");
          return inner(d, rows);
        };
    rm::eval::CrossValidationOptions options;
    options.folds = config.cv_folds;
    options.seed = config.seed ^ static_cast<uint64_t>(threshold);
    Span span("study/eval.cross_validation");
    auto cv = rm::eval::CrossValidateBinary(dataset, target, timed, options);
    report.Check(cv.ok() && cv->assessment.mcpv == expected[i].mcpv &&
                     cv->auc == expected[i].roc_area,
                 "replayed Bayes CV matches the sweep");
  }
}

}  // namespace

Result<std::string> WriteStudyInputs(const RunOptions& options) {
  auto inputs = MakeInputs(options.seed, nullptr);
  if (!inputs.ok()) return inputs.status();
  auto data = BuildDatasets(*inputs, nullptr);
  if (!data.ok()) return data.status();
  const std::string dir = options.work_dir + "/study";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  ROADMINE_RETURN_IF_ERROR(
      rm::data::WriteCsvFile(data->crash_only, dir + "/crash_only.csv", ',', 17));
  ROADMINE_RETURN_IF_ERROR(rm::data::WriteCsvFile(
      data->crash_no_crash, dir + "/crash_no_crash.csv", ',', 17));
  return dir;
}

int RunStudy(const RunOptions& options) {
  Report report;
  const auto& catalogue = options.trace ? PerLayerMetrics() : EndToEndMetrics();
  rm::exec::ThreadPool pool(kPoolWidth);
  RecordHost(report, MeasureHost(kPoolWidth));

  auto inputs = MakeInputs(options.seed, &pool);
  if (!report.CheckStatus(inputs.status(), "generate paper network")) {
    return report.Finish(catalogue);
  }

  Result<PaperDatasets> data = rm::util::InvalidArgumentError("unset");
  // Rebuilds the datasets, freeing the old ones first so that only one
  // copy is ever resident.
  const TimedStep set_up = [&]() -> std::optional<double> {
    data = rm::util::InvalidArgumentError("rebuilding");
    const auto start = Clock::now();
    data = BuildDatasets(*inputs, nullptr);
    const double seconds = MsSince(start) / 1e3;
    if (!report.CheckStatus(data.status(), "build Phase 1/2 datasets")) {
      return std::nullopt;
    }
    return seconds;
  };
  if (!set_up()) return report.Finish(catalogue);
  std::printf("inputs: phase1 rows %zu, phase2 rows %zu, pool width %zu\n",
              data->crash_no_crash.num_rows(), data->crash_only.num_rows(),
              kPoolWidth);
  ResetPeakRss();

  // Warm-up job: its output is the reference every later job must match.
  auto reference = RunJob(*data, &pool);
  if (!report.CheckStatus(reference.status(), "study job") ||
      !report.Check(Plausible(*reference), "study output is plausible")) {
    return report.Finish(catalogue);
  }

  if (!options.trace) {
    RunTimed(report, options, kSetupsPerJob, set_up,
             [&]() -> std::optional<double> {
               const auto start = Clock::now();
               auto out = RunJob(*data, &pool);
               const double seconds = MsSince(start) / 1e3;
               report.Check(out.ok() && SameOutcome(*out, *reference),
                            "study job reproduces the reference");
               return seconds;
             });
    report.Set("quality", reference->best_mcpv);
    report.Detail("study_best_threshold", reference->best_threshold, "count");
    report.Detail("study_best_mcpv", reference->best_mcpv, "ratio");
    return report.Finish(catalogue);
  }

  // ---- Traced run.
  double untraced_ms = 0.0;
  {
    const auto start = Clock::now();
    auto out = RunJob(*data, &pool);
    untraced_ms = MsSince(start);
    report.Check(out.ok() && SameOutcome(*out, *reference),
                 "study job reproduces the reference");
  }
  rm::obs::TraceCollector& collector = rm::obs::TraceCollector::Global();
  collector.Clear();
  collector.Enable();

  rm::exec::PoolProfiler profiler;
  pool.AttachProfiler(&profiler);
  profiler.Begin(pool.concurrency());
  double pool_ms = 0.0;
  {
    const auto start = Clock::now();
    auto out = RunJob(*data, &pool);
    pool_ms = MsSince(start);
    report.Check(out.ok() && SameOutcome(*out, *reference),
                 "traced study job reproduces the reference");
  }
  const rm::exec::PoolProfile profile = profiler.Finish();
  pool.AttachProfiler(nullptr);

  double serial_ms = 0.0;
  {
    Span span("phase/study");
    const auto start = Clock::now();
    auto out = RunJob(*data, nullptr);
    serial_ms = MsSince(start);
    report.Check(out.ok() && SameOutcome(*out, *reference),
                 "serial sweep equals the 4-worker sweep");
  }

  LeafCounts counts;
  ReplayTreeSweep(report, data->crash_no_crash, Phase1Config(nullptr),
                  reference->phase1, counts);
  ReplayTreeSweep(report, data->crash_only, Phase2Config(nullptr),
                  reference->phase2, counts);
  ReplayBayesSweep(report, data->crash_only, Phase2Config(nullptr),
                   reference->bayes);
  {
    Span span("study/core.self");
    report.Check(rm::core::CrashPronenessStudy::SelectBestThreshold(
                     reference->phase2) == reference->best_threshold,
                 "replayed selection matches");
  }
  collector.Disable();

  std::map<std::string, double> t = BenchSpanTotalsMs();
  AddPhase(report, "study", serial_ms,
           {{"ml.feature_index_ms", t["study/ml.feature_index"]},
            {"ml.regression_tree.fit_ms", t["study/ml.regression_tree.fit"]},
            {"ml.decision_tree.fit_ms", t["study/ml.decision_tree.fit"]},
            {"ml.histogram_index_ms", t["study/ml.histogram_index"]},
            {"ml.gbt.grow_ms", t["study/ml.gbt.grow"]},
            {"ml.naive_bayes.fit_ms", t["study/ml.naive_bayes.fit"]},
            {"ml.predict_ms", t["study/ml.predict"]},
            {"eval.cross_validation_ms",
             t["study/eval.cross_validation"] - t["study/ml.naive_bayes.fit"]},
            {"eval.roc_auc_ms", t["study/eval.roc_auc"]},
            {"core.study.self_ms", t["study/core.self"]}});
  report.Set("study.pool_wall_ms", pool_ms);
  report.Set("ml.tree.leaves", counts.tree_leaves);
  report.Set("ml.gbt.trees", counts.gbt_trees);
  report.Set("ml.gbt.leaves", counts.gbt_leaves);
  report.Set("exec.busy_fraction", profile.busy_fraction_mean);
  report.Set("exec.imbalance", profile.imbalance);
  report.Set("exec.tasks", static_cast<double>(profile.task_count));
  report.Set("exec.pool_speedup", serial_ms / pool_ms);
  report.Set("obs.trace_overhead_pct", 100.0 * (pool_ms - untraced_ms) / untraced_ms);
  return report.Finish(catalogue);
}

}  // namespace roadbench
