// Performance benches for the roadmine substrates: model fit/predict
// throughput, generator throughput, and the evaluation layer. These are
// performance (not reproduction) benches; they guard against regressions
// in the hot paths the table/figure benches depend on.
//
//   perf_ml [--smoke] [--threads=N] <dir>
//
// One instrumented pass over every stage: writes BENCH_perf_ml.json
// (per-stage timings + model metrics) and trace_perf_ml.jsonl into <dir>,
// then re-reads and validates the JSON.
// --smoke shrinks the dataset so the pass finishes in well under a
// second; the bench_smoke CTest target runs exactly that.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/thresholds.h"
#include "data/encoder.h"
#include "data/split.h"
#include "eval/binary_metrics.h"
#include "eval/cross_validation.h"
#include "eval/roc.h"
#include "eval/trainers.h"
#include "exec/executor.h"
#include "exec/profiler.h"
#include "ml/bagging.h"
#include "ml/classifier.h"
#include "ml/common.h"
#include "ml/decision_tree.h"
#include "ml/feature_index.h"
#include "ml/gradient_boosting.h"
#include "ml/histogram_index.h"
#include "ml/kmeans.h"
#include "ml/naive_bayes.h"
#include "ml/regression_tree.h"
#include "obs/json.h"
#include "obs/logging.h"
#include "roadgen/dataset_builder.h"
#include "roadgen/generator.h"

namespace {

using namespace roadmine;

// ---------------------------------------------------------------------------
// Instrumented single-pass mode.
// ---------------------------------------------------------------------------

constexpr char kFailTag[] = "perf_ml instrumented pass failed";

// Runs one timed pass over every substrate the microbenches cover and
// records stage timings plus the headline model metrics. Returns false
// (after logging) on any pipeline error so the smoke test fails loudly.
bool RunInstrumentedPass(bench::BenchContext& ctx, bool smoke) {
  roadgen::GeneratorConfig config;
  // Full scale is sized so the parallel stages (CV folds, bagging
  // members) dominate scheduling overhead — the regime the exec
  // speedup floors are gated at (bench/CMakeLists.txt perf_gate_ml).
  config.num_segments = smoke ? 800 : 12000;
  config.seed = 99;

  data::Dataset ds;
  {
    obs::BenchReport::ScopedStage stage(ctx.report(), "dataset_build");
    roadgen::RoadNetworkGenerator gen(config);
    auto segments = gen.Generate();
    if (!segments.ok()) {
      obs::LogError(kFailTag, {{"stage", "generate"},
                               {"error", segments.status().ToString()}});
      return false;
    }
    auto built = roadgen::BuildCrashOnlyDataset(
        *segments, gen.SimulateCrashRecords(*segments));
    if (!built.ok()) {
      obs::LogError(kFailTag, {{"stage", "dataset_build"},
                               {"error", built.status().ToString()}});
      return false;
    }
    ds = std::move(*built);
    auto target =
        core::AddCrashProneTarget(ds, roadgen::kSegmentCrashCountColumn, 8);
    if (!target.ok()) {
      obs::LogError(kFailTag, {{"stage", "add_target"},
                               {"error", target.ToString()}});
      return false;
    }
  }
  ctx.report().RecordMetric("dataset_rows", static_cast<double>(ds.num_rows()));
  const std::vector<size_t> all_rows = ds.AllRowIndices();
  const std::vector<std::string> features = roadgen::RoadAttributeColumns();

  ml::DecisionTreeClassifier tree{
      ml::DecisionTreeParams{.min_samples_leaf = 30, .max_leaves = 64}};
  {
    obs::BenchReport::ScopedStage stage(ctx.report(), "decision_tree_fit");
    auto status = tree.Fit(ds, "crash_prone_gt8", features, all_rows);
    if (!status.ok()) {
      obs::LogError(kFailTag, {{"stage", "decision_tree_fit"},
                               {"error", status.ToString()}});
      return false;
    }
  }
  ctx.report().RecordMetric("decision_tree_leaves",
                            static_cast<double>(tree.leaf_count()));

  std::vector<double> scores;
  {
    obs::BenchReport::ScopedStage stage(ctx.report(), "decision_tree_predict");
    scores = *tree.PredictBatch(ds, all_rows);
  }

  // --- FeatureIndex A/B: the same tree trained over the legacy
  // per-node-sort path and over the pre-sorted index, both
  // single-threaded. A deep tree (many nodes) is the regime the index
  // targets — every node the legacy path visits re-sorts each numeric
  // attribute. The indexed side uses the deployed configuration: one
  // index built per dataset (its cost recorded separately as
  // tree_index_build) and shared across fits, as bagging and CV do.
  // Best-of-reps de-noises the ratio; the serialized models must match
  // exactly (the index's bit-identity contract), so a speedup that costs
  // correctness fails the smoke test loudly.
  {
    ml::DecisionTreeParams ab_params{.min_samples_split = 10,
                                     .min_samples_leaf = 5,
                                     .max_leaves = 256};
    const int reps = smoke ? 1 : 3;

    auto shared_index = ml::FeatureIndex::Build(ds, features);
    if (!shared_index.ok()) {
      obs::LogError(kFailTag, {{"stage", "tree_train_ab"},
                               {"error", shared_index.status().ToString()}});
      return false;
    }
    {
      const auto start = std::chrono::steady_clock::now();
      auto rebuilt = ml::FeatureIndex::Build(ds, features);
      ctx.report().RecordTimingMs(
          "tree_index_build",
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start)
              .count());
      if (!rebuilt.ok()) return false;
    }

    auto best_fit = [&](bool use_index, std::string* model, double* best_ms) {
      ml::DecisionTreeParams params = ab_params;
      params.use_feature_index = use_index;
      params.feature_index = use_index ? &*shared_index : nullptr;
      *best_ms = std::numeric_limits<double>::infinity();
      for (int i = 0; i < reps; ++i) {
        ml::DecisionTreeClassifier t(params);
        const auto start = std::chrono::steady_clock::now();
        auto status = t.Fit(ds, "crash_prone_gt8", features, all_rows);
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();
        if (!status.ok()) {
          obs::LogError(kFailTag, {{"stage", "tree_train_ab"},
                                   {"error", status.ToString()}});
          return false;
        }
        *best_ms = std::min(*best_ms, ms);
        *model = t.Serialize();
      }
      return true;
    };
    std::string legacy_model, indexed_model;
    double legacy_ms = 0.0, indexed_ms = 0.0;
    if (!best_fit(/*use_index=*/false, &legacy_model, &legacy_ms)) {
      return false;
    }
    if (!best_fit(/*use_index=*/true, &indexed_model, &indexed_ms)) {
      return false;
    }
    if (indexed_model != legacy_model) {
      obs::LogError(kFailTag,
                    {{"stage", "tree_train_ab"},
                     {"error", "indexed tree diverged from legacy tree"}});
      return false;
    }
    ctx.report().RecordTimingMs("tree_fit_legacy", legacy_ms);
    ctx.report().RecordTimingMs("tree_fit_indexed", indexed_ms);
    ctx.report().RecordMetric("tree_train_speedup", legacy_ms / indexed_ms);

    // --- Histogram A/B: the same configuration trained over quantile
    // bins instead of every sorted value. The tree may differ from the
    // exact one (the documented binning tolerance: candidates coarsen to
    // bin uppers), so this leg gates time, not structure — the
    // equivalence suite (ml_histogram_index_test) pins the semantics.
    double hist_ms = std::numeric_limits<double>::infinity();
    size_t hist_leaves = 0;
    {
      ml::DecisionTreeParams params = ab_params;
      params.use_histogram = true;
      for (int i = 0; i < reps; ++i) {
        ml::DecisionTreeClassifier t(params);
        const auto start = std::chrono::steady_clock::now();
        auto status = t.Fit(ds, "crash_prone_gt8", features, all_rows);
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();
        if (!status.ok()) {
          obs::LogError(kFailTag, {{"stage", "tree_train_hist"},
                                   {"error", status.ToString()}});
          return false;
        }
        hist_ms = std::min(hist_ms, ms);
        hist_leaves = t.leaf_count();
      }
    }
    ctx.report().RecordTimingMs("tree_fit_hist", hist_ms);
    ctx.report().RecordMetric("hist_tree_leaves",
                              static_cast<double>(hist_leaves));
    ctx.report().RecordMetric("hist_train_speedup", indexed_ms / hist_ms);
  }

  // --- Gradient-boosted trees: fit + whole-dataset scoring, with the
  // training-set AUC as the deterministic quality headline (same model on
  // every host, so the floor can live in the smoke gate).
  {
    ml::GradientBoostedTreesParams gbt_params;
    gbt_params.num_trees = smoke ? 10 : 40;
    gbt_params.max_depth = 4;
    gbt_params.subsample = 0.8;
    gbt_params.colsample = 0.8;
    ml::GradientBoostedTrees gbt(gbt_params);
    {
      obs::BenchReport::ScopedStage stage(ctx.report(), "gbt_fit");
      auto status = gbt.Fit(ds, "crash_prone_gt8", features, all_rows);
      if (!status.ok()) {
        obs::LogError(kFailTag,
                      {{"stage", "gbt_fit"}, {"error", status.ToString()}});
        return false;
      }
    }
    ctx.report().RecordMetric("gbt_trees",
                              static_cast<double>(gbt.tree_count()));
    ctx.report().RecordMetric("gbt_leaves",
                              static_cast<double>(gbt.total_leaves()));
    std::vector<double> gbt_scores;
    {
      obs::BenchReport::ScopedStage stage(ctx.report(), "gbt_predict");
      auto probs = gbt.PredictBatch(ds, all_rows);
      if (!probs.ok()) {
        obs::LogError(kFailTag, {{"stage", "gbt_predict"},
                                 {"error", probs.status().ToString()}});
        return false;
      }
      gbt_scores = std::move(*probs);
    }
    auto labels = ml::ExtractBinaryLabels(ds, "crash_prone_gt8");
    if (!labels.ok()) {
      obs::LogError(kFailTag, {{"stage", "gbt_labels"},
                               {"error", labels.status().ToString()}});
      return false;
    }
    const std::vector<int> int_labels(labels->begin(), labels->end());
    auto auc = eval::RocAuc(gbt_scores, int_labels);
    if (!auc.ok()) {
      obs::LogError(kFailTag,
                    {{"stage", "gbt_auc"}, {"error", auc.status().ToString()}});
      return false;
    }
    ctx.report().RecordMetric("gbt_auc", *auc);
  }

  {
    obs::BenchReport::ScopedStage stage(ctx.report(), "regression_tree_fit");
    ml::RegressionTree rt{
        ml::RegressionTreeParams{.min_samples_leaf = 30, .max_leaves = 64}};
    auto status = rt.Fit(ds, roadgen::kSegmentCrashCountColumn, features,
                         all_rows);
    if (!status.ok()) {
      obs::LogError(kFailTag, {{"stage", "regression_tree_fit"},
                               {"error", status.ToString()}});
      return false;
    }
    ctx.report().RecordMetric("regression_tree_leaves",
                              static_cast<double>(rt.leaf_count()));
  }

  {
    obs::BenchReport::ScopedStage stage(ctx.report(), "naive_bayes_fit");
    ml::NaiveBayesClassifier nb;
    auto status = nb.Fit(ds, "crash_prone_gt8", features, all_rows);
    if (!status.ok()) {
      obs::LogError(kFailTag, {{"stage", "naive_bayes_fit"},
                               {"error", status.ToString()}});
      return false;
    }
  }

  {
    obs::BenchReport::ScopedStage stage(ctx.report(), "kmeans_fit");
    ml::KMeansParams params;
    params.k = 8;
    params.restarts = 1;
    params.max_iterations = 25;
    ml::KMeans kmeans(params);
    auto result = kmeans.Fit(ds, features, all_rows);
    if (!result.ok()) {
      obs::LogError(kFailTag, {{"stage", "kmeans_fit"},
                               {"error", result.status().ToString()}});
      return false;
    }
    ctx.report().RecordMetric("kmeans_inertia", result->inertia);
  }

  {
    obs::BenchReport::ScopedStage stage(ctx.report(), "encoder_transform");
    data::FeatureEncoder encoder;
    auto fit = encoder.Fit(ds, features, all_rows);
    if (!fit.ok()) {
      obs::LogError(kFailTag, {{"stage", "encoder_fit"},
                               {"error", fit.ToString()}});
      return false;
    }
    auto matrix = encoder.Transform(ds, all_rows);
    if (!matrix.ok()) {
      obs::LogError(kFailTag, {{"stage", "encoder_transform"},
                               {"error", matrix.status().ToString()}});
      return false;
    }
  }

  {
    obs::BenchReport::ScopedStage stage(ctx.report(), "roc_auc");
    auto labels = ml::ExtractBinaryLabels(ds, "crash_prone_gt8");
    if (!labels.ok()) {
      obs::LogError(kFailTag, {{"stage", "roc_labels"},
                               {"error", labels.status().ToString()}});
      return false;
    }
    const std::vector<int> int_labels(labels->begin(), labels->end());
    auto auc = eval::RocAuc(scores, int_labels);
    if (!auc.ok()) {
      obs::LogError(kFailTag,
                    {{"stage", "roc_auc"}, {"error", auc.status().ToString()}});
      return false;
    }
    ctx.report().RecordMetric("decision_tree_auc", *auc);
  }

  {
    obs::BenchReport::ScopedStage stage(ctx.report(), "stratified_split");
    util::Rng rng(17);
    auto split =
        data::StratifiedTrainValidationSplit(ds, "crash_prone_gt8", 0.67, rng);
    if (!split.ok()) {
      obs::LogError(kFailTag, {{"stage", "stratified_split"},
                               {"error", split.status().ToString()}});
      return false;
    }
  }

  // --- exec layer: serial vs 4-thread runs over the three parallel hot
  // paths, recording <stage>_speedup_4t ratios. Each parallel result is
  // also checked bit-identical to its serial twin — the exec determinism
  // contract, enforced here on paper-scale (or smoke-scale) data.
  // Speedups track available cores; on a single-core host they hover
  // near 1x while the bit-identity checks still bite.
  // A PoolProfiler watches every parallel run: per-thread busy
  // fractions, queue-depth stats and task-time quantiles land in the
  // report's "profile" section, and <stage>_busy_fraction_4t /
  // <stage>_imbalance_4t become first-class bench metrics — the numbers
  // that explain the speedup ratios right below them.
  {
    exec::ThreadPool pool(4);
    exec::PoolProfiler profiler;
    pool.AttachProfiler(&profiler);
    // Speedup ratios only mean something relative to the cores that were
    // actually available; record them next to the ratios so a gate (or a
    // human) can tell "scheduler regression" from "small machine".
    ctx.report().RecordMetric(
        "hardware_threads",
        // roadmine-lint: allow(determinism) — host metadata probe, no threading.
        static_cast<double>(std::thread::hardware_concurrency()));
    auto timed_ms = [&ctx](const char* stage, auto&& fn) {
      const auto start = std::chrono::steady_clock::now();
      fn();
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      ctx.report().RecordTimingMs(stage, ms);
      return ms;
    };

    // Cross-validation folds.
    const eval::BinaryTrainer trainer = eval::ClassifierTrainer(
        ml::Spec("naive_bayes"), "crash_prone_gt8", features);
    eval::CrossValidationOptions cv_options;
    cv_options.folds = smoke ? 4 : 10;
    util::Result<eval::CrossValidationResult> serial_cv =
        util::InternalError("not run");
    util::Result<eval::CrossValidationResult> parallel_cv =
        util::InternalError("not run");
    const double cv_serial_ms = timed_ms("cv_serial", [&] {
      serial_cv =
          eval::CrossValidateBinary(ds, "crash_prone_gt8", trainer, cv_options);
    });
    cv_options.executor = &pool;
    profiler.Begin(pool.concurrency());
    const double cv_parallel_ms = timed_ms("cv_4_threads", [&] {
      parallel_cv =
          eval::CrossValidateBinary(ds, "crash_prone_gt8", trainer, cv_options);
    });
    const exec::PoolProfile cv_profile = profiler.Finish("exec.cv");
    if (!serial_cv.ok() || !parallel_cv.ok()) {
      obs::LogError(kFailTag, {{"stage", "cv_speedup"}});
      return false;
    }
    if (serial_cv->auc != parallel_cv->auc ||
        serial_cv->pooled_confusion.true_positive !=
            parallel_cv->pooled_confusion.true_positive ||
        serial_cv->pooled_confusion.false_positive !=
            parallel_cv->pooled_confusion.false_positive) {
      obs::LogError(kFailTag,
                    {{"stage", "cv_speedup"},
                     {"error", "serial/parallel CV results diverged"}});
      return false;
    }
    ctx.report().RecordMetric("cv_speedup_4t", cv_serial_ms / cv_parallel_ms);
    ctx.report().RecordMetric("cv_busy_fraction_4t",
                              cv_profile.busy_fraction_mean);
    ctx.report().RecordMetric("cv_imbalance_4t", cv_profile.imbalance);

    // Generator segment blocks.
    roadgen::GeneratorConfig gen_config;
    gen_config.num_segments = smoke ? 2000 : 12000;
    gen_config.seed = 7;
    util::Result<std::vector<roadgen::RoadSegment>> serial_segments =
        util::InternalError("not run");
    util::Result<std::vector<roadgen::RoadSegment>> parallel_segments =
        util::InternalError("not run");
    const double gen_serial_ms = timed_ms("generator_serial", [&] {
      serial_segments = roadgen::RoadNetworkGenerator(gen_config).Generate();
    });
    gen_config.executor = &pool;
    const double gen_parallel_ms = timed_ms("generator_4_threads", [&] {
      parallel_segments = roadgen::RoadNetworkGenerator(gen_config).Generate();
    });
    if (!serial_segments.ok() || !parallel_segments.ok()) {
      obs::LogError(kFailTag, {{"stage", "generator_speedup"}});
      return false;
    }
    for (size_t i = 0; i < serial_segments->size(); ++i) {
      if ((*serial_segments)[i].total_crashes() !=
          (*parallel_segments)[i].total_crashes()) {
        obs::LogError(kFailTag,
                      {{"stage", "generator_speedup"},
                       {"error", "serial/parallel networks diverged"}});
        return false;
      }
    }
    ctx.report().RecordMetric("generator_speedup_4t",
                              gen_serial_ms / gen_parallel_ms);

    // Bagged ensemble members.
    ml::BaggedTreesParams bag_params;
    bag_params.num_trees = smoke ? 6 : 32;
    bag_params.tree.min_samples_leaf = 30;
    bag_params.tree.max_leaves = 32;
    std::vector<double> serial_probs, parallel_probs;
    const double bag_serial_ms = timed_ms("bagging_serial", [&] {
      ml::BaggedTreesClassifier model(bag_params);
      if (model.Fit(ds, "crash_prone_gt8", features, all_rows).ok()) {
        serial_probs = *model.PredictBatch(ds, all_rows);
      }
    });
    bag_params.executor = &pool;
    profiler.Begin(pool.concurrency());
    const double bag_parallel_ms = timed_ms("bagging_4_threads", [&] {
      ml::BaggedTreesClassifier model(bag_params);
      if (model.Fit(ds, "crash_prone_gt8", features, all_rows).ok()) {
        parallel_probs = *model.PredictBatch(ds, all_rows);
      }
    });
    const exec::PoolProfile bagging_profile = profiler.Finish("exec.bagging");
    if (serial_probs.empty() || serial_probs != parallel_probs) {
      obs::LogError(kFailTag,
                    {{"stage", "bagging_speedup"},
                     {"error", "serial/parallel ensembles diverged"}});
      return false;
    }
    ctx.report().RecordMetric("bagging_speedup_4t",
                              bag_serial_ms / bag_parallel_ms);
    ctx.report().RecordMetric("bagging_busy_fraction_4t",
                              bagging_profile.busy_fraction_mean);
    ctx.report().RecordMetric("bagging_imbalance_4t",
                              bagging_profile.imbalance);

    // Gradient-boosting growth engine (per-level routing, histogram and
    // split-scan batches). The serialized ensembles must match
    // byte-for-byte — the boosting determinism contract on paper-scale
    // data. (At this size every engine batch is under the work cutoff
    // and runs inline; only HistogramIndex binning uses the pool, so the
    // ratio hovers near 1x by design.) The profiler window covers the
    // threaded leg, like the cv and bagging ones.
    ml::GradientBoostedTreesParams gbt_ab;
    gbt_ab.num_trees = smoke ? 4 : 16;
    gbt_ab.max_depth = 4;
    std::string gbt_serial_text, gbt_parallel_text;
    const double gbt_serial_ms = timed_ms("gbt_serial", [&] {
      ml::GradientBoostedTrees model(gbt_ab);
      if (model.Fit(ds, "crash_prone_gt8", features, all_rows).ok()) {
        gbt_serial_text = model.Serialize();
      }
    });
    gbt_ab.executor = &pool;
    profiler.Begin(pool.concurrency());
    const double gbt_parallel_ms = timed_ms("gbt_4_threads", [&] {
      ml::GradientBoostedTrees model(gbt_ab);
      if (model.Fit(ds, "crash_prone_gt8", features, all_rows).ok()) {
        gbt_parallel_text = model.Serialize();
      }
    });
    const exec::PoolProfile gbt_profile = profiler.Finish("exec.gbt");
    if (gbt_serial_text.empty() || gbt_serial_text != gbt_parallel_text) {
      obs::LogError(kFailTag,
                    {{"stage", "gbt_speedup"},
                     {"error", "serial/parallel boosted ensembles diverged"}});
      return false;
    }
    ctx.report().RecordMetric("gbt_speedup_4t",
                              gbt_serial_ms / gbt_parallel_ms);
    ctx.report().RecordMetric("gbt_busy_fraction_4t",
                              gbt_profile.busy_fraction_mean);
    ctx.report().RecordMetric("gbt_imbalance_4t", gbt_profile.imbalance);

    obs::JsonWriter profile;
    profile.BeginObject();
    profile.Key("cv").Raw(cv_profile.ToJson());
    profile.Key("bagging").Raw(bagging_profile.ToJson());
    profile.Key("gbt").Raw(gbt_profile.ToJson());
    profile.EndObject();
    ctx.report().RecordSection("profile", profile.str());
    pool.AttachProfiler(nullptr);  // Detach before the profiler dies.
  }
  return true;
}

// Writes the report, then re-reads BENCH_perf_ml.json and checks it is
// well-formed JSON — the bench validates its own machine-readable output.
int RunInstrumentedMode(const std::string& dir, bool smoke, int argc,
                        char** argv) {
  bench::BenchContext ctx("perf_ml", argc, argv);
  if (!RunInstrumentedPass(ctx, smoke)) return 1;
  ctx.Finish();  // void flush, shares a name with fallible Finish() elsewhere; roadmine-lint: allow(dropped-status)

  const std::string report_path = dir + "/BENCH_perf_ml.json";
  auto contents = obs::ReadFileToString(report_path);
  if (!contents.ok()) {
    obs::LogError("bench report unreadable",
                  {{"path", report_path},
                   {"error", contents.status().ToString()}});
    return 1;
  }
  if (auto valid = obs::ValidateJson(*contents); !valid.ok()) {
    obs::LogError("bench report is not valid JSON",
                  {{"path", report_path}, {"error", valid.ToString()}});
    return 1;
  }
  std::printf("perf_ml: wrote and validated %s (%zu bytes)\n",
              report_path.c_str(), contents->size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (argv[i][0] != '-' && dir.empty()) {
      dir = argv[i];
    }
  }
  if (dir.empty()) {
    std::fprintf(stderr, "usage: perf_ml [--smoke] [--threads=N] <dir>\n");
    return 2;
  }
  // BenchContext skips flag arguments itself, so "--smoke dir",
  // "dir --smoke" and "--threads=4 dir" all behave alike.
  return RunInstrumentedMode(dir, smoke, argc, argv);
}
