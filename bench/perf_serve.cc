// Performance benches for the serving layer: single-row latency, batch
// throughput, and the flat-vs-pointer speedup that justifies compiling
// models (serve::FlatModel) instead of scoring the training-side objects.
//
//   perf_serve [--smoke] [--threads=N] <dir>
//
// One instrumented pass: writes BENCH_perf_serve.json (latency,
// throughput, speedup) into <dir>, then re-reads and validates the JSON.
// The pass aborts if the compiled model's predictions ever
// diverge from the source ensemble, or if the threaded scoring service
// diverges from serial — perf that costs correctness fails loudly.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/thresholds.h"
#include "exec/executor.h"
#include "exec/profiler.h"
#include "ml/bagging.h"
#include "ml/decision_tree.h"
#include "obs/json.h"
#include "obs/logging.h"
#include "roadgen/dataset_builder.h"
#include "roadgen/generator.h"
#include "serve/flat_model.h"
#include "serve/scoring_service.h"
#include "serve/slo.h"

namespace {

using namespace roadmine;

constexpr char kTarget[] = "crash_prone_gt4";

data::Dataset MakeServeDataset(size_t num_segments, uint64_t seed) {
  roadgen::GeneratorConfig config;
  config.num_segments = num_segments;
  config.seed = seed;
  roadgen::RoadNetworkGenerator gen(config);
  auto segments = gen.Generate();
  auto ds = roadgen::BuildSegmentDataset(*segments);
  // Infallible here: the freshly built dataset always carries the crash-count column.
  (void)core::AddCrashProneTarget(*ds, roadgen::kSegmentCrashCountColumn, 4);
  return std::move(*ds);
}

// Deep ensemble: the regime compilation targets. Gini growth (no
// chi-square significance stop) gives the low-bias deep trees a bagged
// serving ensemble actually carries; the training-side Node structs are
// ~200 bytes each (strings, category vectors), so traversing them misses
// cache on every hop, while the flat pool packs the same splits into a
// few contiguous SoA slots.
ml::BaggedTreesParams ServeEnsembleParams(size_t num_trees) {
  ml::BaggedTreesParams params;
  params.num_trees = num_trees;
  params.tree.criterion = ml::SplitCriterion::kGini;
  params.tree.min_samples_leaf = 5;
  params.tree.min_samples_split = 10;
  params.tree.max_depth = 20;
  params.tree.max_leaves = 512;
  return params;
}

// ---------------------------------------------------------------------------
// Instrumented single-pass mode.
// ---------------------------------------------------------------------------

constexpr char kFailTag[] = "perf_serve instrumented pass failed";

// Best-of-`reps` wall-clock of `fn` in milliseconds.
template <typename Fn>
double BestOfMs(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    best = std::min(best, std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count());
  }
  return best;
}

bool RunInstrumentedPass(bench::BenchContext& ctx, bool smoke) {
  // The smoke pass still needs to sit in the regime compilation targets
  // (a node pool larger than cache), or the speedup headline measures
  // L1 residency instead of layout.
  data::Dataset ds;
  {
    obs::BenchReport::ScopedStage stage(ctx.report(), "dataset_build");
    ds = MakeServeDataset(smoke ? 4000 : 8000, 77);
  }
  ctx.report().RecordMetric("dataset_rows",
                            static_cast<double>(ds.num_rows()));
  const std::vector<size_t> all_rows = ds.AllRowIndices();
  const std::vector<std::string>& features = roadgen::RoadAttributeColumns();

  ml::BaggedTreesClassifier ensemble(ServeEnsembleParams(16));
  {
    obs::BenchReport::ScopedStage stage(ctx.report(), "ensemble_fit");
    auto status = ensemble.Fit(ds, kTarget, features, all_rows);
    if (!status.ok()) {
      obs::LogError(kFailTag, {{"stage", "ensemble_fit"},
                               {"error", status.ToString()}});
      return false;
    }
  }
  ctx.report().RecordMetric("ensemble_leaves",
                            static_cast<double>(ensemble.total_leaves()));

  serve::FlatModel flat;
  {
    obs::BenchReport::ScopedStage stage(ctx.report(), "compile_model");
    auto compiled = serve::CompileModel(ensemble);
    if (!compiled.ok()) {
      obs::LogError(kFailTag, {{"stage", "compile_model"},
                               {"error", compiled.status().ToString()}});
      return false;
    }
    flat = std::move(*compiled);
  }
  ctx.report().RecordMetric("flat_nodes",
                            static_cast<double>(flat.node_count()));

  // Equivalence gate: the whole point of the flat form is bit-identical
  // predictions; a fast-but-wrong pool fails the smoke test.
  const std::vector<double> want = *ensemble.PredictBatch(ds, all_rows);
  {
    auto got = flat.PredictBatch(ds, all_rows);
    if (!got.ok() || *got != want) {
      obs::LogError(kFailTag,
                    {{"stage", "equivalence"},
                     {"error", "flat predictions diverged from source"}});
      return false;
    }
  }

  const int reps = smoke ? 3 : 5;

  // Batch throughput: the serving hot path.
  const double pointer_batch_ms = BestOfMs(reps, [&] {
    bench::Sink(ensemble.PredictBatch(ds, all_rows));
  });
  const double flat_batch_ms = BestOfMs(reps, [&] {
    bench::Sink(flat.PredictBatch(ds, all_rows));
  });
  ctx.report().RecordTimingMs("pointer_batch", pointer_batch_ms);
  ctx.report().RecordTimingMs("flat_batch", flat_batch_ms);
  ctx.report().RecordMetric(
      "pointer_batch_rows_per_sec",
      static_cast<double>(all_rows.size()) / (pointer_batch_ms / 1000.0));
  ctx.report().RecordMetric(
      "flat_batch_rows_per_sec",
      static_cast<double>(all_rows.size()) / (flat_batch_ms / 1000.0));
  ctx.report().RecordMetric("flat_speedup", pointer_batch_ms / flat_batch_ms);

  // Single-row latency, amortized over a row sweep.
  const size_t latency_rows = std::min<size_t>(ds.num_rows(), 2000);
  const double pointer_single_ms = BestOfMs(reps, [&] {
    for (size_t r = 0; r < latency_rows; ++r) {
      bench::Sink(ensemble.PredictProba(ds, r));
    }
  });
  const double flat_single_ms = BestOfMs(reps, [&] {
    for (size_t r = 0; r < latency_rows; ++r) {
      bench::Sink(flat.PredictRow(ds, r));
    }
  });
  ctx.report().RecordMetric(
      "pointer_single_row_us",
      pointer_single_ms * 1000.0 / static_cast<double>(latency_rows));
  ctx.report().RecordMetric(
      "flat_single_row_us",
      flat_single_ms * 1000.0 / static_cast<double>(latency_rows));

  // Scoring service: sharded batch must be bit-identical to serial, at
  // whatever worker count the --threads flag selected (plus a fixed pool
  // so the default smoke run still exercises the sharded path).
  {
    obs::BenchReport::ScopedStage stage(ctx.report(), "scoring_service");
    auto shared_flat = std::make_shared<serve::FlatModel>(flat);
    serve::ScoringService serial;
    if (!serial.Register("crash_prone", "v1", shared_flat).ok()) return false;
    auto serial_scores = serial.ScoreBatch("crash_prone", "v1", ds, all_rows);
    if (!serial_scores.ok() || *serial_scores != want) {
      obs::LogError(kFailTag,
                    {{"stage", "scoring_service"},
                     {"error", "serial service scores diverged"}});
      return false;
    }

    exec::ThreadPool fallback_pool(4);
    exec::Executor* pool =
        ctx.executor() != nullptr ? ctx.executor() : &fallback_pool;
    // Loose-but-real objectives: the bench should normally stay healthy,
    // and the report's "slo" section shows the rolling quantiles the
    // tracker derived from the same requests the timings cover.
    serve::SloConfig slo;
    slo.p50_ms = 1000.0;
    slo.p99_ms = 5000.0;
    slo.min_rows_per_sec = 1000.0;
    serve::ScoringService threaded(
        serve::ScoringServiceOptions{.executor = pool, .slo = slo});
    if (!threaded.Register("crash_prone", "v1", shared_flat).ok()) {
      return false;
    }
    // Profile the pool while the service shards batches over it.
    exec::PoolProfiler profiler;
    auto* thread_pool = dynamic_cast<exec::ThreadPool*>(pool);
    if (thread_pool != nullptr) {
      thread_pool->AttachProfiler(&profiler);
      profiler.Begin(thread_pool->concurrency());
    }
    const double threaded_ms = BestOfMs(reps, [&] {
      auto scores = threaded.ScoreBatch("crash_prone", "v1", ds, all_rows);
      if (!scores.ok() || *scores != *serial_scores) {
        obs::LogError(kFailTag,
                      {{"stage", "scoring_service"},
                       {"error", "threaded scores diverged from serial"}});
        std::exit(1);
      }
    });
    ctx.report().RecordTimingMs("service_batch_threaded", threaded_ms);
    ctx.report().RecordMetric("service_threads",
                              static_cast<double>(pool->concurrency()));
    if (thread_pool != nullptr) {
      const exec::PoolProfile profile = profiler.Finish("exec.serve");
      thread_pool->AttachProfiler(nullptr);
      ctx.report().RecordMetric("service_busy_fraction",
                                profile.busy_fraction_mean);
      ctx.report().RecordMetric("service_imbalance", profile.imbalance);
      obs::JsonWriter section;
      section.BeginObject();
      section.Key("service_batch").Raw(profile.ToJson());
      section.EndObject();
      ctx.report().RecordSection("profile", section.str());
    }

    // Rolling SLO state after the benched requests.
    const std::vector<serve::SloStatus> statuses = threaded.SloReport();
    if (!statuses.empty()) {
      const serve::SloStatus& status = statuses.front();
      ctx.report().RecordMetric("service_p50_ms", status.p50_ms);
      ctx.report().RecordMetric("service_p99_ms", status.p99_ms);
      ctx.report().RecordMetric("service_rows_per_sec", status.rows_per_sec);
      ctx.report().RecordMetric(
          "service_slo_breaches",
          static_cast<double>(status.p50_breaches + status.p99_breaches +
                              status.throughput_breaches));
      ctx.report().RecordSection("slo", serve::SloReportToJson(statuses));
    }
  }
  return true;
}

int RunInstrumentedMode(const std::string& dir, bool smoke, int argc,
                        char** argv) {
  bench::BenchContext ctx("perf_serve", argc, argv);
  if (!RunInstrumentedPass(ctx, smoke)) return 1;
  ctx.Finish();  // void flush, shares a name with fallible Finish() elsewhere; roadmine-lint: allow(dropped-status)

  const std::string report_path = dir + "/BENCH_perf_serve.json";
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
  std::printf("perf_serve: wrote and validated %s (%zu bytes)\n",
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
    std::fprintf(stderr,
                 "usage: perf_serve [--smoke] [--threads=N] <dir>\n");
    return 2;
  }
  return RunInstrumentedMode(dir, smoke, argc, argv);
}
