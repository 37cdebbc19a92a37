// Workload `network_build`: a state-size network (65,536 1-km segments,
// inside the 33k-60k range of real state networks, rounded up to 2^16)
// exported as CSV, ingested to pages, and trained twice with one fixed
// GBT (80 trees, depth 5, target CP-4) on a 4-worker pool.
//
// Timed job: CSV -> pages ingest (CsvChunkReader -> PagedDatasetWriter),
// then FitPaged over the pages, then in-RAM Fit on the same rows. At this
// size every numeric column stays in QuantileSketch's exact regime, so the
// paged and in-RAM models must serialize byte-identically; run length
// comes from the tree count, not from more rows.
//
// Harness prep (untimed): roadgen networks, the CSV export, the in-RAM
// copy of the CSV rows, and a held-out network from another seed.
// Setup (setup_s): opening the CSV reader (its inference passes).
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/thresholds.h"
#include "data/csv_io.h"
#include "data/paged_dataset.h"
#include "eval/roc.h"
#include "exec/executor.h"
#include "exec/profiler.h"
#include "ml/common.h"
#include "ml/gradient_boosting.h"
#include "ml/histogram_index.h"
#include "ml/quantile_sketch.h"
#include "roadgen/dataset_builder.h"
#include "roadgen/generator.h"
#include "util/rng.h"

namespace roadbench {

namespace rm = roadmine;
using rm::util::Result;
using rm::util::Status;

namespace {

constexpr size_t kPoolWidth = 4;
constexpr size_t kSegments = 65536;
constexpr size_t kHoldoutSegments = 32768;
constexpr size_t kPageRows = 8192;
constexpr int kThreshold = 4;
constexpr int kSetupsPerJob = 4;

rm::ml::GradientBoostedTreesParams GbtParams(rm::exec::Executor* executor) {
  rm::ml::GradientBoostedTreesParams params;
  params.num_trees = 80;
  params.max_depth = 5;
  params.max_bins = 256;
  params.seed = 61;
  params.executor = executor;
  return params;
}

Result<rm::data::Dataset> MakeNetwork(size_t segments, uint64_t seed,
                                      rm::exec::Executor* executor) {
  rm::roadgen::GeneratorConfig config;
  config.num_segments = segments;
  config.seed = seed;
  config.executor = executor;
  auto network = rm::roadgen::RoadNetworkGenerator(config).Generate();
  if (!network.ok()) return network.status();
  auto dataset = rm::roadgen::BuildSegmentDataset(*network);
  if (!dataset.ok()) return dataset.status();
  ROADMINE_RETURN_IF_ERROR(rm::core::AddCrashProneTarget(
      *dataset, rm::roadgen::kSegmentCrashCountColumn, kThreshold));
  return dataset;
}

// Re-encodes `holdout`'s categorical columns with `reference`'s
// dictionaries (CSV ingest orders categories by first appearance).
Status AlignCategories(rm::data::Dataset& holdout,
                       const rm::data::Dataset& reference) {
  for (size_t c = 0; c < holdout.num_columns(); ++c) {
    const rm::data::Column& column = holdout.column(c);
    if (column.type() != rm::data::ColumnType::kCategorical) continue;
    auto ref = reference.ColumnByName(column.name());
    if (!ref.ok()) return ref.status();
    const std::vector<std::string>& dict = (*ref)->categories();
    std::vector<int32_t> codes(column.size(), -1);
    for (size_t r = 0; r < column.size(); ++r) {
      if (column.CodeAt(r) < 0) continue;
      const std::string& name = column.CategoryName(column.CodeAt(r));
      for (size_t k = 0; k < dict.size(); ++k) {
        if (dict[k] == name) codes[r] = static_cast<int32_t>(k);
      }
    }
    auto aligned = rm::data::Column::Categorical(column.name(), std::move(codes), dict);
    if (!aligned.ok()) return aligned.status();
    ROADMINE_RETURN_IF_ERROR(holdout.ReplaceColumn(std::move(*aligned)));
  }
  return Status::Ok();
}

struct Inputs {
  std::string csv_path;
  std::string pages_dir;
  rm::data::Dataset inram;    // The CSV's rows, as ReadCsvFile parses them.
  rm::data::Dataset holdout;  // Another seed's network, same encoding.
  std::vector<std::string> features;
  std::string target;
};

Result<Inputs> Prepare(const RunOptions& options, rm::exec::Executor* executor) {
  Inputs in;
  const std::string dir = options.work_dir + "/network_build";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return rm::util::InvalidArgumentError("cannot create " + dir);
  in.csv_path = dir + "/network.csv";
  in.pages_dir = dir + "/pages";
  in.features = rm::roadgen::RoadAttributeColumns();
  in.target = rm::core::ThresholdTargetName(kThreshold);

  auto network = MakeNetwork(kSegments, rm::util::Rng::SplitSeed(options.seed, 2),
                             executor);
  if (!network.ok()) return network.status();
  ROADMINE_RETURN_IF_ERROR(rm::data::WriteCsvFile(*network, in.csv_path));
  auto inram = rm::data::ReadCsvFile(in.csv_path);
  if (!inram.ok()) return inram.status();
  in.inram = std::move(*inram);

  auto holdout = MakeNetwork(kHoldoutSegments,
                             rm::util::Rng::SplitSeed(options.seed, 3), executor);
  if (!holdout.ok()) return holdout.status();
  ROADMINE_RETURN_IF_ERROR(AlignCategories(*holdout, in.inram));
  in.holdout = std::move(*holdout);
  return in;
}

struct JobResult {
  double ingest_ms = 0.0;
  double fit_paged_ms = 0.0;
  double fit_ms = 0.0;
  double source_wait_ms = 0.0;
  uint64_t rows = 0;
  uint64_t passes = 0;
  uint64_t chunks = 0;
  std::string model;  // Serialized paged model.
  std::shared_ptr<rm::ml::GradientBoostedTrees> paged_model;

  double total_ms() const { return ingest_ms + fit_paged_ms + fit_ms; }
};

// One timed job. Phase spans ("phase/<name>") are recorded when tracing.
JobResult RunJob(Report& report, const Inputs& in, rm::exec::Executor* executor) {
  JobResult job;
  std::error_code ec;
  std::filesystem::remove_all(in.pages_dir, ec);
  auto reader = rm::data::CsvChunkReader::OpenFile(in.csv_path);
  if (!report.CheckStatus(reader.status(), "open CSV")) return job;

  {
    Span span("phase/ingest");
    const auto start = Clock::now();
    auto writer = rm::data::PagedDatasetWriter::Create(
        in.pages_dir, (*reader)->schema(), {.page_rows = kPageRows});
    if (!report.CheckStatus(writer.status(), "create page writer")) return job;
    for (;;) {
      auto chunk = (*reader)->Next();
      if (!report.CheckStatus(chunk.status(), "read CSV chunk")) return job;
      if (*chunk == nullptr) break;
      if (!report.CheckStatus((*writer)->Append(**chunk), "append page rows")) {
        return job;
      }
    }
    if (!report.CheckStatus((*writer)->Finish(), "finish pages")) return job;
    job.ingest_ms = MsSince(start);
    job.rows = (*writer)->rows_written();
  }
  report.Check(job.rows == kSegments, "ingest wrote every CSV row");

  auto paged = rm::data::PagedDataset::Open(in.pages_dir);
  if (!report.CheckStatus(paged.status(), "open pages")) return job;
  job.paged_model =
      std::make_shared<rm::ml::GradientBoostedTrees>(GbtParams(executor));
  {
    Span span("phase/fit_paged");
    auto stream = paged->Pages(executor);
    TimingRowSource source(stream);
    const auto start = Clock::now();
    Status fit = job.paged_model->FitPaged(source, in.target, in.features);
    job.fit_paged_ms = MsSince(start);
    if (!report.CheckStatus(fit, "FitPaged")) return job;
    job.source_wait_ms = source.wait_ms();
    job.passes = source.passes();
    job.chunks = source.chunks();
  }

  rm::ml::GradientBoostedTrees inram_model(GbtParams(executor));
  {
    Span span("phase/fit");
    const auto start = Clock::now();
    Status fit = inram_model.Fit(in.inram, in.target, in.features,
                                 in.inram.AllRowIndices());
    job.fit_ms = MsSince(start);
    if (!report.CheckStatus(fit, "in-RAM Fit")) return job;
  }
  job.model = job.paged_model->Serialize();
  report.Check(job.model == inram_model.Serialize(),
               "paged model serializes identically to the in-RAM model");
  return job;
}

Result<double> HoldoutAuc(const Inputs& in, const std::string& model_text) {
  auto model = rm::ml::GradientBoostedTrees::Deserialize(model_text, in.holdout);
  if (!model.ok()) return model.status();
  auto scores = model->PredictBatch(in.holdout, in.holdout.AllRowIndices());
  if (!scores.ok()) return scores.status();
  auto labels = rm::ml::ExtractBinaryLabels(in.holdout, in.target);
  if (!labels.ok()) return labels.status();
  return rm::eval::RocAuc(*scores, std::vector<int>(labels->begin(), labels->end()));
}

// Traced replays of the layers under the job's phases.
struct LayerReplay {
  uint64_t page_bytes_written = 0;
  uint64_t page_bytes = 0;
};

LayerReplay ReplayLayers(Report& report, const Inputs& in,
                         rm::exec::Executor* executor,
                         const std::string& reference_model) {
  LayerReplay out;
  // data: the CSV parse alone, then the page writer alone on those chunks.
  std::vector<rm::data::Dataset> chunks;
  auto reader = rm::data::CsvChunkReader::OpenFile(in.csv_path);
  if (!report.CheckStatus(reader.status(), "open CSV")) return out;
  for (;;) {
    Result<const rm::data::Dataset*> chunk = nullptr;
    {
      Span span("ingest/data.csv_parse");
      chunk = (*reader)->Next();
    }
    if (!report.CheckStatus(chunk.status(), "read CSV chunk") || *chunk == nullptr) {
      break;
    }
    chunks.push_back(**chunk);
  }
  const std::string copy_dir = in.pages_dir + "_replay";
  std::error_code ec;
  std::filesystem::remove_all(copy_dir, ec);
  {
    Span span("ingest/data.page_write");
    auto writer = rm::data::PagedDatasetWriter::Create(
        copy_dir, (*reader)->schema(), {.page_rows = kPageRows});
    if (report.CheckStatus(writer.status(), "create page writer")) {
      for (const rm::data::Dataset& chunk : chunks) {
        report.CheckStatus((*writer)->Append(chunk), "append page rows");
      }
      report.CheckStatus((*writer)->Finish(), "finish pages");
    }
  }
  out.page_bytes_written = DirectoryBytes(copy_dir);
  std::filesystem::remove_all(copy_dir, ec);
  out.page_bytes = DirectoryBytes(in.pages_dir);

  // data: one serial read/checksum/decode pass; ml: the streaming sketch
  // over every numeric feature of those pages.
  auto paged = rm::data::PagedDataset::Open(in.pages_dir);
  if (!report.CheckStatus(paged.status(), "open pages")) return out;
  std::vector<rm::data::Dataset> pages;
  for (size_t p = 0; p < paged->num_pages(); ++p) {
    Span span("fit_paged/data.page_read");
    auto page = paged->ReadPage(p);
    if (!report.CheckStatus(page.status(), "read page")) return out;
    pages.push_back(std::move(*page));
  }
  {
    Span span("fit_paged/ml.quantile_sketch");
    for (const std::string& name : in.features) {
      auto col = paged->schema().ColumnIndex(name);
      if (!col.ok() ||
          paged->schema().columns[*col].type != rm::data::ColumnType::kNumeric) {
        continue;
      }
      rm::ml::QuantileSketch sketch;
      for (const rm::data::Dataset& page : pages) {
        const std::vector<double>& values = page.column(*col).numeric_values();
        for (double v : values) {
          if (v == v) sketch.Add(v);
        }
      }
      report.Check(!sketch.Cuts(256).empty() && sketch.exact(),
                   "sketch stays in the exact regime");
    }
  }

  // ml: in-RAM Fit split into binning and growth over the prebuilt index.
  auto refs = rm::ml::ResolveFeatures(in.inram, in.features, in.target);
  if (!report.CheckStatus(refs.status(), "resolve features")) return out;
  std::optional<rm::ml::HistogramIndex> hist;
  {
    Span span("fit/ml.histogram_index");
    auto built = rm::ml::HistogramIndex::Build(
        in.inram, *refs, in.inram.AllRowIndices(), {.max_bins = 256}, executor);
    if (!report.CheckStatus(built.status(), "histogram index")) return out;
    hist.emplace(std::move(*built));
  }
  rm::ml::GradientBoostedTreesParams params = GbtParams(executor);
  params.histogram_index = &*hist;
  rm::ml::GradientBoostedTrees grown(params);
  {
    Span span("fit/ml.gbt.grow");
    report.CheckStatus(grown.Fit(in.inram, in.target, in.features,
                                 in.inram.AllRowIndices()),
                       "Fit over the prebuilt index");
  }
  report.Check(grown.Serialize() == reference_model,
               "Fit over a prebuilt index equals Fit");

  // The timing wrapper must not change what FitPaged computes.
  rm::ml::GradientBoostedTrees unwrapped(GbtParams(executor));
  auto stream = paged->Pages(executor);
  report.CheckStatus(unwrapped.FitPaged(stream, in.target, in.features),
                     "unwrapped FitPaged");
  report.Check(unwrapped.Serialize() == reference_model,
               "wrapped and unwrapped FitPaged serialize identically");
  return out;
}

}  // namespace

Result<std::string> WriteNetworkBuildInputs(const RunOptions& options) {
  auto inputs = Prepare(options, nullptr);
  if (!inputs.ok()) return inputs.status();
  const std::string dir = options.work_dir + "/network_build";
  ROADMINE_RETURN_IF_ERROR(
      rm::data::WriteCsvFile(inputs->holdout, dir + "/holdout.csv", ',', 17));
  return dir;
}

int RunNetworkBuild(const RunOptions& options) {
  Report report;
  const auto& catalogue = options.trace ? PerLayerMetrics() : EndToEndMetrics();
  rm::exec::ThreadPool pool(kPoolWidth);
  RecordHost(report, MeasureHost(kPoolWidth));

  auto inputs = Prepare(options, &pool);
  if (!report.CheckStatus(inputs.status(), "prepare network inputs")) {
    return report.Finish(catalogue);
  }
  const TimedStep open_reader = [&]() -> std::optional<double> {
    const auto start = Clock::now();
    auto reader = rm::data::CsvChunkReader::OpenFile(inputs->csv_path);
    const double seconds = MsSince(start) / 1e3;
    if (!report.CheckStatus(reader.status(), "open CSV reader")) return std::nullopt;
    return seconds;
  };
  if (!open_reader()) return report.Finish(catalogue);
  std::printf("inputs: %zu segments, %zu-row pages, holdout %zu segments, "
              "pool width %zu\n",
              kSegments, kPageRows, kHoldoutSegments, kPoolWidth);
  ResetPeakRss();

  const JobResult reference = RunJob(report, *inputs, &pool);
  if (report.failed() > 0) return report.Finish(catalogue);

  if (!options.trace) {
    std::vector<double> ingest, fit_paged, fit;
    RunTimed(report, options, kSetupsPerJob, open_reader,
             [&]() -> std::optional<double> {
               const JobResult job = RunJob(report, *inputs, &pool);
               report.Check(job.model == reference.model,
                            "job reproduces the reference model");
               ingest.push_back(job.ingest_ms / 1e3);
               fit_paged.push_back(job.fit_paged_ms / 1e3);
               fit.push_back(job.fit_ms / 1e3);
               return job.total_ms() / 1e3;
             });
    auto auc = HoldoutAuc(*inputs, reference.model);
    report.CheckStatus(auc.status(), "holdout AUC");
    const double rows = static_cast<double>(reference.rows);
    report.Set("quality", auc.ok() ? *auc : 0.0);
    report.Detail("ingest_rows_per_s", rows / Median(ingest), "rows/s", ingest.size());
    report.Detail("paged_train_rows_per_s", rows / Median(fit_paged), "rows/s",
                  fit_paged.size());
    report.Detail("inram_train_rows_per_s", rows / Median(fit), "rows/s", fit.size());
    report.Detail("holdout_auc", auc.ok() ? *auc : 0.0, "ratio");
    return report.Finish(catalogue);
  }

  // ---- Traced run.
  const JobResult untraced = RunJob(report, *inputs, &pool);
  rm::obs::TraceCollector& collector = rm::obs::TraceCollector::Global();
  collector.Clear();
  collector.Enable();
  rm::exec::PoolProfiler profiler;
  pool.AttachProfiler(&profiler);
  profiler.Begin(pool.concurrency());
  const JobResult traced = RunJob(report, *inputs, &pool);
  const rm::exec::PoolProfile profile = profiler.Finish();
  pool.AttachProfiler(nullptr);
  report.Check(traced.model == reference.model, "traced job reproduces the reference");
  const LayerReplay replay = ReplayLayers(report, *inputs, &pool, reference.model);
  collector.Disable();

  std::map<std::string, double> t = BenchSpanTotalsMs();
  AddPhase(report, "ingest", t["phase/ingest"],
           {{"data.csv_parse_ms", t["ingest/data.csv_parse"]},
            {"data.page_write_ms", t["ingest/data.page_write"]}});
  AddPhase(report, "fit_paged", t["phase/fit_paged"],
           {{"data.source_wait_ms.fit_paged", traced.source_wait_ms},
            {"ml.quantile_sketch_ms", t["fit_paged/ml.quantile_sketch"]}});
  AddPhase(report, "fit", t["phase/fit"],
           {{"ml.histogram_index_ms", t["fit/ml.histogram_index"]},
            {"ml.gbt.grow_ms", t["fit/ml.gbt.grow"]}});
  report.Set("ml.gbt.fit_paged_compute_ms",
             t["phase/fit_paged"] - traced.source_wait_ms);
  report.Set("ml.gbt.paged_inram_ratio", t["phase/fit"] / t["phase/fit_paged"]);
  report.Set("data.page_read_ms", t["fit_paged/data.page_read"]);
  report.Set("data.page_bytes_written", static_cast<double>(replay.page_bytes_written));
  report.Set("data.page_bytes_read",
             static_cast<double>(replay.page_bytes * traced.passes));
  report.Set("data.source_passes.fit_paged", static_cast<double>(traced.passes));
  report.Set("data.source_chunks.fit_paged", static_cast<double>(traced.chunks));
  if (reference.paged_model) {
    report.Set("ml.gbt.trees", static_cast<double>(reference.paged_model->tree_count()));
    report.Set("ml.gbt.leaves",
               static_cast<double>(reference.paged_model->total_leaves()));
  }
  report.Set("exec.busy_fraction", profile.busy_fraction_mean);
  report.Set("exec.imbalance", profile.imbalance);
  report.Set("exec.tasks", static_cast<double>(profile.task_count));
  report.Set("obs.trace_overhead_pct",
             100.0 * (traced.total_ms() - untraced.total_ms()) / untraced.total_ms());
  return report.Finish(catalogue);
}

}  // namespace roadbench
