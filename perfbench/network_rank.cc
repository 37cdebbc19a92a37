// Workload `network_rank`: the deployment job. A network of 2^20 (about
// 1M) segments already on pages and a saved compiled GBT; no training.
//
// Timed job (job_s), serial (no executor): ScoringService::ScorePaged
// top-50 and core::BuildWorksProgramPaged over the whole network. It runs
// serially because 4-worker paged scoring was bimodal run to run on a
// 4-vCPU host while serial scoring held steady.
//
// After the scan, each job runs a request session: one closed-loop client
// sending 50,000 single-segment requests and 2,000 64-contiguous-segment
// "corridor" requests through ScoringService::ScoreBatch, rows drawn
// uniformly from the first four pages. No measurement or source fixes
// that mix, so the session is kept out of job_s and reported only as
// per-class latencies, which do not depend on the mix.
//
// Harness prep (untimed): pages emitted by roadgen, a GBT trained on
// another seed's network, compiled, and saved; the request plan; the pages
// the requests read. Setup (setup_s): PagedDataset::Open,
// serve::LoadPredictorFromFile and ScoringService::Register.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/deployment.h"
#include "core/thresholds.h"
#include "data/paged_dataset.h"
#include "exec/executor.h"
#include "ml/gradient_boosting.h"
#include "roadgen/dataset_builder.h"
#include "roadgen/generator.h"
#include "roadgen/paged_emit.h"
#include "serve/flat_model.h"
#include "serve/model_store.h"
#include "serve/scoring_service.h"
#include "util/rng.h"

namespace roadbench {

namespace rm = roadmine;
using rm::util::Result;
using rm::util::Status;

namespace {

constexpr size_t kPrepThreads = 4;
constexpr size_t kSegments = size_t{1} << 20;
constexpr size_t kPageRows = 65536;
constexpr size_t kTrainSegments = 65536;
constexpr size_t kServedTrees = 20;
constexpr int kThreshold = 4;
constexpr size_t kTopK = 50;
constexpr size_t kQueryPages = 4;
constexpr size_t kSingleRequests = 50000;
constexpr size_t kCorridorRequests = 2000;
constexpr size_t kCorridorRows = 64;
constexpr int kSetupsPerJob = 20;
constexpr char kModel[] = "crash_prone";
constexpr char kVersion[] = "v1";

struct Request {
  size_t page = 0;
  std::vector<size_t> rows;  // One row, or kCorridorRows contiguous rows.
};

struct Inputs {
  std::string pages_dir;
  std::string model_path;
  std::vector<Request> requests;  // Closed-loop plan, in send order.
};

// An empty dataset carrying `schema`: what model loading resolves
// feature columns against.
Result<rm::data::Dataset> SchemaDataset(const rm::data::TableSchema& schema) {
  rm::data::Dataset dataset;
  for (const rm::data::ColumnSpec& spec : schema.columns) {
    if (spec.type == rm::data::ColumnType::kNumeric) {
      ROADMINE_RETURN_IF_ERROR(
          dataset.AddColumn(rm::data::Column::Numeric(spec.name, {})));
    } else {
      auto column = rm::data::Column::Categorical(spec.name, {}, spec.categories);
      if (!column.ok()) return column.status();
      ROADMINE_RETURN_IF_ERROR(dataset.AddColumn(std::move(*column)));
    }
  }
  return dataset;
}

Result<Inputs> Prepare(const RunOptions& options) {
  Inputs in;
  const std::string dir = options.work_dir + "/network_rank";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return rm::util::InvalidArgumentError("cannot create " + dir);
  in.pages_dir = dir + "/pages";
  in.model_path = dir + "/model.flat";
  const std::string target = rm::core::ThresholdTargetName(kThreshold);

  rm::exec::ThreadPool pool(kPrepThreads);
  rm::roadgen::GeneratorConfig network;
  network.num_segments = kSegments;
  network.seed = rm::util::Rng::SplitSeed(options.seed, 4);
  network.executor = &pool;
  auto emitted = rm::roadgen::EmitSegmentPages(
      network, in.pages_dir,
      {.page_rows = kPageRows,
       .targets = {{target, static_cast<double>(kThreshold)}}});
  if (!emitted.ok()) return emitted.status();

  rm::roadgen::GeneratorConfig training;
  training.num_segments = kTrainSegments;
  training.seed = rm::util::Rng::SplitSeed(options.seed, 5);
  training.executor = &pool;
  auto segments = rm::roadgen::RoadNetworkGenerator(training).Generate();
  if (!segments.ok()) return segments.status();
  auto dataset = rm::roadgen::BuildSegmentDataset(*segments);
  if (!dataset.ok()) return dataset.status();
  ROADMINE_RETURN_IF_ERROR(rm::core::AddCrashProneTarget(
      *dataset, rm::roadgen::kSegmentCrashCountColumn, kThreshold));
  rm::ml::GradientBoostedTreesParams params;
  params.num_trees = kServedTrees;
  params.max_depth = 5;
  params.executor = &pool;
  rm::ml::GradientBoostedTrees gbt(params);
  ROADMINE_RETURN_IF_ERROR(gbt.Fit(*dataset, target,
                                   rm::roadgen::RoadAttributeColumns(),
                                   dataset->AllRowIndices()));
  auto flat = rm::serve::CompileModel(gbt);
  if (!flat.ok()) return flat.status();
  ROADMINE_RETURN_IF_ERROR(
      rm::serve::SaveModelToFile(flat->Serialize(), in.model_path));

  // Every 26th request is a corridor: 50,000 singles and 2,000 corridors.
  rm::util::Rng rng(rm::util::Rng::SplitSeed(options.seed, 6));
  const size_t total = kSingleRequests + kCorridorRequests;
  for (size_t i = 0; i < total; ++i) {
    Request request;
    request.page = rng.UniformInt(0, static_cast<int64_t>(kQueryPages) - 1);
    if (i % 26 == 25) {
      const size_t start = rng.UniformInt(
          0, static_cast<int64_t>(kPageRows - kCorridorRows));
      for (size_t r = 0; r < kCorridorRows; ++r) request.rows.push_back(start + r);
    } else {
      request.rows.push_back(
          rng.UniformInt(0, static_cast<int64_t>(kPageRows) - 1));
    }
    in.requests.push_back(std::move(request));
  }
  return in;
}

// What setup produces and the job reads.
struct Deployment {
  std::unique_ptr<rm::data::PagedDataset> paged;
  std::shared_ptr<const rm::ml::Predictor> model;
  const rm::serve::FlatModel* flat = nullptr;
  std::unique_ptr<rm::serve::ScoringService> service;
  double load_ms = 0.0;
};

Result<Deployment> SetUp(const Inputs& in) {
  Deployment d;
  auto paged = rm::data::PagedDataset::Open(in.pages_dir);
  if (!paged.ok()) return paged.status();
  d.paged = std::make_unique<rm::data::PagedDataset>(std::move(*paged));
  auto schema = SchemaDataset(d.paged->schema());
  if (!schema.ok()) return schema.status();
  const auto start = Clock::now();
  auto model = rm::serve::LoadPredictorFromFile(in.model_path, *schema);
  d.load_ms = MsSince(start);
  if (!model.ok()) return model.status();
  d.model = std::shared_ptr<const rm::ml::Predictor>(std::move(*model));
  d.flat = dynamic_cast<const rm::serve::FlatModel*>(d.model.get());
  if (d.flat == nullptr) {
    return rm::util::InvalidArgumentError("saved model is not a compiled FlatModel");
  }
  d.service = std::make_unique<rm::serve::ScoringService>();
  ROADMINE_RETURN_IF_ERROR(d.service->Register(kModel, kVersion, d.model));
  return d;
}

struct JobResult {
  double score_ms = 0.0;
  double works_ms = 0.0;
  double query_ms = 0.0;
  std::vector<double> single_us;
  std::vector<double> corridor_us;
  std::vector<rm::serve::PagedScore> top;
  rm::core::WorksProgram works;
  double score_wait_ms = 0.0, works_wait_ms = 0.0;
  uint64_t score_passes = 0, score_chunks = 0;
  uint64_t works_passes = 0, works_chunks = 0;

  double scan_ms() const { return score_ms + works_ms; }
  double total_ms() const { return score_ms + works_ms + query_ms; }
};

JobResult RunJob(Report& report, const Deployment& d, const Inputs& in,
                 const std::vector<rm::data::Dataset>& query_pages,
                 const std::vector<std::vector<double>>& expected) {
  JobResult job;
  {
    Span span("phase/score_paged");
    auto stream = d.paged->Pages(nullptr);
    TimingRowSource source(stream);
    const auto start = Clock::now();
    auto top = d.service->ScorePaged(kModel, kVersion, source, kTopK);
    job.score_ms = MsSince(start);
    if (report.CheckStatus(top.status(), "ScorePaged")) job.top = std::move(*top);
    job.score_wait_ms = source.wait_ms();
    job.score_passes = source.passes();
    job.score_chunks = source.chunks();
  }
  {
    Span span("phase/works_paged");
    auto stream = d.paged->Pages(nullptr);
    TimingRowSource source(stream);
    const auto start = Clock::now();
    auto works = rm::core::BuildWorksProgramPaged(source, *d.model, {});
    job.works_ms = MsSince(start);
    if (report.CheckStatus(works.status(), "BuildWorksProgramPaged")) {
      job.works = std::move(*works);
    }
    job.works_wait_ms = source.wait_ms();
    job.works_passes = source.passes();
    job.works_chunks = source.chunks();
  }
  job.single_us.reserve(kSingleRequests);
  job.corridor_us.reserve(kCorridorRequests);
  size_t wrong = 0;
  {
    Span span("phase/query");
    const auto begin = Clock::now();
    for (const Request& request : in.requests) {
      const auto start = Clock::now();
      auto scores = d.service->ScoreBatch(kModel, kVersion,
                                          query_pages[request.page], request.rows);
      const double us = MsSince(start) * 1e3;
      (request.rows.size() == 1 ? job.single_us : job.corridor_us).push_back(us);
      if (!scores.ok() || scores->size() != request.rows.size()) {
        ++wrong;
        continue;
      }
      for (size_t j = 0; j < request.rows.size(); ++j) {
        if ((*scores)[j] != expected[request.page][request.rows[j]]) ++wrong;
      }
    }
    job.query_ms = MsSince(begin);
  }
  report.Check(wrong == 0, "every request answer equals the batch score");
  report.Check(job.top.size() == kTopK && job.works.segments.size() == kTopK,
               "top-50 and works program are full");
  return job;
}

// The reference job's answers, checked against the pages themselves: the
// top-50 equals the head of the works program in order, and each
// survivor's score equals FlatModel::PredictRow on its page row.
void CheckAgainstPages(Report& report, const Deployment& d, const JobResult& job) {
  bool ok = job.top.size() == job.works.segments.size();
  for (size_t i = 0; ok && i < job.top.size(); ++i) {
    const size_t page_index = job.top[i].row / kPageRows;
    const size_t row = job.top[i].row % kPageRows;
    auto page = d.paged->ReadPage(page_index);
    if (!report.CheckStatus(page.status(), "read survivor page")) return;
    auto ids = page->ColumnByName(rm::roadgen::kSegmentIdColumn);
    auto predicted = d.flat->PredictRow(*page, row);
    ok = ids.ok() && predicted.ok() && *predicted == job.top[i].score &&
         static_cast<int64_t>((*ids)->NumericAt(row)) ==
             job.works.segments[i].segment_id &&
         job.works.segments[i].crash_prone_probability == job.top[i].score;
  }
  report.Check(ok, "ScorePaged top-50 equals the works program head and PredictRow");
}

bool SameAnswers(const JobResult& a, const JobResult& b) {
  if (a.top.size() != b.top.size() ||
      a.works.segments.size() != b.works.segments.size() ||
      a.works.top_decile_agreement != b.works.top_decile_agreement) {
    return false;
  }
  for (size_t i = 0; i < a.top.size(); ++i) {
    if (a.top[i].row != b.top[i].row || a.top[i].score != b.top[i].score) return false;
  }
  for (size_t i = 0; i < a.works.segments.size(); ++i) {
    const auto& x = a.works.segments[i];
    const auto& y = b.works.segments[i];
    if (x.segment_id != y.segment_id ||
        x.crash_prone_probability != y.crash_prone_probability ||
        x.recommended_treatments != y.recommended_treatments) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<std::string> WriteNetworkRankInputs(const RunOptions& options) {
  auto inputs = Prepare(options);
  if (!inputs.ok()) return inputs.status();
  std::string plan;
  for (const Request& request : inputs->requests) {
    plan += std::to_string(request.page);
    for (size_t row : request.rows) {
      plan += ' ';
      plan += std::to_string(row);
    }
    plan += '\n';
  }
  const std::string dir = options.work_dir + "/network_rank";
  std::ofstream(dir + "/requests.txt") << plan;
  return dir;
}

int RunNetworkRank(const RunOptions& options) {
  Report report;
  const auto& catalogue = options.trace ? PerLayerMetrics() : EndToEndMetrics();
  RecordHost(report, MeasureHost(0));

  auto inputs = Prepare(options);
  if (!report.CheckStatus(inputs.status(), "prepare network pages and model")) {
    return report.Finish(catalogue);
  }
  // Each set-up builds a fresh deployment; the first one serves the jobs.
  std::vector<double> load_ms;
  std::optional<Deployment> deployment;
  const TimedStep set_up = [&]() -> std::optional<double> {
    const auto start = Clock::now();
    auto fresh = SetUp(*inputs);
    const double seconds = MsSince(start) / 1e3;
    if (!report.CheckStatus(fresh.status(), "set up deployment")) return std::nullopt;
    load_ms.push_back(fresh->load_ms);
    if (!deployment) deployment.emplace(std::move(*fresh));
    return seconds;
  };
  if (!set_up()) return report.Finish(catalogue);
  const Deployment& d = *deployment;

  // Pages the requests read, and the batch score of every row on them.
  std::vector<rm::data::Dataset> query_pages;
  std::vector<std::vector<double>> expected;
  for (size_t p = 0; p < kQueryPages; ++p) {
    auto page = d.paged->ReadPage(p);
    if (!report.CheckStatus(page.status(), "read query page")) break;
    auto scores = d.service->ScoreBatch(kModel, kVersion, *page, page->AllRowIndices());
    if (!report.CheckStatus(scores.status(), "score query page")) break;
    query_pages.push_back(std::move(*page));
    expected.push_back(std::move(*scores));
  }
  if (report.failed() > 0) return report.Finish(catalogue);
  std::printf("inputs: %llu segments in %zu pages of %zu rows, %zu requests "
              "(%zu single, %zu x %zu-row corridor), serial\n",
              static_cast<unsigned long long>(d.paged->total_rows()),
              d.paged->num_pages(), kPageRows, inputs->requests.size(),
              kSingleRequests, kCorridorRequests, kCorridorRows);
  ResetPeakRss();

  const JobResult reference = RunJob(report, d, *inputs, query_pages, expected);
  CheckAgainstPages(report, d, reference);
  if (report.failed() > 0) return report.Finish(catalogue);
  const double rows = static_cast<double>(d.paged->total_rows());

  if (!options.trace) {
    // job_s is the scan alone; the request session runs after it in every
    // job and is reported only through its own latencies.
    std::vector<double> scan_s, single_us, corridor_us;
    RunTimed(report, options, kSetupsPerJob, set_up,
             [&]() -> std::optional<double> {
               JobResult job = RunJob(report, d, *inputs, query_pages, expected);
               report.Check(SameAnswers(job, reference),
                            "job reproduces the reference ranking");
               scan_s.push_back(job.scan_ms() / 1e3);
               single_us.insert(single_us.end(), job.single_us.begin(),
                                job.single_us.end());
               corridor_us.insert(corridor_us.end(), job.corridor_us.begin(),
                                  job.corridor_us.end());
               return scan_s.back();
             });
    const SampleSummary single = Summarize(single_us);
    const SampleSummary corridor = Summarize(corridor_us);
    report.Set("quality", reference.works.top_decile_agreement);
    report.Detail("rank_rows_per_s", rows / Median(scan_s), "rows/s", scan_s.size());
    report.Detail("top_decile_agreement", reference.works.top_decile_agreement,
                  "ratio");
    report.Detail("query_p50_us", single.median, "us", single.count);
    report.Detail("query_p99_us", single.p99, "us", single.count);
    report.Detail("corridor_p50_us", corridor.median, "us", corridor.count);
    report.Detail("corridor_p99_us", corridor.p99, "us", corridor.count);
    return report.Finish(catalogue);
  }

  // ---- Traced run.
  for (int i = 0; i < kSetupsPerJob; ++i) {
    if (!set_up()) return report.Finish(catalogue);  // serve.load_ms samples.
  }
  const JobResult untraced = RunJob(report, d, *inputs, query_pages, expected);
  rm::obs::TraceCollector& collector = rm::obs::TraceCollector::Global();
  collector.Clear();
  collector.Enable();
  const JobResult traced = RunJob(report, d, *inputs, query_pages, expected);
  report.Check(SameAnswers(traced, reference), "traced job reproduces the reference");

  // Per page: read/checksum/decode, flat descent (what the works program
  // scores with), and the service's batch path (what ScorePaged scores
  // with), each timed on its own.
  bool same = true;
  for (size_t p = 0; p < d.paged->num_pages(); ++p) {
    Result<rm::data::Dataset> page = rm::util::InvalidArgumentError("unset");
    {
      Span span("score_paged/data.page_read");
      page = d.paged->ReadPage(p);
    }
    if (!report.CheckStatus(page.status(), "read page")) break;
    const std::vector<size_t> rows_p = page->AllRowIndices();
    Result<std::vector<double>> flat = std::vector<double>{};
    {
      Span span("works_paged/serve.flat.predict_batch");
      flat = d.flat->PredictBatch(*page, rows_p);
    }
    Result<std::vector<double>> served = std::vector<double>{};
    {
      Span span("score_paged/serve.score_batch");
      served = d.service->ScoreBatch(kModel, kVersion, *page, rows_p);
    }
    same = same && flat.ok() && served.ok() && *flat == *served;
  }
  report.Check(same, "flat batch scores equal the service's batch scores");

  // The request plan sent straight to the flat model.
  std::vector<double> predict_row_us;
  size_t wrong = 0;
  {
    Span span("query/serve.flat.query");
    for (const Request& request : inputs->requests) {
      const rm::data::Dataset& page = query_pages[request.page];
      if (request.rows.size() == 1) {
        const auto start = Clock::now();
        auto score = d.flat->PredictRow(page, request.rows[0]);
        predict_row_us.push_back(MsSince(start) * 1e3);
        if (!score.ok() || *score != expected[request.page][request.rows[0]]) ++wrong;
      } else {
        auto scores = d.flat->PredictBatch(page, request.rows);
        if (!scores.ok()) ++wrong;
      }
    }
  }
  report.Check(wrong == 0, "PredictRow equals the batch score");
  collector.Disable();

  std::map<std::string, double> t = BenchSpanTotalsMs();
  report.Set("serve.heap_rank_ms",
             AddPhase(report, "score_paged", t["phase/score_paged"],
                      {{"data.source_wait_ms.score_paged", traced.score_wait_ms},
                       {"serve.score_batch_ms", t["score_paged/serve.score_batch"]}}));
  report.Set("core.works_assembly_ms",
             AddPhase(report, "works_paged", t["phase/works_paged"],
                      {{"data.source_wait_ms.works_paged", traced.works_wait_ms},
                       {"serve.flat.predict_batch_ms",
                        t["works_paged/serve.flat.predict_batch"]}}));
  AddPhase(report, "query", t["phase/query"],
           {{"serve.flat.query_ms", t["query/serve.flat.query"]}});

  const SampleSummary single = Summarize(untraced.single_us);
  const SampleSummary corridor = Summarize(untraced.corridor_us);
  const double predict_row_p50 = Median(predict_row_us);
  report.Set("serve.load_ms", Median(load_ms), load_ms.size());
  report.Set("serve.predict_row_p50_us", predict_row_p50, predict_row_us.size());
  report.Set("serve.request_overhead_p50_us", single.median - predict_row_p50);
  report.Set("serve.query_p50_us", single.median, single.count);
  report.Set("serve.query_p99_us", single.p99, single.count);
  report.Set("serve.corridor_p50_us", corridor.median, corridor.count);
  report.Set("serve.corridor_p99_us", corridor.p99, corridor.count);
  report.Set("serve.flat.nodes", static_cast<double>(d.flat->node_count()));
  report.Set("ml.gbt.trees", static_cast<double>(d.flat->tree_count()));
  report.Set("data.page_read_ms", t["score_paged/data.page_read"]);
  report.Set("data.page_bytes_read",
             static_cast<double>(DirectoryBytes(inputs->pages_dir) *
                                 (traced.score_passes + traced.works_passes)));
  report.Set("data.source_passes.score_paged", static_cast<double>(traced.score_passes));
  report.Set("data.source_passes.works_paged", static_cast<double>(traced.works_passes));
  report.Set("data.source_chunks.score_paged", static_cast<double>(traced.score_chunks));
  report.Set("data.source_chunks.works_paged", static_cast<double>(traced.works_chunks));
  report.Set("obs.trace_overhead_pct",
             100.0 * (traced.total_ms() - untraced.total_ms()) / untraced.total_ms());
  std::printf("rank_rows_per_s %.6g (traced scan), serial\n",
              rows / (traced.scan_ms() / 1e3));
  return report.Finish(catalogue);
}

}  // namespace roadbench
