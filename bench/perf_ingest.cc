// Out-of-core ingest + paged-training bench: proves the PagedDataset
// path earns its keep on three axes at once — ingest throughput, paged
// GBT training speed, and peak resident memory — while staying
// bit-identical to the in-RAM pipeline on datasets that fit.
//
//   perf_ingest [--smoke] [--full] [--threads=N] <dir>
//
// writes BENCH_perf_ingest.json into <dir>, then re-reads and validates
// the JSON. The instrumented pass:
//   1. emits a synthetic network straight to pages (roadgen
//      EmitSegmentPages — the network is never materialized);
//   2. trains a GBT, fits a FeatureEncoder, and builds the ranked works
//      program from the page stream alone, then snapshots peak RSS
//      BEFORE anything in-RAM exists — the memory-budget gate;
//   3. streams a CSV of the same network through CsvChunkReader for the
//      ingest-throughput figure (and its O(record) buffering proof);
//   4. replays every model in RAM and fails loudly unless the paged
//      encoder, GBT, scores, and works program match bit for bit.
// --full swaps the CI-scale network for a 10M+-segment one and skips the
// in-RAM twin (which would defeat the point); identity at that scale is
// pinned by the smoke run plus the paged determinism contract.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/deployment.h"
#include "core/thresholds.h"
#include "data/csv_io.h"
#include "data/encoder.h"
#include "data/paged_dataset.h"
#include "ml/gradient_boosting.h"
#include "obs/json.h"
#include "obs/logging.h"
#include "obs/resource.h"
#include "roadgen/dataset_builder.h"
#include "roadgen/generator.h"
#include "roadgen/paged_emit.h"
#include "serve/scoring_service.h"

namespace {

using namespace roadmine;

constexpr char kFailTag[] = "perf_ingest instrumented pass failed";
constexpr int kThreshold = 4;
constexpr uint64_t kSeed = 91;

struct IngestScale {
  size_t num_segments;
  size_t page_rows;
  size_t num_trees;
  size_t code_cache_bytes;
  double rss_budget_mb;  // Page-cache ceiling the paged path must hold.
};

IngestScale ScaleFor(bool full) {
  if (full) {
    // 10M+ segments: the paged path must hold a budget far below the
    // ~1.4 GB the raw columns alone would take in RAM (plus index and
    // histogram state on top). Labels + margins + the code cache are the
    // paged trainer's whole resident set.
    return {10'000'000, 65536, 10, 512ull << 20, 1536.0};
  }
  return {60'000, 16384, 20, 256ull << 20, 500.0};
}

ml::GradientBoostedTreesParams GbtParams(size_t num_trees,
                                         exec::Executor* executor) {
  ml::GradientBoostedTreesParams params;
  params.num_trees = num_trees;
  params.max_depth = 5;
  params.max_bins = 256;
  params.seed = 61;
  params.executor = executor;
  return params;
}

bool SameProgram(const core::WorksProgram& a, const core::WorksProgram& b) {
  if (a.top_decile_agreement != b.top_decile_agreement) return false;
  if (a.segments.size() != b.segments.size()) return false;
  for (size_t i = 0; i < a.segments.size(); ++i) {
    const core::RankedSegment& x = a.segments[i];
    const core::RankedSegment& y = b.segments[i];
    if (x.segment_id != y.segment_id ||
        x.crash_prone_probability != y.crash_prone_probability ||
        x.observed_crash_count != y.observed_crash_count ||
        x.recommended_treatments != y.recommended_treatments) {
      return false;
    }
  }
  return true;
}

bool RunInstrumentedPass(bench::BenchContext& ctx, const std::string& dir,
                         bool full) {
  const IngestScale scale = ScaleFor(full);
  const std::string target = core::ThresholdTargetName(kThreshold);
  const std::vector<std::string>& features = roadgen::RoadAttributeColumns();
  ctx.report().RecordMetric("segments",
                            static_cast<double>(scale.num_segments));
  ctx.report().RecordMetric("page_rows", static_cast<double>(scale.page_rows));

  roadgen::GeneratorConfig config;
  config.num_segments = scale.num_segments;
  config.seed = kSeed;

  // --- Stage 1: network straight to pages; RAM never sees it whole.
  const std::string pages_dir = dir + "/ingest_pages";
  std::error_code ec;
  std::filesystem::remove_all(pages_dir, ec);  // Stale pages from prior runs.
  uint64_t emitted = 0;
  {
    obs::BenchReport::ScopedStage stage(ctx.report(), "emit_pages");
    auto rows = roadgen::EmitSegmentPages(
        config, pages_dir,
        {.page_rows = scale.page_rows,
         .targets = {{target, static_cast<double>(kThreshold)}}});
    if (!rows.ok()) {
      obs::LogError(kFailTag, {{"stage", "emit_pages"},
                               {"error", rows.status().ToString()}});
      return false;
    }
    emitted = *rows;
  }
  const double emit_ms = ctx.report().TimingMs("emit_pages");
  ctx.report().RecordMetric("emit_rows_per_sec",
                            static_cast<double>(emitted) / (emit_ms / 1000.0));

  auto paged = data::PagedDataset::Open(pages_dir);
  if (!paged.ok()) {
    obs::LogError(kFailTag, {{"stage", "open_pages"},
                             {"error", paged.status().ToString()}});
    return false;
  }

  // --- Stage 2: the whole modeling pipeline from the page stream, before
  // any in-RAM twin exists — so the RSS high-water mark below is the
  // paged path's own footprint, not polluted by the comparison legs.
  data::FeatureEncoder paged_encoder;
  {
    obs::BenchReport::ScopedStage stage(ctx.report(), "paged_encoder_fit");
    auto stream = paged->Pages(ctx.executor());
    if (auto st = paged_encoder.Fit(stream, features); !st.ok()) {
      obs::LogError(kFailTag, {{"stage", "paged_encoder_fit"},
                               {"error", st.ToString()}});
      return false;
    }
  }

  auto paged_model =
      std::make_shared<ml::GradientBoostedTrees>(GbtParams(scale.num_trees,
                                                           ctx.executor()));
  {
    obs::BenchReport::ScopedStage stage(ctx.report(), "paged_gbt_fit");
    auto stream = paged->Pages(ctx.executor());
    auto st = paged_model->FitPaged(stream, target, features,
                                    {.code_cache_bytes =
                                         scale.code_cache_bytes});
    if (!st.ok()) {
      obs::LogError(kFailTag, {{"stage", "paged_gbt_fit"},
                               {"error", st.ToString()}});
      return false;
    }
  }
  const double paged_train_ms = ctx.report().TimingMs("paged_gbt_fit");
  ctx.report().RecordMetric(
      "paged_train_rows_per_sec",
      static_cast<double>(emitted) / (paged_train_ms / 1000.0));

  serve::ScoringService service(
      serve::ScoringServiceOptions{.executor = ctx.executor(), .slo = {}});
  if (!service.Register("crash_prone", "v1", paged_model).ok()) return false;
  std::vector<serve::PagedScore> paged_top;
  core::WorksProgram paged_program;
  const core::DeploymentConfig deploy_config;  // Top 50, no floor.
  {
    obs::BenchReport::ScopedStage stage(ctx.report(), "paged_score");
    auto stream = paged->Pages(ctx.executor());
    auto top = service.ScorePaged("crash_prone", "v1", stream,
                                  deploy_config.max_segments);
    if (!top.ok()) {
      obs::LogError(kFailTag, {{"stage", "paged_score"},
                               {"error", top.status().ToString()}});
      return false;
    }
    paged_top = std::move(*top);
    auto works_stream = paged->Pages(ctx.executor());
    auto program = core::BuildWorksProgramPaged(works_stream, *paged_model,
                                                deploy_config);
    if (!program.ok()) {
      obs::LogError(kFailTag, {{"stage", "paged_works"},
                               {"error", program.status().ToString()}});
      return false;
    }
    paged_program = std::move(*program);
  }
  const double score_ms = ctx.report().TimingMs("paged_score");
  ctx.report().RecordMetric(
      "paged_score_rows_per_sec",
      static_cast<double>(emitted) * 2.0 / (score_ms / 1000.0));

  // The memory-budget gate: everything above ran out of core, so the
  // process high-water mark IS the paged pipeline's footprint.
  const obs::MemoryUsage usage = obs::CurrentMemoryUsage();
  ctx.report().RecordMetric("paged_peak_rss_mb", usage.peak_rss_mb);
  ctx.report().RecordMetric("rss_budget_mb", scale.rss_budget_mb);
  const bool rss_known = usage.peak_rss_mb > 0.0;
  const bool rss_ok = !rss_known || usage.peak_rss_mb <= scale.rss_budget_mb;
  ctx.report().RecordMetric("paged_rss_within_budget", rss_ok ? 1.0 : 0.0);
  if (!rss_ok) {
    obs::LogError(kFailTag,
                  {{"stage", "rss_budget"},
                   {"peak_rss_mb", usage.peak_rss_mb},
                   {"budget_mb", scale.rss_budget_mb}});
    return false;
  }

  if (full) {
    // The in-RAM twin at 10M+ segments is exactly the allocation this
    // bench exists to avoid; identity is pinned at smoke scale.
    std::printf("perf_ingest: full-scale paged run complete "
                "(%llu rows, peak RSS %.1f MB, budget %.0f MB)\n",
                static_cast<unsigned long long>(emitted), usage.peak_rss_mb,
                scale.rss_budget_mb);
    return true;
  }

  // --- Stage 3: in-RAM twin of the same network.
  data::Dataset inram;
  {
    obs::BenchReport::ScopedStage stage(ctx.report(), "inram_build");
    roadgen::RoadNetworkGenerator generator(config);
    auto segments = generator.Generate();
    if (!segments.ok()) return false;
    auto ds = roadgen::BuildSegmentDataset(*segments);
    if (!ds.ok()) return false;
    if (!core::AddCrashProneTarget(*ds, roadgen::kSegmentCrashCountColumn,
                                   kThreshold)
             .ok()) {
      return false;
    }
    inram = std::move(*ds);
  }
  if (inram.num_rows() != emitted) {
    obs::LogError(kFailTag, {{"stage", "inram_build"},
                             {"error", "paged and in-RAM row counts differ"}});
    return false;
  }

  // --- Stage 4: CSV ingest throughput over the same rows, streamed with
  // the chunk reader so the buffering high-water mark is measurable.
  const std::string csv_path = dir + "/ingest.csv";
  if (!data::WriteCsvFile(inram, csv_path).ok()) return false;
  uint64_t csv_rows = 0;
  size_t csv_peak_buffer = 0;
  {
    obs::BenchReport::ScopedStage stage(ctx.report(), "csv_ingest");
    auto reader = data::CsvChunkReader::OpenFile(csv_path);
    if (!reader.ok()) {
      obs::LogError(kFailTag, {{"stage", "csv_ingest"},
                               {"error", reader.status().ToString()}});
      return false;
    }
    for (;;) {
      auto chunk = (*reader)->Next();
      if (!chunk.ok()) {
        obs::LogError(kFailTag, {{"stage", "csv_ingest"},
                                 {"error", chunk.status().ToString()}});
        return false;
      }
      if (*chunk == nullptr) break;
      csv_rows += (*chunk)->num_rows();
    }
    csv_peak_buffer = (*reader)->peak_buffered_bytes();
  }
  if (csv_rows != emitted) {
    obs::LogError(kFailTag, {{"stage", "csv_ingest"},
                             {"error", "CSV round-trip changed the row count"}});
    return false;
  }
  const double csv_ms = ctx.report().TimingMs("csv_ingest");
  ctx.report().RecordMetric("ingest_rows_per_sec",
                            static_cast<double>(csv_rows) / (csv_ms / 1000.0));
  ctx.report().RecordMetric("ingest_peak_buffer_kb",
                            static_cast<double>(csv_peak_buffer) / 1024.0);

  // --- Stage 5: identity gates. Encoder, model, scores, and program must
  // match the in-RAM pipeline bit for bit.
  data::FeatureEncoder inram_encoder;
  if (!inram_encoder.Fit(inram, features, inram.AllRowIndices()).ok()) {
    return false;
  }
  const bool encoder_same =
      inram_encoder.Serialize() == paged_encoder.Serialize();
  ctx.report().RecordMetric("paged_encoder_identical",
                            encoder_same ? 1.0 : 0.0);

  ml::GradientBoostedTrees inram_model(
      GbtParams(scale.num_trees, ctx.executor()));
  {
    obs::BenchReport::ScopedStage stage(ctx.report(), "inram_gbt_fit");
    auto st = inram_model.Fit(inram, target, features, inram.AllRowIndices());
    if (!st.ok()) {
      obs::LogError(kFailTag, {{"stage", "inram_gbt_fit"},
                               {"error", st.ToString()}});
      return false;
    }
  }
  const double inram_train_ms = ctx.report().TimingMs("inram_gbt_fit");
  const bool model_same =
      inram_model.Serialize() == paged_model->Serialize();
  ctx.report().RecordMetric("paged_bit_identical", model_same ? 1.0 : 0.0);
  ctx.report().RecordMetric("paged_train_speedup",
                            inram_train_ms / paged_train_ms);

  bool works_same = false;
  {
    auto expect_scores =
        service.ScoreBatch("crash_prone", "v1", inram, inram.AllRowIndices());
    if (!expect_scores.ok()) return false;
    std::vector<serve::PagedScore> expect(expect_scores->size());
    for (size_t r = 0; r < expect.size(); ++r) {
      expect[r] = {static_cast<uint64_t>(r), (*expect_scores)[r]};
    }
    std::sort(expect.begin(), expect.end(),
              [](const serve::PagedScore& a, const serve::PagedScore& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.row < b.row;
              });
    expect.resize(std::min(expect.size(), paged_top.size()));
    works_same = expect.size() == paged_top.size();
    for (size_t i = 0; works_same && i < expect.size(); ++i) {
      works_same = expect[i].row == paged_top[i].row &&
                   expect[i].score == paged_top[i].score;
    }
    auto inram_program =
        core::BuildWorksProgram(inram, inram_model, deploy_config);
    if (!inram_program.ok()) return false;
    works_same = works_same && SameProgram(*inram_program, paged_program);
  }
  ctx.report().RecordMetric("paged_works_identical", works_same ? 1.0 : 0.0);

  if (!encoder_same || !model_same || !works_same) {
    obs::LogError(kFailTag,
                  {{"stage", "identity"},
                   {"encoder_identical", encoder_same},
                   {"model_identical", model_same},
                   {"works_identical", works_same}});
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool full = false;
  std::string dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    } else if (argv[i][0] != '-' && dir.empty()) {
      dir = argv[i];
    }
  }
  if (dir.empty()) {
    std::fprintf(stderr,
                 "usage: perf_ingest [--smoke] [--full] [--threads=N] <dir>\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);

  bench::BenchContext ctx("perf_ingest", argc, argv);
  if (!RunInstrumentedPass(ctx, dir, full)) return 1;
  ctx.Finish();  // void flush, shares a name with fallible Finish() elsewhere; roadmine-lint: allow(dropped-status)

  const std::string report_path = dir + "/BENCH_perf_ingest.json";
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
  std::printf("perf_ingest: wrote and validated %s (%zu bytes)\n",
              report_path.c_str(), contents->size());
  return 0;
}
