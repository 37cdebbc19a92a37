// Streaming scoring: ScorePaged over a chunked RowSource must equal
// scoring the materialized table and taking its top k, at any thread
// count; the works-program engine, through both of its entry points,
// must equal a full-sort oracle for any chunking. NaN scores and
// missing (NaN) counts rank last.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/deployment.h"
#include "core/thresholds.h"
#include "data/dataset.h"
#include "data/paged_dataset.h"
#include "data/row_source.h"
#include "exec/executor.h"
#include "ml/gradient_boosting.h"
#include "roadgen/dataset_builder.h"
#include "roadgen/generator.h"
#include "serve/scoring_service.h"

namespace roadmine::serve {
namespace {

struct Fixture {
  data::Dataset table;
  std::shared_ptr<const ml::GradientBoostedTrees> model;
};

Fixture TrainedFixture() {
  roadgen::GeneratorConfig config;
  config.num_segments = 400;
  config.seed = 977;
  auto segments = roadgen::RoadNetworkGenerator(config).Generate();
  EXPECT_TRUE(segments.ok());
  auto ds = roadgen::BuildSegmentDataset(*segments);
  EXPECT_TRUE(ds.ok());
  EXPECT_TRUE(core::AddCrashProneTarget(
                  *ds, roadgen::kSegmentCrashCountColumn, 4)
                  .ok());
  ml::GradientBoostedTreesParams params;
  params.num_trees = 6;
  params.max_depth = 3;
  params.seed = 61;
  auto model = std::make_shared<ml::GradientBoostedTrees>(params);
  EXPECT_TRUE(model
                  ->Fit(*ds, core::ThresholdTargetName(4),
                        roadgen::RoadAttributeColumns(), ds->AllRowIndices())
                  .ok());
  return Fixture{*std::move(ds), std::move(model)};
}

// The ranking order every oracle here sorts by: key descending with NaN
// after every number, then row ascending.
bool RanksAhead(double a_key, uint64_t a_row, double b_key, uint64_t b_row) {
  if (std::isnan(a_key) != std::isnan(b_key)) return std::isnan(b_key);
  if (!std::isnan(a_key) && a_key != b_key) return a_key > b_key;
  return a_row < b_row;
}

// Equal values, counting NaN equal to NaN.
void ExpectSameValue(double got, double want) {
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got)) << got;
  } else {
    EXPECT_EQ(got, want);
  }
}

// A model that scores NaN on the rows whose segment id is listed and
// defers to `inner` elsewhere: a scorer that cannot rate some segments.
class NanOnIds : public ml::Predictor {
 public:
  NanOnIds(std::shared_ptr<const ml::Predictor> inner, std::set<int64_t> ids)
      : inner_(std::move(inner)), ids_(std::move(ids)) {}

  util::Result<std::vector<double>> PredictBatch(
      const data::Dataset& ds,
      const std::vector<size_t>& rows) const override {
    auto scores = inner_->PredictBatch(ds, rows);
    if (!scores.ok()) return scores.status();
    auto ids = ds.ColumnByName(roadgen::kSegmentIdColumn);
    if (!ids.ok()) return ids.status();
    for (size_t i = 0; i < rows.size(); ++i) {
      if (ids_.count(static_cast<int64_t>((*ids)->NumericAt(rows[i])))) {
        (*scores)[i] = std::numeric_limits<double>::quiet_NaN();
      }
    }
    return scores;
  }
  const char* name() const override { return "nan_on_ids"; }

 private:
  std::shared_ptr<const ml::Predictor> inner_;
  std::set<int64_t> ids_;
};

// The fixture's model with NaN scores on the first two rows and every
// seventh row after them.
std::shared_ptr<const ml::Predictor> NanScoringModel(const Fixture& fx) {
  auto ids = fx.table.ColumnByName(roadgen::kSegmentIdColumn);
  EXPECT_TRUE(ids.ok());
  std::set<int64_t> blank;
  for (size_t row = 0; row < fx.table.num_rows(); ++row) {
    if (row < 2 || row % 7 == 0) {
      blank.insert(static_cast<int64_t>((*ids)->NumericAt(row)));
    }
  }
  return std::make_shared<NanOnIds>(fx.model, std::move(blank));
}

// The ground truth ScorePaged promises: score everything in RAM, order
// by (score desc with NaN last, row asc), keep k.
std::vector<PagedScore> InRamTopK(const ScoringService& service,
                                  const data::Dataset& table, size_t k) {
  auto scores =
      service.ScoreBatch("crash", "", table, table.AllRowIndices());
  EXPECT_TRUE(scores.ok());
  std::vector<PagedScore> ranked(scores->size());
  for (size_t i = 0; i < scores->size(); ++i) {
    ranked[i] = {static_cast<uint64_t>(i), (*scores)[i]};
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const PagedScore& a, const PagedScore& b) {
              return RanksAhead(a.score, a.row, b.score, b.row);
            });
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

void ExpectSameRanking(const std::vector<PagedScore>& got,
                       const std::vector<PagedScore>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "rank " << i);
    EXPECT_EQ(got[i].row, want[i].row);
    ExpectSameValue(got[i].score, want[i].score);
  }
}

TEST(ScorePagedTest, EqualsInRamTopKAcrossChunkings) {
  const Fixture fx = TrainedFixture();
  ScoringService service;
  ASSERT_TRUE(service.Register("crash", "v1", fx.model).ok());
  const auto want = InRamTopK(service, fx.table, 25);

  for (const size_t chunk_rows : {size_t{1}, size_t{33}, size_t{4096}}) {
    data::DatasetSource source(fx.table, fx.table.AllRowIndices(),
                               chunk_rows);
    auto got = service.ScorePaged("crash", "v1", source, 25);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameRanking(*got, want);
  }
}

TEST(ScorePagedTest, ThreadedPagesMatchSerial) {
  const Fixture fx = TrainedFixture();

  const std::string dir = ::testing::TempDir() + "/score_paged";
  std::filesystem::remove_all(dir);
  auto writer = data::PagedDatasetWriter::Create(
      dir, data::TableSchema::FromDataset(fx.table), {.page_rows = 64});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(fx.table).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  auto paged = data::PagedDataset::Open(dir);
  ASSERT_TRUE(paged.ok());

  ScoringService serial_service;
  ASSERT_TRUE(serial_service.Register("crash", "v1", fx.model).ok());
  const auto want = InRamTopK(serial_service, fx.table, 40);

  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    exec::ThreadPool pool(threads);
    ScoringService service({.executor = &pool, .slo = {}});
    ASSERT_TRUE(service.Register("crash", "v1", fx.model).ok());
    data::PagedDataset::PageStream stream = paged->Pages(&pool);
    auto got = service.ScorePaged("crash", "", stream, 40);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameRanking(*got, want);
  }
}

TEST(ScorePagedTest, TopKPastStreamLengthReturnsEveryRowRanked) {
  const Fixture fx = TrainedFixture();
  ScoringService service;
  ASSERT_TRUE(service.Register("crash", "v1", fx.model).ok());
  data::DatasetSource source(fx.table);
  auto got = service.ScorePaged("crash", "v1", source, 1u << 20);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), fx.table.num_rows());
  ExpectSameRanking(*got, InRamTopK(service, fx.table, fx.table.num_rows()));
}

TEST(ScorePagedTest, NanScoresRankLast) {
  // The first row scores NaN, so a NaN enters the top-k list first; it
  // must rank after every number instead of stalling the list.
  const Fixture fx = TrainedFixture();
  ScoringService service;
  ASSERT_TRUE(service.Register("crash", "v1", NanScoringModel(fx)).ok());
  for (const size_t k : {size_t{25}, fx.table.num_rows()}) {
    const auto want = InRamTopK(service, fx.table, k);
    ASSERT_TRUE(std::isnan(want.back().score) == (k == fx.table.num_rows()));
    for (const size_t chunk_rows : {size_t{1}, size_t{33}, size_t{4096}}) {
      SCOPED_TRACE(::testing::Message() << "k " << k << " chunk " << chunk_rows);
      data::DatasetSource source(fx.table, fx.table.AllRowIndices(),
                                 chunk_rows);
      auto got = service.ScorePaged("crash", "v1", source, k);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSameRanking(*got, want);
    }
  }
}

TEST(ScorePagedTest, RejectsZeroTopKAndUnknownModels) {
  const Fixture fx = TrainedFixture();
  ScoringService service;
  ASSERT_TRUE(service.Register("crash", "v1", fx.model).ok());
  data::DatasetSource source(fx.table);
  EXPECT_FALSE(service.ScorePaged("crash", "v1", source, 0).ok());
  EXPECT_FALSE(service.ScorePaged("nope", "", source, 5).ok());
  EXPECT_FALSE(service.ScorePaged("crash", "v9", source, 5).ok());
}

// --- Works program -------------------------------------------------------

// The works program by definition, independent of the engine: score every
// row in RAM, fully sort the rows by (probability desc, row asc) and by
// (observed count desc, row asc), take the agreement from the two top
// deciles, and list the first max_segments rows at or above the floor.
// It assigns no treatments; those are compared between the engine's two
// entry points instead.
core::WorksProgram OracleProgram(const data::Dataset& table,
                                 const ml::Predictor& model,
                                 const core::DeploymentConfig& config) {
  const size_t n = table.num_rows();
  auto scores = model.PredictBatch(table, table.AllRowIndices());
  auto ids = table.ColumnByName(roadgen::kSegmentIdColumn);
  auto counts = table.ColumnByName(roadgen::kSegmentCrashCountColumn);
  EXPECT_TRUE(scores.ok() && ids.ok() && counts.ok());
  auto count_of = [&](size_t row) { return (*counts)->NumericAt(row); };
  auto sorted_by = [n](const auto& key) {
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return RanksAhead(key(a), a, key(b), b);
    });
    return order;
  };
  const std::vector<size_t> by_probability =
      sorted_by([&](size_t row) { return (*scores)[row]; });
  const std::vector<size_t> by_count = sorted_by(count_of);

  const size_t decile = std::max<size_t>(1, n / 10);
  const std::set<size_t> count_decile(by_count.begin(),
                                      by_count.begin() + decile);
  size_t overlap = 0;
  for (size_t i = 0; i < decile; ++i) {
    overlap += count_decile.count(by_probability[i]);
  }
  core::WorksProgram program;
  program.top_decile_agreement =
      static_cast<double>(overlap) / static_cast<double>(decile);
  for (const size_t row : by_probability) {
    if ((*scores)[row] < config.min_probability) break;
    if (config.max_segments != 0 &&
        program.segments.size() == config.max_segments) {
      break;
    }
    core::RankedSegment line;
    line.segment_id = static_cast<int64_t>((*ids)->NumericAt(row));
    line.crash_prone_probability = (*scores)[row];
    line.observed_crash_count = count_of(row);
    program.segments.push_back(std::move(line));
  }
  return program;
}

// Compares two programs line by line; treatments only when asked, since
// the oracle assigns none.
void ExpectSameProgram(const core::WorksProgram& got,
                       const core::WorksProgram& want,
                       bool compare_treatments) {
  EXPECT_EQ(got.top_decile_agreement, want.top_decile_agreement);
  ASSERT_EQ(got.segments.size(), want.segments.size());
  for (size_t i = 0; i < got.segments.size(); ++i) {
    EXPECT_EQ(got.segments[i].segment_id, want.segments[i].segment_id);
    ExpectSameValue(got.segments[i].crash_prone_probability,
                    want.segments[i].crash_prone_probability);
    ExpectSameValue(got.segments[i].observed_crash_count,
                    want.segments[i].observed_crash_count);
    if (compare_treatments) {
      EXPECT_EQ(got.segments[i].recommended_treatments,
                want.segments[i].recommended_treatments);
    }
  }
}

// A source that does not know its length up front, so the works builder
// must spend its counting pass.
class UnsizedSource : public data::RowSource {
 public:
  explicit UnsizedSource(data::RowSource& inner) : inner_(inner) {}
  const data::TableSchema& schema() const override { return inner_.schema(); }
  util::Status Reset() override { return inner_.Reset(); }
  util::Result<const data::Dataset*> Next() override { return inner_.Next(); }

 private:
  data::RowSource& inner_;
};

// Both entry points against the oracle, over in-RAM chunkings and a
// source without a row-count hint, and against each other on treatments.
void ExpectOracleProgram(const data::Dataset& table,
                         const ml::Predictor& model,
                         const core::DeploymentConfig& config) {
  const core::WorksProgram want = OracleProgram(table, model, config);
  auto in_ram = core::BuildWorksProgram(table, model, config);
  ASSERT_TRUE(in_ram.ok()) << in_ram.status().ToString();
  ExpectSameProgram(*in_ram, want, /*compare_treatments=*/false);

  for (const size_t chunk_rows : {size_t{17}, size_t{128}}) {
    data::DatasetSource source(table, table.AllRowIndices(), chunk_rows);
    auto got = core::BuildWorksProgramPaged(source, model, config);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameProgram(*got, want, /*compare_treatments=*/false);
    ExpectSameProgram(*got, *in_ram, /*compare_treatments=*/true);

    UnsizedSource unsized(source);
    ASSERT_FALSE(unsized.TotalRowsHint().has_value());
    auto counted = core::BuildWorksProgramPaged(unsized, model, config);
    ASSERT_TRUE(counted.ok()) << counted.status().ToString();
    ExpectSameProgram(*counted, want, /*compare_treatments=*/false);
    ExpectSameProgram(*counted, *in_ram, /*compare_treatments=*/true);
  }
}

TEST(BuildWorksProgramPagedTest, ReproducesTheInRamProgram) {
  // The fixture's decile is 40 rows: caps below, at, just past and far
  // past it, where the program's lines outnumber the decile.
  const Fixture fx = TrainedFixture();
  for (const size_t max_segments :
       {size_t{1}, size_t{30}, size_t{40}, size_t{41}, size_t{400}}) {
    SCOPED_TRACE(max_segments);
    core::DeploymentConfig config;
    config.max_segments = max_segments;
    ASSERT_EQ(OracleProgram(fx.table, *fx.model, config).segments.size(),
              std::min<size_t>(max_segments, 400));
    ExpectOracleProgram(fx.table, *fx.model, config);
  }
}

TEST(BuildWorksProgramPagedTest, HonorsMaxSegmentsZeroAndFloors) {
  const Fixture fx = TrainedFixture();
  core::DeploymentConfig config;
  config.max_segments = 0;  // List everything — inherently O(rows).
  config.min_probability = 0.05;
  const size_t listed =
      OracleProgram(fx.table, *fx.model, config).segments.size();
  ASSERT_GT(listed, 0u);
  ASSERT_LT(listed, fx.table.num_rows());  // The floor drops some rows.
  ExpectOracleProgram(fx.table, *fx.model, config);
}

TEST(BuildWorksProgramPagedTest, NanScoresAndMissingCountsRankLast) {
  // NaN scores on the first rows and every seventh, and blank (NaN)
  // counts on the first three rows and every eleventh: both decile lists
  // and the line list meet a NaN first.
  const Fixture fx = TrainedFixture();
  data::Dataset table = fx.table;
  auto column = table.ColumnByName(roadgen::kSegmentCrashCountColumn);
  ASSERT_TRUE(column.ok());
  std::vector<double> counts(table.num_rows());
  for (size_t row = 0; row < counts.size(); ++row) {
    counts[row] = row < 3 || row % 11 == 0
                      ? std::numeric_limits<double>::quiet_NaN()
                      : (*column)->NumericAt(row);
  }
  ASSERT_TRUE(table
                  .ReplaceColumn(data::Column::Numeric(
                      roadgen::kSegmentCrashCountColumn, counts))
                  .ok());
  const auto model = NanScoringModel(fx);
  for (const size_t max_segments : {size_t{1}, size_t{40}, size_t{0}}) {
    SCOPED_TRACE(max_segments);
    core::DeploymentConfig config;
    config.max_segments = max_segments;
    ExpectOracleProgram(table, *model, config);
  }
}

}  // namespace
}  // namespace roadmine::serve
