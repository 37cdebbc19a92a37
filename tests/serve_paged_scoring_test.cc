// Streaming scoring: ScorePaged over a chunked RowSource must equal
// scoring the materialized table and taking its top k, at any thread
// count; BuildWorksProgramPaged must reproduce BuildWorksProgram.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
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

// The ground truth ScorePaged promises: score everything in RAM, order
// by (score desc, row asc), keep k.
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
              if (a.score != b.score) return a.score > b.score;
              return a.row < b.row;
            });
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

void ExpectSameRanking(const std::vector<PagedScore>& got,
                       const std::vector<PagedScore>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].row, want[i].row) << "rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;
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
    ScoringService service({.executor = &pool});
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

TEST(ScorePagedTest, RejectsZeroTopKAndUnknownModels) {
  const Fixture fx = TrainedFixture();
  ScoringService service;
  ASSERT_TRUE(service.Register("crash", "v1", fx.model).ok());
  data::DatasetSource source(fx.table);
  EXPECT_FALSE(service.ScorePaged("crash", "v1", source, 0).ok());
  EXPECT_FALSE(service.ScorePaged("nope", "", source, 5).ok());
  EXPECT_FALSE(service.ScorePaged("crash", "v9", source, 5).ok());
}

// --- Paged works program -------------------------------------------------

void ExpectSameProgram(const core::WorksProgram& got,
                       const core::WorksProgram& want) {
  EXPECT_EQ(got.top_decile_agreement, want.top_decile_agreement);
  ASSERT_EQ(got.segments.size(), want.segments.size());
  for (size_t i = 0; i < got.segments.size(); ++i) {
    EXPECT_EQ(got.segments[i].segment_id, want.segments[i].segment_id);
    EXPECT_EQ(got.segments[i].crash_prone_probability,
              want.segments[i].crash_prone_probability);
    EXPECT_EQ(got.segments[i].observed_crash_count,
              want.segments[i].observed_crash_count);
    EXPECT_EQ(got.segments[i].recommended_treatments,
              want.segments[i].recommended_treatments);
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

TEST(BuildWorksProgramPagedTest, ReproducesTheInRamProgram) {
  // The fixture's decile is 40 rows: caps below, at, just past and far
  // past it, where the program's lines outnumber the decile.
  const Fixture fx = TrainedFixture();
  for (const size_t max_segments :
       {size_t{1}, size_t{30}, size_t{40}, size_t{41}, size_t{400}}) {
    core::DeploymentConfig config;
    config.max_segments = max_segments;
    auto want = core::BuildWorksProgram(fx.table, *fx.model, config);
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(want->segments.size(), std::min<size_t>(max_segments, 400));

    for (const size_t chunk_rows : {size_t{17}, size_t{128}}) {
      data::DatasetSource source(fx.table, fx.table.AllRowIndices(),
                                 chunk_rows);
      auto got = core::BuildWorksProgramPaged(source, *fx.model, config);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSameProgram(*got, *want);

      UnsizedSource unsized(source);
      ASSERT_FALSE(unsized.TotalRowsHint().has_value());
      auto counted = core::BuildWorksProgramPaged(unsized, *fx.model, config);
      ASSERT_TRUE(counted.ok()) << counted.status().ToString();
      ExpectSameProgram(*counted, *want);
    }
  }
}

TEST(BuildWorksProgramPagedTest, HonorsMaxSegmentsZeroAndFloors) {
  const Fixture fx = TrainedFixture();
  core::DeploymentConfig config;
  config.max_segments = 0;  // List everything — inherently O(rows).
  config.min_probability = 0.05;
  auto want = core::BuildWorksProgram(fx.table, *fx.model, config);
  ASSERT_TRUE(want.ok());
  data::DatasetSource source(fx.table, fx.table.AllRowIndices(), 64);
  auto got = core::BuildWorksProgramPaged(source, *fx.model, config);
  ASSERT_TRUE(got.ok());
  ExpectSameProgram(*got, *want);
}

}  // namespace
}  // namespace roadmine::serve
