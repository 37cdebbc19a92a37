// Paged GBT training: FitPaged over a chunked RowSource must reproduce
// Fit over the materialized rows bit for bit (exact-sketch regime), at
// any thread count, with or without the bin-code cache, and under row /
// column sampling. Plus the QuantileSketch regimes underneath it.
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/thresholds.h"
#include "data/dataset.h"
#include "data/paged_dataset.h"
#include "data/row_source.h"
#include "exec/executor.h"
#include "ml/gradient_boosting.h"
#include "ml/quantile_sketch.h"
#include "roadgen/dataset_builder.h"
#include "roadgen/generator.h"

namespace roadmine::ml {
namespace {

data::Dataset TrainingTable() {
  roadgen::GeneratorConfig config;
  config.num_segments = 500;
  config.seed = 1723;
  auto segments = roadgen::RoadNetworkGenerator(config).Generate();
  EXPECT_TRUE(segments.ok());
  auto ds = roadgen::BuildSegmentDataset(*segments);
  EXPECT_TRUE(ds.ok());
  EXPECT_TRUE(core::AddCrashProneTarget(
                  *ds, roadgen::kSegmentCrashCountColumn, /*threshold=*/4)
                  .ok());
  return *std::move(ds);
}

GradientBoostedTreesParams SmallParams() {
  GradientBoostedTreesParams params;
  params.num_trees = 8;
  params.max_depth = 4;
  params.max_bins = 32;
  params.seed = 61;
  return params;
}

std::string FitInRam(const data::Dataset& ds,
                     const GradientBoostedTreesParams& params) {
  GradientBoostedTrees model(params);
  EXPECT_TRUE(model
                  .Fit(ds, core::ThresholdTargetName(4),
                       roadgen::RoadAttributeColumns(), ds.AllRowIndices())
                  .ok());
  return model.Serialize();
}

std::string FitFromSource(data::RowSource& source,
                          const GradientBoostedTreesParams& params,
                          const PagedFitOptions& options = {}) {
  GradientBoostedTrees model(params);
  auto status = model.FitPaged(source, core::ThresholdTargetName(4),
                               roadgen::RoadAttributeColumns(), options);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return model.Serialize();
}

TEST(GbtFitPagedTest, MatchesFitBitForBitAcrossChunkings) {
  const data::Dataset ds = TrainingTable();
  const std::string in_ram = FitInRam(ds, SmallParams());
  for (const size_t chunk_rows : {size_t{37}, size_t{128}, size_t{4096}}) {
    data::DatasetSource source(ds, ds.AllRowIndices(), chunk_rows);
    EXPECT_EQ(FitFromSource(source, SmallParams()), in_ram)
        << "chunk_rows " << chunk_rows;
  }
}

TEST(GbtFitPagedTest, MatchesFitFromOnDiskPagesAtAnyThreadCount) {
  const data::Dataset ds = TrainingTable();
  const std::string in_ram = FitInRam(ds, SmallParams());

  const std::string dir = ::testing::TempDir() + "/gbt_paged_fit";
  std::filesystem::remove_all(dir);
  auto writer = data::PagedDatasetWriter::Create(
      dir, data::TableSchema::FromDataset(ds), {.page_rows = 96});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(ds).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  auto paged = data::PagedDataset::Open(dir);
  ASSERT_TRUE(paged.ok());

  {
    data::PagedDataset::PageStream stream = paged->Pages();
    EXPECT_EQ(FitFromSource(stream, SmallParams()), in_ram) << "serial";
  }
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    exec::ThreadPool pool(threads);
    GradientBoostedTreesParams params = SmallParams();
    params.executor = &pool;  // Sharded split scan + prefetched pages.
    data::PagedDataset::PageStream stream = paged->Pages(&pool);
    EXPECT_EQ(FitFromSource(stream, params), in_ram)
        << threads << " threads";
  }
}

TEST(GbtFitPagedTest, SamplingStreamsMatchUnderSubsampleAndColsample) {
  const data::Dataset ds = TrainingTable();
  GradientBoostedTreesParams params = SmallParams();
  params.subsample = 0.7;
  params.colsample = 0.6;
  const std::string in_ram = FitInRam(ds, params);
  data::DatasetSource source(ds, ds.AllRowIndices(), /*chunk_rows=*/64);
  EXPECT_EQ(FitFromSource(source, params), in_ram);
}

TEST(GbtFitPagedTest, TinyCodeCacheFallsBackToStreamingIdentically) {
  const data::Dataset ds = TrainingTable();
  const std::string in_ram = FitInRam(ds, SmallParams());
  // 1 byte can never hold the code matrix, so every sweep re-reads and
  // re-bins the stream. Same model, more passes.
  data::DatasetSource source(ds, ds.AllRowIndices(), /*chunk_rows=*/64);
  EXPECT_EQ(FitFromSource(source, SmallParams(), {.code_cache_bytes = 1}),
            in_ram);
}

TEST(GbtFitPagedTest, RefitReplacesThePreviousEnsemble) {
  const data::Dataset ds = TrainingTable();
  GradientBoostedTrees model(SmallParams());
  data::DatasetSource first(ds, ds.AllRowIndices(), 64);
  ASSERT_TRUE(model
                  .FitPaged(first, core::ThresholdTargetName(4),
                            roadgen::RoadAttributeColumns())
                  .ok());
  const std::string once = model.Serialize();
  data::DatasetSource second(ds, ds.AllRowIndices(), 64);
  ASSERT_TRUE(model
                  .FitPaged(second, core::ThresholdTargetName(4),
                            roadgen::RoadAttributeColumns())
                  .ok());
  EXPECT_EQ(model.Serialize(), once);
}

TEST(GbtFitPagedTest, ErrorsOnMissingColumns) {
  const data::Dataset ds = TrainingTable();
  data::DatasetSource source(ds);
  GradientBoostedTrees model(SmallParams());
  EXPECT_FALSE(
      model.FitPaged(source, "no_such_target", roadgen::RoadAttributeColumns())
          .ok());
  EXPECT_FALSE(
      model.FitPaged(source, core::ThresholdTargetName(4), {"no_such_feature"})
          .ok());
}

// --- QuantileSketch ------------------------------------------------------

TEST(QuantileSketchTest, ExactRegimeKeepsEveryDistinctValueAsACut) {
  QuantileSketch sketch;
  for (const double v : {5.0, 1.0, 3.0, 1.0, 5.0, 2.0}) sketch.Add(v);
  EXPECT_TRUE(sketch.exact());
  EXPECT_EQ(sketch.count(), 6u);
  EXPECT_EQ(sketch.Cuts(10), (std::vector<double>{1.0, 2.0, 3.0, 5.0}));
}

TEST(QuantileSketchTest, CompactedRegimeIsDeterministic) {
  auto build = [] {
    QuantileSketch sketch(/*capacity=*/64);
    for (int i = 0; i < 5000; ++i) {
      sketch.Add(static_cast<double>((i * 37) % 4999));
    }
    return sketch;
  };
  QuantileSketch a = build();
  QuantileSketch b = build();
  EXPECT_FALSE(a.exact());
  const std::vector<double> cuts_a = a.Cuts(16);
  EXPECT_EQ(cuts_a, b.Cuts(16));
  EXPECT_FALSE(cuts_a.empty());
  // Cuts are real data values, sorted strictly ascending.
  for (size_t i = 0; i < cuts_a.size(); ++i) {
    EXPECT_EQ(cuts_a[i], static_cast<double>(static_cast<int>(cuts_a[i])));
    if (i > 0) {
      EXPECT_LT(cuts_a[i - 1], cuts_a[i]);
    }
  }
}

}  // namespace
}  // namespace roadmine::ml
