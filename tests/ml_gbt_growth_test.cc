// Pins for the boosted-tree growth engine behind GradientBoostedTrees::Fit
// and FitPaged. Serialized models of four fits on a roadgen fixture
// (categorical road_class / surface_type / terrain, low-cardinality
// lane_count / speed_limit, missing f60 readings), and their compiled flat
// forms, are hashed and compared against constants: the hashes must not
// move with thread count, chunk grain, entry point, or code caching. A
// second test pins that Fit state is kept per fit position, so a row
// listed twice trains like two rows.
#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/thresholds.h"
#include "data/dataset.h"
#include "data/row_source.h"
#include "data/split.h"
#include "exec/executor.h"
#include "ml/gradient_boosting.h"
#include "roadgen/dataset_builder.h"
#include "roadgen/generator.h"
#include "serve/flat_model.h"
#include "util/rng.h"

namespace roadmine::ml {
namespace {

// 64-bit FNV-1a of a serialized model.
uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 14695981039346656037ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

const data::Dataset& Network() {
  static const data::Dataset& ds = *[] {
    roadgen::GeneratorConfig config;
    config.num_segments = 6000;
    config.seed = 2011;
    auto segments = roadgen::RoadNetworkGenerator(config).Generate();
    EXPECT_TRUE(segments.ok());
    auto built = roadgen::BuildSegmentDataset(*segments);
    EXPECT_TRUE(built.ok());
    EXPECT_TRUE(core::AddCrashProneTarget(
                    *built, roadgen::kSegmentCrashCountColumn, /*threshold=*/4)
                    .ok());
    return new data::Dataset(*std::move(built));
  }();
  return ds;
}

GradientBoostedTreesParams PinnedParams(exec::Executor* executor) {
  GradientBoostedTreesParams params;
  params.num_trees = 10;
  params.max_depth = 5;
  params.max_bins = 64;
  params.seed = 61;
  params.executor = executor;
  return params;
}

enum class FitKind { kAllRows, kShuffledSubsampled, kPagedCached, kPagedStreamed };

// The two hashes of one fit: its model file and its compiled flat form.
struct Hashes {
  uint64_t model = 0;
  uint64_t flat = 0;
};

Hashes FitModel(FitKind kind, exec::Executor* executor) {
  const data::Dataset& ds = Network();
  const std::string target = core::ThresholdTargetName(4);
  const std::vector<std::string>& features = roadgen::RoadAttributeColumns();
  GradientBoostedTreesParams params = PinnedParams(executor);
  util::Status status;
  GradientBoostedTrees model;
  switch (kind) {
    case FitKind::kAllRows:
      model = GradientBoostedTrees(params);
      status = model.Fit(ds, target, features, ds.AllRowIndices());
      break;
    case FitKind::kShuffledSubsampled: {
      util::Rng rng(77);
      auto split = data::StratifiedTrainValidationSplit(ds, target, 0.7, rng);
      EXPECT_TRUE(split.ok());
      std::vector<size_t> rows = split->train;
      rng.Shuffle(rows);
      params.subsample = 0.8;
      params.colsample = 0.8;
      model = GradientBoostedTrees(params);
      status = model.Fit(ds, target, features, rows);
      break;
    }
    case FitKind::kPagedCached: {
      data::DatasetSource source(ds, ds.AllRowIndices(), /*chunk_rows=*/1024);
      model = GradientBoostedTrees(params);
      status = model.FitPaged(source, target, features);
      break;
    }
    case FitKind::kPagedStreamed: {
      data::DatasetSource source(ds, ds.AllRowIndices(), /*chunk_rows=*/37);
      model = GradientBoostedTrees(params);
      status = model.FitPaged(source, target, features,
                              {.code_cache_bytes = 0});
      break;
    }
  }
  EXPECT_TRUE(status.ok()) << status.ToString();
  Hashes hashes;
  hashes.model = Fnv1a(model.Serialize());
  auto flat = serve::CompileModel(model);
  EXPECT_TRUE(flat.ok()) << flat.status().ToString();
  if (flat.ok()) hashes.flat = Fnv1a(flat->Serialize());
  return hashes;
}

// Expected hashes of the serialized models and of their compiled flat
// forms. The paged fits are in the quantile sketch's exact regime and
// share Fit's hashes: they train the same model.
struct PinCase {
  FitKind kind;
  uint64_t hash;
  uint64_t flat;
  const char* name;
};

void PrintTo(const PinCase& pin, std::ostream* os) { *os << pin.name; }

class GbtPinnedModelTest : public ::testing::TestWithParam<PinCase> {};

TEST_P(GbtPinnedModelTest, HashHoldsAtEveryThreadCountAndGrain) {
  const PinCase& pin = GetParam();
  const Hashes serial = FitModel(pin.kind, nullptr);
  EXPECT_EQ(serial.model, pin.hash) << "serial: 0x" << std::hex << serial.model;
  EXPECT_EQ(serial.flat, pin.flat) << "serial flat: 0x" << std::hex
                                   << serial.flat;
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    exec::ThreadPool pool(threads);
    const Hashes hashes = FitModel(pin.kind, &pool);
    EXPECT_EQ(hashes.model, pin.hash) << threads << " threads";
    EXPECT_EQ(hashes.flat, pin.flat) << threads << " threads, flat form";
  }
  for (const size_t grain : {size_t{1}, size_t{7}, size_t{1} << 30}) {
    exec::ThreadPool pool(4);
    exec::ScopedGrainForTesting scoped(grain);
    const Hashes hashes = FitModel(pin.kind, &pool);
    EXPECT_EQ(hashes.model, pin.hash) << "grain " << grain;
    EXPECT_EQ(hashes.flat, pin.flat) << "grain " << grain << ", flat form";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fits, GbtPinnedModelTest,
    ::testing::Values(
        PinCase{FitKind::kAllRows, 0xae6c9ec0180aeb07ull, 0xf516be83843b7c57ull,
                "FitAllRows"},
        PinCase{FitKind::kShuffledSubsampled, 0xaa5e9392a31abf18ull,
                0xf46c9f0786bce739ull, "FitShuffledTrainRowsSubsampled"},
        PinCase{FitKind::kPagedCached, 0xae6c9ec0180aeb07ull,
                0xf516be83843b7c57ull, "FitPagedCached"},
        PinCase{FitKind::kPagedStreamed, 0xae6c9ec0180aeb07ull,
                0xf516be83843b7c57ull, "FitPagedStreamed37RowChunks"}),
    [](const ::testing::TestParamInfo<PinCase>& info) {
      return std::string(info.param.name);
    });

// The pins' 6,000 rows keep every engine batch under the executor's work
// cutoff. Here the gradient, routing, histogram-and-scan and margin
// batches are large enough to run threaded, and the models must still
// match the serial one, in RAM and paged.
TEST(GbtThreadedBatchesTest, LargeFitMatchesSerialAtAnyThreadCountAndGrain) {
  util::Rng rng(9);
  std::vector<double> x, m, y;
  std::vector<std::string> kind;
  const std::vector<std::string> kinds = {"a", "b", "c", "d", "e"};
  for (size_t i = 0; i < 300000; ++i) {
    // Few enough distinct values for the paged fit's exact sketch.
    const double xi = std::floor(rng.Uniform(0.0, 1000.0)) / 10.0;
    const double mi = std::floor(rng.Uniform(0.0, 30.0));
    const size_t k = static_cast<size_t>(rng.UniformInt(0, 4));
    x.push_back(xi);
    m.push_back(rng.Bernoulli(0.1) ? std::nan("") : mi);
    kind.push_back(kinds[k]);
    const bool label = (xi > 60.0 && mi < 20.0) || k == 3;
    y.push_back(label != rng.Bernoulli(0.15) ? 1.0 : 0.0);
  }
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("m", m)).ok());
  ASSERT_TRUE(
      ds.AddColumn(data::Column::CategoricalFromStrings("kind", kind)).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  const std::vector<std::string> features = {"x", "m", "kind"};

  GradientBoostedTreesParams params;
  params.num_trees = 3;
  params.max_depth = 3;
  params.max_bins = 64;
  params.subsample = 0.9;
  auto fit = [&](exec::Executor* executor) {
    GradientBoostedTreesParams threaded = params;
    threaded.executor = executor;
    GradientBoostedTrees model(threaded);
    EXPECT_TRUE(model.Fit(ds, "y", features, ds.AllRowIndices()).ok());
    return model.Serialize();
  };
  const std::string serial = fit(nullptr);
  for (const size_t threads : {size_t{2}, size_t{8}}) {
    exec::ThreadPool pool(threads);
    EXPECT_TRUE(fit(&pool) == serial) << threads << " threads";
  }
  exec::ThreadPool pool(4);
  {
    exec::ScopedGrainForTesting scoped(7);
    EXPECT_TRUE(fit(&pool) == serial) << "grain 7";
  }
  // Cached: one block. Streaming: 100,000-row blocks.
  for (const size_t code_cache_bytes : {size_t{256} << 20, size_t{0}}) {
    GradientBoostedTreesParams paged_params = params;
    paged_params.executor = &pool;
    GradientBoostedTrees paged(paged_params);
    data::DatasetSource source(ds, ds.AllRowIndices(), /*chunk_rows=*/100000);
    ASSERT_TRUE(paged
                    .FitPaged(source, "y", features,
                              {.code_cache_bytes = code_cache_bytes})
                    .ok());
    EXPECT_TRUE(paged.Serialize() == serial)
        << "paged, code cache " << code_cache_bytes;
  }
}

// Fit over a row list that names some rows twice must train exactly like
// Fit over those rows materialized (GatherRows): every listed occurrence
// is its own training row with its own margin. Numeric columns with at
// most max_bins distinct values bin identically either way.
TEST(GbtFitPositionsTest, DuplicateRowsFitLikeMaterializedRows) {
  util::Rng rng(5);
  std::vector<double> x0, x1, y;
  for (size_t i = 0; i < 900; ++i) {
    const double a = static_cast<double>(rng.UniformInt(0, 39));
    const double b = static_cast<double>(rng.UniformInt(0, 19));
    x0.push_back(a);
    x1.push_back(b);
    y.push_back((a > 25.0) != (b > 14.0) || rng.Bernoulli(0.1) ? 1.0 : 0.0);
  }
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x0", x0)).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x1", x1)).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());

  std::vector<size_t> rows;
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    rows.push_back(r);
    if (r % 3 == 0) rows.push_back(r);  // Every third row listed twice.
  }
  rng.Shuffle(rows);

  GradientBoostedTreesParams params;
  params.num_trees = 12;
  params.max_depth = 4;
  params.learning_rate = 0.3;
  GradientBoostedTrees listed(params);
  ASSERT_TRUE(listed.Fit(ds, "y", {"x0", "x1"}, rows).ok());
  const data::Dataset gathered = ds.GatherRows(rows);
  GradientBoostedTrees materialized(params);
  ASSERT_TRUE(materialized
                  .Fit(gathered, "y", {"x0", "x1"}, gathered.AllRowIndices())
                  .ok());
  EXPECT_TRUE(listed.Serialize() == materialized.Serialize())
      << "duplicated rows did not train like materialized rows";
}

}  // namespace
}  // namespace roadmine::ml
