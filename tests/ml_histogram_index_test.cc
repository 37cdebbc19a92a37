#include "ml/histogram_index.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/thresholds.h"
#include "data/split.h"
#include "exec/executor.h"
#include "ml/decision_tree.h"
#include "ml/feature_index.h"
#include "roadgen/dataset_builder.h"
#include "roadgen/generator.h"
#include "serve/flat_model.h"
#include "util/rng.h"

namespace roadmine::ml {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::vector<FeatureRef> NumericFeature(size_t col, const std::string& name) {
  return {FeatureRef{col, data::ColumnType::kNumeric, name}};
}

// y = 1 iff x > 5, with many distinct values so binning has work to do.
data::Dataset ThresholdDataset(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> x, y;
  for (size_t i = 0; i < n; ++i) {
    const double xi = rng.Uniform(0.0, 10.0);
    x.push_back(xi);
    y.push_back(xi > 5.0 ? 1.0 : 0.0);
  }
  data::Dataset ds;
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  return ds;
}

TEST(HistogramIndexTest, HeavilyTiedColumnCollapsesToFewBins) {
  // 1000 rows but only 3 distinct values: the sketch must not fabricate
  // edges between ties, however many bins were requested.
  std::vector<double> x;
  for (size_t i = 0; i < 1000; ++i) x.push_back(static_cast<double>(i % 3));
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  auto index = HistogramIndex::Build(ds, NumericFeature(0, "x"),
                                     ds.AllRowIndices(), {.max_bins = 256});
  ASSERT_TRUE(index.ok());
  const HistogramIndex::FeatureBins& bins = index->ColumnBins(0);
  EXPECT_EQ(bins.num_bins, 3u);
  EXPECT_FALSE(bins.constant);
  EXPECT_EQ(bins.upper, (std::vector<double>{0.0, 1.0, 2.0}));
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    EXPECT_EQ(bins.codes[r], static_cast<uint16_t>(r % 3));
  }
}

TEST(HistogramIndexTest, CutValuesComeFromBuildRowsOnly) {
  // -0.0 and +0.0 compare equal, so they share a rank and a bin; the cut
  // must still carry the build row's zero, not the left-out row's.
  const std::vector<size_t> rows = {0, 2};
  for (const std::vector<double>& x : {std::vector<double>{0.0, -0.0, 1.0},
                                        std::vector<double>{-0.0, 0.0, 1.0}}) {
    data::Dataset ds;
    ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
    const std::vector<FeatureRef> features = NumericFeature(0, "x");
    auto feature_index = FeatureIndex::Build(ds, features);
    ASSERT_TRUE(feature_index.ok());
    for (const FeatureIndex* ranks :
         {static_cast<const FeatureIndex*>(nullptr),
          static_cast<const FeatureIndex*>(&*feature_index)}) {
      SCOPED_TRACE(std::string(ranks ? "FeatureIndex ranks" : "in place") +
                   (std::signbit(x[0]) ? ", build -0.0" : ", build +0.0"));
      auto index = HistogramIndex::Build(ds, features, rows, {.max_bins = 8},
                                         nullptr, ranks);
      ASSERT_TRUE(index.ok());
      const HistogramIndex::FeatureBins& bins = index->ColumnBins(0);
      ASSERT_EQ(bins.upper, (std::vector<double>{0.0, 1.0}));
      EXPECT_EQ(std::signbit(bins.upper[0]), std::signbit(x[0]));
      EXPECT_EQ(bins.codes, (std::vector<uint16_t>{0, 0, 1}));
    }
  }
}

TEST(HistogramIndexTest, AllMissingColumnIsConstantWithMissingCodes) {
  data::Dataset ds;
  ASSERT_TRUE(
      ds.AddColumn(data::Column::Numeric("x", {kNaN, kNaN, kNaN, kNaN})).ok());
  auto index = HistogramIndex::Build(ds, NumericFeature(0, "x"),
                                     ds.AllRowIndices(), {.max_bins = 8});
  ASSERT_TRUE(index.ok());
  const HistogramIndex::FeatureBins& bins = index->ColumnBins(0);
  EXPECT_TRUE(bins.constant);
  EXPECT_EQ(bins.num_bins, 0u);
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(bins.codes[r], HistogramIndex::kMissingBin);
  }
}

TEST(HistogramIndexTest, ConstantColumnIsFlaggedAndNeverSplit) {
  std::vector<double> x(64, 7.25), y;
  for (size_t i = 0; i < 64; ++i) y.push_back(i % 2 ? 1.0 : 0.0);
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  auto index = HistogramIndex::Build(ds, NumericFeature(0, "x"),
                                     ds.AllRowIndices(), {.max_bins = 8});
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(index->ColumnBins(0).constant);

  DecisionTreeParams params;
  params.use_histogram = true;
  params.min_samples_leaf = 2;
  params.min_samples_split = 4;
  DecisionTreeClassifier tree(params);
  ASSERT_TRUE(tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  EXPECT_EQ(tree.leaf_count(), 1u);
}

TEST(HistogramIndexTest, RejectsOutOfRangeBinCounts) {
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x", {1.0, 2.0})).ok());
  EXPECT_FALSE(HistogramIndex::Build(ds, NumericFeature(0, "x"),
                                     ds.AllRowIndices(), {.max_bins = 1})
                   .ok());
  EXPECT_FALSE(HistogramIndex::Build(ds, NumericFeature(0, "x"),
                                     ds.AllRowIndices(), {.max_bins = 70000})
                   .ok());
}

TEST(HistogramIndexTest, RejectsFeaturesThatDoNotMatchTheColumns) {
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x", {1.0, 2.0})).ok());
  const std::vector<size_t> rows = ds.AllRowIndices();
  EXPECT_EQ(HistogramIndex::Build(ds, NumericFeature(1, "y"), rows)
                .status()
                .code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(HistogramIndex::Build(
                ds, {FeatureRef{0, data::ColumnType::kCategorical, "x"}}, rows)
                .status()
                .code(),
            util::StatusCode::kInvalidArgument);
}

TEST(HistogramIndexTest, CategoricalLevelsMapDirectly) {
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::CategoricalFromStrings(
                               "surface", {"chip", "asphalt", "chip", "",
                                           "concrete", "asphalt"}))
                  .ok());
  auto index = HistogramIndex::Build(
      ds, {FeatureRef{0, data::ColumnType::kCategorical, "surface"}},
      ds.AllRowIndices(), {.max_bins = 8});
  ASSERT_TRUE(index.ok());
  const HistogramIndex::FeatureBins& bins = index->ColumnBins(0);
  EXPECT_FALSE(bins.is_numeric);
  EXPECT_FALSE(bins.constant);
  EXPECT_EQ(bins.num_bins, 3u);
  EXPECT_EQ(bins.codes[0], 0u);
  EXPECT_EQ(bins.codes[1], 1u);
  EXPECT_EQ(bins.codes[3], HistogramIndex::kMissingBin);
  EXPECT_EQ(bins.codes[4], 2u);
}

// The equivalence suite's core claim: with distinct values <= max_bins the
// histogram tree IS the exact-greedy tree on the training rows — same
// structure, same routing, same leaf statistics — because the candidate
// sets coincide (bin uppers are the distinct values themselves).
TEST(HistogramEquivalenceTest, MatchesExactGreedyWhenDistinctFitsBins) {
  data::Dataset ds = ThresholdDataset(600, 11);
  DecisionTreeParams exact;
  exact.min_samples_leaf = 5;
  exact.min_samples_split = 10;
  DecisionTreeParams hist = exact;
  hist.use_histogram = true;
  hist.max_bins = 1024;  // 600 distinct values fit: exact candidate set.

  DecisionTreeClassifier exact_tree(exact), hist_tree(hist);
  ASSERT_TRUE(exact_tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  ASSERT_TRUE(hist_tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());

  EXPECT_EQ(hist_tree.leaf_count(), exact_tree.leaf_count());
  EXPECT_EQ(hist_tree.node_count(), exact_tree.node_count());
  auto exact_probs = exact_tree.PredictBatch(ds, ds.AllRowIndices());
  auto hist_probs = hist_tree.PredictBatch(ds, ds.AllRowIndices());
  ASSERT_TRUE(exact_probs.ok() && hist_probs.ok());
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    EXPECT_EQ((*hist_probs)[r], (*exact_probs)[r]) << "row " << r;
  }
}

// With fewer bins than distinct values the candidate set coarsens; the
// documented tolerance is agreement of hard train-set predictions, not
// probabilities, on a cleanly separable boundary.
TEST(HistogramEquivalenceTest, CoarseBinsStillLearnSeparableBoundary) {
  data::Dataset ds = ThresholdDataset(2000, 12);
  DecisionTreeParams params;
  params.min_samples_leaf = 5;
  params.min_samples_split = 10;
  params.use_histogram = true;
  params.max_bins = 32;
  DecisionTreeClassifier tree(params);
  ASSERT_TRUE(tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  size_t correct = 0;
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    const int truth = ds.column(1).NumericAt(r) != 0.0 ? 1 : 0;
    correct += tree.Predict(ds, r) == truth;
  }
  EXPECT_GT(static_cast<double>(correct) / ds.num_rows(), 0.98);
}

// Rows whose feature value equals a bin edge must route the same way in
// training (bin codes) and in serving (raw-value compare) — the corrected
// cut semantics. Exercised end to end through the FlatModel compiler.
TEST(HistogramEquivalenceTest, BinEdgeValuesRouteIdenticallyWhenServed) {
  // Duplicate every value so each bin edge is also a data value carried by
  // several rows, with a label flip exactly at an interior edge.
  std::vector<double> x, y;
  for (int v = 0; v < 40; ++v) {
    for (int k = 0; k < 5; ++k) {
      x.push_back(static_cast<double>(v) * 0.25);
      y.push_back(v >= 20 ? 1.0 : 0.0);
    }
  }
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());

  DecisionTreeParams params;
  params.min_samples_leaf = 2;
  params.min_samples_split = 4;
  params.use_histogram = true;
  params.max_bins = 16;  // 40 distinct values > 16 bins: edges merged.
  DecisionTreeClassifier tree(params);
  ASSERT_TRUE(tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  ASSERT_GT(tree.leaf_count(), 1u);

  auto flat = serve::CompileModel(tree);
  ASSERT_TRUE(flat.ok());
  auto train_probs = tree.PredictBatch(ds, ds.AllRowIndices());
  auto served_probs = flat->PredictBatch(ds, ds.AllRowIndices());
  ASSERT_TRUE(train_probs.ok() && served_probs.ok());
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    EXPECT_EQ((*served_probs)[r], (*train_probs)[r]) << "row " << r;
  }
}

TEST(HistogramDeterminismTest, TreeBitIdenticalSerialVsThreaded) {
  data::Dataset ds = ThresholdDataset(5000, 13);  // Above the exec cutoff.
  DecisionTreeParams serial;
  serial.min_samples_leaf = 5;
  serial.min_samples_split = 10;
  serial.use_histogram = true;
  serial.max_bins = 64;
  DecisionTreeClassifier serial_tree(serial);
  ASSERT_TRUE(serial_tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());

  for (size_t threads : {2u, 8u}) {
    exec::ThreadPool pool(threads);
    DecisionTreeParams threaded = serial;
    threaded.executor = &pool;
    DecisionTreeClassifier threaded_tree(threaded);
    ASSERT_TRUE(threaded_tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
    EXPECT_EQ(threaded_tree.Serialize(), serial_tree.Serialize())
        << threads << " threads";
  }
}

TEST(HistogramIndexTest, SharedIndexMatchesPrivateBuild) {
  data::Dataset ds = ThresholdDataset(400, 14);
  std::vector<FeatureRef> features = NumericFeature(0, "x");
  auto shared = HistogramIndex::Build(ds, features, ds.AllRowIndices(),
                                      {.max_bins = 64});
  ASSERT_TRUE(shared.ok());

  DecisionTreeParams private_params;
  private_params.min_samples_leaf = 5;
  private_params.min_samples_split = 10;
  private_params.use_histogram = true;
  private_params.max_bins = 64;
  DecisionTreeParams shared_params = private_params;
  shared_params.histogram_index = &*shared;

  DecisionTreeClassifier private_tree(private_params),
      shared_tree(shared_params);
  ASSERT_TRUE(private_tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  ASSERT_TRUE(shared_tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  EXPECT_EQ(shared_tree.Serialize(), private_tree.Serialize());
}

// Absolute pins for the bins themselves: each case hashes every road
// attribute's cuts, num_bins, constant flag and codes from one Build over
// the 6,000-segment roadgen fixture (seed 2011, as in ml_tree_pinned_test),
// serially and on a 4-thread pool, with the value ranks computed in place
// and with them read from a FeatureIndex over the fixture. The hashes were
// taken from the sort-and-search binning that the rank counting replaced.
class Fnv1a {
 public:
  void Add(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 1099511628211ull;
    }
  }
  template <typename T>
  void Add(const T& value) {
    Add(&value, sizeof(value));
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

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

std::vector<FeatureRef> NetworkFeatures() {
  auto features =
      ResolveFeatures(Network(), roadgen::RoadAttributeColumns(),
                      core::ThresholdTargetName(4));
  EXPECT_TRUE(features.ok());
  return *features;
}

enum class PinRows {
  kAll,
  kStratifiedTrain,        // A 0.67 stratified train split on CP-4.
  kShuffledWithDuplicate,  // Every row, shuffled, one listed twice.
  kWithoutExtremes,        // Drops each numeric column's min and max row.
};

std::vector<size_t> BuildRows(PinRows which) {
  const data::Dataset& ds = Network();
  std::vector<size_t> rows = ds.AllRowIndices();
  switch (which) {
    case PinRows::kAll:
      break;
    case PinRows::kStratifiedTrain: {
      util::Rng rng(5);
      auto split = data::StratifiedTrainValidationSplit(
          ds, core::ThresholdTargetName(4), 0.67, rng);
      EXPECT_TRUE(split.ok());
      rows = split->train;
      break;
    }
    case PinRows::kShuffledWithDuplicate: {
      util::Rng rng(77);
      rng.Shuffle(rows);
      rows.push_back(rows[rows.size() / 2]);
      break;
    }
    case PinRows::kWithoutExtremes: {
      // The first row holding each numeric column's minimum and the first
      // holding its maximum leave the build set, so a column whose
      // extreme is unique codes its dropped max row by clamping.
      std::vector<uint8_t> dropped(ds.num_rows(), 0);
      for (const FeatureRef& ref : NetworkFeatures()) {
        if (ref.type != data::ColumnType::kNumeric) continue;
        const data::Column& col = ds.column(ref.column_index);
        size_t lo = ds.num_rows(), hi = ds.num_rows();
        for (size_t r = 0; r < ds.num_rows(); ++r) {
          const double v = col.NumericAt(r);
          if (std::isnan(v)) continue;
          if (lo == ds.num_rows() || v < col.NumericAt(lo)) lo = r;
          if (hi == ds.num_rows() || v > col.NumericAt(hi)) hi = r;
        }
        if (lo < ds.num_rows()) dropped[lo] = 1;
        if (hi < ds.num_rows()) dropped[hi] = 1;
      }
      rows.clear();
      for (size_t r = 0; r < ds.num_rows(); ++r) {
        if (!dropped[r]) rows.push_back(r);
      }
      break;
    }
  }
  return rows;
}

struct BinPin {
  PinRows rows;
  size_t max_bins;
  uint64_t hash;
  const char* name;
};

void PrintTo(const BinPin& pin, std::ostream* os) { *os << pin.name; }

uint64_t HashBins(const HistogramIndex& index,
                  const std::vector<FeatureRef>& features) {
  Fnv1a hash;
  for (const FeatureRef& ref : features) {
    const HistogramIndex::FeatureBins& bins = index.ColumnBins(ref.column_index);
    hash.Add(bins.upper.size());
    for (const double cut : bins.upper) {
      uint64_t bits;
      std::memcpy(&bits, &cut, sizeof(bits));
      hash.Add(bits);
    }
    hash.Add(bins.num_bins);
    hash.Add(static_cast<uint8_t>(bins.constant));
    hash.Add(bins.codes.data(), bins.codes.size() * sizeof(uint16_t));
  }
  return hash.hash();
}

// Dataset rows whose value lies above their column's last cut: rows left
// out of the build set, which code into the last bin by clamping.
size_t RowsAboveLastCut(const HistogramIndex& index,
                        const std::vector<FeatureRef>& features) {
  size_t above = 0;
  for (const FeatureRef& ref : features) {
    const HistogramIndex::FeatureBins& bins = index.ColumnBins(ref.column_index);
    if (!bins.is_numeric || bins.upper.empty()) continue;
    const data::Column& col = Network().column(ref.column_index);
    for (size_t r = 0; r < Network().num_rows(); ++r) {
      above += col.NumericAt(r) > bins.upper.back();
    }
  }
  return above;
}

class HistogramBinsPinnedTest : public ::testing::TestWithParam<BinPin> {};

TEST_P(HistogramBinsPinnedTest, HashHoldsForEveryRankSourceAndThreadCount) {
  const BinPin& pin = GetParam();
  const std::vector<FeatureRef> features = NetworkFeatures();
  const std::vector<size_t> rows = BuildRows(pin.rows);
  auto feature_index = FeatureIndex::Build(Network(), features);
  ASSERT_TRUE(feature_index.ok());
  exec::ThreadPool pool(4);
  for (const FeatureIndex* ranks :
       {static_cast<const FeatureIndex*>(nullptr),
        static_cast<const FeatureIndex*>(&*feature_index)}) {
    for (exec::Executor* executor : {static_cast<exec::Executor*>(nullptr),
                                     static_cast<exec::Executor*>(&pool)}) {
      SCOPED_TRACE(std::string(ranks ? "FeatureIndex ranks" : "in place") +
                   (executor ? ", 4 threads" : ", serial"));
      auto index = HistogramIndex::Build(Network(), features, rows,
                                         {.max_bins = pin.max_bins}, executor,
                                         ranks);
      ASSERT_TRUE(index.ok()) << index.status().ToString();
      const uint64_t hash = HashBins(*index, features);
      EXPECT_EQ(hash, pin.hash) << "bins hash to 0x" << std::hex << hash;
      if (pin.rows == PinRows::kWithoutExtremes) {
        EXPECT_GT(RowsAboveLastCut(*index, features), 0u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Bins, HistogramBinsPinnedTest,
    ::testing::Values(
        BinPin{PinRows::kAll, 2, 0xfe4bee7065e8a161ull, "All2"},
        BinPin{PinRows::kAll, 16, 0xfa50c820fccfb435ull, "All16"},
        BinPin{PinRows::kAll, 256, 0x4c64d5022667d5a9ull, "All256"},
        BinPin{PinRows::kStratifiedTrain, 2, 0xb52b8b3e112115beull, "Train2"},
        BinPin{PinRows::kStratifiedTrain, 16, 0x66ebed1ba5dd602cull, "Train16"},
        BinPin{PinRows::kStratifiedTrain, 256, 0x38ea064e86aa9440ull, "Train256"},
        BinPin{PinRows::kShuffledWithDuplicate, 2, 0x1fbd85b486046446ull, "Shuffled2"},
        BinPin{PinRows::kShuffledWithDuplicate, 16, 0xfb8461670f500fffull, "Shuffled16"},
        BinPin{PinRows::kShuffledWithDuplicate, 256, 0x4b0819fad31943cfull, "Shuffled256"},
        BinPin{PinRows::kWithoutExtremes, 2, 0x0729e43970a656fbull, "NoExtremes2"},
        BinPin{PinRows::kWithoutExtremes, 16, 0xf3343ff406cbdb05ull, "NoExtremes16"},
        BinPin{PinRows::kWithoutExtremes, 256, 0x0984593de15569abull, "NoExtremes256"}),
    [](const ::testing::TestParamInfo<BinPin>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace roadmine::ml
