// Absolute pins for the paper's trees: the chi-square, Gini and entropy
// decision trees, the F-test regression tree, M5 and a bagged ensemble,
// each fitted on a 6,000-segment roadgen fixture and hashed from its
// Serialize() text. The identity suites compare two search paths of the
// same grower with each other; these constants also catch a change that
// moves every path at once. Every fit runs over all rows and over a
// shuffled row list with one row listed twice, serially and on a
// 4-thread pool, and the hash must not move with either.
#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/thresholds.h"
#include "data/dataset.h"
#include "exec/executor.h"
#include "ml/bagging.h"
#include "ml/decision_tree.h"
#include "ml/m5_tree.h"
#include "ml/regression_tree.h"
#include "roadgen/dataset_builder.h"
#include "roadgen/generator.h"
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

// A real-valued target: crashes per 1,000 vehicles of daily traffic
// (plus 1,000). Its sums depend on the order they are taken in, unlike
// the 0/1 CP-4 target's.
constexpr char kRateColumn[] = "crash_rate";

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
    const data::Column& count =
        **built->ColumnByName(roadgen::kSegmentCrashCountColumn);
    const data::Column& aadt = **built->ColumnByName("aadt");
    std::vector<double> rate;
    for (size_t r = 0; r < built->num_rows(); ++r) {
      const double traffic =
          std::isnan(aadt.NumericAt(r)) ? 0.0 : aadt.NumericAt(r);
      rate.push_back(count.NumericAt(r) * 1000.0 / (traffic + 1000.0));
    }
    EXPECT_TRUE(
        built->AddColumn(data::Column::Numeric(kRateColumn, rate)).ok());
    return new data::Dataset(*std::move(built));
  }();
  return ds;
}

enum class Model {
  kChiSquareTree,
  kGiniTree,
  kEntropyTree,
  kRegressionTree,
  kM5Tree,
  kBaggedTrees,
};
enum class Search { kFeatureIndex, kPerNodeSort, kHistogram };
enum class Target { kCp4, kRate };
enum class Rows { kAll, kShuffledWithDuplicate };

struct PinCase {
  Model model;
  Search search;
  Target target;
  Rows rows;
  uint64_t hash;
  const char* name;
};

void PrintTo(const PinCase& pin, std::ostream* os) { *os << pin.name; }

std::vector<size_t> FitRows(Rows rows) {
  std::vector<size_t> out = Network().AllRowIndices();
  if (rows == Rows::kShuffledWithDuplicate) {
    util::Rng rng(77);
    rng.Shuffle(out);
    out.push_back(out[out.size() / 2]);
  }
  return out;
}

DecisionTreeParams TreeParams(const PinCase& pin, exec::Executor* executor) {
  DecisionTreeParams params;
  params.max_leaves = 40;
  params.use_feature_index = pin.search == Search::kFeatureIndex;
  params.use_histogram = pin.search == Search::kHistogram;
  params.max_bins = 64;
  params.executor = executor;
  return params;
}

RegressionTreeParams RegressionParams(const PinCase& pin,
                                      exec::Executor* executor) {
  RegressionTreeParams params;
  params.max_leaves = 40;
  params.use_feature_index = pin.search == Search::kFeatureIndex;
  params.executor = executor;
  return params;
}

SplitCriterion CriterionOf(Model model) {
  if (model == Model::kGiniTree) return SplitCriterion::kGini;
  if (model == Model::kEntropyTree) return SplitCriterion::kEntropy;
  return SplitCriterion::kChiSquare;
}

std::string FitModel(const PinCase& pin, exec::Executor* executor) {
  const data::Dataset& ds = Network();
  const std::string target = pin.target == Target::kCp4
                                 ? core::ThresholdTargetName(4)
                                 : std::string(kRateColumn);
  const std::vector<std::string>& features = roadgen::RoadAttributeColumns();
  const std::vector<size_t> rows = FitRows(pin.rows);
  util::Status status;
  std::string text;
  switch (pin.model) {
    case Model::kChiSquareTree:
    case Model::kGiniTree:
    case Model::kEntropyTree: {
      DecisionTreeParams params = TreeParams(pin, executor);
      params.criterion = CriterionOf(pin.model);
      DecisionTreeClassifier tree(params);
      status = tree.Fit(ds, target, features, rows);
      text = tree.Serialize();
      break;
    }
    case Model::kRegressionTree: {
      RegressionTree tree(RegressionParams(pin, executor));
      status = tree.Fit(ds, target, features, rows);
      text = tree.Serialize();
      break;
    }
    case Model::kM5Tree: {
      M5TreeParams params;
      params.tree = RegressionParams(pin, executor);
      M5Tree tree(params);
      status = tree.Fit(ds, target, features, rows);
      text = tree.Serialize();
      break;
    }
    case Model::kBaggedTrees: {
      BaggedTreesParams params;
      params.num_trees = 6;
      params.feature_fraction = 0.8;
      params.tree = TreeParams(pin, nullptr);
      params.executor = executor;
      BaggedTreesClassifier ensemble(params);
      status = ensemble.Fit(ds, target, features, rows);
      text = ensemble.Serialize();
      break;
    }
  }
  EXPECT_TRUE(status.ok()) << status.ToString();
  return text;
}

class TreePinnedModelTest : public ::testing::TestWithParam<PinCase> {};

TEST_P(TreePinnedModelTest, HashHoldsSeriallyAndOnFourThreads) {
  const PinCase& pin = GetParam();
  const uint64_t serial = Fnv1a(FitModel(pin, nullptr));
  EXPECT_EQ(serial, pin.hash) << "serial fit hashes to 0x" << std::hex
                              << serial;
  exec::ThreadPool pool(4);
  EXPECT_EQ(Fnv1a(FitModel(pin, &pool)), pin.hash) << "4 threads";
}

constexpr Rows kAll = Rows::kAll;
constexpr Rows kShuffled = Rows::kShuffledWithDuplicate;

INSTANTIATE_TEST_SUITE_P(
    Fits, TreePinnedModelTest,
    ::testing::Values(
        PinCase{Model::kChiSquareTree, Search::kFeatureIndex, Target::kCp4,
                kAll, 0xf92a4b0fb2229203ull, "ChiSquareIndexAll"},
        PinCase{Model::kChiSquareTree, Search::kFeatureIndex, Target::kCp4,
                kShuffled, 0x8a2b42bdfa7c993aull, "ChiSquareIndexShuffled"},
        PinCase{Model::kChiSquareTree, Search::kPerNodeSort, Target::kCp4,
                kAll, 0xf92a4b0fb2229203ull, "ChiSquareSortAll"},
        PinCase{Model::kChiSquareTree, Search::kPerNodeSort, Target::kCp4,
                kShuffled, 0x8a2b42bdfa7c993aull, "ChiSquareSortShuffled"},
        PinCase{Model::kChiSquareTree, Search::kHistogram, Target::kCp4,
                kAll, 0x5b08e195a1346911ull, "ChiSquareHistogramAll"},
        PinCase{Model::kChiSquareTree, Search::kHistogram, Target::kCp4,
                kShuffled, 0x70789183c590a56aull, "ChiSquareHistogramShuffled"},
        PinCase{Model::kGiniTree, Search::kFeatureIndex, Target::kCp4,
                kAll, 0x84f2968688fa8802ull, "GiniIndexAll"},
        PinCase{Model::kGiniTree, Search::kFeatureIndex, Target::kCp4,
                kShuffled, 0xd9b3e0dd9dcaa23bull, "GiniIndexShuffled"},
        PinCase{Model::kGiniTree, Search::kPerNodeSort, Target::kCp4,
                kAll, 0x84f2968688fa8802ull, "GiniSortAll"},
        PinCase{Model::kGiniTree, Search::kPerNodeSort, Target::kCp4,
                kShuffled, 0xd9b3e0dd9dcaa23bull, "GiniSortShuffled"},
        PinCase{Model::kGiniTree, Search::kHistogram, Target::kCp4,
                kAll, 0x1db9408db020114cull, "GiniHistogramAll"},
        PinCase{Model::kGiniTree, Search::kHistogram, Target::kCp4,
                kShuffled, 0xffb1a604c687caf0ull, "GiniHistogramShuffled"},
        PinCase{Model::kEntropyTree, Search::kFeatureIndex, Target::kCp4,
                kAll, 0x8efd2a53061ad5b6ull, "EntropyIndexAll"},
        PinCase{Model::kEntropyTree, Search::kFeatureIndex, Target::kCp4,
                kShuffled, 0x9d1f697ec439f39eull, "EntropyIndexShuffled"},
        PinCase{Model::kEntropyTree, Search::kPerNodeSort, Target::kCp4,
                kAll, 0x8efd2a53061ad5b6ull, "EntropySortAll"},
        PinCase{Model::kEntropyTree, Search::kPerNodeSort, Target::kCp4,
                kShuffled, 0x9d1f697ec439f39eull, "EntropySortShuffled"},
        PinCase{Model::kEntropyTree, Search::kHistogram, Target::kCp4,
                kAll, 0x7146e438b64551ebull, "EntropyHistogramAll"},
        PinCase{Model::kEntropyTree, Search::kHistogram, Target::kCp4,
                kShuffled, 0xa4624be059f0426dull, "EntropyHistogramShuffled"},
        PinCase{Model::kRegressionTree, Search::kFeatureIndex, Target::kCp4,
                kAll, 0x192bb09441619af8ull, "RegressionCp4IndexAll"},
        PinCase{Model::kRegressionTree, Search::kFeatureIndex, Target::kCp4,
                kShuffled, 0x5faac998f6d7c1b9ull, "RegressionCp4IndexShuffled"},
        PinCase{Model::kRegressionTree, Search::kPerNodeSort, Target::kCp4,
                kAll, 0x192bb09441619af8ull, "RegressionCp4SortAll"},
        PinCase{Model::kRegressionTree, Search::kPerNodeSort, Target::kCp4,
                kShuffled, 0x5faac998f6d7c1b9ull, "RegressionCp4SortShuffled"},
        PinCase{Model::kRegressionTree, Search::kFeatureIndex, Target::kRate,
                kAll, 0x8b2cf6989b9d8da5ull, "RegressionRateIndexAll"},
        PinCase{Model::kRegressionTree, Search::kFeatureIndex, Target::kRate,
                kShuffled, 0xc79e98d78f2ee05bull,
                "RegressionRateIndexShuffled"},
        PinCase{Model::kRegressionTree, Search::kPerNodeSort, Target::kRate,
                kAll, 0x8b2cf6989b9d8da5ull, "RegressionRateSortAll"},
        PinCase{Model::kRegressionTree, Search::kPerNodeSort, Target::kRate,
                kShuffled, 0xc79e98d78f2ee05bull, "RegressionRateSortShuffled"},
        PinCase{Model::kM5Tree, Search::kFeatureIndex, Target::kCp4,
                kAll, 0x80d09153ca499d58ull, "M5Cp4IndexAll"},
        PinCase{Model::kM5Tree, Search::kFeatureIndex, Target::kCp4,
                kShuffled, 0x738286adb01865bcull, "M5Cp4IndexShuffled"},
        PinCase{Model::kM5Tree, Search::kPerNodeSort, Target::kCp4,
                kAll, 0x80d09153ca499d58ull, "M5Cp4SortAll"},
        PinCase{Model::kM5Tree, Search::kPerNodeSort, Target::kCp4,
                kShuffled, 0x738286adb01865bcull, "M5Cp4SortShuffled"},
        PinCase{Model::kM5Tree, Search::kFeatureIndex, Target::kRate,
                kAll, 0x505af42f7159d4ceull, "M5RateIndexAll"},
        PinCase{Model::kM5Tree, Search::kFeatureIndex, Target::kRate,
                kShuffled, 0xf78ce6ff7a9f7ea7ull, "M5RateIndexShuffled"},
        PinCase{Model::kM5Tree, Search::kPerNodeSort, Target::kRate,
                kAll, 0x505af42f7159d4ceull, "M5RateSortAll"},
        PinCase{Model::kM5Tree, Search::kPerNodeSort, Target::kRate,
                kShuffled, 0xf78ce6ff7a9f7ea7ull, "M5RateSortShuffled"},
        PinCase{Model::kBaggedTrees, Search::kFeatureIndex, Target::kCp4,
                kAll, 0x6c9afbe2101136f4ull, "BaggedIndexAll"},
        PinCase{Model::kBaggedTrees, Search::kFeatureIndex, Target::kCp4,
                kShuffled, 0x46919112c5ff76a3ull, "BaggedIndexShuffled"}),
    [](const ::testing::TestParamInfo<PinCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace roadmine::ml
