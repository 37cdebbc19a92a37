// Absolute pins for the paper's trees: the chi-square, Gini and entropy
// decision trees, the F-test regression tree, M5 and a bagged ensemble,
// each fitted on a 6,000-segment roadgen fixture and hashed from its
// Serialize() text and from its compiled flat form's. The identity suites
// compare two search paths of the same grower with each other; these
// constants also catch a change that moves every path at once, or the
// compiler's lowering of the fitted records. Every fit runs over all rows
// and over a shuffled row list with one row listed twice, serially and on
// a 4-thread pool, and neither hash may move with either.
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
  uint64_t hash;  // Of the model's Serialize() text.
  uint64_t flat;  // Of its compiled FlatModel's Serialize() text.
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

// The two hashes of one fit: its model file and its compiled flat form.
struct Hashes {
  uint64_t model = 0;
  uint64_t flat = 0;
};

// Hashes a fitted model's Serialize() text and its compiled form's.
template <typename Model>
Hashes HashOf(const Model& model) {
  Hashes hashes;
  hashes.model = Fnv1a(model.Serialize());
  auto flat = serve::CompileModel(model);
  EXPECT_TRUE(flat.ok()) << flat.status().ToString();
  if (flat.ok()) hashes.flat = Fnv1a(flat->Serialize());
  return hashes;
}

Hashes FitModel(const PinCase& pin, exec::Executor* executor) {
  const data::Dataset& ds = Network();
  const std::string target = pin.target == Target::kCp4
                                 ? core::ThresholdTargetName(4)
                                 : std::string(kRateColumn);
  const std::vector<std::string>& features = roadgen::RoadAttributeColumns();
  const std::vector<size_t> rows = FitRows(pin.rows);
  util::Status status;
  Hashes hashes;
  switch (pin.model) {
    case Model::kChiSquareTree:
    case Model::kGiniTree:
    case Model::kEntropyTree: {
      DecisionTreeParams params = TreeParams(pin, executor);
      params.criterion = CriterionOf(pin.model);
      DecisionTreeClassifier tree(params);
      status = tree.Fit(ds, target, features, rows);
      hashes = HashOf(tree);
      break;
    }
    case Model::kRegressionTree: {
      RegressionTree tree(RegressionParams(pin, executor));
      status = tree.Fit(ds, target, features, rows);
      hashes = HashOf(tree);
      break;
    }
    case Model::kM5Tree: {
      M5TreeParams params;
      params.tree = RegressionParams(pin, executor);
      M5Tree tree(params);
      status = tree.Fit(ds, target, features, rows);
      hashes = HashOf(tree);
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
      hashes = HashOf(ensemble);
      break;
    }
  }
  EXPECT_TRUE(status.ok()) << status.ToString();
  return hashes;
}

class TreePinnedModelTest : public ::testing::TestWithParam<PinCase> {};

TEST_P(TreePinnedModelTest, HashHoldsSeriallyAndOnFourThreads) {
  const PinCase& pin = GetParam();
  const Hashes serial = FitModel(pin, nullptr);
  EXPECT_EQ(serial.model, pin.hash) << "serial fit hashes to 0x" << std::hex
                                    << serial.model;
  EXPECT_EQ(serial.flat, pin.flat) << "serial flat form hashes to 0x"
                                   << std::hex << serial.flat;
  exec::ThreadPool pool(4);
  const Hashes threaded = FitModel(pin, &pool);
  EXPECT_EQ(threaded.model, pin.hash) << "4 threads";
  EXPECT_EQ(threaded.flat, pin.flat) << "4 threads, flat form";
}

constexpr Rows kAll = Rows::kAll;
constexpr Rows kShuffled = Rows::kShuffledWithDuplicate;

INSTANTIATE_TEST_SUITE_P(
    Fits, TreePinnedModelTest,
    ::testing::Values(
        PinCase{Model::kChiSquareTree, Search::kFeatureIndex, Target::kCp4,
                kAll, 0xf92a4b0fb2229203ull, 0xabeb3f6726136924ull,
                "ChiSquareIndexAll"},
        PinCase{Model::kChiSquareTree, Search::kFeatureIndex, Target::kCp4,
                kShuffled, 0x8a2b42bdfa7c993aull, 0x9d298d1037369b65ull,
                "ChiSquareIndexShuffled"},
        PinCase{Model::kChiSquareTree, Search::kPerNodeSort, Target::kCp4, kAll,
                0xf92a4b0fb2229203ull, 0xabeb3f6726136924ull,
                "ChiSquareSortAll"},
        PinCase{Model::kChiSquareTree, Search::kPerNodeSort, Target::kCp4,
                kShuffled, 0x8a2b42bdfa7c993aull, 0x9d298d1037369b65ull,
                "ChiSquareSortShuffled"},
        PinCase{Model::kChiSquareTree, Search::kHistogram, Target::kCp4, kAll,
                0x5b08e195a1346911ull, 0x59f838012170f2ffull,
                "ChiSquareHistogramAll"},
        PinCase{Model::kChiSquareTree, Search::kHistogram, Target::kCp4,
                kShuffled, 0x70789183c590a56aull, 0x102a5cf6334439ull,
                "ChiSquareHistogramShuffled"},
        PinCase{Model::kGiniTree, Search::kFeatureIndex, Target::kCp4, kAll,
                0x84f2968688fa8802ull, 0x451d38d03ef4b217ull, "GiniIndexAll"},
        PinCase{Model::kGiniTree, Search::kFeatureIndex, Target::kCp4,
                kShuffled, 0xd9b3e0dd9dcaa23bull, 0x60e15d6ff76a4024ull,
                "GiniIndexShuffled"},
        PinCase{Model::kGiniTree, Search::kPerNodeSort, Target::kCp4, kAll,
                0x84f2968688fa8802ull, 0x451d38d03ef4b217ull, "GiniSortAll"},
        PinCase{Model::kGiniTree, Search::kPerNodeSort, Target::kCp4, kShuffled,
                0xd9b3e0dd9dcaa23bull, 0x60e15d6ff76a4024ull,
                "GiniSortShuffled"},
        PinCase{Model::kGiniTree, Search::kHistogram, Target::kCp4, kAll,
                0x1db9408db020114cull, 0x1c31b9abdff4987ull,
                "GiniHistogramAll"},
        PinCase{Model::kGiniTree, Search::kHistogram, Target::kCp4, kShuffled,
                0xffb1a604c687caf0ull, 0x2527adcacdde9c04ull,
                "GiniHistogramShuffled"},
        PinCase{Model::kEntropyTree, Search::kFeatureIndex, Target::kCp4, kAll,
                0x8efd2a53061ad5b6ull, 0xac257c52de2bfd35ull,
                "EntropyIndexAll"},
        PinCase{Model::kEntropyTree, Search::kFeatureIndex, Target::kCp4,
                kShuffled, 0x9d1f697ec439f39eull, 0xcfee00640e5772ddull,
                "EntropyIndexShuffled"},
        PinCase{Model::kEntropyTree, Search::kPerNodeSort, Target::kCp4, kAll,
                0x8efd2a53061ad5b6ull, 0xac257c52de2bfd35ull, "EntropySortAll"},
        PinCase{Model::kEntropyTree, Search::kPerNodeSort, Target::kCp4,
                kShuffled, 0x9d1f697ec439f39eull, 0xcfee00640e5772ddull,
                "EntropySortShuffled"},
        PinCase{Model::kEntropyTree, Search::kHistogram, Target::kCp4, kAll,
                0x7146e438b64551ebull, 0xfa699c78ee12afdaull,
                "EntropyHistogramAll"},
        PinCase{Model::kEntropyTree, Search::kHistogram, Target::kCp4,
                kShuffled, 0xa4624be059f0426dull, 0x9ae9e77511dcc66eull,
                "EntropyHistogramShuffled"},
        PinCase{Model::kRegressionTree, Search::kFeatureIndex, Target::kCp4,
                kAll, 0x192bb09441619af8ull, 0x9c87551b16d983adull,
                "RegressionCp4IndexAll"},
        PinCase{Model::kRegressionTree, Search::kFeatureIndex, Target::kCp4,
                kShuffled, 0x5faac998f6d7c1b9ull, 0x520c4d1a1bbfce5aull,
                "RegressionCp4IndexShuffled"},
        PinCase{Model::kRegressionTree, Search::kPerNodeSort, Target::kCp4,
                kAll, 0x192bb09441619af8ull, 0x9c87551b16d983adull,
                "RegressionCp4SortAll"},
        PinCase{Model::kRegressionTree, Search::kPerNodeSort, Target::kCp4,
                kShuffled, 0x5faac998f6d7c1b9ull, 0x520c4d1a1bbfce5aull,
                "RegressionCp4SortShuffled"},
        PinCase{Model::kRegressionTree, Search::kFeatureIndex, Target::kRate,
                kAll, 0x8b2cf6989b9d8da5ull, 0x3ca13134462b2c30ull,
                "RegressionRateIndexAll"},
        PinCase{Model::kRegressionTree, Search::kFeatureIndex, Target::kRate,
                kShuffled, 0xc79e98d78f2ee05bull, 0x4197a71017bce249ull,
                "RegressionRateIndexShuffled"},
        PinCase{Model::kRegressionTree, Search::kPerNodeSort, Target::kRate,
                kAll, 0x8b2cf6989b9d8da5ull, 0x3ca13134462b2c30ull,
                "RegressionRateSortAll"},
        PinCase{Model::kRegressionTree, Search::kPerNodeSort, Target::kRate,
                kShuffled, 0xc79e98d78f2ee05bull, 0x4197a71017bce249ull,
                "RegressionRateSortShuffled"},
        PinCase{Model::kM5Tree, Search::kFeatureIndex, Target::kCp4, kAll,
                0x80d09153ca499d58ull, 0xd92aa834bfd65625ull, "M5Cp4IndexAll"},
        PinCase{Model::kM5Tree, Search::kFeatureIndex, Target::kCp4, kShuffled,
                0x738286adb01865bcull, 0xaf55013d625411c1ull,
                "M5Cp4IndexShuffled"},
        PinCase{Model::kM5Tree, Search::kPerNodeSort, Target::kCp4, kAll,
                0x80d09153ca499d58ull, 0xd92aa834bfd65625ull, "M5Cp4SortAll"},
        PinCase{Model::kM5Tree, Search::kPerNodeSort, Target::kCp4, kShuffled,
                0x738286adb01865bcull, 0xaf55013d625411c1ull,
                "M5Cp4SortShuffled"},
        PinCase{Model::kM5Tree, Search::kFeatureIndex, Target::kRate, kAll,
                0x505af42f7159d4ceull, 0x85747fc2b805ad6cull, "M5RateIndexAll"},
        PinCase{Model::kM5Tree, Search::kFeatureIndex, Target::kRate, kShuffled,
                0xf78ce6ff7a9f7ea7ull, 0x214631b3c9953713ull,
                "M5RateIndexShuffled"},
        PinCase{Model::kM5Tree, Search::kPerNodeSort, Target::kRate, kAll,
                0x505af42f7159d4ceull, 0x85747fc2b805ad6cull, "M5RateSortAll"},
        PinCase{Model::kM5Tree, Search::kPerNodeSort, Target::kRate, kShuffled,
                0xf78ce6ff7a9f7ea7ull, 0x214631b3c9953713ull,
                "M5RateSortShuffled"},
        PinCase{Model::kBaggedTrees, Search::kFeatureIndex, Target::kCp4, kAll,
                0x6c9afbe2101136f4ull, 0x8ffe4a9e7e59a37ull, "BaggedIndexAll"},
        PinCase{Model::kBaggedTrees, Search::kFeatureIndex, Target::kCp4,
                kShuffled, 0x46919112c5ff76a3ull, 0xa74f4ddfea6996ecull,
                "BaggedIndexShuffled"}),
    [](const ::testing::TestParamInfo<PinCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace roadmine::ml
