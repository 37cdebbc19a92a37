// Persistence round-trips for every trained model type: serialize, load
// back through the model store's header dispatch, and require bit-identical
// predictions — across randomized roadgen datasets with missing values.
#include "serve/model_store.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/thresholds.h"
#include "ml/bagging.h"
#include "ml/decision_tree.h"
#include "ml/gradient_boosting.h"
#include "ml/logistic_regression.h"
#include "ml/m5_tree.h"
#include "ml/naive_bayes.h"
#include "ml/neural_net.h"
#include "ml/regression_tree.h"
#include "roadgen/dataset_builder.h"
#include "roadgen/generator.h"
#include "serve/flat_model.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace roadmine::serve {
namespace {

data::Dataset RoadDataset(size_t n, uint64_t seed) {
  roadgen::GeneratorConfig config;
  config.num_segments = n;
  config.seed = seed;
  roadgen::RoadNetworkGenerator gen(config);
  auto segments = gen.Generate();
  EXPECT_TRUE(segments.ok());
  auto ds = roadgen::BuildSegmentDataset(*segments);
  EXPECT_TRUE(ds.ok());
  EXPECT_TRUE(core::AddCrashProneTarget(*ds, roadgen::kSegmentCrashCountColumn,
                                        4)
                  .ok());
  return std::move(*ds);
}

// Serializes `model`, loads it back through LoadPredictor (exercising the
// header dispatch), and checks name + bit-identical batch predictions.
template <typename ModelT>
void ExpectRoundTrip(const ModelT& model, const data::Dataset& ds,
                     const char* expected_name) {
  const std::string blob = model.Serialize();
  auto loaded = LoadPredictor(blob, ds);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_STREQ((*loaded)->name(), expected_name);
  auto want = model.PredictBatch(ds, ds.AllRowIndices());
  auto got = (*loaded)->PredictBatch(ds, ds.AllRowIndices());
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*want, *got);  // Bit-identical after the round-trip.
}

TEST(ModelIoTest, EveryModelTypeRoundTrips) {
  // A couple of seeds per family: the formats must survive whatever tree
  // shapes / encoders the data produces, not one lucky fit.
  for (uint64_t seed : {2u, 19u}) {
    data::Dataset ds = RoadDataset(1500, seed);
    const std::string target = core::ThresholdTargetName(4);
    const std::vector<std::string>& features =
        roadgen::RoadAttributeColumns();
    const std::vector<size_t> rows = ds.AllRowIndices();

    ml::DecisionTreeClassifier dt{
        ml::DecisionTreeParams{.min_samples_leaf = 25}};
    ASSERT_TRUE(dt.Fit(ds, target, features, rows).ok());
    ExpectRoundTrip(dt, ds, "decision_tree");

    ml::BaggedTreesParams bag_params;
    bag_params.num_trees = 5;
    bag_params.tree.min_samples_leaf = 40;
    ml::BaggedTreesClassifier bagged(bag_params);
    ASSERT_TRUE(bagged.Fit(ds, target, features, rows).ok());
    ExpectRoundTrip(bagged, ds, "bagged_trees");

    ml::RegressionTree rt{ml::RegressionTreeParams{.min_samples_leaf = 25}};
    ASSERT_TRUE(
        rt.Fit(ds, roadgen::kSegmentCrashCountColumn, features, rows).ok());
    ExpectRoundTrip(rt, ds, "regression_tree");

    ml::M5Tree m5;
    ASSERT_TRUE(
        m5.Fit(ds, roadgen::kSegmentCrashCountColumn, features, rows).ok());
    ExpectRoundTrip(m5, ds, "m5_tree");

    ml::NaiveBayesClassifier nb;
    ASSERT_TRUE(nb.Fit(ds, target, features, rows).ok());
    ExpectRoundTrip(nb, ds, "naive_bayes");

    ml::LogisticRegressionParams lr_params;
    lr_params.max_iterations = 60;
    ml::LogisticRegression lr(lr_params);
    ASSERT_TRUE(lr.Fit(ds, target, features, rows).ok());
    ExpectRoundTrip(lr, ds, "logistic_regression");

    ml::NeuralNetParams nn_params;
    nn_params.hidden_layers = {6};
    nn_params.epochs = 8;
    ml::NeuralNetClassifier nn(nn_params);
    ASSERT_TRUE(nn.Fit(ds, target, features, rows).ok());
    ExpectRoundTrip(nn, ds, "neural_net");

    auto flat = CompileModel(dt);
    ASSERT_TRUE(flat.ok());
    ExpectRoundTrip(*flat, ds, "flat_decision_tree");
  }
}

constexpr double kInf = std::numeric_limits<double>::infinity();

// Numeric x and w, categorical c and the 0/1 target y.
data::Dataset FeaturesAndTarget(const std::vector<double>& x,
                                const std::vector<double>& w,
                                const std::vector<std::string>& c,
                                const std::vector<double>& y) {
  data::Dataset ds;
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("w", w)).ok());
  EXPECT_TRUE(ds.AddColumn(data::Column::CategoricalFromStrings("c", c)).ok());
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  return ds;
}

// 200 rows whose numeric x cycles through -inf, +inf, -0.0, NaN (missing),
// the smallest denormal, +-1e308, 0.0 and two ordinary values, beside a
// uniform w and a categorical c. The 0/1 target y is 1 for the first four
// (with 10% of labels flipped), so trees split at and between the special
// values.
data::Dataset SpecialValuesDataset() {
  const double values[] = {-kInf,
                           kInf,
                           -0.0,
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::denorm_min(),
                           1e308,
                           -1e308,
                           0.0,
                           1.5,
                           -2.5};
  util::Rng rng(31);
  std::vector<double> x, w, y;
  std::vector<std::string> c;
  for (size_t i = 0; i < 200; ++i) {
    x.push_back(values[i % 10]);
    w.push_back(rng.Uniform(0.0, 10.0));
    c.push_back(i % 3 == 0 ? "sealed" : "unsealed");
    y.push_back((i % 10 < 4) != rng.Bernoulli(0.1) ? 1.0 : 0.0);
  }
  return FeaturesAndTarget(x, w, c, y);
}

// 200 rows with x = -inf on every fifth row, those rows positive, and the
// others 20% positive: every tree model splits at -inf.
data::Dataset NegativeInfinityDataset() {
  util::Rng rng(5);
  std::vector<double> x, w, y;
  std::vector<std::string> c;
  for (size_t i = 0; i < 200; ++i) {
    const bool at_negative_infinity = i % 5 == 0;
    x.push_back(at_negative_infinity ? -kInf : rng.Uniform(0.0, 10.0));
    w.push_back(rng.Uniform(0.0, 10.0));
    c.push_back(rng.Bernoulli(0.5) ? "sealed" : "unsealed");
    y.push_back(at_negative_infinity || rng.Bernoulli(0.2) ? 1.0 : 0.0);
  }
  return FeaturesAndTarget(x, w, c, y);
}

// 200 rows whose x alternates +1e308 and -1e308: finite values whose
// running moments overflow. w, c and y as in NegativeInfinityDataset.
data::Dataset HugeMagnitudeDataset() {
  util::Rng rng(17);
  std::vector<double> x, w, y;
  std::vector<std::string> c;
  for (size_t i = 0; i < 200; ++i) {
    x.push_back(i % 2 == 0 ? 1e308 : -1e308);
    w.push_back(rng.Uniform(0.0, 10.0));
    c.push_back(rng.Bernoulli(0.5) ? "sealed" : "unsealed");
    y.push_back(rng.Bernoulli(0.3) ? 1.0 : 0.0);
  }
  return FeaturesAndTarget(x, w, c, y);
}

// A fitted model survives its own file: Serialize∘Deserialize is a
// fixpoint, and the reloaded model scores every row bit for bit like the
// fitted one (NaN scores included).
template <typename Model>
void ExpectReloadScoresBitForBit(const Model& model, const data::Dataset& ds) {
  const std::string text = model.Serialize();
  auto loaded = Model::Deserialize(text, ds);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->Serialize(), text);

  auto want = model.PredictBatch(ds, ds.AllRowIndices());
  auto got = loaded->PredictBatch(ds, ds.AllRowIndices());
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(want->size(), got->size());
  for (size_t r = 0; r < want->size(); ++r) {
    EXPECT_EQ(std::bit_cast<uint64_t>((*want)[r]),
              std::bit_cast<uint64_t>((*got)[r]))
        << "row " << r << ": " << (*want)[r] << " vs " << (*got)[r];
  }
}

// A fitted tree model reloads bit for bit, and it and its reloaded twin
// compile to the same flat bytes, which FlatModel::Deserialize accepts and
// writes back unchanged.
template <typename Model>
void ExpectFaithfulReload(const Model& model, const data::Dataset& ds,
                          bool splits_at_negative_infinity) {
  const std::string text = model.Serialize();
  if (splits_at_negative_infinity) {
    EXPECT_NE(text.find("\t-inf\t"), std::string::npos) << text;
  }
  ExpectReloadScoresBitForBit(model, ds);
  auto loaded = Model::Deserialize(text, ds);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  auto flat = CompileModel(model);
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  auto reloaded_flat = CompileModel(*loaded);
  ASSERT_TRUE(reloaded_flat.ok()) << reloaded_flat.status().ToString();
  const std::string flat_text = flat->Serialize();
  EXPECT_EQ(reloaded_flat->Serialize(), flat_text);
  auto flat_loaded = FlatModel::Deserialize(flat_text, ds);
  ASSERT_TRUE(flat_loaded.ok()) << flat_loaded.status().ToString();
  EXPECT_EQ(flat_loaded->Serialize(), flat_text);
}

// Fits every tree model family on `ds` (features x, w, c; target y) with
// small leaves, and checks each reloads faithfully.
void ExpectEveryTreeModelReloads(const data::Dataset& ds,
                                 bool splits_at_negative_infinity) {
  const std::vector<std::string> features = {"x", "w", "c"};
  const std::vector<size_t> rows = ds.AllRowIndices();
  ml::DecisionTreeParams tree;
  tree.min_samples_split = 10;
  tree.min_samples_leaf = 5;
  ml::RegressionTreeParams regression;
  regression.min_samples_split = 10;
  regression.min_samples_leaf = 5;
  {
    SCOPED_TRACE("decision_tree");
    ml::DecisionTreeClassifier model(tree);
    ASSERT_TRUE(model.Fit(ds, "y", features, rows).ok());
    ExpectFaithfulReload(model, ds, splits_at_negative_infinity);
  }
  {
    SCOPED_TRACE("regression_tree");
    ml::RegressionTree model(regression);
    ASSERT_TRUE(model.Fit(ds, "y", features, rows).ok());
    ExpectFaithfulReload(model, ds, splits_at_negative_infinity);
  }
  {
    SCOPED_TRACE("m5_tree");
    ml::M5Tree model(ml::M5TreeParams{.tree = regression});
    ASSERT_TRUE(model.Fit(ds, "y", features, rows).ok());
    ExpectFaithfulReload(model, ds, splits_at_negative_infinity);
  }
  {
    SCOPED_TRACE("bagged_trees");
    ml::BaggedTreesClassifier model(
        ml::BaggedTreesParams{.num_trees = 3, .tree = tree});
    ASSERT_TRUE(model.Fit(ds, "y", features, rows).ok());
    ExpectFaithfulReload(model, ds, splits_at_negative_infinity);
  }
  {
    SCOPED_TRACE("gradient_boosted_trees");
    ml::GradientBoostedTrees model(
        ml::GradientBoostedTreesParams{.num_trees = 5});
    ASSERT_TRUE(model.Fit(ds, "y", features, rows).ok());
    ExpectFaithfulReload(model, ds, splits_at_negative_infinity);
  }
}

TEST(ModelIoTest, TreeModelsReloadFromColumnsOfSpecialValues) {
  ExpectEveryTreeModelReloads(SpecialValuesDataset(),
                              /*splits_at_negative_infinity=*/false);
}

TEST(ModelIoTest, TreeModelsSplitAtNegativeInfinityReload) {
  ExpectEveryTreeModelReloads(NegativeInfinityDataset(),
                              /*splits_at_negative_infinity=*/true);
}

// Fits naive Bayes, logistic regression and the neural net on `ds`
// (features x, w, c; target y): each scores every row finite and reloads
// bit for bit.
void ExpectEveryNonTreeModelReloads(const data::Dataset& ds) {
  const std::vector<std::string> features = {"x", "w", "c"};
  const std::vector<size_t> rows = ds.AllRowIndices();
  const auto expect_finite_reload = [&](const auto& model) {
    auto scores = model.PredictBatch(ds, rows);
    ASSERT_TRUE(scores.ok()) << scores.status().ToString();
    for (size_t r = 0; r < scores->size(); ++r) {
      EXPECT_TRUE(std::isfinite((*scores)[r])) << "row " << r;
    }
    ExpectReloadScoresBitForBit(model, ds);
  };
  {
    SCOPED_TRACE("naive_bayes");
    ml::NaiveBayesClassifier model;
    ASSERT_TRUE(model.Fit(ds, "y", features, rows).ok());
    expect_finite_reload(model);
  }
  {
    SCOPED_TRACE("logistic_regression");
    ml::LogisticRegression model(
        ml::LogisticRegressionParams{.max_iterations = 60});
    ASSERT_TRUE(model.Fit(ds, "y", features, rows).ok());
    expect_finite_reload(model);
  }
  {
    SCOPED_TRACE("neural_net");
    ml::NeuralNetParams params;
    params.hidden_layers = {6};
    params.epochs = 8;
    ml::NeuralNetClassifier model(params);
    ASSERT_TRUE(model.Fit(ds, "y", features, rows).ok());
    expect_finite_reload(model);
  }
}

TEST(ModelIoTest, NonTreeModelsReloadFromColumnsOfSpecialValues) {
  ExpectEveryNonTreeModelReloads(SpecialValuesDataset());
}

TEST(ModelIoTest, NonTreeModelsReloadFromNegativeInfinity) {
  ExpectEveryNonTreeModelReloads(NegativeInfinityDataset());
}

TEST(ModelIoTest, NonTreeModelsReloadFromHugeMagnitudes) {
  ExpectEveryNonTreeModelReloads(HugeMagnitudeDataset());
}

TEST(ModelIoTest, FileRoundTrip) {
  data::Dataset ds = RoadDataset(800, 7);
  ml::DecisionTreeClassifier dt{
      ml::DecisionTreeParams{.min_samples_leaf = 30}};
  ASSERT_TRUE(dt.Fit(ds, core::ThresholdTargetName(4),
                     roadgen::RoadAttributeColumns(), ds.AllRowIndices())
                  .ok());

  const std::string path = "model_io_test.roadmine";
  ASSERT_TRUE(SaveModelToFile(dt.Serialize(), path).ok());
  auto loaded = LoadPredictorFromFile(path, ds);
  ASSERT_TRUE(loaded.ok());
  auto want = dt.PredictBatch(ds, ds.AllRowIndices());
  auto got = (*loaded)->PredictBatch(ds, ds.AllRowIndices());
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*want, *got);
  std::remove(path.c_str());
}

TEST(ModelIoTest, MissingFileIsNotFound) {
  data::Dataset ds = RoadDataset(200, 1);
  auto loaded = LoadPredictorFromFile("/nonexistent/model.roadmine", ds);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kNotFound);
}

TEST(ModelIoTest, UnknownHeaderRejected) {
  data::Dataset ds = RoadDataset(200, 1);
  EXPECT_FALSE(LoadPredictor("", ds).ok());
  EXPECT_FALSE(LoadPredictor("roadmine-decision-tree v999\n", ds).ok());
  EXPECT_FALSE(LoadPredictor("not a model at all", ds).ok());
}

TEST(ModelIoTest, TruncatedBlobsRejected) {
  data::Dataset ds = RoadDataset(800, 15);
  const std::string target = core::ThresholdTargetName(4);
  const std::vector<std::string>& features = roadgen::RoadAttributeColumns();

  ml::NaiveBayesClassifier nb;
  ASSERT_TRUE(nb.Fit(ds, target, features, ds.AllRowIndices()).ok());
  ml::LogisticRegressionParams lr_params;
  lr_params.max_iterations = 40;
  ml::LogisticRegression lr(lr_params);
  ASSERT_TRUE(lr.Fit(ds, target, features, ds.AllRowIndices()).ok());

  for (const std::string& blob : {nb.Serialize(), lr.Serialize()}) {
    // Cut the blob in half: the self-terminating sections must notice.
    EXPECT_FALSE(LoadPredictor(blob.substr(0, blob.size() / 2), ds).ok());
  }
}

TEST(ModelIoTest, UnknownColumnRejected) {
  data::Dataset train = RoadDataset(800, 23);
  ml::DecisionTreeClassifier dt{
      ml::DecisionTreeParams{.min_samples_leaf = 30}};
  ASSERT_TRUE(dt.Fit(train, core::ThresholdTargetName(4),
                     roadgen::RoadAttributeColumns(), train.AllRowIndices())
                  .ok());
  const std::string blob = dt.Serialize();

  // A scoring dataset without the fitted columns must be rejected.
  data::Dataset wrong;
  ASSERT_TRUE(wrong.AddColumn(data::Column::Numeric("unrelated", {1.0})).ok());
  EXPECT_FALSE(LoadPredictor(blob, wrong).ok());
}

// A two-feature scoring schema and a hand-written compiled tree over it:
// the root splits on x, its left child on surface, three leaves.
data::Dataset XSurfaceDataset() {
  data::Dataset ds;
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("x", {1.0, 7.0, 3.0})).ok());
  EXPECT_TRUE(ds.AddColumn(data::Column::CategoricalFromStrings(
                               "surface", {"asphalt", "chip_seal", "chip_seal"}))
                  .ok());
  return ds;
}

struct FlatText {
  std::string kind = "decision_tree";
  std::string roots = "roots 1\nroot\t0\n";
  std::string root = "node\t0\t5\t1\t1\t2\t0\t0\t0\t-1\t-";
  std::string split = "node\t1\t0\t0\t3\t4\t0\t0\t0\t-1\t01";

  std::string Render() const {
    return "roadmine-flat-model v1\nkind\t" + kind +
           "\nsmoothing\t0\nfeatures 2\nfeature\tx\tnumeric\n"
           "feature\tsurface\tcategorical\nfeatures 0\n" +
           roots + "nodes 5\n" + root + "\n" + split + "\n" +
           "node\t-1\t0\t1\t-1\t-1\t0.75\t0\t0\t-1\t-\n"
           "node\t-1\t0\t1\t-1\t-1\t0.5\t0\t0\t-1\t-\n"
           "node\t-1\t0\t1\t-1\t-1\t0.25\t0\t0\t-1\t-\n"
           "lm_pool 0\n";
  }
};

// Two single-leaf trees (0.75, then 0.25) of model kind `kind`.
std::string TwoLeafText(const std::string& kind, const std::string& roots) {
  return "roadmine-flat-model v1\nkind\t" + kind +
         "\nsmoothing\t0\nfeatures 0\nfeatures 0\n" + roots +
         "nodes 2\n"
         "node\t-1\t0\t1\t-1\t-1\t0.75\t0\t0\t-1\t-\n"
         "node\t-1\t0\t1\t-1\t-1\t0.25\t0\t0\t-1\t-\n"
         "lm_pool 0\n";
}

TEST(ModelIoTest, FlatModelRejectsNodesThatDoNotFormTrees) {
  const data::Dataset ds = XSurfaceDataset();
  auto valid = FlatModel::Deserialize(FlatText{}.Render(), ds);
  ASSERT_TRUE(valid.ok()) << valid.status().ToString();
  EXPECT_EQ(*valid->PredictRow(ds, 0), 0.25);  // x <= 5, asphalt: right.
  EXPECT_EQ(*valid->PredictRow(ds, 1), 0.75);  // x > 5.
  EXPECT_EQ(*valid->PredictRow(ds, 2), 0.5);   // x <= 5, chip_seal: left.
  EXPECT_EQ(valid->Serialize(), FlatText{}.Render());

  FlatText cycle;  // The root is its own child.
  cycle.root = "node\t0\t5\t1\t0\t0\t0\t0\t0\t-1\t-";
  FlatText back_edge;  // The left child routes back to the root.
  back_edge.split = "node\t1\t0\t0\t0\t4\t0\t0\t0\t-1\t01";
  FlatText shared_child;  // Both root children are node 1.
  shared_child.root = "node\t0\t5\t1\t1\t1\t0\t0\t0\t-1\t-";
  // The multi-tree cases are ensembles: a single-tree kind must list one
  // root (SingleTreeKindsRejectSeveralRoots).
  FlatText shared_root;  // Two trees on one root.
  shared_root.kind = "bagged_trees";
  shared_root.roots = "roots 2\nroot\t0\nroot\t0\n";
  FlatText nested_root;  // A second tree rooted inside the first.
  nested_root.kind = "bagged_trees";
  nested_root.roots = "roots 2\nroot\t0\nroot\t1\n";
  FlatText wide_root;  // Past int32: must not wrap to a negative index.
  wide_root.roots = "roots 1\nroot\t2147483648\n";
  FlatText first_root_past_zero;  // The one tree starts at node 1.
  first_root_past_zero.roots = "roots 1\nroot\t1\n";
  // Tree 0 is nodes 0-2, but node 1's children are tree 1's nodes 3 and 4.
  FlatText child_in_next_tree;
  child_in_next_tree.kind = "bagged_trees";
  child_in_next_tree.roots = "roots 2\nroot\t0\nroot\t3\n";
  for (const FlatText& bad :
       {cycle, back_edge, shared_child, shared_root, nested_root, wide_root,
        first_root_past_zero, child_in_next_tree}) {
    auto loaded = FlatModel::Deserialize(bad.Render(), ds);
    EXPECT_FALSE(loaded.ok()) << bad.roots << bad.root << "\n" << bad.split;
  }

  // Two single-leaf bagged trees: tree t holds nodes [root t, root t+1),
  // so the roots must ascend.
  auto ascending = FlatModel::Deserialize(
      TwoLeafText("bagged_trees", "roots 2\nroot\t0\nroot\t1\n"), ds);
  ASSERT_TRUE(ascending.ok()) << ascending.status().ToString();
  EXPECT_EQ(*ascending->PredictRow(ds, 0), 0.5);
  EXPECT_FALSE(FlatModel::Deserialize(
                   TwoLeafText("bagged_trees", "roots 2\nroot\t1\nroot\t0\n"),
                   ds)
                   .ok());

  // The same defect in a compiled model's own text: the root's children
  // rewritten to "0 0".
  data::Dataset road = RoadDataset(800, 3);
  ml::DecisionTreeClassifier dt{
      ml::DecisionTreeParams{.min_samples_leaf = 30}};
  ASSERT_TRUE(dt.Fit(road, core::ThresholdTargetName(4),
                     roadgen::RoadAttributeColumns(), road.AllRowIndices())
                  .ok());
  auto flat = CompileModel(dt);
  ASSERT_TRUE(flat.ok());
  ASSERT_GT(flat->node_count(), 1u);
  std::string text = flat->Serialize();
  const size_t line = text.find("\nnode\t") + 1;
  const size_t length = text.find('\n', line) - line;
  std::vector<std::string> parts = util::Split(text.substr(line, length), '\t');
  ASSERT_EQ(parts.size(), 11u);
  parts[4] = "0";
  parts[5] = "0";
  text.replace(line, length, util::Join(parts, "\t"));
  EXPECT_FALSE(FlatModel::Deserialize(text, road).ok());
}

// The single-tree kinds score tree 0 only, and M5's per-node arrays
// cover tree 0 only, so their files must list exactly one root. Scoring
// the first of several trees would silently drop the rest.
TEST(ModelIoTest, SingleTreeKindsRejectSeveralRoots) {
  const data::Dataset ds = XSurfaceDataset();
  for (const char* kind : {"decision_tree", "regression_tree", "m5_tree"}) {
    auto loaded = FlatModel::Deserialize(
        TwoLeafText(kind, "roots 2\nroot\t0\nroot\t1\n"), ds);
    ASSERT_FALSE(loaded.ok()) << kind;
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument)
        << kind;
  }
}

// One fit of every model format on one small road dataset, serialized.
struct FittedTexts {
  data::Dataset ds;
  std::string dt, bagged, rt, m5, gbt, nb, lr, nn, flat;
};

FittedTexts FitEveryFormat() {
  FittedTexts out;
  out.ds = RoadDataset(800, 3);
  const data::Dataset& ds = out.ds;
  const std::string target = core::ThresholdTargetName(4);
  const std::string count = roadgen::kSegmentCrashCountColumn;
  const std::vector<std::string>& features = roadgen::RoadAttributeColumns();
  const std::vector<size_t> rows = ds.AllRowIndices();

  ml::DecisionTreeClassifier dt{ml::DecisionTreeParams{.min_samples_leaf = 30}};
  EXPECT_TRUE(dt.Fit(ds, target, features, rows).ok());
  ml::BaggedTreesParams bag_params;
  bag_params.num_trees = 2;
  bag_params.tree.min_samples_leaf = 40;
  ml::BaggedTreesClassifier bagged(bag_params);
  EXPECT_TRUE(bagged.Fit(ds, target, features, rows).ok());
  ml::RegressionTree rt{ml::RegressionTreeParams{.min_samples_leaf = 25}};
  EXPECT_TRUE(rt.Fit(ds, count, features, rows).ok());
  ml::M5Tree m5;
  EXPECT_TRUE(m5.Fit(ds, count, features, rows).ok());
  ml::GradientBoostedTreesParams gbt_params;
  gbt_params.num_trees = 3;
  gbt_params.max_depth = 3;
  ml::GradientBoostedTrees gbt(gbt_params);
  EXPECT_TRUE(gbt.Fit(ds, target, features, rows).ok());
  ml::NaiveBayesClassifier nb;
  EXPECT_TRUE(nb.Fit(ds, target, features, rows).ok());
  ml::LogisticRegressionParams lr_params;
  lr_params.max_iterations = 20;
  ml::LogisticRegression lr(lr_params);
  EXPECT_TRUE(lr.Fit(ds, target, features, rows).ok());
  ml::NeuralNetParams nn_params;
  nn_params.hidden_layers = {6};
  nn_params.epochs = 2;
  ml::NeuralNetClassifier nn(nn_params);
  EXPECT_TRUE(nn.Fit(ds, target, features, rows).ok());
  auto flat = CompileModel(gbt);
  EXPECT_TRUE(flat.ok());

  out.dt = dt.Serialize();
  out.bagged = bagged.Serialize();
  out.rt = rt.Serialize();
  out.m5 = m5.Serialize();
  out.gbt = gbt.Serialize();
  out.nb = nb.Serialize();
  out.lr = lr.Serialize();
  out.nn = nn.Serialize();
  out.flat = flat->Serialize();
  return out;
}

// `text` with node line `id` of its first tree made internal, with
// children `left` and `right`; `left_field` is the format's left-child
// field (the right child's follows it).
std::string Rewire(std::string text, size_t id, size_t left_field,
                   const std::string& left, const std::string& right) {
  size_t begin = text.find("\nnode\t") + 1;
  for (size_t i = 0; i < id; ++i) begin = text.find("\nnode\t", begin) + 1;
  const size_t length = text.find('\n', begin) - begin;
  std::vector<std::string> parts =
      util::Split(text.substr(begin, length), '\t');
  parts[1] = "0";
  parts[left_field] = left;
  parts[left_field + 1] = right;
  return text.replace(begin, length, util::Join(parts, "\t"));
}

TEST(ModelIoTest, TreeDecodersRejectNodesThatDoNotFormTrees) {
  // A cycle would make every descent through it loop forever; a node
  // with two parents, or a child index that only fits after wrapping to
  // an int, is not the tree the text claims either.
  const FittedTexts fx = FitEveryFormat();
  struct Format {
    const char* name;
    const std::string& text;
    size_t left_field;
  };
  for (const Format& format : {Format{"decision_tree", fx.dt, 6},
                               Format{"bagged_trees", fx.bagged, 6},
                               Format{"regression_tree", fx.rt, 6},
                               Format{"m5_tree", fx.m5, 6},
                               Format{"gbt", fx.gbt, 5}}) {
    SCOPED_TRACE(format.name);
    ASSERT_TRUE(LoadPredictor(format.text, fx.ds).ok());
    const size_t f = format.left_field;
    const std::string root_to_itself = Rewire(format.text, 0, f, "0", "0");
    const std::string back_edge =
        Rewire(Rewire(format.text, 0, f, "1", "2"), 1, f, "0", "3");
    const std::string same_child_twice =
        Rewire(format.text, 0, f, "1", "1");
    const std::string two_parents =
        Rewire(Rewire(format.text, 0, f, "1", "2"), 1, f, "2", "3");
    const std::string wide_child =  // 2^32 + 1 wraps to 1 as an int.
        Rewire(format.text, 0, f, "4294967297", "2");
    for (const std::string& bad : {root_to_itself, back_edge,
                                   same_child_twice, two_parents,
                                   wide_child}) {
      auto loaded = LoadPredictor(bad, fx.ds);
      EXPECT_FALSE(loaded.ok()) << bad.substr(0, 600);
      EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
    }
  }
}

// `text` with its first line that starts with `prefix` replaced by `line`.
std::string ReplaceLine(std::string text, const std::string& prefix,
                        const std::string& line) {
  const size_t begin = text.find("\n" + prefix) + 1;
  EXPECT_NE(begin, 0u) << "no line starts with " << prefix;
  return text.replace(begin, text.find('\n', begin) - begin, line);
}

TEST(ModelIoTest, DecodersRejectCountsTheTextDoesNotHold) {
  // A decoder that sized storage from one of these counts alone would
  // abort with std::bad_alloc instead of returning an error.
  const FittedTexts fx = FitEveryFormat();
  const std::string huge = "4000000000000";
  struct Case {
    const char* name;
    const std::string& text;
    std::string prefix;
    std::string line;
  };
  const Case cases[] = {
      {"decision_tree features", fx.dt, "features ", "features " + huge},
      {"regression_tree features", fx.rt, "features ", "features " + huge},
      {"m5_tree features", fx.m5, "features ", "features " + huge},
      {"gbt features", fx.gbt, "features ", "features " + huge},
      {"naive_bayes features", fx.nb, "features ", "features " + huge},
      {"flat features", fx.flat, "features ", "features " + huge},
      {"gbt tree", fx.gbt, "tree ", "tree " + huge},
      {"logistic_regression weights", fx.lr, "weights ", "weights " + huge},
      {"neural_net layers", fx.nn, "layers ", "layers " + huge},
      {"neural_net layer", fx.nn, "layer\t", "layer\t200000000\t200000000"},
      {"m5_tree leaf_models", fx.m5, "leaf_models ", "leaf_models " + huge},
      {"bagged_trees trees", fx.bagged, "trees ", "trees " + huge},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ASSERT_TRUE(LoadPredictor(c.text, fx.ds).ok());
    auto loaded = LoadPredictor(ReplaceLine(c.text, c.prefix, c.line), fx.ds);
    EXPECT_FALSE(loaded.ok());
  }
}

TEST(ModelIoTest, NeuralNetLayersMustChain) {
  // The output layer reads 7 inputs from a 6-wide hidden layer: it has a
  // well-formed weight row, but the forward pass would read past the
  // hidden activations.
  const FittedTexts fx = FitEveryFormat();
  std::string text = ReplaceLine(fx.nn, "layer\t6\t1", "layer\t7\t1");
  const size_t wrow = text.find("\nwrow", text.find("\nlayer\t7\t1") + 1);
  text.insert(text.find('\n', wrow + 1), "\t0");
  auto loaded = LoadPredictor(text, fx.ds);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(ModelIoTest, FlatModelRejectsMasksThatDisagreeWithTheFeatureType) {
  const data::Dataset ds = XSurfaceDataset();
  FlatText numeric_with_mask;  // x is numeric: a mask would read codes.
  numeric_with_mask.root = "node\t0\t5\t1\t1\t2\t0\t0\t0\t-1\t01";
  FlatText categorical_without_mask;
  categorical_without_mask.split =
      "node\t1\t0\t0\t3\t4\t0\t0\t0\t-1\t-";
  EXPECT_FALSE(FlatModel::Deserialize(numeric_with_mask.Render(), ds).ok());
  EXPECT_FALSE(
      FlatModel::Deserialize(categorical_without_mask.Render(), ds).ok());
}

}  // namespace
}  // namespace roadmine::serve
