#include "data/encoder.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace roadmine::data {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Dataset MixedDataset() {
  Dataset ds;
  EXPECT_TRUE(
      ds.AddColumn(Column::Numeric("x", {1.0, 2.0, 3.0, kNaN})).ok());
  EXPECT_TRUE(ds.AddColumn(Column::CategoricalFromStrings(
                               "c", {"red", "blue", "red", ""}))
                  .ok());
  return ds;
}

TEST(FeatureEncoderTest, DimensionAndNames) {
  Dataset ds = MixedDataset();
  FeatureEncoder encoder;
  ASSERT_TRUE(encoder.Fit(ds, {"x", "c"}, ds.AllRowIndices()).ok());
  EXPECT_EQ(encoder.feature_dim(), 3u);  // 1 numeric + 2 one-hot.
  EXPECT_EQ(encoder.feature_names(),
            (std::vector<std::string>{"x", "c=red", "c=blue"}));
}

TEST(FeatureEncoderTest, NumericStandardized) {
  Dataset ds = MixedDataset();
  FeatureEncoder encoder;
  ASSERT_TRUE(encoder.Fit(ds, {"x"}, {0, 1, 2}).ok());
  auto matrix = encoder.Transform(ds, {0, 1, 2});
  ASSERT_TRUE(matrix.ok());
  // Mean 2, sample std 1: encoded values are -1, 0, 1.
  EXPECT_NEAR((*matrix)[0][0], -1.0, 1e-12);
  EXPECT_NEAR((*matrix)[1][0], 0.0, 1e-12);
  EXPECT_NEAR((*matrix)[2][0], 1.0, 1e-12);
}

TEST(FeatureEncoderTest, MissingNumericEncodesAsZero) {
  Dataset ds = MixedDataset();
  FeatureEncoder encoder;
  ASSERT_TRUE(encoder.Fit(ds, {"x"}, {0, 1, 2}).ok());
  auto matrix = encoder.Transform(ds, {3});
  ASSERT_TRUE(matrix.ok());
  EXPECT_DOUBLE_EQ((*matrix)[0][0], 0.0);
}

TEST(FeatureEncoderTest, OneHotCategorical) {
  Dataset ds = MixedDataset();
  FeatureEncoder encoder;
  ASSERT_TRUE(encoder.Fit(ds, {"c"}, {0, 1, 2}).ok());
  auto matrix = encoder.Transform(ds, {0, 1, 3});
  ASSERT_TRUE(matrix.ok());
  EXPECT_EQ((*matrix)[0], (std::vector<double>{1.0, 0.0}));  // red.
  EXPECT_EQ((*matrix)[1], (std::vector<double>{0.0, 1.0}));  // blue.
  EXPECT_EQ((*matrix)[2], (std::vector<double>{0.0, 0.0}));  // missing.
}

TEST(FeatureEncoderTest, ConstantColumnDoesNotBlowUp) {
  Dataset ds;
  ASSERT_TRUE(ds.AddColumn(Column::Numeric("k", {5.0, 5.0, 5.0})).ok());
  FeatureEncoder encoder;
  ASSERT_TRUE(encoder.Fit(ds, {"k"}, ds.AllRowIndices()).ok());
  auto matrix = encoder.Transform(ds, ds.AllRowIndices());
  ASSERT_TRUE(matrix.ok());
  for (const auto& row : *matrix) {
    EXPECT_TRUE(std::isfinite(row[0]));
    EXPECT_DOUBLE_EQ(row[0], 0.0);
  }
}

TEST(FeatureEncoderTest, NonFiniteValuesEncodeAsMissing) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Dataset ds;
  ASSERT_TRUE(
      ds.AddColumn(Column::Numeric("x", {1.0, kInf, 2.0, -kInf, 3.0})).ok());
  // +-1e308 are finite, but their running moments overflow.
  ASSERT_TRUE(
      ds.AddColumn(Column::Numeric("h", {1e308, -1e308, 1e308, -1e308, 0.0}))
          .ok());
  FeatureEncoder encoder;
  ASSERT_TRUE(encoder.Fit(ds, {"x", "h"}, ds.AllRowIndices()).ok());
  auto matrix = encoder.Transform(ds, ds.AllRowIndices());
  ASSERT_TRUE(matrix.ok());
  // x: mean 2 and sample std 1 over the finite values; +-inf encode as 0.
  // h: every row encodes as 0.
  const std::vector<std::vector<double>> want = {
      {-1.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}, {1.0, 0.0}};
  EXPECT_EQ(*matrix, want);
  auto reloaded = FeatureEncoder::Deserialize(encoder.Serialize(), ds);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->Serialize(), encoder.Serialize());
}

TEST(FeatureEncoderTest, FitRequiresRowsAndColumns) {
  Dataset ds = MixedDataset();
  FeatureEncoder encoder;
  EXPECT_FALSE(encoder.Fit(ds, {"x"}, {}).ok());
  EXPECT_FALSE(encoder.Fit(ds, {"nope"}, {0}).ok());
}

TEST(FeatureEncoderTest, TransformRequiresFit) {
  Dataset ds = MixedDataset();
  FeatureEncoder encoder;
  EXPECT_FALSE(encoder.Transform(ds, {0}).ok());
}

TEST(FeatureEncoderTest, TransformRejectsSchemaMismatch) {
  Dataset ds = MixedDataset();
  FeatureEncoder encoder;
  ASSERT_TRUE(encoder.Fit(ds, {"x", "c"}, {0, 1, 2}).ok());
  Dataset other;
  ASSERT_TRUE(other.AddColumn(Column::Numeric("different", {1.0})).ok());
  EXPECT_FALSE(encoder.Transform(other, {0}).ok());
}

// --- Streaming fit -------------------------------------------------------

TEST(FeatureEncoderStreamingTest, RowSourceFitMatchesLegacyFitExactly) {
  Dataset ds;
  std::vector<double> x;
  std::vector<std::string> c;
  for (int i = 0; i < 200; ++i) {
    x.push_back(i % 13 == 0 ? kNaN : 0.37 * i - 20.0);
    c.push_back(i % 7 == 0 ? "" : (i % 3 == 0 ? "red" : "blue"));
  }
  ASSERT_TRUE(ds.AddColumn(Column::Numeric("x", std::move(x))).ok());
  ASSERT_TRUE(ds.AddColumn(Column::CategoricalFromStrings("c", c)).ok());

  FeatureEncoder legacy;
  ASSERT_TRUE(legacy.Fit(ds, {"x", "c"}, ds.AllRowIndices()).ok());

  // The chunking must not change one bit of the learned statistics: the
  // serialized plans carry %.17g floats, so string equality is bit
  // equality.
  for (const size_t chunk_rows : {size_t{1}, size_t{9}, size_t{4096}}) {
    DatasetSource source(ds, ds.AllRowIndices(), chunk_rows);
    FeatureEncoder streamed;
    ASSERT_TRUE(streamed.Fit(source, {"x", "c"}).ok());
    EXPECT_EQ(streamed.Serialize(), legacy.Serialize())
        << "chunk_rows " << chunk_rows;
  }
}

TEST(FeatureEncoderStreamingTest, StreamingFitErrors) {
  Dataset ds = MixedDataset();
  FeatureEncoder encoder;
  DatasetSource missing_col(ds);
  EXPECT_FALSE(encoder.Fit(missing_col, {"nope"}).ok());
  DatasetSource no_rows(ds, std::vector<size_t>{}, 8);
  EXPECT_FALSE(encoder.Fit(no_rows, {"x"}).ok());
}

TEST(FeatureEncoderTest, TrainOnlyStatistics) {
  // Fitting on a subset must use that subset's mean/std, not the full data.
  Dataset ds;
  ASSERT_TRUE(
      ds.AddColumn(Column::Numeric("x", {0.0, 10.0, 1000.0})).ok());
  FeatureEncoder encoder;
  ASSERT_TRUE(encoder.Fit(ds, {"x"}, {0, 1}).ok());  // Mean 5, std ~7.07.
  auto matrix = encoder.Transform(ds, {0, 1});
  ASSERT_TRUE(matrix.ok());
  EXPECT_NEAR((*matrix)[0][0], -0.7071, 1e-3);
}

}  // namespace
}  // namespace roadmine::data
