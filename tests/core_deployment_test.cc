#include "core/deployment.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "roadgen/dataset_builder.h"
#include "roadgen/generator.h"

namespace roadmine::core {
namespace {

data::Dataset SegmentInventory(size_t n = 4000, uint64_t seed = 17) {
  roadgen::GeneratorConfig config;
  config.num_segments = n;
  config.seed = seed;
  roadgen::RoadNetworkGenerator gen(config);
  auto segments = gen.Generate();
  EXPECT_TRUE(segments.ok());
  auto ds = roadgen::BuildSegmentDataset(*segments);
  EXPECT_TRUE(ds.ok());
  return std::move(*ds);
}

// A model that reads the observed count — a perfect oracle for testing
// the ranking plumbing. It scores c / (c + offset): monotone in the count
// and in [0, 1). A missing count scores 0.
class OraclePredictor : public ml::Predictor {
 public:
  explicit OraclePredictor(double offset = 4.0) : offset_(offset) {}

  util::Result<std::vector<double>> PredictBatch(
      const data::Dataset& ds,
      const std::vector<size_t>& rows) const override {
    auto count = ds.ColumnByName(roadgen::kSegmentCrashCountColumn);
    if (!count.ok()) return count.status();
    std::vector<double> out;
    out.reserve(rows.size());
    for (size_t row : rows) {
      const double c = (*count)->NumericAt(row);
      out.push_back(std::isnan(c) ? 0.0 : c / (c + offset_));
    }
    return out;
  }
  const char* name() const override { return "oracle"; }

 private:
  double offset_;
};

TEST(DeploymentTest, RanksByProbabilityDescending) {
  data::Dataset ds = SegmentInventory();
  auto program = BuildWorksProgram(ds, OraclePredictor());
  ASSERT_TRUE(program.ok());
  ASSERT_GT(program->segments.size(), 1u);
  for (size_t i = 1; i < program->segments.size(); ++i) {
    EXPECT_GE(program->segments[i - 1].crash_prone_probability,
              program->segments[i].crash_prone_probability);
  }
}

TEST(DeploymentTest, OracleGetsPerfectTopDecileAgreement) {
  data::Dataset ds = SegmentInventory();
  auto program = BuildWorksProgram(ds, OraclePredictor());
  ASSERT_TRUE(program.ok());
  EXPECT_NEAR(program->top_decile_agreement, 1.0, 1e-12);
}

TEST(DeploymentTest, MissingObservedCountsRankLast) {
  // A blank count cell reads as NaN, data::Column's missing value. With
  // the first rows' counts missing, a NaN enters the count decile first;
  // it must rank after every observed count, not stall the list.
  data::Dataset ds = SegmentInventory();
  auto column = ds.ColumnByName(roadgen::kSegmentCrashCountColumn);
  ASSERT_TRUE(column.ok());
  std::vector<double> counts(ds.num_rows());
  for (size_t row = 0; row < counts.size(); ++row) {
    counts[row] = row < 3 ? std::numeric_limits<double>::quiet_NaN()
                          : (*column)->NumericAt(row);
  }
  ASSERT_TRUE(ds.ReplaceColumn(data::Column::Numeric(
                                   roadgen::kSegmentCrashCountColumn, counts))
                  .ok());

  auto program = BuildWorksProgram(ds, OraclePredictor());
  ASSERT_TRUE(program.ok());
  EXPECT_NEAR(program->top_decile_agreement, 1.0, 1e-12);
  ASSERT_FALSE(program->segments.empty());
  for (const RankedSegment& s : program->segments) {
    EXPECT_FALSE(std::isnan(s.observed_crash_count)) << s.segment_id;
  }
}

TEST(DeploymentTest, RespectsMaxSegmentsAndFloor) {
  data::Dataset ds = SegmentInventory();
  DeploymentConfig config;
  config.max_segments = 7;
  config.min_probability = 0.6;
  auto program = BuildWorksProgram(ds, OraclePredictor(), config);
  ASSERT_TRUE(program.ok());
  EXPECT_LE(program->segments.size(), 7u);
  for (const RankedSegment& s : program->segments) {
    EXPECT_GE(s.crash_prone_probability, 0.6);
  }
}

TEST(DeploymentTest, EverySegmentGetsARecommendation) {
  data::Dataset ds = SegmentInventory();
  auto program = BuildWorksProgram(ds, OraclePredictor());
  ASSERT_TRUE(program.ok());
  for (const RankedSegment& s : program->segments) {
    EXPECT_FALSE(s.recommended_treatments.empty());
  }
}

TEST(DeploymentTest, TreatmentTriggersFireOnDeficits) {
  // Hand-built inventory: one clearly deficient segment.
  data::Dataset ds;
  ASSERT_TRUE(
      ds.AddColumn(data::Column::Numeric("segment_id", {1.0, 2.0})).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("segment_crash_count",
                                                 {40.0, 0.0}))
                  .ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("f60", {0.30, 0.70})).ok());
  ASSERT_TRUE(
      ds.AddColumn(data::Column::Numeric("texture_depth", {0.5, 2.0})).ok());
  ASSERT_TRUE(
      ds.AddColumn(data::Column::Numeric("seal_age", {22.0, 2.0})).ok());
  ASSERT_TRUE(
      ds.AddColumn(data::Column::Numeric("shoulder_width", {0.4, 2.5})).ok());
  ASSERT_TRUE(
      ds.AddColumn(data::Column::Numeric("roughness_iri", {5.5, 2.0})).ok());

  auto program = BuildWorksProgram(ds, OraclePredictor());
  ASSERT_TRUE(program.ok());
  // Both segments are listed (no default probability floor); the deficient
  // one ranks first.
  ASSERT_EQ(program->segments.size(), 2u);
  const RankedSegment& worst = program->segments[0];
  EXPECT_EQ(worst.segment_id, 1);
  EXPECT_GE(worst.recommended_treatments.size(), 4u);
}

TEST(DeploymentTest, RareEventModelStillProducesRankedProgram) {
  // A calibrated rare-event model may score *every* segment below 0.5.
  // The program must still rank them rather than come back empty (the old
  // 0.5 default floor silently dropped everything here).
  data::Dataset ds = SegmentInventory(500, 11);
  const OraclePredictor rare(100.0);  // Monotone in the count, always << 0.5.
  auto program = BuildWorksProgram(ds, rare);
  ASSERT_TRUE(program.ok());
  ASSERT_FALSE(program->segments.empty());
  for (size_t i = 0; i < program->segments.size(); ++i) {
    EXPECT_LT(program->segments[i].crash_prone_probability, 0.5);
    if (i > 0) {
      EXPECT_GE(program->segments[i - 1].crash_prone_probability,
                program->segments[i].crash_prone_probability);
    }
  }

  // An absolute floor is still available as an explicit opt-in.
  DeploymentConfig floored;
  floored.min_probability = 0.5;
  auto empty_program = BuildWorksProgram(ds, rare, floored);
  ASSERT_TRUE(empty_program.ok());
  EXPECT_TRUE(empty_program->segments.empty());
}

TEST(DeploymentTest, Errors) {
  data::Dataset empty;  // No columns at all.
  EXPECT_FALSE(BuildWorksProgram(empty, OraclePredictor()).ok());
  data::Dataset no_rows;  // The right columns, but no segments.
  ASSERT_TRUE(no_rows.AddColumn(data::Column::Numeric("segment_id", {})).ok());
  ASSERT_TRUE(
      no_rows.AddColumn(data::Column::Numeric("segment_crash_count", {}))
          .ok());
  EXPECT_FALSE(BuildWorksProgram(no_rows, OraclePredictor()).ok());
}

TEST(DeploymentTest, RenderShowsRanksAndAgreement) {
  data::Dataset ds = SegmentInventory(2000, 5);
  auto program = BuildWorksProgram(ds, OraclePredictor());
  ASSERT_TRUE(program.ok());
  const std::string out = RenderWorksProgram(*program, 5);
  EXPECT_NE(out.find("P(crash-prone)"), std::string::npos);
  EXPECT_NE(out.find("top-decile agreement"), std::string::npos);
}

}  // namespace
}  // namespace roadmine::core
