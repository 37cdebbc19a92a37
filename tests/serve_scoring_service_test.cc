// ScoringService registry semantics and batch scoring: duplicate keys,
// latest-version lookup, serial-vs-threaded bit-identity, row ids past the
// dataset, and error propagation out of the sharded model calls.
#include "serve/scoring_service.h"

#include <memory>

#include <gtest/gtest.h>

#include "core/thresholds.h"
#include "exec/executor.h"
#include "ml/decision_tree.h"
#include "roadgen/dataset_builder.h"
#include "roadgen/generator.h"

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

std::shared_ptr<ml::DecisionTreeClassifier> FitTree(const data::Dataset& ds) {
  auto tree = std::make_shared<ml::DecisionTreeClassifier>(
      ml::DecisionTreeParams{.min_samples_leaf = 30});
  EXPECT_TRUE(tree->Fit(ds, core::ThresholdTargetName(4),
                        roadgen::RoadAttributeColumns(), ds.AllRowIndices())
                  .ok());
  return tree;
}

// A predictor that always fails — for error-propagation checks.
class FailingPredictor : public ml::Predictor {
 public:
  util::Result<std::vector<double>> PredictBatch(
      const data::Dataset&, const std::vector<size_t>&) const override {
    return util::InternalError("deliberate failure");
  }
  const char* name() const override { return "failing"; }
};

TEST(ScoringServiceTest, RegistryValidatesInputs) {
  data::Dataset ds = RoadDataset(400, 2);
  auto tree = FitTree(ds);
  ScoringService service;
  EXPECT_FALSE(service.Register("", "v1", tree).ok());
  EXPECT_FALSE(service.Register("m", "", tree).ok());
  EXPECT_FALSE(service.Register("m", "v1", nullptr).ok());
  EXPECT_TRUE(service.Register("m", "v1", tree).ok());
}

TEST(ScoringServiceTest, DuplicateKeyIsAlreadyExists) {
  data::Dataset ds = RoadDataset(400, 2);
  auto tree = FitTree(ds);
  ScoringService service;
  ASSERT_TRUE(service.Register("m", "v1", tree).ok());
  auto status = service.Register("m", "v1", tree);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kAlreadyExists);
  // Another version of the same name is fine.
  EXPECT_TRUE(service.Register("m", "v2", tree).ok());
}

TEST(ScoringServiceTest, EmptyVersionPicksLatestRegistration) {
  data::Dataset ds = RoadDataset(400, 2);
  auto v1 = FitTree(ds);
  auto v2 = FitTree(ds);
  ScoringService service;
  ASSERT_TRUE(service.Register("m", "v1", v1).ok());
  ASSERT_TRUE(service.Register("m", "v2", v2).ok());
  auto latest = service.Get("m");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->get(), v2.get());
  auto pinned = service.Get("m", "v1");
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(pinned->get(), v1.get());

  auto infos = service.List();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_EQ(infos[0].version, "v1");
  EXPECT_EQ(infos[1].version, "v2");
  EXPECT_EQ(infos[0].predictor, "decision_tree");
}

TEST(ScoringServiceTest, MissingModelsAreNotFound) {
  ScoringService service;
  EXPECT_EQ(service.Get("ghost").status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(service.Get("ghost", "v9").status().code(),
            util::StatusCode::kNotFound);
  data::Dataset ds = RoadDataset(200, 3);
  EXPECT_FALSE(service.ScoreBatch("ghost", "", ds, {0}).ok());
}

TEST(ScoringServiceTest, ThreadedScoresAreBitIdenticalToSerial) {
  data::Dataset ds = RoadDataset(3000, 17);
  auto tree = FitTree(ds);

  ScoringService serial;
  ASSERT_TRUE(serial.Register("m", "v1", tree).ok());
  auto want = serial.ScoreBatch("m", "v1", ds, ds.AllRowIndices());
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(want->size(), ds.num_rows());

  for (size_t threads : {2u, 8u}) {
    exec::ThreadPool pool(threads);
    ScoringService threaded(ScoringServiceOptions{.executor = &pool, .slo = {}});
    ASSERT_TRUE(threaded.Register("m", "v1", tree).ok());
    auto got = threaded.ScoreBatch("m", "v1", ds, ds.AllRowIndices());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*want, *got) << threads << " threads";
  }
}

TEST(ScoringServiceTest, EmptyBatchScoresToEmpty) {
  data::Dataset ds = RoadDataset(400, 5);
  ScoringService service;
  ASSERT_TRUE(service.Register("m", "v1", FitTree(ds)).ok());
  auto scores = service.ScoreBatch("m", "v1", ds, {});
  ASSERT_TRUE(scores.ok());
  EXPECT_TRUE(scores->empty());
}

TEST(ScoringServiceTest, RowsPastTheDatasetAreInvalidArgument) {
  // Checked before any model reads a row: the failing predictor would
  // answer Internal if it were called.
  data::Dataset ds = RoadDataset(400, 5);
  ScoringService service;
  ASSERT_TRUE(service.Register("m", "v1", FitTree(ds)).ok());
  ASSERT_TRUE(
      service.Register("bad", "v1", std::make_shared<FailingPredictor>())
          .ok());
  const size_t n = ds.num_rows();
  for (const char* name : {"m", "bad"}) {
    for (const size_t past : {n, n + 2, n + (size_t{1} << 40)}) {
      auto scores = service.ScoreBatch(name, "v1", ds, {0, past});
      EXPECT_EQ(scores.status().code(), util::StatusCode::kInvalidArgument)
          << name << " row " << past;
    }
  }
  EXPECT_TRUE(service.ScoreBatch("m", "v1", ds, {0, n - 1}).ok());
}

TEST(ScoringServiceTest, ModelErrorsPropagate) {
  data::Dataset ds = RoadDataset(400, 5);
  ScoringService service;
  ASSERT_TRUE(
      service.Register("bad", "v1", std::make_shared<FailingPredictor>())
          .ok());
  auto scores = service.ScoreBatch("bad", "v1", ds, ds.AllRowIndices());
  EXPECT_FALSE(scores.ok());
  EXPECT_EQ(scores.status().code(), util::StatusCode::kInternal);

  // The same propagation holds under a threaded executor.
  exec::ThreadPool pool(4);
  ScoringService threaded(ScoringServiceOptions{.executor = &pool, .slo = {}});
  ASSERT_TRUE(
      threaded.Register("bad", "v1", std::make_shared<FailingPredictor>())
          .ok());
  EXPECT_FALSE(threaded.ScoreBatch("bad", "v1", ds, ds.AllRowIndices()).ok());
}

}  // namespace
}  // namespace roadmine::serve
