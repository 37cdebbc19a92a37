#include "exec/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace roadmine::exec {
namespace {

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(257);
  util::Status status =
      ParallelFor(&pool, counts.size(), [&counts](size_t i) -> util::Status {
        counts[i].fetch_add(1);
        return util::Status::Ok();
      });
  ASSERT_TRUE(status.ok());
  for (const std::atomic<int>& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPoolTest, ParallelMapPreservesIndexOrder) {
  ThreadPool pool(3);
  auto result = ParallelMap<size_t>(
      &pool, 100, [](size_t i) -> util::Result<size_t> { return i * i; });
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 100u);
  for (size_t i = 0; i < result->size(); ++i) EXPECT_EQ((*result)[i], i * i);
}

TEST(ThreadPoolTest, LowestIndexErrorReportedRegardlessOfCompletionOrder) {
  ThreadPool pool(4);
  util::Status status = ParallelFor(&pool, 64, [](size_t i) -> util::Status {
    // Earlier failing index finishes last; the batch must still report it.
    if (i == 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      return util::InvalidArgumentError("task 3 failed");
    }
    if (i == 40) return util::InvalidArgumentError("task 40 failed");
    return util::Status::Ok();
  });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "task 3 failed");
}

TEST(ThreadPoolTest, TaskExceptionSurfacesAsInternalError) {
  ThreadPool pool(2);
  util::Status status = ParallelFor(&pool, 8, [](size_t i) -> util::Status {
    if (i == 1) throw std::runtime_error("boom");
    return util::Status::Ok();
  });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInternal);
  EXPECT_NE(status.message().find("boom"), std::string::npos);
}

TEST(SerialExecutorTest, ExceptionAlsoCaughtInline) {
  SerialExecutor serial;
  util::Status status = ParallelFor(&serial, 4, [](size_t i) -> util::Status {
    if (i == 2) throw std::runtime_error("inline boom");
    return util::Status::Ok();
  });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInternal);
  EXPECT_NE(status.message().find("inline boom"), std::string::npos);
}

TEST(ThreadPoolTest, NestedBatchesDoNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  util::Status status =
      ParallelFor(&pool, 4, [&pool, &total](size_t) -> util::Status {
        return ParallelFor(&pool, 8, [&total](size_t) -> util::Status {
          total.fetch_add(1);
          return util::Status::Ok();
        });
      });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPoolTest, ShutdownUnderLoadFinishesSubmittedWork) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.Post([&done] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        done.fetch_add(1);
      });
    }
    // Destructor runs with the queue still loaded.
  }
  EXPECT_EQ(done.load(), 200);
}

TEST(ThreadPoolTest, ZeroThreadRequestClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.concurrency(), 1u);
  std::atomic<int> runs{0};
  ASSERT_TRUE(ParallelFor(&pool, 5, [&runs](size_t) -> util::Status {
                runs.fetch_add(1);
                return util::Status::Ok();
              }).ok());
  EXPECT_EQ(runs.load(), 5);
}

TEST(ChunkPlanTest, CoversRangeContiguouslyWithNearEqualSizes) {
  for (size_t n : {0u, 1u, 7u, 64u, 1001u}) {
    for (size_t chunks : {1u, 3u, 8u, 2000u}) {
      const ChunkPlan plan = ChunkPlan::Make(n, chunks);
      if (n == 0) {
        EXPECT_EQ(plan.num_chunks, 0u);
        continue;
      }
      ASSERT_EQ(plan.num_chunks, std::min(n, chunks));
      size_t expected_begin = 0, min_size = n, max_size = 0;
      for (size_t c = 0; c < plan.num_chunks; ++c) {
        const size_t begin = plan.ChunkBegin(c);
        const size_t end = plan.ChunkEnd(c);
        EXPECT_EQ(begin, expected_begin);
        ASSERT_LT(begin, end);
        min_size = std::min(min_size, end - begin);
        max_size = std::max(max_size, end - begin);
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, n);
      EXPECT_LE(max_size - min_size, 1u);
    }
  }
}

TEST(ChunkPlanTest, PlanChunksHonorsGrainAndCaps) {
  // Explicit grain: ceil(n / grain) chunks.
  EXPECT_EQ(PlanChunks(100, {.grain = 7}, 4).num_chunks, 15u);
  // Auto grain: ~kChunksPerThread chunks per participating thread.
  EXPECT_EQ(PlanChunks(10000, {}, 4).num_chunks, kChunksPerThread * 5);
  // Auto grain on a serial executor: one chunk, zero overhead.
  EXPECT_EQ(PlanChunks(10000, {}, 0).num_chunks, 1u);
  // Never more chunks than indices.
  EXPECT_EQ(PlanChunks(3, {}, 16).num_chunks, 3u);
}

TEST(ChunkPlanTest, BoundariesAreAPureFunctionOfInputs) {
  // Same (n, chunks) always yields the same partition — the property
  // range-parallel loops rely on for serial/parallel bit-identity.
  const ChunkPlan a = ChunkPlan::Make(1000, 16);
  const ChunkPlan b = ChunkPlan::Make(1000, 16);
  for (size_t c = 0; c < a.num_chunks; ++c) {
    EXPECT_EQ(a.ChunkBegin(c), b.ChunkBegin(c));
  }
}

TEST(ThreadPoolTest, RunRangesCoversEveryIndexOnceAtAnyGrain) {
  ThreadPool pool(4);
  for (size_t grain : {1u, 7u, 64u, 1000u}) {
    std::vector<std::atomic<int>> counts(257);
    util::Status status = pool.RunRanges(
        counts.size(),
        [&counts](size_t begin, size_t end) -> util::Status {
          for (size_t i = begin; i < end; ++i) counts[i].fetch_add(1);
          return util::Status::Ok();
        },
        ScheduleOptions{.grain = grain});
    ASSERT_TRUE(status.ok());
    for (const std::atomic<int>& c : counts) EXPECT_EQ(c.load(), 1);
  }
}

TEST(ThreadPoolTest, LowestIndexErrorReportedUnderChunking) {
  // The failure at index 3 finishes last; chunked scheduling with
  // early-abort must still report it, at every grain, because claimed
  // chunks run to completion and unclaimed chunks all begin later.
  ThreadPool pool(4);
  for (size_t grain : {1u, 7u, 64u}) {
    util::Status status = pool.RunRanges(
        64,
        [](size_t begin, size_t end) -> util::Status {
          for (size_t i = begin; i < end; ++i) {
            if (i == 3) {
              std::this_thread::sleep_for(std::chrono::milliseconds(20));
              return util::InvalidArgumentError("task 3 failed");
            }
            if (i == 40) return util::InvalidArgumentError("task 40 failed");
          }
          return util::Status::Ok();
        },
        ScheduleOptions{.grain = grain});
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.message(), "task 3 failed") << "grain " << grain;
  }
}

TEST(ThreadPoolTest, NestedRangeBatchesDoNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  util::Status status = pool.RunRanges(
      8,
      [&pool, &total](size_t begin, size_t end) -> util::Status {
        for (size_t i = begin; i < end; ++i) {
          util::Status inner = pool.RunRanges(
              16,
              [&total](size_t ib, size_t ie) -> util::Status {
                total.fetch_add(static_cast<int>(ie - ib));
                return util::Status::Ok();
              },
              ScheduleOptions{.grain = 3});
          if (!inner.ok()) return inner;
        }
        return util::Status::Ok();
      },
      ScheduleOptions{.grain = 2});
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPoolTest, ScopedGrainOverrideForcesChunking) {
  ThreadPool pool(2);
  std::atomic<int> chunks{0};
  {
    ScopedGrainForTesting grain(7);
    ASSERT_TRUE(pool.RunRanges(
                        100,
                        [&chunks](size_t, size_t) -> util::Status {
                          chunks.fetch_add(1);
                          return util::Status::Ok();
                        },
                        ScheduleOptions{})
                    .ok());
  }
  EXPECT_EQ(chunks.load(), 15);  // ceil(100 / 7), options ignored.
}

TEST(ParallelAppendTest, MatchesSerialConcatenationAtEveryGrain) {
  // Index i emits i copies of i; the concatenation must equal the serial
  // left-to-right emission at any chunking and thread count.
  std::vector<int> expected;
  for (int i = 0; i < 40; ++i) {
    for (int c = 0; c < i; ++c) expected.push_back(i);
  }
  auto emit = [](size_t i, std::vector<int>& out) -> util::Status {
    for (size_t c = 0; c < i; ++c) out.push_back(static_cast<int>(i));
    return util::Status::Ok();
  };
  ThreadPool pool(4);
  for (size_t grain : {1u, 7u, 40u}) {
    ScopedGrainForTesting scoped(grain);
    auto serial = ParallelAppend<int>(nullptr, 40, emit);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(*serial, expected) << "serial, grain " << grain;
    auto threaded = ParallelAppend<int>(&pool, 40, emit);
    ASSERT_TRUE(threaded.ok());
    EXPECT_EQ(*threaded, expected) << "threaded, grain " << grain;
  }
}

TEST(ParallelAppendTest, FailurePropagatesLowestChunk) {
  ThreadPool pool(2);
  auto result = ParallelAppend<int>(
      &pool, 100,
      [](size_t i, std::vector<int>& out) -> util::Status {
        if (i == 13) return util::InvalidArgumentError("emit 13 failed");
        out.push_back(static_cast<int>(i));
        return util::Status::Ok();
      },
      ScheduleOptions{.grain = 5});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().message(), "emit 13 failed");
}

TEST(SplitSeedTest, ChildStreamsAreOrderIndependentAndDistinct) {
  const uint64_t a = util::Rng::SplitSeed(42, 0);
  const uint64_t b = util::Rng::SplitSeed(42, 1);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, util::Rng::SplitSeed(42, 0));  // Pure function of (seed, i).
  EXPECT_NE(util::Rng::SplitSeed(43, 0), a);  // Distinct parents split apart.
}

TEST(SplitSeedTest, ChildDoesNotAdvanceParent) {
  util::Rng with_child(7);
  util::Rng without_child(7);
  util::Rng child = with_child.Child(3);
  (void)child.Uniform();
  EXPECT_EQ(with_child.NextUint64(), without_child.NextUint64());
}

}  // namespace
}  // namespace roadmine::exec
