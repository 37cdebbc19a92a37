// PoolProfiler: capture-window lifecycle, per-slot sample accounting,
// aggregate statistics, caller-thread attribution, and the Chrome-trace
// counter export.
#include "exec/profiler.h"

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace roadmine::exec {
namespace {

util::Status SpinBriefly() {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(200);
  while (std::chrono::steady_clock::now() < until) {
  }
  return util::Status::Ok();
}

TEST(PoolProfilerTest, DetachedOrInactiveRecordsNothing) {
  ThreadPool pool(2);
  PoolProfiler profiler;
  // Attached but no open window: the pool must not record.
  pool.AttachProfiler(&profiler);
  ASSERT_TRUE(ParallelFor(&pool, 8, [](size_t) { return SpinBriefly(); })
                  .ok());
  EXPECT_FALSE(profiler.active());
  EXPECT_TRUE(profiler.Samples().empty());
  pool.AttachProfiler(nullptr);
}

TEST(PoolProfilerTest, WindowCapturesEveryTask) {
  ThreadPool pool(2);
  PoolProfiler profiler;
  pool.AttachProfiler(&profiler);
  constexpr size_t kTasks = 16;

  profiler.Begin(pool.concurrency());
  EXPECT_TRUE(profiler.active());
  ASSERT_TRUE(
      ParallelFor(&pool, kTasks, [](size_t) { return SpinBriefly(); }).ok());
  const PoolProfile profile = profiler.Finish();
  pool.AttachProfiler(nullptr);

  EXPECT_FALSE(profiler.active());
  EXPECT_EQ(profile.task_count, kTasks);
  EXPECT_GT(profile.window_us, 0u);

  // One entry per worker plus the trailing helping-caller slot.
  ASSERT_EQ(profile.threads.size(), pool.concurrency() + 1);
  size_t task_total = 0;
  for (const ThreadProfile& thread : profile.threads) {
    task_total += thread.tasks;
    EXPECT_GE(thread.busy_fraction, 0.0);
    EXPECT_LE(thread.busy_fraction, 1.5);  // Clock granularity slack.
  }
  EXPECT_EQ(task_total, kTasks);

  // Every task spun ~200us, so durations and the distribution stats are
  // nonzero and internally consistent.
  EXPECT_GT(profile.task_ms_mean, 0.0);
  EXPECT_GE(profile.task_ms_p99, profile.task_ms_p50);
  EXPECT_GE(profile.task_ms_max, profile.task_ms_p99);
  EXPECT_GE(profile.imbalance, 1.0);
  EXPECT_GE(profile.queue_depth_max, profile.queue_depth_mean);

  // Samples are window-relative and one-per-task.
  const auto samples = profiler.Samples();
  ASSERT_EQ(samples.size(), kTasks);
  for (const TaskSample& sample : samples) {
    EXPECT_LE(sample.start_us, profile.window_us);
    EXPECT_GT(sample.duration_us, 0u);
  }
}

TEST(PoolProfilerTest, BeginDiscardsPreviousWindow) {
  ThreadPool pool(2);
  PoolProfiler profiler;
  pool.AttachProfiler(&profiler);
  profiler.Begin(pool.concurrency());
  ASSERT_TRUE(
      ParallelFor(&pool, 4, [](size_t) { return SpinBriefly(); }).ok());
  ASSERT_EQ(profiler.Finish().task_count, 4u);

  profiler.Begin(pool.concurrency());
  ASSERT_TRUE(
      ParallelFor(&pool, 2, [](size_t) { return SpinBriefly(); }).ok());
  EXPECT_EQ(profiler.Finish().task_count, 2u);  // Not 6.
  pool.AttachProfiler(nullptr);
}

TEST(PoolProfilerTest, CallerHelpTasksLandInTrailingSlot) {
  // A batch-submitting caller helps drain the queue; its tasks must be
  // attributed to the trailing slot (slot == worker count). Pin the lone
  // worker on a posted blocker so the caller is provably the only thread
  // able to run the batch.
  PoolProfiler profiler;
  util::Status status;
  {
    ThreadPool pool(1);
    pool.AttachProfiler(&profiler);
    profiler.Begin(pool.concurrency());

    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    pool.Post([&] {
      started.store(true);
      while (!release.load()) std::this_thread::yield();
    });
    while (!started.load()) std::this_thread::yield();

    status = ParallelFor(&pool, 4, [](size_t) { return SpinBriefly(); });
    release.store(true);
    // The blocker's sample is recorded after it returns; the destructor
    // runs every posted task to completion before joining.
  }
  const PoolProfile profile = profiler.Finish();

  ASSERT_TRUE(status.ok());
  ASSERT_EQ(profile.threads.size(), 2u);
  EXPECT_EQ(profile.threads[1].slot, 1u);
  EXPECT_EQ(profile.threads[1].tasks, 4u);  // The whole helped batch.
  EXPECT_EQ(profile.threads[0].tasks, 1u);  // The blocker.
}

TEST(PoolProfilerTest, FinishEmitsCounterEventsWhenTracing) {
  obs::TraceCollector::Global().Clear();
  obs::TraceCollector::Global().Enable();

  ThreadPool pool(2);
  PoolProfiler profiler;
  pool.AttachProfiler(&profiler);
  profiler.Begin(pool.concurrency());
  ASSERT_TRUE(
      ParallelFor(&pool, 8, [](size_t) { return SpinBriefly(); }).ok());
  (void)profiler.Finish("exec.test");
  pool.AttachProfiler(nullptr);

  const auto counters = obs::TraceCollector::Global().CounterSnapshot();
  size_t depth_events = 0, busy_events = 0;
  for (const auto& counter : counters) {
    if (counter.name == "exec.test.queue_depth") ++depth_events;
    if (counter.name.rfind("exec.test.busy_fraction.", 0) == 0) {
      ++busy_events;
    }
  }
  EXPECT_EQ(depth_events, 8u);  // One per captured task.
  EXPECT_EQ(busy_events, 3u);   // One per slot, caller included.
  EXPECT_TRUE(
      obs::ValidateJson(obs::TraceCollector::Global().ToChromeTrace()).ok());

  obs::TraceCollector::Global().Disable();
  obs::TraceCollector::Global().Clear();
}

TEST(PoolProfilerTest, ProfileJsonIsValidAndComplete) {
  ThreadPool pool(2);
  PoolProfiler profiler;
  pool.AttachProfiler(&profiler);
  profiler.Begin(pool.concurrency());
  ASSERT_TRUE(
      ParallelFor(&pool, 8, [](size_t) { return SpinBriefly(); }).ok());
  const PoolProfile profile = profiler.Finish();
  pool.AttachProfiler(nullptr);

  const std::string json = profile.ToJson();
  EXPECT_TRUE(obs::ValidateJson(json).ok()) << json;
  for (const char* key :
       {"\"window_us\"", "\"task_count\"", "\"busy_fraction_mean\"",
        "\"imbalance\"", "\"task_ms\"", "\"p50\"", "\"p99\"",
        "\"queue_depth\"", "\"threads\"", "\"slot\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace roadmine::exec
