#include "exec/executor.h"

#include <exception>
#include <limits>

#include "exec/profiler.h"
#include "obs/trace.h"

namespace roadmine::exec {

namespace {

// Worker index within the owning pool; -1 marks a thread the pool did
// not spawn (a batch-submitting caller helping drain work).
thread_local int tls_worker_slot = -1;

// Queue items still waiting when this thread last popped one: the
// backlog of the posted task that item runs.
thread_local size_t tls_queued_behind = 0;

// ScopedGrainForTesting override; 0 = inactive. Installed from a test
// driver thread before work is spawned (see header).
size_t g_test_grain = 0;

util::Status RunIndexGuarded(const IndexedTask& task, size_t index) {
  try {
    return task(index);
  } catch (const std::exception& e) {
    return util::InternalError(std::string("task ") + std::to_string(index) +
                               " threw: " + e.what());
  } catch (...) {
    return util::InternalError("task " + std::to_string(index) +
                               " threw a non-std exception");
  }
}

util::Status RunRangeGuarded(const RangeTask& task, size_t begin, size_t end) {
  try {
    return task(begin, end);
  } catch (const std::exception& e) {
    return util::InternalError("chunk [" + std::to_string(begin) + ", " +
                               std::to_string(end) + ") threw: " + e.what());
  } catch (...) {
    return util::InternalError("chunk [" + std::to_string(begin) + ", " +
                               std::to_string(end) +
                               ") threw a non-std exception");
  }
}

// Adapts a per-index task to the chunk runner: indices ascending,
// stopping at the first error — so the chunk's status is exactly what a
// serial run of that range would return.
RangeTask PerIndexRange(const IndexedTask& task) {
  return [&task](size_t begin, size_t end) -> util::Status {
    for (size_t i = begin; i < end; ++i) {
      util::Status status = RunIndexGuarded(task, i);
      if (!status.ok()) return status;
    }
    return util::Status::Ok();
  };
}

}  // namespace

ChunkPlan PlanChunks(size_t n, const ScheduleOptions& options,
                     size_t workers) {
  if (g_test_grain > 0) {
    return ChunkPlan::Make(n, n == 0 ? 0 : (n + g_test_grain - 1) /
                                               g_test_grain);
  }
  size_t chunks;
  if (options.grain > 0) {
    chunks = n == 0 ? 0 : (n + options.grain - 1) / options.grain;
  } else if (workers == 0) {
    chunks = 1;  // Serial: one chunk, zero scheduling overhead.
  } else {
    chunks = std::min(n, kChunksPerThread * (workers + 1));
  }
  return ChunkPlan::Make(n, chunks);
}

ScopedGrainForTesting::ScopedGrainForTesting(size_t grain)
    : previous_(g_test_grain) {
  g_test_grain = grain;
}

ScopedGrainForTesting::~ScopedGrainForTesting() { g_test_grain = previous_; }

util::Status SerialExecutor::RunRanges(size_t n, const RangeTask& task,
                                       const ScheduleOptions& options) {
  const ChunkPlan plan = PlanChunks(n, options, /*workers=*/0);
  for (size_t c = 0; c < plan.num_chunks; ++c) {
    util::Status status =
        RunRangeGuarded(task, plan.ChunkBegin(c), plan.ChunkEnd(c));
    if (!status.ok()) return status;
  }
  return util::Status::Ok();
}

// Shared state for one RunRanges call. Chunks are claimed from
// `next_chunk` in ascending order; completion records the failure with
// the lowest begin so the reported error matches a serial run.
struct ThreadPool::RangeBatch {
  const RangeTask* task = nullptr;
  ChunkPlan plan;

  std::atomic<size_t> next_chunk{0};
  // Set on first failure; chunks claimed afterwards are skipped. Safe
  // for the lowest-begin rule: tickets are issued ascending, so every
  // unclaimed chunk begins above every claimed (hence every failed)
  // one — exactly the work a serial run would never reach.
  std::atomic<bool> failed{false};

  std::mutex mu;
  std::condition_variable done_cv;
  size_t chunks_remaining = 0;
  size_t first_error_begin = std::numeric_limits<size_t>::max();
  util::Status first_error;

  void Complete(size_t begin, util::Status status) {
    std::lock_guard<std::mutex> lock(mu);
    if (!status.ok() && begin < first_error_begin) {
      first_error_begin = begin;
      first_error = std::move(status);
    }
    if (--chunks_remaining == 0) done_cv.notify_all();
  }
};

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

template <typename Body>
void ThreadPool::RunTask(size_t backlog, Body&& body) {
  PoolProfiler* profiler = profiler_.load(std::memory_order_acquire);
  if (profiler == nullptr || !profiler->active()) {
    body();
    return;
  }
  const obs::TraceCollector& clock = obs::TraceCollector::Global();
  const uint64_t start_us = clock.NowMicros();
  body();
  const uint32_t slot = tls_worker_slot >= 0
                            ? static_cast<uint32_t>(tls_worker_slot)
                            : static_cast<uint32_t>(workers_.size());
  profiler->RecordTask({slot, start_us, clock.NowMicros() - start_us,
                        static_cast<uint32_t>(backlog)});
}

void ThreadPool::Enqueue(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
  }
  work_cv_.notify_one();
}

void ThreadPool::Post(std::function<void()> fn) {
  Enqueue([this, fn = std::move(fn)] { RunTask(tls_queued_behind, fn); });
}

bool ThreadPool::RunOneQueued() {
  std::function<void()> fn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    fn = std::move(queue_.front());
    queue_.pop_front();
    tls_queued_behind = queue_.size();
  }
  fn();
  return true;
}

void ThreadPool::WorkerLoop(size_t slot) {
  tls_worker_slot = static_cast<int>(slot);
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (shutdown_ && queue_.empty()) return;
    }
    RunOneQueued();
  }
}

void ThreadPool::DrainChunks(const std::shared_ptr<RangeBatch>& batch) {
  const size_t num_chunks = batch->plan.num_chunks;
  while (true) {
    const size_t chunk =
        batch->next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= num_chunks) return;
    const size_t begin = batch->plan.ChunkBegin(chunk);
    util::Status status;  // OK for skipped chunks past a failure.
    if (!batch->failed.load(std::memory_order_acquire)) {
      // Tickets issue ascending, so the chunks after this one are the
      // batch's unclaimed backlog.
      RunTask(num_chunks - chunk - 1, [&] {
        status = RunRangeGuarded(*batch->task, begin,
                                 batch->plan.ChunkEnd(chunk));
      });
      if (!status.ok()) batch->failed.store(true, std::memory_order_release);
    }
    batch->Complete(begin, std::move(status));
  }
}

util::Status ThreadPool::RunRanges(size_t n, const RangeTask& task,
                                   const ScheduleOptions& options) {
  if (n == 0) return util::Status::Ok();
  auto batch = std::make_shared<RangeBatch>();
  batch->task = &task;
  batch->plan = PlanChunks(n, options, workers_.size());
  batch->chunks_remaining = batch->plan.num_chunks;

  // One wake-up per worker, capped at the chunk count — batch cost does
  // not scale with n. A single-chunk batch runs entirely on the caller.
  // Helpers are not tasks of their own: each chunk they claim is.
  if (batch->plan.num_chunks > 1) {
    const size_t helpers =
        std::min(workers_.size(), batch->plan.num_chunks - 1);
    for (size_t h = 0; h < helpers; ++h) {
      Enqueue([this, batch] { DrainChunks(batch); });
    }
  }

  // The caller claims chunks too: nested RunRanges calls from inside
  // tasks make progress even when every worker is blocked on a deeper
  // batch, and a batch submitted to a busy pool never waits idle.
  DrainChunks(batch);

  // All chunks claimed; some may still be running on workers. Keep
  // helping with queued work (other batches, nested batches) while
  // waiting.
  while (true) {
    {
      std::lock_guard<std::mutex> lock(batch->mu);
      if (batch->chunks_remaining == 0) break;
    }
    if (!RunOneQueued()) {
      std::unique_lock<std::mutex> lock(batch->mu);
      batch->done_cv.wait(lock,
                          [&batch] { return batch->chunks_remaining == 0; });
      break;
    }
  }
  std::lock_guard<std::mutex> lock(batch->mu);
  return batch->first_error;  // OK when no chunk failed.
}

util::Status ParallelFor(Executor* executor, size_t n, const IndexedTask& task,
                         const ScheduleOptions& options) {
  return ParallelForRanges(executor, n, PerIndexRange(task), options);
}

util::Status ParallelForRanges(Executor* executor, size_t n,
                               const RangeTask& task,
                               const ScheduleOptions& options) {
  if (executor == nullptr) {
    SerialExecutor serial;
    return serial.RunRanges(n, task, options);
  }
  return executor->RunRanges(n, task, options);
}

}  // namespace roadmine::exec
