// Deterministic parallel execution for roadmine.
//
// The contract every user of this layer relies on: *results are
// bit-identical between serial execution and any thread count, at any
// chunking*. The layer guarantees its half of that contract — index
// spaces are fixed up front, results land in index-addressed slots,
// ranges are carved into contiguous ascending chunks whose boundaries
// never reorder per-index work, and error selection is by lowest index,
// never by completion order. Callers supply the other half by giving
// each index an independent RNG stream (util::Rng::SplitSeed) instead of
// sharing one sequential stream, and — for range tasks — by keeping any
// cross-index accumulation inside a chunk in ascending index order
// (ParallelAppend does this for the common "each index emits records"
// shape).
//
// Scheduling model: a batch over [0, n) is split into `num_chunks`
// contiguous ranges up front (ChunkPlan), and workers *claim* chunks
// from an atomic ticket counter instead of popping per-index closures
// from the shared queue. One queue item per worker wakes the pool for a
// batch regardless of n, so a million-element map costs a handful of
// allocations, not a million.
// Chunk claims are issued in ascending order, which keeps the
// lowest-index error rule cheap: after any chunk fails, still-unclaimed
// chunks (all at strictly higher indices) are skipped, exactly like a
// serial left-to-right run stopping at its first error.
//
// Exceptions escaping a task are caught at the pool boundary and surface
// as util::InternalError (library code is exception-free per DESIGN.md;
// this is the backstop for third-party code and std:: throws).
//
// Nesting is safe: a task may itself run a batch on the same executor.
// The submitting thread always participates in draining its own chunks
// and the shared queue, so a fixed-size pool cannot deadlock on nested
// batches.
#ifndef ROADMINE_EXEC_EXECUTOR_H_
#define ROADMINE_EXEC_EXECUTOR_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "util/status.h"

namespace roadmine::exec {

class PoolProfiler;

// A task in an indexed batch: returns OK or the error that should fail
// the whole batch. Must be safe to invoke concurrently for distinct
// indices.
using IndexedTask = std::function<util::Status(size_t index)>;

// A task over one contiguous chunk [begin, end) of a batch's index
// space. Must be safe to invoke concurrently for disjoint ranges, and —
// to preserve bit-identity at every grain — must treat the range as
// "indices begin..end-1 in ascending order": per-index outputs go to
// index-addressed slots; any in-chunk accumulation must visit indices
// ascending so that concatenating chunk results in chunk order
// reproduces the serial order.
using RangeTask = std::function<util::Status(size_t begin, size_t end)>;

// How a batch is carved into chunks.
//
// grain: minimum indices per chunk. 0 = automatic — roughly
//   kChunksPerThread chunks per participating thread (and exactly one
//   chunk on a serial executor), the right default for fine-grained
//   per-element work. Use grain=1 when each index is already a coarse
//   task (a CV fold, an ensemble member) that should schedule
//   individually.
//
// Chunk boundaries NEVER affect results for conforming tasks; the grain
// only tunes scheduling overhead vs. load balance.
struct ScheduleOptions {
  size_t grain = 0;
};

// Per-index scheduling: one chunk per index. The default for coarse
// tasks.
inline constexpr ScheduleOptions kPerIndex{.grain = 1};

// A deterministic partition of [0, n) into `num_chunks` contiguous
// ranges of near-equal size (sizes differ by at most one; the first
// `extra` chunks are one longer). Pure function of (n, num_chunks) —
// never of the thread count observed at run time.
struct ChunkPlan {
  size_t n = 0;
  size_t num_chunks = 0;
  size_t base = 0;   // n / num_chunks
  size_t extra = 0;  // n % num_chunks

  // Clamps `chunks` to [1, n]; n == 0 yields an empty plan.
  static ChunkPlan Make(size_t n, size_t chunks) {
    ChunkPlan plan;
    plan.n = n;
    if (n == 0) return plan;
    plan.num_chunks = std::min(std::max<size_t>(chunks, 1), n);
    plan.base = n / plan.num_chunks;
    plan.extra = n % plan.num_chunks;
    return plan;
  }

  size_t ChunkBegin(size_t chunk) const {
    return chunk * base + std::min(chunk, extra);
  }
  size_t ChunkEnd(size_t chunk) const { return ChunkBegin(chunk + 1); }
};

// Auto-grain target: chunks per participating thread (workers + the
// batch-submitting caller). Small enough to amortize claim overhead,
// large enough that dynamic chunk claiming evens out skewed chunks.
inline constexpr size_t kChunksPerThread = 4;

// Resolves options against the executor's parallelism into a concrete
// plan. `workers` is Executor::concurrency(). A ScopedGrainForTesting
// override, when active, replaces the whole policy with a fixed grain.
ChunkPlan PlanChunks(size_t n, const ScheduleOptions& options,
                     size_t workers);

// Forces every PlanChunks call in scope to use exactly `grain` indices
// per chunk, ignoring ScheduleOptions — the hook equivalence tests use
// to sweep chunk boundaries (1, 7, n, ...) across otherwise-default
// call sites. Not for production code; nestable, not thread-safe
// (install from the test driver thread before spawning work).
class ScopedGrainForTesting {
 public:
  explicit ScopedGrainForTesting(size_t grain);
  ~ScopedGrainForTesting();

  ScopedGrainForTesting(const ScopedGrainForTesting&) = delete;
  ScopedGrainForTesting& operator=(const ScopedGrainForTesting&) = delete;

 private:
  size_t previous_;
};

// Batch-execution interface. Implementations must run every chunk of a
// batch exactly once and report the failure with the lowest begin index
// (matching what a serial left-to-right run would return), skipping
// work past the first failure is allowed.
class Executor {
 public:
  virtual ~Executor() = default;

  // Worker threads available beyond the calling thread (0 = serial).
  virtual size_t concurrency() const = 0;

  // Runs task(begin, end) for every chunk of PlanChunks(n, options,
  // concurrency()); blocks until all complete or the batch fails. On
  // failure returns the non-OK status from the failing chunk with the
  // smallest begin.
  [[nodiscard]] virtual util::Status RunRanges(size_t n, const RangeTask& task,
                                 const ScheduleOptions& options) = 0;

  // Fire-and-forget: runs fn asynchronously when the executor has
  // worker threads, inline (before returning) otherwise. For latency
  // overlap only — I/O prefetch, background flushes — never for work
  // whose ordering affects results: the caller must rendezvous with fn
  // itself (exec::TaskLatch) before touching anything fn produces.
  virtual void Post(std::function<void()> fn) { fn(); }
};

// Runs every chunk inline on the calling thread, in ascending order,
// stopping at the first error. The reference semantics ThreadPool must
// reproduce. Auto grain resolves to a single chunk (no scheduling
// overhead at all); an explicit grain or test override is honored so
// chunk-boundary sweeps cover the serial path too.
class SerialExecutor : public Executor {
 public:
  size_t concurrency() const override { return 0; }
  [[nodiscard]] util::Status RunRanges(size_t n, const RangeTask& task,
                         const ScheduleOptions& options) override;
};

// Fixed-size worker pool with ticket-counter chunk scheduling.
//
// The queue holds plain functions: posted tasks, and at most one helper
// per worker for each RunRanges batch. Every participating thread
// (workers + the submitting caller) claims chunks from the batch's
// atomic ticket counter until none remain. No per-index queue traffic,
// no per-index std::function allocation.
//
// Posted tasks and batch chunks run through one task path. Its only
// instrumentation is an attached exec::PoolProfiler (exec/profiler.h):
// while a capture window is open it records one sample per task (slot,
// start, duration, backlog); otherwise the path reads no clock.
class ThreadPool : public Executor {
 public:
  // Spawns `num_threads` workers (clamped to >= 1). The calling thread
  // additionally helps drain batches it submits, so a ThreadPool(1)
  // batch uses up to two threads of compute.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t concurrency() const override { return workers_.size(); }
  [[nodiscard]] util::Status RunRanges(size_t n, const RangeTask& task,
                         const ScheduleOptions& options) override;

  // Runs fn on a worker thread. The destructor runs every posted fn
  // before it joins the workers.
  void Post(std::function<void()> fn) override;

  // Attaches (or, with nullptr, detaches) a profiler sampling every
  // task this pool executes while the profiler has a window open. The
  // profiler is not owned and must outlive the attachment.
  void AttachProfiler(PoolProfiler* profiler) {
    profiler_.store(profiler, std::memory_order_release);
  }

 private:
  struct RangeBatch;

  void WorkerLoop(size_t slot);
  void Enqueue(std::function<void()> fn);
  // Pops and runs one queue item; returns false when the queue was
  // empty.
  bool RunOneQueued();
  // Claims and runs chunks of `batch` until the ticket counter is
  // exhausted. Called by helper items and by the submitting caller.
  void DrainChunks(const std::shared_ptr<RangeBatch>& batch);
  // The one task path: runs a posted function or a batch chunk, and
  // samples it when the attached profiler has a window open. `backlog`
  // is the number of tasks still waiting behind this one.
  template <typename Body>
  void RunTask(size_t backlog, Body&& body);

  std::mutex mu_;
  std::condition_variable work_cv_;  // Signals workers: work or shutdown.
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
  std::atomic<PoolProfiler*> profiler_{nullptr};
};

// Runs task(i) for every i in [0, n): serial when `executor` is null,
// delegated otherwise — the "optional executor pointer" convention every
// hot path in this codebase uses. Indices inside a chunk run ascending,
// stopping at the first error, so the reported status is exactly the
// serial one. The default schedules per index (kPerIndex), the right
// call for coarse tasks; pass options (grain 0 = auto) to chunk
// fine-grained work.
[[nodiscard]] util::Status ParallelFor(
    Executor* executor, size_t n, const IndexedTask& task,
    const ScheduleOptions& options = kPerIndex);

// Range flavor: the task sees whole chunks — use when per-chunk setup
// (a buffer, a sub-batch call) matters. Replaces the old
// PartitionBlocks + per-block ParallelFor boilerplate.
[[nodiscard]] util::Status ParallelForRanges(Executor* executor, size_t n,
                               const RangeTask& task,
                               const ScheduleOptions& options = {});

// Maps fn over [0, n) into a vector whose order matches the index space
// regardless of scheduling. Fails with the lowest-index error. Results
// are index-addressed, so any chunking yields the same vector; the
// default per-index options suit the coarse tasks (folds, members)
// ParallelMap is used for.
template <typename T>
[[nodiscard]] util::Result<std::vector<T>> ParallelMap(
    Executor* executor, size_t n,
    const std::function<util::Result<T>(size_t)>& fn,
    const ScheduleOptions& options = kPerIndex) {
  std::vector<std::optional<T>> slots(n);
  util::Status status = ParallelFor(
      executor, n,
      [&slots, &fn](size_t i) -> util::Status {
        util::Result<T> result = fn(i);
        if (!result.ok()) return result.status();
        slots[i] = std::move(result).value();
        return util::Status::Ok();
      },
      options);
  if (!status.ok()) return status;
  std::vector<T> out;
  out.reserve(n);
  for (std::optional<T>& slot : slots) out.push_back(std::move(*slot));
  return out;
}

// Each index appends zero or more records to an output sequence;
// ParallelAppend returns exactly the concatenation a serial
// left-to-right run would produce, at any chunking and thread count.
// Chunks stage into private buffers which are concatenated in ascending
// chunk order (chunks are contiguous and ascending, so chunk order ==
// index order). `fn` must append for index i in ascending call order
// within its chunk — which it gets for free, since the chunk runner
// visits indices ascending.
template <typename T>
[[nodiscard]] util::Result<std::vector<T>> ParallelAppend(
    Executor* executor, size_t n,
    const std::function<util::Status(size_t index, std::vector<T>& out)>& fn,
    const ScheduleOptions& options = {}) {
  std::mutex mu;
  std::vector<std::pair<size_t, std::vector<T>>> parts;  // (begin, records)
  util::Status status = ParallelForRanges(
      executor, n,
      [&](size_t begin, size_t end) -> util::Status {
        std::vector<T> local;
        for (size_t i = begin; i < end; ++i) {
          util::Status s = fn(i, local);
          if (!s.ok()) return s;
        }
        std::lock_guard<std::mutex> lock(mu);
        parts.emplace_back(begin, std::move(local));
        return util::Status::Ok();
      },
      options);
  if (!status.ok()) return status;
  std::sort(parts.begin(), parts.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t total = 0;
  for (const auto& part : parts) total += part.second.size();
  std::vector<T> out;
  out.reserve(total);
  for (auto& part : parts) {
    for (T& record : part.second) out.push_back(std::move(record));
  }
  return out;
}

}  // namespace roadmine::exec

#endif  // ROADMINE_EXEC_EXECUTOR_H_
