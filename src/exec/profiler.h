// Opt-in profiler for exec::ThreadPool: answers *why* a parallel stage
// ran at the speedup it did. While a capture window is open the pool
// feeds it one sample per executed task — which thread ran it, when, for
// how long, and how many tasks waited behind it — and Finish() rolls the
// samples into a PoolProfile: per-thread busy/idle fractions, queue-depth
// stats, task-time quantiles, and the imbalance ratio (max/mean task
// time). The profile exports as JSON (the "profile" section of bench
// reports) and, when the global TraceCollector is enabled, as
// Chrome-trace counter events under the span timeline.
//
// Cost model: a detached pool pays one relaxed atomic load per task; an
// attached-but-idle profiler (no window open) pays one more. Recording
// takes the profiler mutex per task, so open windows around stage-sized
// batches (a CV run, a bagged fit), not per-row microtasks.
#ifndef ROADMINE_EXEC_PROFILER_H_
#define ROADMINE_EXEC_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace roadmine::exec {

// One executed task, as observed by the pool.
struct TaskSample {
  uint32_t slot = 0;         // Worker index; the last slot is the
                             // batch-submitting caller thread.
  uint64_t start_us = 0;     // Since the window opened.
  uint64_t duration_us = 0;
  uint32_t queue_depth = 0;  // Tasks still waiting behind this one when
                             // it started: queued items behind a posted
                             // task, unclaimed chunks behind a chunk.
};

struct ThreadProfile {
  uint32_t slot = 0;
  size_t tasks = 0;
  uint64_t busy_us = 0;
  double busy_fraction = 0.0;  // busy_us / window_us.
};

// Aggregated view of one capture window.
struct PoolProfile {
  uint64_t window_us = 0;
  size_t task_count = 0;
  // One entry per pool worker plus one trailing entry for the helping
  // caller thread (slot == worker count).
  std::vector<ThreadProfile> threads;
  double busy_fraction_mean = 0.0;  // Over the worker slots only.
  double busy_fraction_min = 0.0;
  double task_ms_mean = 0.0;
  double task_ms_p50 = 0.0;
  double task_ms_p99 = 0.0;
  double task_ms_max = 0.0;
  double imbalance = 0.0;  // Max / mean task time; 1.0 = perfectly even.
  double queue_depth_mean = 0.0;
  uint32_t queue_depth_max = 0;

  std::string ToJson() const;
};

// Owned by the measuring code (a bench, a test), attached to a pool via
// ThreadPool::AttachProfiler. Thread-safe; only one window at a time.
class PoolProfiler {
 public:
  // Opens a capture window for a pool with `worker_slots` workers
  // (samples from helping caller threads land in slot `worker_slots`).
  // Discards any samples from a previous window.
  void Begin(size_t worker_slots);

  // Closes the window and aggregates it. When the global TraceCollector
  // is enabled and `counter_prefix` is non-empty, also emits Chrome-trace
  // counter events: "<prefix>.queue_depth" per sample and
  // "<prefix>.busy_fraction.<slot>" per thread at window close.
  PoolProfile Finish(const std::string& counter_prefix = "");

  bool active() const { return active_.load(std::memory_order_acquire); }

  // Called by the pool for every task executed inside the window.
  void RecordTask(TaskSample sample);

  // Raw samples of the last closed window (busy/idle timeline export).
  std::vector<TaskSample> Samples() const;

 private:
  std::atomic<bool> active_{false};
  mutable std::mutex mu_;
  uint64_t window_start_us_ = 0;  // TraceCollector epoch microseconds.
  size_t worker_slots_ = 0;
  std::vector<TaskSample> samples_;
};

}  // namespace roadmine::exec

#endif  // ROADMINE_EXEC_PROFILER_H_
