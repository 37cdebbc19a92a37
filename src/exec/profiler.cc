#include "exec/profiler.h"

#include <algorithm>
#include <cmath>

#include "obs/json.h"
#include "obs/trace.h"
#include "stats/descriptive.h"

namespace roadmine::exec {

void PoolProfiler::Begin(size_t worker_slots) {
  std::lock_guard<std::mutex> lock(mu_);
  worker_slots_ = worker_slots;
  samples_.clear();
  window_start_us_ = obs::TraceCollector::Global().NowMicros();
  active_.store(true, std::memory_order_release);
}

void PoolProfiler::RecordTask(TaskSample sample) {
  if (!active()) return;
  std::lock_guard<std::mutex> lock(mu_);
  // The pool stamps starts on the TraceCollector clock; store them
  // window-relative so the profile is self-contained.
  sample.start_us = sample.start_us > window_start_us_
                        ? sample.start_us - window_start_us_
                        : 0;
  samples_.push_back(sample);
}

std::vector<TaskSample> PoolProfiler::Samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

PoolProfile PoolProfiler::Finish(const std::string& counter_prefix) {
  const uint64_t end_us = obs::TraceCollector::Global().NowMicros();
  active_.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lock(mu_);

  PoolProfile profile;
  profile.window_us =
      end_us > window_start_us_ ? end_us - window_start_us_ : 0;
  profile.task_count = samples_.size();
  profile.threads.assign(worker_slots_ + 1, ThreadProfile{});
  for (size_t slot = 0; slot < profile.threads.size(); ++slot) {
    profile.threads[slot].slot = static_cast<uint32_t>(slot);
  }

  std::vector<double> task_ms;
  task_ms.reserve(samples_.size());
  uint64_t depth_sum = 0;
  for (const TaskSample& sample : samples_) {
    const size_t slot =
        std::min<size_t>(sample.slot, profile.threads.size() - 1);
    ++profile.threads[slot].tasks;
    profile.threads[slot].busy_us += sample.duration_us;
    task_ms.push_back(static_cast<double>(sample.duration_us) / 1000.0);
    depth_sum += sample.queue_depth;
    profile.queue_depth_max =
        std::max(profile.queue_depth_max, sample.queue_depth);
  }

  const double window = static_cast<double>(profile.window_us);
  double worker_fraction_sum = 0.0;
  profile.busy_fraction_min =
      worker_slots_ > 0 ? 1.0 : 0.0;  // Min over worker slots only.
  for (ThreadProfile& thread : profile.threads) {
    thread.busy_fraction =
        window > 0.0 ? static_cast<double>(thread.busy_us) / window : 0.0;
    if (thread.slot < worker_slots_) {
      worker_fraction_sum += thread.busy_fraction;
      profile.busy_fraction_min =
          std::min(profile.busy_fraction_min, thread.busy_fraction);
    }
  }
  profile.busy_fraction_mean =
      worker_slots_ > 0
          ? worker_fraction_sum / static_cast<double>(worker_slots_)
          : 0.0;

  if (!task_ms.empty()) {
    double sum = 0.0;
    for (const double ms : task_ms) sum += ms;
    profile.task_ms_mean = sum / static_cast<double>(task_ms.size());
    profile.task_ms_p50 = stats::NearestRankQuantile(task_ms, 0.50);
    profile.task_ms_p99 = stats::NearestRankQuantile(task_ms, 0.99);
    profile.task_ms_max = *std::max_element(task_ms.begin(), task_ms.end());
    profile.imbalance = profile.task_ms_mean > 0.0
                            ? profile.task_ms_max / profile.task_ms_mean
                            : 0.0;
    profile.queue_depth_mean = static_cast<double>(depth_sum) /
                               static_cast<double>(samples_.size());
  }

  obs::TraceCollector& collector = obs::TraceCollector::Global();
  if (!counter_prefix.empty() && collector.enabled()) {
    for (const TaskSample& sample : samples_) {
      collector.RecordCounter(
          {counter_prefix + ".queue_depth",
           window_start_us_ + sample.start_us,
           static_cast<double>(sample.queue_depth)});
    }
    for (const ThreadProfile& thread : profile.threads) {
      collector.RecordCounter(
          {counter_prefix + ".busy_fraction." + std::to_string(thread.slot),
           end_us, thread.busy_fraction});
    }
  }
  return profile;
}

std::string PoolProfile::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("window_us").UInt(window_us);
  w.Key("task_count").UInt(task_count);
  w.Key("busy_fraction_mean").Number(busy_fraction_mean);
  w.Key("busy_fraction_min").Number(busy_fraction_min);
  w.Key("imbalance").Number(imbalance);
  w.Key("task_ms").BeginObject();
  w.Key("mean").Number(task_ms_mean);
  w.Key("p50").Number(task_ms_p50);
  w.Key("p99").Number(task_ms_p99);
  w.Key("max").Number(task_ms_max);
  w.EndObject();
  w.Key("queue_depth").BeginObject();
  w.Key("mean").Number(queue_depth_mean);
  w.Key("max").UInt(queue_depth_max);
  w.EndObject();
  w.Key("threads").BeginArray();
  for (const ThreadProfile& thread : threads) {
    w.BeginObject();
    w.Key("slot").UInt(thread.slot);
    w.Key("tasks").UInt(thread.tasks);
    w.Key("busy_us").UInt(thread.busy_us);
    w.Key("busy_fraction").Number(thread.busy_fraction);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace roadmine::exec
