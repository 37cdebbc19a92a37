// Process-wide metrics registry: named counters, gauges, and log-bucketed
// latency histograms with tail quantiles. Instrumented code fetches a
// handle once per operation and updates it; TakeSnapshot() and ToJson()
// read the whole registry. No exporter calls them yet: bench reports and
// run manifests carry their own fields.
//
// Concurrency: handle lookup takes the registry mutex; Counter/Gauge
// updates are lock-free atomics; histogram observation takes a
// per-histogram mutex. Handles stay valid for the life of the process:
// Reset() zeroes every metric *in place* instead of destroying it, so a
// hot loop may cache a handle once and keep using it across test resets.
#ifndef ROADMINE_OBS_METRICS_H_
#define ROADMINE_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace roadmine::obs {

// Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Last-write-wins instantaneous value (e.g. leaf count of the most
// recent tree fit, rows in the current dataset).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Latency (or any nonnegative magnitude) distribution with tail
// quantiles. HDR-style log bucketing: [kLoBoundMs, kHiBoundMs) is covered
// by kBucketsPerDecade geometric buckets per decade (~6% relative
// resolution), so one fixed layout serves microsecond predict calls and
// minute-long training stages alike. Observations outside the bucketed
// range are never clamped — they are tallied in explicit underflow /
// overflow counters (and still contribute exactly to count/sum/min/max).
class LatencyHistogram {
 public:
  static constexpr double kLoBoundMs = 1e-3;  // 1 microsecond.
  static constexpr double kHiBoundMs = 1e6;   // ~16.7 minutes.
  static constexpr size_t kBucketsPerDecade = 40;
  static constexpr size_t kDecades = 9;  // log10(kHiBoundMs / kLoBoundMs).
  static constexpr size_t kBucketCount = kBucketsPerDecade * kDecades;

  LatencyHistogram() = default;

  // NaN observations are dropped; negative and sub-microsecond values
  // count as underflow, values >= kHiBoundMs as overflow.
  void Observe(double value);

  // Zeroes the distribution in place; the handle stays valid.
  void Reset();

  size_t count() const;  // All observations, including under/overflow.
  double sum() const;
  double min() const;  // 0 when empty.
  double max() const;
  double mean() const;
  uint64_t underflow() const;
  uint64_t overflow() const;

  // Quantile estimate for q in [0, 1]: geometric bucket midpoint clamped
  // to the exact observed [min, max], so a single-valued distribution
  // reports that value exactly. Returns 0 when empty.
  double Quantile(double q) const;

 private:
  static size_t BucketIndex(double value);
  double QuantileLocked(double q) const;

  mutable std::mutex mu_;
  std::array<uint64_t, kBucketCount> buckets_{};
  uint64_t underflow_ = 0;
  uint64_t overflow_ = 0;
  size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Named-metric registry. All names share one namespace per metric kind;
// requesting an existing name returns the same instance.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  LatencyHistogram& GetHistogram(const std::string& name);

  // Zeroes every metric in place. Outstanding handles remain valid (the
  // historical clear-the-map Reset dangled every cached handle); names
  // registered before the reset still appear in snapshots, with zeroed
  // values, so tests should assert on the names they touch.
  void Reset();

  struct HistogramSnapshot {
    std::string name;
    size_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
    uint64_t underflow = 0;
    uint64_t overflow = 0;
  };
  struct Snapshot {
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<HistogramSnapshot> histograms;
  };
  // Name-sorted, so serialized output is deterministic.
  Snapshot TakeSnapshot() const;

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {count,
  // sum, min, max, mean, p50, p90, p99, p999, underflow, overflow}}}.
  std::string ToJson() const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

// RAII helper observing the elapsed wall-clock milliseconds of a scope
// into a histogram, e.g.:
//   obs::ScopedLatency timer(
//       obs::MetricsRegistry::Global().GetHistogram("ml.fit_ms"));
class ScopedLatency {
 public:
  explicit ScopedLatency(LatencyHistogram& histogram);
  ~ScopedLatency();

  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

  // Elapsed milliseconds so far (also useful for callers that want the
  // value without a second clock read).
  double ElapsedMs() const;

 private:
  LatencyHistogram& histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace roadmine::obs

#endif  // ROADMINE_OBS_METRICS_H_
