#include "common.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "obs/resource.h"

namespace roadbench {

namespace rm = roadmine;

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

SampleSummary Summarize(const std::vector<double>& values) {
  SampleSummary s;
  s.count = values.size();
  if (values.empty()) return s;
  s.median = Quantile(values, 0.5);
  s.p25 = Quantile(values, 0.25);
  s.p75 = Quantile(values, 0.75);
  s.p99 = Quantile(values, 0.99);
  s.max = *std::max_element(values.begin(), values.end());
  return s;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s"},
      {"job_s", "s"},
      {"quality", "ratio"},
      {"peak_rss_mb", "MB"},
  };
  return metrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"host.hardware_threads", "count"},
      {"host.pool_width", "count"},
      {"host.parallel_capacity", "ratio"},
      {"host.steal_pct", "%"},
      {"study.wall_ms", "ms"},
      {"study.unattributed_ms", "ms"},
      {"study.pool_wall_ms", "ms"},
      {"ingest.wall_ms", "ms"},
      {"ingest.unattributed_ms", "ms"},
      {"fit_paged.wall_ms", "ms"},
      {"fit_paged.unattributed_ms", "ms"},
      {"fit.wall_ms", "ms"},
      {"fit.unattributed_ms", "ms"},
      {"score_paged.wall_ms", "ms"},
      {"score_paged.unattributed_ms", "ms"},
      {"works_paged.wall_ms", "ms"},
      {"works_paged.unattributed_ms", "ms"},
      {"query.wall_ms", "ms"},
      {"query.unattributed_ms", "ms"},
      {"data.csv_parse_ms", "ms"},
      {"data.page_write_ms", "ms"},
      {"data.page_bytes_written", "bytes"},
      {"data.page_read_ms", "ms"},
      {"data.page_bytes_read", "bytes"},
      {"data.source_wait_ms.fit_paged", "ms"},
      {"data.source_wait_ms.score_paged", "ms"},
      {"data.source_wait_ms.works_paged", "ms"},
      {"data.source_passes.fit_paged", "count"},
      {"data.source_passes.score_paged", "count"},
      {"data.source_passes.works_paged", "count"},
      {"data.source_chunks.fit_paged", "count"},
      {"data.source_chunks.score_paged", "count"},
      {"data.source_chunks.works_paged", "count"},
      {"ml.quantile_sketch_ms", "ms"},
      {"ml.histogram_index_ms", "ms"},
      {"ml.gbt.grow_ms", "ms"},
      {"ml.gbt.fit_paged_compute_ms", "ms"},
      {"ml.gbt.paged_inram_ratio", "ratio"},
      {"ml.feature_index_ms", "ms"},
      {"ml.decision_tree.fit_ms", "ms"},
      {"ml.regression_tree.fit_ms", "ms"},
      {"ml.naive_bayes.fit_ms", "ms"},
      {"ml.predict_ms", "ms"},
      {"ml.gbt.trees", "count"},
      {"ml.gbt.leaves", "count"},
      {"ml.tree.leaves", "count"},
      {"eval.cross_validation_ms", "ms"},
      {"eval.roc_auc_ms", "ms"},
      {"core.study.self_ms", "ms"},
      {"core.works_assembly_ms", "ms"},
      {"serve.load_ms", "ms"},
      {"serve.flat.predict_batch_ms", "ms"},
      {"serve.score_batch_ms", "ms"},
      {"serve.heap_rank_ms", "ms"},
      {"serve.flat.query_ms", "ms"},
      {"serve.predict_row_p50_us", "us"},
      {"serve.request_overhead_p50_us", "us"},
      {"serve.query_p50_us", "us"},
      {"serve.query_p99_us", "us"},
      {"serve.corridor_p50_us", "us"},
      {"serve.corridor_p99_us", "us"},
      {"serve.flat.nodes", "count"},
      {"exec.busy_fraction", "ratio"},
      {"exec.imbalance", "ratio"},
      {"exec.tasks", "count"},
      {"exec.pool_speedup", "ratio"},
      {"obs.trace_overhead_pct", "%"},
  };
  return metrics;
}

void Report::Set(const std::string& name, double value, size_t samples) {
  values_[name] = {value, samples};
}

void Report::SetTiming(const std::string& name, const std::vector<double>& samples,
                       const std::string& unit) {
  const SampleSummary s = Summarize(samples);
  Set(name, s.median, s.count);
  std::printf("timing %-34s median %.6g p25 %.6g p75 %.6g max %.6g %s (n=%zu)\n",
              name.c_str(), s.median, s.p25, s.p75, s.max, unit.c_str(), s.count);
}

void Report::Detail(const std::string& name, double value,
                    const std::string& unit, size_t samples) {
  std::printf("detail %-34s %14.6g %-6s (n=%zu)\n", name.c_str(), value,
              unit.c_str(), samples);
}

bool Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "roadbench: check failed: %s\n", what.c_str());
  }
  return ok;
}

bool Report::CheckStatus(const rm::util::Status& status,
                         const std::string& what) {
  return Check(status.ok(), status.ok() ? what : what + ": " + status.ToString());
}

CpuTimes ReadCpuTimes() {
  // The aggregate line: cpu user nice system idle iowait irq softirq steal.
  std::ifstream stat("/proc/stat");
  std::string label;
  CpuTimes times;
  if (!(stat >> label) || label != "cpu") return times;
  for (int field = 0; field < 8; ++field) {
    uint64_t ticks = 0;
    if (!(stat >> ticks)) return CpuTimes{};
    times.total += ticks;
    if (field == 7) times.steal = ticks;
  }
  return times;
}

double StealPct(const CpuTimes& from, const CpuTimes& to) {
  if (to.total <= from.total) return 0.0;
  return 100.0 * static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

int Report::Finish(const std::vector<MetricSpec>& catalogue) {
  const double steal = StealPct(start_cpu_, ReadCpuTimes());
  Set("host.steal_pct", steal);
  std::printf("host {\"steal_pct\": %.3f} (CPU time taken by other guests "
              "during this run)\n",
              steal);
  std::printf("error_rate %.6g (%llu failed / %llu attempted)\n",
              attempted_ == 0 ? 0.0
                              : static_cast<double>(failed_) /
                                    static_cast<double>(attempted_),
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  std::string json;
  for (const MetricSpec& spec : catalogue) {
    auto it = values_.find(spec.name);
    const double value = it == values_.end() ? 0.0 : it->second.value;
    const size_t samples = it == values_.end() ? 0 : it->second.samples;
    std::printf("metric %-34s %14.6g %-6s (n=%zu)\n", spec.name, value,
                spec.unit, samples);
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", spec.name,
                  std::isfinite(value) ? value : 0.0, spec.unit);
    json += buf;
  }
  const bool correct = failed_ == 0 && attempted_ > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_), json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

bool RunTimed(Report& report, const RunOptions& options, int setups_per_job,
              const TimedStep& setup, const TimedStep& job) {
  constexpr size_t kMinJobs = 3;
  std::vector<double> setup_s, job_s;
  const auto begin = Clock::now();
  while (job_s.size() < kMinJobs || MsSince(begin) < options.seconds * 1e3) {
    for (int i = 0; i < setups_per_job; ++i) {
      const std::optional<double> seconds = setup();
      if (!seconds) return false;
      setup_s.push_back(*seconds);
    }
    const std::optional<double> seconds = job();
    if (!seconds) return false;
    job_s.push_back(*seconds);
  }
  report.SetTiming("setup_s", setup_s, "s");
  report.SetTiming("job_s", job_s, "s");
  report.Set("peak_rss_mb", PeakRssMb());
  return true;
}

std::map<std::string, double> BenchSpanTotalsMs() {
  std::map<std::string, double> totals;
  for (const rm::obs::SpanRecord& span :
       rm::obs::TraceCollector::Global().Snapshot()) {
    if (span.name.rfind("bench.", 0) != 0) continue;
    totals[span.name.substr(6)] += static_cast<double>(span.duration_us) / 1e3;
  }
  return totals;
}

double AddPhase(Report& report, const std::string& phase, double wall_ms,
                const std::vector<std::pair<std::string, double>>& rows) {
  double attributed = 0.0;
  std::printf("phase %-12s wall %12.3f ms\n", phase.c_str(), wall_ms);
  for (const auto& [metric, ms] : rows) {
    report.Set(metric, ms);
    attributed += ms;
    std::printf("  %-36s %12.3f ms %6.1f%%\n", metric.c_str(), ms,
                wall_ms > 0.0 ? 100.0 * ms / wall_ms : 0.0);
  }
  const double unattributed = wall_ms - attributed;
  std::printf("  %-36s %12.3f ms %6.1f%%\n",
              (phase + ".unattributed_ms").c_str(), unattributed,
              wall_ms > 0.0 ? 100.0 * unattributed / wall_ms : 0.0);
  report.Set(phase + ".wall_ms", wall_ms);
  report.Set(phase + ".unattributed_ms", unattributed);
  return unattributed;
}

rm::util::Status TimingRowSource::Reset() {
  const auto start = Clock::now();
  rm::util::Status status = inner_.Reset();
  wait_ms_ += MsSince(start);
  ++passes_;
  return status;
}

rm::util::Result<const rm::data::Dataset*> TimingRowSource::Next() {
  const auto start = Clock::now();
  auto chunk = inner_.Next();
  wait_ms_ += MsSince(start);
  if (chunk.ok() && *chunk != nullptr) {
    ++chunks_;
    rows_ += (*chunk)->num_rows();
  }
  return chunk;
}

namespace {

// A dependent integer chain the compiler cannot vectorize or elide.
uint64_t BusyLoop(uint64_t iterations) {
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double TimeConcurrentLoops(size_t threads, uint64_t iterations) {
  std::vector<uint64_t> sink(threads, 0);
  const auto start = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&sink, t, iterations] { sink[t] = BusyLoop(iterations); });
  }
  for (std::thread& w : workers) w.join();
  const double ms = MsSince(start);
  uint64_t folded = 0;
  for (uint64_t v : sink) folded ^= v;
  if (folded == 42) std::fprintf(stderr, " ");  // Keeps the loops live.
  return ms;
}

}  // namespace

HostRecord MeasureHost(size_t pool_width) {
  HostRecord host;
  host.hardware_threads = std::max(1u, std::thread::hardware_concurrency());
  host.pool_width = pool_width;
  // Loops of a few hundred ms: on some virtual hosts idle vCPUs take tens
  // of ms to start running, which would make short loops read as one core.
  constexpr uint64_t kIterations = 100'000'000;
  std::vector<double> one, many;
  for (int trial = 0; trial < 3; ++trial) {
    one.push_back(TimeConcurrentLoops(1, kIterations));
    many.push_back(TimeConcurrentLoops(host.hardware_threads, kIterations));
  }
  host.parallel_capacity =
      static_cast<double>(host.hardware_threads) * Median(one) / Median(many);
  return host;
}

void RecordHost(Report& report, const HostRecord& host) {
  std::printf(
      "host {\"hardware_threads\": %u, \"pool_width\": %zu, "
      "\"parallel_capacity\": %.3f}\n",
      host.hardware_threads, host.pool_width, host.parallel_capacity);
  report.Set("host.hardware_threads", host.hardware_threads);
  report.Set("host.pool_width", static_cast<double>(host.pool_width));
  report.Set("host.parallel_capacity", host.parallel_capacity);
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) {
    std::fprintf(stderr,
                 "roadbench: cannot reset the peak-RSS mark; peak_rss_mb "
                 "includes harness prep\n");
  }
}

double PeakRssMb() { return rm::obs::CurrentMemoryUsage().peak_rss_mb; }

uint64_t DirectoryBytes(const std::string& directory) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(directory, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

}  // namespace roadbench
