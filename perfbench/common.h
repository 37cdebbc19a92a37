// Shared harness for the roadmine benchmark (roadbench): sample
// statistics, the result report and its one-line JSON, the timed loop,
// trace-span attribution of phases to layers, the timing RowSource
// wrapper, the host record, and peak-RSS control. Everything here calls the library only
// through public headers.
#ifndef ROADMINE_PERFBENCH_COMMON_H_
#define ROADMINE_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "data/row_source.h"
#include "obs/trace.h"
#include "util/status.h"

namespace roadbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ---- Sample statistics -------------------------------------------------

// Linear interpolation between closest ranks (q in [0, 1]); NaN when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// A timing reported as a median with its spread and its sample count.
struct SampleSummary {
  size_t count = 0;
  double median = 0.0;
  double p25 = 0.0;
  double p75 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};
SampleSummary Summarize(const std::vector<double>& values);

// ---- Metric catalogue --------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Untraced runs print exactly these; BENCHMARK.json lists them in order.
const std::vector<MetricSpec>& EndToEndMetrics();
// Traced runs print exactly these (0 where a workload lacks the layer).
const std::vector<MetricSpec>& PerLayerMetrics();

// ---- Steal time ----------------------------------------------------------

// Cumulative CPU time of all CPUs from /proc/stat, in clock ticks (zeros
// where the file is unreadable).
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTimes ReadCpuTimes();
// Share of all CPU time between `from` and `to` that the hypervisor gave
// to other guests, in percent: the host's noise during a run.
double StealPct(const CpuTimes& from, const CpuTimes& to);

// ---- Run options and report --------------------------------------------

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_work";
};

// Collects metric values and correctness checks, then prints one line per
// metric and, last, the result JSON the benchmark contract fixes.
class Report {
 public:
  void Set(const std::string& name, double value, size_t samples = 1);
  // Sets `name` to the median of `samples` and prints their spread.
  void SetTiming(const std::string& name, const std::vector<double>& samples,
                 const std::string& unit);

  // A human-facing figure that is not part of the result JSON (the
  // workload-specific throughputs and latencies).
  void Detail(const std::string& name, double value, const std::string& unit,
              size_t samples = 1);

  // One attempted operation; counts as failed when !ok. Returns ok.
  bool Check(bool ok, const std::string& what);
  bool CheckStatus(const roadmine::util::Status& status,
                   const std::string& what);

  uint64_t failed() const { return failed_; }

  // Records host.steal_pct over the whole run, prints the metric lines and
  // the final JSON line for `catalogue`, and returns the exit code: 0 when
  // every check passed, else 1.
  int Finish(const std::vector<MetricSpec>& catalogue);

 private:
  struct Value {
    double value = 0.0;
    size_t samples = 1;
  };
  std::map<std::string, Value> values_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  CpuTimes start_cpu_ = ReadCpuTimes();
};

// ---- Timed loop ----------------------------------------------------------

// One measured step: returns its wall seconds, or nullopt once its failure
// is checked into the report.
using TimedStep = std::function<std::optional<double>()>;

// The untraced measurement every workload shares. Repeats {setups_per_job
// set-ups, one job} until options.seconds have passed and at least 3 jobs
// ran, so set-up samples span the whole run. Sets setup_s and job_s (the
// medians, with their sample counts) and peak_rss_mb. Returns false when a
// step failed.
bool RunTimed(Report& report, const RunOptions& options, int setups_per_job,
              const TimedStep& setup, const TimedStep& job);

// ---- Trace attribution -------------------------------------------------

// Span "bench.<name>" recorded while the global TraceCollector is enabled.
class Span {
 public:
  explicit Span(const std::string& name) : span_("bench." + name) {}

 private:
  roadmine::obs::ScopedSpan span_;
};

// Total duration (ms) of every "bench.*" span collected so far, by name
// without the prefix.
std::map<std::string, double> BenchSpanTotalsMs();

// One timed phase of a traced run: its wall time (the span "phase/<name>")
// and the layer rows measured for it. Sets <name>.wall_ms, every row, and
// <name>.unattributed_ms = wall - sum(rows), then prints the table.
// Returns the unattributed time.
double AddPhase(Report& report, const std::string& phase, double wall_ms,
                const std::vector<std::pair<std::string, double>>& rows);

// ---- Timing RowSource wrapper ------------------------------------------

// Wraps a stream handed to a paged consumer and measures the consumer's
// wait on the data layer: wall time inside Reset/Next, Reset calls
// (passes), chunks and rows. Forwards everything unchanged.
class TimingRowSource : public roadmine::data::RowSource {
 public:
  explicit TimingRowSource(roadmine::data::RowSource& inner) : inner_(inner) {}

  const roadmine::data::TableSchema& schema() const override {
    return inner_.schema();
  }
  std::optional<uint64_t> TotalRowsHint() const override {
    return inner_.TotalRowsHint();
  }
  [[nodiscard]] roadmine::util::Status Reset() override;
  [[nodiscard]] roadmine::util::Result<const roadmine::data::Dataset*> Next()
      override;

  double wait_ms() const { return wait_ms_; }
  uint64_t passes() const { return passes_; }
  uint64_t chunks() const { return chunks_; }
  uint64_t rows() const { return rows_; }

 private:
  roadmine::data::RowSource& inner_;
  double wait_ms_ = 0.0;
  uint64_t passes_ = 0;
  uint64_t chunks_ = 0;
  uint64_t rows_ = 0;
};

// ---- Host record and memory --------------------------------------------

struct HostRecord {
  unsigned hardware_threads = 0;
  size_t pool_width = 0;
  // n * t(one busy loop) / t(n concurrent busy loops), n = hardware
  // threads: about n on a host with n free cores, about 1 on a host that
  // runs like one core.
  double parallel_capacity = 0.0;
};
HostRecord MeasureHost(size_t pool_width);
// Prints the host line and records host.* per-layer metrics.
void RecordHost(Report& report, const HostRecord& host);

// Returns freed heap to the OS and resets the VmHWM high-water mark, so a
// later PeakRssMb() covers only what ran after this call (warns on stderr
// when the kernel refuses the reset).
void ResetPeakRss();
double PeakRssMb();

// Total bytes of the regular files in `directory`.
uint64_t DirectoryBytes(const std::string& directory);

// ---- Workloads and self-tests ------------------------------------------

int RunStudy(const RunOptions& options);
int RunNetworkBuild(const RunOptions& options);
int RunNetworkRank(const RunOptions& options);
int RunSelfTest(const RunOptions& options);

// Each workload's harness prep for options.seed, with every generated
// input written as files under the returned directory (self-tests compare
// them byte for byte).
roadmine::util::Result<std::string> WriteStudyInputs(const RunOptions& options);
roadmine::util::Result<std::string> WriteNetworkBuildInputs(
    const RunOptions& options);
roadmine::util::Result<std::string> WriteNetworkRankInputs(
    const RunOptions& options);

}  // namespace roadbench

#endif  // ROADMINE_PERFBENCH_COMMON_H_
