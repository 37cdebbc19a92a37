// Shared setup for the reproduction benches: every table/figure binary
// works from the same paper-scale synthetic network (the calibrated
// GeneratorConfig defaults) so results are comparable across benches.
//
// Observability: each bench wraps its run in a BenchContext. When the
// first CLI argument names an output directory, the context enables the
// trace collector and — at scope exit — writes BENCH_<name>.json
// (per-stage wall-clock timings + key metrics, see obs/bench_report.h)
// and trace_<name>.jsonl next to the bench's CSV artifacts, seeding the
// repo's perf trajectory.
#ifndef ROADMINE_BENCH_BENCH_COMMON_H_
#define ROADMINE_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "exec/executor.h"
#include "obs/bench_report.h"
#include "obs/logging.h"
#include "obs/trace.h"
#include "obs/trace_aggregate.h"
#include "roadgen/dataset_builder.h"
#include "roadgen/generator.h"

namespace roadmine::bench {

struct PaperData {
  roadgen::GeneratorConfig config;
  std::vector<roadgen::RoadSegment> segments;
  std::vector<roadgen::CrashRecord> records;
  data::Dataset crash_only;      // Phase-2 dataset (~16.7k rows).
  data::Dataset crash_no_crash;  // Phase-1 dataset (~32.9k rows).
};

// Generates the calibrated paper-scale dataset; aborts with a logged
// error on failure (benches have no error channel worth plumbing). When
// `report` is given, the build time is recorded as the "dataset_build"
// stage — the first standard metric every bench shares — along with the
// dataset row counts.
inline PaperData MakePaperData(uint64_t seed = 42,
                               obs::BenchReport* report = nullptr,
                               exec::Executor* executor = nullptr) {
  const auto start = std::chrono::steady_clock::now();
  ROADMINE_TRACE_SPAN("bench.make_paper_data");

  PaperData data;
  data.config.seed = seed;
  // The executor only drives this build; the stored config must not keep a
  // pointer that outlives the caller's pool.
  roadgen::GeneratorConfig build_config = data.config;
  build_config.executor = executor;
  roadgen::RoadNetworkGenerator generator(build_config);
  auto segments = generator.Generate();
  if (!segments.ok()) {
    obs::LogError("paper data generation failed",
                  {{"stage", "generate"},
                   {"seed", seed},
                   {"error", segments.status().ToString()}});
    std::exit(1);
  }
  data.segments = std::move(*segments);
  data.records = generator.SimulateCrashRecords(data.segments);

  auto crash_only = roadgen::BuildCrashOnlyDataset(data.segments, data.records,
                                                   {}, executor);
  if (!crash_only.ok()) {
    obs::LogError("paper data generation failed",
                  {{"stage", "crash_only_dataset"},
                   {"seed", seed},
                   {"error", crash_only.status().ToString()}});
    std::exit(1);
  }
  data.crash_only = std::move(*crash_only);

  auto both = roadgen::BuildCrashNoCrashDataset(data.segments, data.records,
                                                {}, executor);
  if (!both.ok()) {
    obs::LogError("paper data generation failed",
                  {{"stage", "crash_no_crash_dataset"},
                   {"seed", seed},
                   {"error", both.status().ToString()}});
    std::exit(1);
  }
  data.crash_no_crash = std::move(*both);

  if (report != nullptr) {
    const auto elapsed = std::chrono::steady_clock::now() - start;
    report->RecordTimingMs(
        "dataset_build",
        std::chrono::duration<double, std::milli>(elapsed).count());
    report->RecordMetric("dataset_rows_crash_only",
                         static_cast<double>(data.crash_only.num_rows()));
    report->RecordMetric("dataset_rows_crash_no_crash",
                         static_cast<double>(data.crash_no_crash.num_rows()));
  }
  return data;
}

// Optional CSV artifact directory: the first non-flag CLI argument, if
// present. Benches call this and, when a directory is given, also emit
// their series as CSV for external plotting.
inline std::string ExportDir(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] != '-') return argv[i];
  }
  return "";
}

// Worker-thread count from a `--threads=N` flag; 0 (the default) means
// serial execution. Every bench accepts the flag; results are
// bit-identical at any value (the exec determinism contract).
inline size_t ThreadsFlag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      const long parsed = std::atol(argv[i] + 10);
      return parsed > 0 ? static_cast<size_t>(parsed) : 0;
    }
  }
  return 0;
}

// Per-bench observability shell. Construct at the top of main; on
// destruction (normal bench exit) writes the machine-readable outputs if
// an export directory was given.
class BenchContext {
 public:
  BenchContext(std::string name, int argc, char** argv)
      : report_(std::move(name)), export_dir_(ExportDir(argc, argv)) {
    if (!export_dir_.empty()) obs::TraceCollector::Global().Enable();
    if (const size_t threads = ThreadsFlag(argc, argv); threads > 0) {
      pool_ = std::make_unique<exec::ThreadPool>(threads);
    }
    report_.RecordMetric("threads",
                         static_cast<double>(pool_ ? pool_->concurrency() : 0));
  }

  // Finish() here is BenchContext's own void flush, not a fallible call.
  ~BenchContext() { Finish(); }  // roadmine-lint: allow(dropped-status)

  BenchContext(const BenchContext&) = delete;
  BenchContext& operator=(const BenchContext&) = delete;

  const std::string& export_dir() const { return export_dir_; }
  bool has_export_dir() const { return !export_dir_.empty(); }
  obs::BenchReport& report() { return report_; }

  // The bench's executor: a thread pool when `--threads=N` was passed,
  // null (= serial) otherwise. Owned by the context; valid for its
  // lifetime.
  exec::Executor* executor() { return pool_.get(); }

  PaperData MakePaperData(uint64_t seed = 42) {
    return bench::MakePaperData(seed, &report_, executor());
  }

  // Runs `fn`, recording its wall-clock as stage `stage` (and a
  // "bench.<stage>" trace span).
  template <typename Fn>
  auto Timed(const std::string& stage, Fn&& fn) {
    obs::BenchReport::ScopedStage timer(report_, stage);
    return fn();
  }

  // Writes BENCH_<name>.json + trace_<name>.jsonl; called automatically
  // by the destructor, idempotent.
  void Finish() {
    if (finished_) return;
    finished_ = true;
    if (export_dir_.empty()) return;
    auto path = report_.Write(export_dir_);
    if (!path.ok()) {
      obs::LogWarn("bench report write failed",
                   {{"bench", report_.name()},
                    {"error", path.status().ToString()}});
    }
    obs::TraceCollector& collector = obs::TraceCollector::Global();
    if (collector.enabled() && collector.span_count() > 0) {
      // Best-effort trace export; a failed write must not fail the bench.
      (void)collector.WriteJsonl(export_dir_ + "/trace_" + report_.name() +
                                 ".jsonl");
      // Per-stage rollup (count, total/self wall-clock, percentiles) so
      // a human can answer "where did the run go" without trace tooling.
      const obs::TraceAggregate aggregate =
          obs::AggregateSpans(collector.Snapshot());
      std::ofstream summary(export_dir_ + "/trace_" + report_.name() +
                            "_summary.json");
      if (summary) summary << aggregate.ToJson() << "\n";
    }
  }

 private:
  obs::BenchReport report_;
  std::string export_dir_;
  std::unique_ptr<exec::ThreadPool> pool_;
  bool finished_ = false;
};

// Makes a timed expression's result observable, so the compiler cannot
// drop the work that produced it from a timing loop.
template <typename T>
inline void Sink(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n\n");
}

}  // namespace roadmine::bench

#endif  // ROADMINE_BENCH_BENCH_COMMON_H_
