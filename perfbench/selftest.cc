// roadbench --selftest: checks the benchmark itself.
//   * the median / quantile / summary helpers give known answers,
//     including the sample count;
//   * every workload's prep gives byte-identical inputs for one seed and
//     different inputs for another;
//   * the timing RowSource wrapper changes nothing: wrapped and unwrapped
//     FitPaged serialize byte-identically.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "common.h"
#include "core/thresholds.h"
#include "data/paged_dataset.h"
#include "ml/gradient_boosting.h"
#include "roadgen/dataset_builder.h"
#include "roadgen/generator.h"
#include "roadgen/paged_emit.h"

namespace roadbench {

namespace rm = roadmine;

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void TestStatistics() {
  Expect(Near(Median({3, 1, 2}), 2.0), "median of an odd sample");
  Expect(Near(Median({4, 1, 3, 2}), 2.5), "median of an even sample");
  Expect(Near(Median({7}), 7.0), "median of one value");
  Expect(std::isnan(Median({})), "median of nothing is NaN");
  Expect(Near(Quantile({5, 1, 4, 2, 3}, 0.25), 2.0), "first quartile");
  Expect(Near(Quantile({5, 1, 4, 2, 3}, 0.75), 4.0), "third quartile");
  Expect(Near(Quantile({10, 20}, 0.99), 19.9), "p99 interpolates");
  Expect(Near(Quantile({1, 2, 3}, 0.0), 1.0) && Near(Quantile({1, 2, 3}, 1.0), 3.0),
         "quantile end points");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const SampleSummary s = Summarize(hundred);
  Expect(s.count == 100, "summary reports its sample count");
  Expect(Near(s.median, 50.5) && Near(s.p25, 25.75) && Near(s.p75, 75.25) &&
             Near(s.p99, 99.01) && Near(s.max, 100.0),
         "summary of 1..100");
  Expect(Summarize({}).count == 0, "empty summary has no samples");
}

// FNV-1a over every file under `dir` (sorted relative names + contents).
uint64_t Fingerprint(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const std::string& bytes) {
    for (unsigned char c : bytes) {
      h ^= c;
      h *= 1099511628211ull;
    }
  };
  for (const auto& file : files) {
    mix(std::filesystem::relative(file, dir).string());
    std::ifstream in(file, std::ios::binary);
    mix(std::string(std::istreambuf_iterator<char>(in), {}));
  }
  return h;
}

void TestInputsFollowSeed(
    const std::string& workload, const std::string& base,
    const std::function<rm::util::Result<std::string>(const RunOptions&)>& write) {
  uint64_t prints[3] = {0, 0, 0};
  const uint64_t seeds[3] = {7, 7, 8};
  for (int i = 0; i < 3; ++i) {
    RunOptions options;
    options.seed = seeds[i];
    options.work_dir = base + "/" + workload + "_" + std::to_string(i);
    auto dir = write(options);
    if (!dir.ok()) {
      Expect(false, workload + " inputs: " + dir.status().ToString());
      return;
    }
    prints[i] = Fingerprint(*dir);
    std::error_code ec;
    std::filesystem::remove_all(options.work_dir, ec);
  }
  Expect(prints[0] == prints[1], workload + ": same seed, byte-identical inputs");
  Expect(prints[0] != prints[2], workload + ": other seed, different inputs");
}

void TestWrapperIsTransparent(const std::string& base) {
  const std::string dir = base + "/wrapper_pages";
  const std::string target = rm::core::ThresholdTargetName(4);
  rm::roadgen::GeneratorConfig config;
  config.num_segments = 6000;
  config.seed = 5;
  auto rows = rm::roadgen::EmitSegmentPages(
      config, dir, {.page_rows = 1024, .targets = {{target, 4.0}}});
  if (!rows.ok()) {
    Expect(false, "wrapper: emit pages: " + rows.status().ToString());
    return;
  }
  auto paged = rm::data::PagedDataset::Open(dir);
  if (!paged.ok()) {
    Expect(false, "wrapper: open pages: " + paged.status().ToString());
    return;
  }
  rm::ml::GradientBoostedTreesParams params;
  params.num_trees = 10;
  rm::ml::GradientBoostedTrees plain(params), wrapped(params);
  auto plain_stream = paged->Pages();
  const bool plain_ok =
      plain.FitPaged(plain_stream, target, rm::roadgen::RoadAttributeColumns()).ok();
  auto stream = paged->Pages();
  TimingRowSource source(stream);
  const bool wrapped_ok =
      wrapped.FitPaged(source, target, rm::roadgen::RoadAttributeColumns()).ok();
  Expect(plain_ok && wrapped_ok && plain.Serialize() == wrapped.Serialize(),
         "wrapped and unwrapped FitPaged serialize identically");
  Expect(source.passes() >= 1 && source.rows() >= source.passes() * *rows &&
             source.chunks() >= paged->num_pages(),
         "wrapper counts passes, chunks and rows");
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace

int RunSelfTest(const RunOptions& options) {
  const std::string base = options.work_dir + "/selftest";
  std::error_code ec;
  std::filesystem::create_directories(base, ec);
  TestStatistics();
  TestWrapperIsTransparent(base);
  TestInputsFollowSeed("study", base, WriteStudyInputs);
  TestInputsFollowSeed("network_build", base, WriteNetworkBuildInputs);
  TestInputsFollowSeed("network_rank", base, WriteNetworkRankInputs);
  std::filesystem::remove_all(base, ec);
  std::printf("selftest: %s (%d failed)\n", failures == 0 ? "passed" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace roadbench
