#include "obs/trace_aggregate.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "obs/json.h"
#include "stats/descriptive.h"

namespace roadmine::obs {

namespace {

struct SpanInterval {
  const SpanRecord* span;
  uint64_t end_us;
  uint64_t child_us = 0;
};

}  // namespace

TraceAggregate AggregateSpans(const std::vector<SpanRecord>& spans) {
  // Self time: within each thread, sweep the spans in start order with an
  // open-span stack; every span charges its duration to the innermost
  // enclosing span still open. Sorting by (start asc, end desc, depth asc)
  // makes a parent precede its children even when they share endpoints.
  std::map<uint32_t, std::vector<SpanInterval>> by_thread;
  for (const SpanRecord& span : spans) {
    by_thread[span.thread_id].push_back(
        SpanInterval{&span, span.start_us + span.duration_us});
  }

  struct Accumulated {
    size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::vector<double> durations_ms;
  };
  std::map<std::string, Accumulated> by_name;

  for (auto& [tid, intervals] : by_thread) {
    std::sort(intervals.begin(), intervals.end(),
              [](const SpanInterval& a, const SpanInterval& b) {
                if (a.span->start_us != b.span->start_us) {
                  return a.span->start_us < b.span->start_us;
                }
                if (a.end_us != b.end_us) return a.end_us > b.end_us;
                return a.span->depth < b.span->depth;
              });
    std::vector<SpanInterval*> open;
    for (SpanInterval& interval : intervals) {
      while (!open.empty() &&
             !(interval.span->start_us >= open.back()->span->start_us &&
               interval.end_us <= open.back()->end_us)) {
        open.pop_back();
      }
      if (!open.empty()) open.back()->child_us += interval.span->duration_us;
      open.push_back(&interval);
    }
    for (const SpanInterval& interval : intervals) {
      Accumulated& acc = by_name[interval.span->name];
      const double dur_ms =
          static_cast<double>(interval.span->duration_us) / 1000.0;
      ++acc.count;
      acc.total_ms += dur_ms;
      // Nested recursion can make child sums exceed the parent duration
      // only through clock quantization; clamp at zero.
      const uint64_t child =
          std::min(interval.child_us, interval.span->duration_us);
      acc.self_ms +=
          static_cast<double>(interval.span->duration_us - child) / 1000.0;
      acc.durations_ms.push_back(dur_ms);
    }
  }

  TraceAggregate out;
  out.stages.reserve(by_name.size());
  for (auto& [name, acc] : by_name) {
    StageStats stats;
    stats.name = name;
    stats.count = acc.count;
    stats.total_ms = acc.total_ms;
    stats.self_ms = acc.self_ms;
    stats.p50_ms = stats::NearestRankQuantile(acc.durations_ms, 0.50);
    stats.p99_ms = stats::NearestRankQuantile(acc.durations_ms, 0.99);
    stats.max_ms =
        *std::max_element(acc.durations_ms.begin(), acc.durations_ms.end());
    out.stages.push_back(std::move(stats));
  }
  std::sort(out.stages.begin(), out.stages.end(),
            [](const StageStats& a, const StageStats& b) {
              if (a.self_ms != b.self_ms) return a.self_ms > b.self_ms;
              return a.name < b.name;  // Deterministic tiebreak.
            });
  return out;
}

std::string TraceAggregate::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("stages").BeginArray();
  for (const StageStats& stats : stages) {
    w.BeginObject();
    w.Key("name").String(stats.name);
    w.Key("count").UInt(stats.count);
    w.Key("total_ms").Number(stats.total_ms);
    w.Key("self_ms").Number(stats.self_ms);
    w.Key("p50_ms").Number(stats.p50_ms);
    w.Key("p99_ms").Number(stats.p99_ms);
    w.Key("max_ms").Number(stats.max_ms);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::string TraceAggregate::Render() const {
  std::string out =
      "stage                                    count   total_ms    self_ms"
      "     p50_ms     p99_ms     max_ms\n";
  char line[256];
  for (const StageStats& stats : stages) {
    std::snprintf(line, sizeof(line),
                  "%-40s %5zu %10.2f %10.2f %10.3f %10.3f %10.3f\n",
                  stats.name.c_str(), stats.count, stats.total_ms,
                  stats.self_ms, stats.p50_ms, stats.p99_ms, stats.max_ms);
    out += line;
  }
  return out;
}

}  // namespace roadmine::obs
