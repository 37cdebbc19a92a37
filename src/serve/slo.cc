#include "serve/slo.h"

#include "obs/json.h"
#include "stats/descriptive.h"

namespace roadmine::serve {

SloTracker::SloTracker(SloConfig config) : config_(config) {
  if (config_.window == 0) config_.window = 1;
  ring_.reserve(config_.window);
}

double SloTracker::QuantileLocked(double q) const {
  std::vector<double> latencies;
  latencies.reserve(ring_.size());
  for (const Request& request : ring_) {
    latencies.push_back(request.latency_ms);
  }
  return stats::NearestRankQuantile(std::move(latencies), q);
}

double SloTracker::RowsPerSecLocked() const {
  double rows = 0.0;
  double seconds = 0.0;
  for (const Request& request : ring_) {
    rows += static_cast<double>(request.rows);
    seconds += request.latency_ms / 1000.0;
  }
  return seconds > 0.0 ? rows / seconds : 0.0;
}

size_t SloTracker::Record(double latency_ms, size_t rows) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < config_.window) {
    ring_.push_back(Request{latency_ms, rows});
  } else {
    ring_[next_] = Request{latency_ms, rows};
  }
  next_ = (next_ + 1) % config_.window;
  ++requests_;
  rows_ += rows;

  size_t new_breaches = 0;
  bool healthy = true;
  if (config_.p50_ms > 0.0 && QuantileLocked(0.50) > config_.p50_ms) {
    ++p50_breaches_;
    ++new_breaches;
    healthy = false;
  }
  if (config_.p99_ms > 0.0 && QuantileLocked(0.99) > config_.p99_ms) {
    ++p99_breaches_;
    ++new_breaches;
    healthy = false;
  }
  if (config_.min_rows_per_sec > 0.0 &&
      RowsPerSecLocked() < config_.min_rows_per_sec) {
    ++throughput_breaches_;
    ++new_breaches;
    healthy = false;
  }
  currently_healthy_ = healthy;
  return new_breaches;
}

SloStatus SloTracker::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  SloStatus status;
  status.requests = requests_;
  status.rows = rows_;
  status.p50_ms = QuantileLocked(0.50);
  status.p99_ms = QuantileLocked(0.99);
  status.rows_per_sec = RowsPerSecLocked();
  status.p50_breaches = p50_breaches_;
  status.p99_breaches = p99_breaches_;
  status.throughput_breaches = throughput_breaches_;
  status.healthy = currently_healthy_;
  return status;
}

std::string SloReportToJson(const std::vector<SloStatus>& statuses) {
  obs::JsonWriter w;
  w.BeginArray();
  for (const SloStatus& status : statuses) {
    w.BeginObject();
    w.Key("name").String(status.name);
    w.Key("version").String(status.version);
    w.Key("requests").UInt(status.requests);
    w.Key("rows").UInt(status.rows);
    w.Key("p50_ms").Number(status.p50_ms);
    w.Key("p99_ms").Number(status.p99_ms);
    w.Key("rows_per_sec").Number(status.rows_per_sec);
    w.Key("p50_breaches").UInt(status.p50_breaches);
    w.Key("p99_breaches").UInt(status.p99_breaches);
    w.Key("throughput_breaches").UInt(status.throughput_breaches);
    w.Key("healthy").Bool(status.healthy);
    w.EndObject();
  }
  w.EndArray();
  return w.str();
}

}  // namespace roadmine::serve
