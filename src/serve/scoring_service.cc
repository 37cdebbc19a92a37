#include "serve/scoring_service.h"

#include <algorithm>
#include <numeric>

#include "exec/executor.h"
#include "ml/common.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/top_k.h"

namespace roadmine::serve {

using util::Result;
using util::Status;

namespace {

// Scores `rows` of `dataset`, sharding over `executor`. Chunk boundaries
// depend only on the row count, and each chunk's scores land in its own
// index range, so the output is thread-count-invariant.
Status ShardedScore(exec::Executor* executor, const ml::Predictor& predictor,
                    const data::Dataset& dataset,
                    const std::vector<size_t>& rows,
                    std::vector<double>* scores) {
  scores->assign(rows.size(), 0.0);
  return exec::ParallelForRanges(
      executor, rows.size(), [&](size_t begin, size_t end) -> Status {
        const std::vector<size_t> chunk_rows(
            rows.begin() + static_cast<ptrdiff_t>(begin),
            rows.begin() + static_cast<ptrdiff_t>(end));
        auto chunk_scores = predictor.PredictBatch(dataset, chunk_rows);
        if (!chunk_scores.ok()) return chunk_scores.status();
        if (chunk_scores->size() != chunk_rows.size()) {
          return util::InternalError("model returned a short score block");
        }
        std::copy(chunk_scores->begin(), chunk_scores->end(),
                  scores->begin() + static_cast<ptrdiff_t>(begin));
        return Status::Ok();
      });
}

}  // namespace

Status ScoringService::Register(const std::string& name,
                                const std::string& version,
                                std::shared_ptr<const ml::Predictor> model) {
  if (name.empty()) return util::InvalidArgumentError("empty model name");
  if (version.empty()) return util::InvalidArgumentError("empty version");
  if (model == nullptr) return util::InvalidArgumentError("null model");
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& entry : entries_) {
    if (entry.name == name && entry.version == version) {
      return util::AlreadyExistsError("model '" + name + "' version '" +
                                      version + "' already registered");
    }
  }
  entries_.push_back(Entry{name, version, std::move(model),
                           std::make_shared<SloTracker>(options_.slo)});
  obs::MetricsRegistry::Global()
      .GetCounter("serve.models_registered")
      .Increment();
  return Status::Ok();
}

Result<std::shared_ptr<const ml::Predictor>> ScoringService::Get(
    const std::string& name, const std::string& version) const {
  auto entry = Lookup(name, version);
  if (!entry.ok()) return entry.status();
  return entry->model;
}

std::vector<ModelInfo> ScoringService::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ModelInfo> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    out.push_back(ModelInfo{entry.name, entry.version, entry.model->name()});
  }
  return out;
}

Result<ScoringService::Entry> ScoringService::Lookup(
    const std::string& name, const std::string& version) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Scan back-to-front so an empty version picks the latest registration
  // (the Get() contract).
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (it->name != name) continue;
    if (version.empty() || it->version == version) return *it;
  }
  if (version.empty()) {
    return util::NotFoundError("no model named '" + name + "'");
  }
  return util::NotFoundError("no model '" + name + "' version '" + version +
                             "'");
}

Result<std::vector<double>> ScoringService::ScoreBatch(
    const std::string& name, const std::string& version,
    const data::Dataset& dataset, const std::vector<size_t>& rows) const {
  ROADMINE_TRACE_SPAN("serve.score_batch");
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::ScopedLatency timer(
      metrics.GetHistogram("serve.score_batch_ms"));
  metrics.GetCounter("serve.requests").Increment();

  auto entry = Lookup(name, version);
  if (!entry.ok()) return entry.status();
  ROADMINE_RETURN_IF_ERROR(ml::CheckRowRange(rows, dataset.num_rows()));
  std::vector<double> scores;
  ROADMINE_RETURN_IF_ERROR(ShardedScore(options_.executor, *entry->model,
                                        dataset, rows, &scores));
  metrics.GetCounter("serve.rows_scored")
      .Increment(static_cast<uint64_t>(rows.size()));
  const size_t new_breaches =
      entry->slo->Record(timer.ElapsedMs(), rows.size());
  if (new_breaches > 0) {
    metrics.GetCounter("serve.slo_breaches")
        .Increment(static_cast<uint64_t>(new_breaches));
  }
  return scores;
}

Result<std::vector<PagedScore>> ScoringService::ScorePaged(
    const std::string& name, const std::string& version,
    data::RowSource& source, size_t top_k) const {
  ROADMINE_TRACE_SPAN("serve.score_paged");
  if (top_k == 0) {
    return util::InvalidArgumentError("top_k must be positive");
  }
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::ScopedLatency timer(metrics.GetHistogram("serve.score_paged_ms"));
  metrics.GetCounter("serve.requests").Increment();

  auto entry = Lookup(name, version);
  if (!entry.ok()) return entry.status();

  ROADMINE_RETURN_IF_ERROR(source.Reset());
  // Pages arrive in global row order and the top-k order is total, so the
  // survivors depend only on the stream — deterministic at any thread
  // count (threads only shard the per-page PredictBatch).
  util::TopK<> best(top_k);
  std::vector<size_t> page_rows;
  std::vector<double> scores;
  uint64_t total_rows = 0;
  for (;;) {
    auto page = source.Next();
    if (!page.ok()) return page.status();
    if (*page == nullptr) break;
    const size_t n = (*page)->num_rows();
    page_rows.resize(n);
    std::iota(page_rows.begin(), page_rows.end(), size_t{0});
    ROADMINE_RETURN_IF_ERROR(ShardedScore(options_.executor, *entry->model,
                                          **page, page_rows, &scores));
    for (size_t r = 0; r < n; ++r) best.Offer({scores[r], total_rows + r});
    total_rows += n;
  }

  const auto survivors = std::move(best).BestFirst();
  std::vector<PagedScore> ranked;
  ranked.reserve(survivors.size());
  for (const auto& survivor : survivors) {
    ranked.push_back({survivor.row, survivor.key});
  }
  metrics.GetCounter("serve.rows_scored").Increment(total_rows);
  const size_t new_breaches =
      entry->slo->Record(timer.ElapsedMs(), static_cast<size_t>(total_rows));
  if (new_breaches > 0) {
    metrics.GetCounter("serve.slo_breaches")
        .Increment(static_cast<uint64_t>(new_breaches));
  }
  return ranked;
}

std::vector<SloStatus> ScoringService::SloReport() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SloStatus> report;
  report.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    SloStatus status = entry.slo->Snapshot();
    status.name = entry.name;
    status.version = entry.version;
    report.push_back(std::move(status));
  }
  return report;
}

}  // namespace roadmine::serve
