// Model registry + batch scoring front door.
//
// A ScoringService holds loaded models keyed by (name, version) behind the
// unified ml::Predictor interface and scores row batches through them,
// sharding large batches over an exec::Executor. Sharding preserves the
// repo-wide determinism contract: block boundaries depend only on the row
// count, scores land in index-addressed slots, so results are bit-identical
// serial vs any thread count.
//
// Every registered model carries a serve::SloTracker: ScoreBatch records
// its latency and row count into the model's rolling window, and
// SloReport() snapshots per-(name, version) p50/p99 latency, rows/sec,
// and cumulative breach counts against the service's SloConfig.
#ifndef ROADMINE_SERVE_SCORING_SERVICE_H_
#define ROADMINE_SERVE_SCORING_SERVICE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/row_source.h"
#include "ml/predictor.h"
#include "serve/slo.h"
#include "util/status.h"

namespace roadmine::exec {
class Executor;
}  // namespace roadmine::exec

namespace roadmine::serve {

struct ScoringServiceOptions {
  // Batch sharding executor; not owned, may be null (serial). Results are
  // bit-identical either way.
  exec::Executor* executor = nullptr;
  // Latency/throughput objectives applied to every registered model
  // (default: all checks disabled, window of 256 requests).
  SloConfig slo;
};

struct ModelInfo {
  std::string name;
  std::string version;
  std::string predictor;  // ml::Predictor::name() of the registered model.
};

// One streaming-scoring survivor: a global row index into the scored
// stream and the model's score for it.
struct PagedScore {
  uint64_t row = 0;
  double score = 0.0;
};

class ScoringService {
 public:
  explicit ScoringService(ScoringServiceOptions options = {})
      : options_(options) {}

  // Registers a model under (name, version). Fails with AlreadyExistsError
  // on a duplicate key; versions of one name are otherwise independent.
  [[nodiscard]] util::Status Register(const std::string& name, const std::string& version,
                        std::shared_ptr<const ml::Predictor> model);

  // Looks up a model. An empty `version` selects the most recently
  // registered version of `name`.
  [[nodiscard]] util::Result<std::shared_ptr<const ml::Predictor>> Get(
      const std::string& name, const std::string& version = "") const;

  // Registered models in registration order.
  std::vector<ModelInfo> List() const;

  // Scores `rows` of `dataset` through the named model, sharding the batch
  // over the service's executor. A row id past the dataset is
  // InvalidArgument, returned before any model reads a row. Instrumented
  // with obs spans and the
  // serve.requests / serve.rows_scored / serve.score_batch_ms metrics;
  // also feeds the model's SLO tracker (serve.slo_breaches counts every
  // newly breached objective process-wide).
  [[nodiscard]] util::Result<std::vector<double>> ScoreBatch(
      const std::string& name, const std::string& version,
      const data::Dataset& dataset, const std::vector<size_t>& rows) const;

  // Streams `source` end to end (rewinding it first) through the named
  // model one page at a time, keeping only the `top_k` best-scoring rows
  // — memory use is one page plus the k survivors, never the whole
  // stream. Each page is sharded over the executor exactly like
  // ScoreBatch, so scores are bit-identical serial vs threaded, and the
  // result equals scoring the materialized stream in RAM and taking its
  // top k. Returned sorted by score descending, ties broken by global
  // row index ascending. Feeds the same metrics and SLO tracker as
  // ScoreBatch.
  [[nodiscard]] util::Result<std::vector<PagedScore>> ScorePaged(
      const std::string& name, const std::string& version,
      data::RowSource& source, size_t top_k) const;

  // Per-model SLO state, in registration order.
  std::vector<SloStatus> SloReport() const;

 private:
  struct Entry {
    std::string name;
    std::string version;
    std::shared_ptr<const ml::Predictor> model;
    std::shared_ptr<SloTracker> slo;
  };

  // (name, version) lookup with ScoreBatch's empty-version-picks-latest
  // rule; returns the model and its SLO tracker.
  [[nodiscard]] util::Result<Entry> Lookup(const std::string& name,
                                           const std::string& version) const;

  ScoringServiceOptions options_;
  mutable std::mutex mu_;  // Registration and lookup may interleave.
  std::vector<Entry> entries_;  // Registration order; latest = last match.
};

}  // namespace roadmine::serve

#endif  // ROADMINE_SERVE_SCORING_SERVICE_H_
