#include "eval/cross_validation.h"

#include <mutex>

#include "data/split.h"
#include "eval/roc.h"
#include "exec/executor.h"
#include "ml/common.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace roadmine::eval {

using util::Result;

Result<std::vector<double>> FoldScorer::Score(
    const std::vector<size_t>& rows) const {
  auto out = batch_(rows);
  if (!out.ok()) return out.status();
  if (out->size() != rows.size()) {
    return util::InternalError("batch scorer returned " +
                               std::to_string(out->size()) + " scores for " +
                               std::to_string(rows.size()) + " rows");
  }
  return out;
}

namespace {

// Everything one fold contributes to the pooled result. Computed
// independently per fold (possibly concurrently), merged in fold order.
struct FoldOutput {
  bool skipped = false;  // Empty train or test side.
  ConfusionMatrix confusion;
  std::vector<double> scores;  // Held-out scores, test-row order.
  std::vector<int> labels;     // Matching 0/1 labels.
};

}  // namespace

Result<CrossValidationResult> CrossValidateBinary(
    const data::Dataset& dataset, const std::string& target_column,
    const BinaryTrainer& trainer, const CrossValidationOptions& options) {
  ROADMINE_TRACE_SPAN("eval.cross_validation");
  auto labels = ml::ExtractBinaryLabels(dataset, target_column);
  if (!labels.ok()) return labels.status();

  util::Rng rng(options.seed);
  Result<std::vector<std::vector<size_t>>> folds =
      options.stratified
          ? data::StratifiedKFoldIndices(dataset, target_column,
                                         options.folds, rng)
          : data::KFoldIndices(dataset.num_rows(), options.folds, rng);
  if (!folds.ok()) return folds.status();

  obs::Counter& fold_counter =
      obs::MetricsRegistry::Global().GetCounter("eval.cv.folds_scored");
  std::mutex progress_mu;
  size_t folds_done = 0;

  // Each fold trains and scores against only its own inputs; outputs land
  // in per-fold slots so the merge below is scheduling-independent.
  auto run_fold = [&](size_t f) -> Result<FoldOutput> {
    ROADMINE_TRACE_SPAN("eval.cross_validation.fold" + std::to_string(f));
    FoldOutput out;
    const std::vector<size_t> train = data::TrainIndicesForFold(*folds, f);
    const std::vector<size_t>& test = (*folds)[f];
    if (train.empty() || test.empty()) {
      out.skipped = true;
    } else {
      auto scorer = trainer(dataset, train);
      if (!scorer.ok()) return scorer.status();
      auto scores = scorer->Score(test);
      if (!scores.ok()) return scores.status();
      out.scores = std::move(*scores);
      out.labels.reserve(test.size());
      for (size_t i = 0; i < test.size(); ++i) {
        const bool actual = (*labels)[test[i]] != 0;
        out.confusion.Add(actual, out.scores[i] >= options.cutoff);
        out.labels.push_back(actual ? 1 : 0);
      }
      fold_counter.Increment();
    }
    if (options.progress) {
      std::lock_guard<std::mutex> lock(progress_mu);
      options.progress(++folds_done, folds->size());
    }
    return out;
  };

  auto outputs = exec::ParallelMap<FoldOutput>(options.executor,
                                               folds->size(), run_fold);
  if (!outputs.ok()) return outputs.status();

  // Fold-order merge: identical to the serial accumulation regardless of
  // which fold finished first.
  CrossValidationResult result;
  std::vector<double> pooled_scores;
  std::vector<int> pooled_labels;
  pooled_scores.reserve(dataset.num_rows());
  pooled_labels.reserve(dataset.num_rows());
  for (FoldOutput& fold : *outputs) {
    if (fold.skipped) continue;
    result.per_fold.push_back(Assess(fold.confusion));
    result.pooled_confusion += fold.confusion;
    pooled_scores.insert(pooled_scores.end(), fold.scores.begin(),
                         fold.scores.end());
    pooled_labels.insert(pooled_labels.end(), fold.labels.begin(),
                         fold.labels.end());
  }
  if (result.pooled_confusion.total() == 0) {
    return util::InternalError("cross-validation scored no rows");
  }
  result.assessment = Assess(result.pooled_confusion);
  auto auc = RocAuc(pooled_scores, pooled_labels);
  // AUC is undefined when the pooled labels degenerate to one class; keep
  // the rest of the result usable and report NaN-free 0 in that case.
  result.auc = auc.ok() ? *auc : 0.0;
  return result;
}

}  // namespace roadmine::eval
