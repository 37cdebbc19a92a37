// k-fold cross-validation for binary scorers. The paper runs its
// supporting models (logistic regression, neural networks, naive Bayes)
// "configured with 10 times cross-validation"; this harness reproduces
// that protocol for any model exposing a probability scorer.
//
// Determinism contract: for a fixed seed, the CrossValidationResult is
// bit-identical whether folds run serially or on any executor thread
// count. Fold membership is drawn before any fold trains, each fold's
// work depends only on its own inputs, and pooled metrics merge in fold
// order after all folds complete. Trainers may share immutable pre-built
// state across folds (e.g. the ml::FeatureIndex a ClassifierTrainer
// builds once per dataset) — read-only inputs that do not depend on fold
// membership keep the contract intact.
#ifndef ROADMINE_EVAL_CROSS_VALIDATION_H_
#define ROADMINE_EVAL_CROSS_VALIDATION_H_

#include <functional>
#include <vector>

#include "data/dataset.h"
#include "eval/binary_metrics.h"
#include "eval/confusion.h"
#include "util/rng.h"
#include "util/status.h"

namespace roadmine::exec {
class Executor;
}  // namespace roadmine::exec

namespace roadmine::eval {

// Scores many rows in one call: P(positive) for each dataset row, in
// order. Mirrors ml::Predictor::PredictBatch, the unified batch entry
// point.
using BatchScorer = std::function<util::Result<std::vector<double>>(
    const std::vector<size_t>& rows)>;

// What a trainer hands back for one fold: a batch scorer, which the
// harness calls once per held-out fold.
class FoldScorer {
 public:
  explicit FoldScorer(BatchScorer batch) : batch_(std::move(batch)) {}

  // Scores `rows` in order. A scorer that returns a different number of
  // scores is an InternalError.
  util::Result<std::vector<double>> Score(
      const std::vector<size_t>& rows) const;

 private:
  BatchScorer batch_;
};

// Trains on `train_rows` of `dataset` and returns a scorer for arbitrary
// rows of the same dataset.
using BinaryTrainer = std::function<util::Result<FoldScorer>(
    const data::Dataset& dataset, const std::vector<size_t>& train_rows)>;

struct CrossValidationResult {
  // Confusion pooled over all held-out folds (the WEKA convention).
  ConfusionMatrix pooled_confusion;
  BinaryAssessment assessment;  // Computed from the pooled confusion.
  // AUC over all pooled held-out scores.
  double auc = 0.0;
  // Per-fold assessments for variance inspection.
  std::vector<BinaryAssessment> per_fold;
};

struct CrossValidationOptions {
  size_t folds = 10;
  double cutoff = 0.5;
  bool stratified = true;
  uint64_t seed = 97;
  // Optional executor: folds train and score concurrently when set. The
  // result is bit-identical to a serial run (not owned, may be null).
  exec::Executor* executor = nullptr;
  // Invoked after each fold completes with (folds_done, folds_total).
  // Long sweeps (e.g. a 10-fold x 7-threshold Bayes sweep) surface
  // progress through this instead of printing. May be empty. Under an
  // executor the callback fires from worker threads (serialized, counts
  // monotonic) — folds_done is a completion count, not a fold index.
  std::function<void(size_t folds_done, size_t folds_total)> progress;
};

// Runs k-fold CV of `trainer` on `dataset`. Errors propagate from fold
// construction or training; with concurrent folds the lowest-numbered
// fold's error is reported, matching a serial run.
util::Result<CrossValidationResult> CrossValidateBinary(
    const data::Dataset& dataset, const std::string& target_column,
    const BinaryTrainer& trainer, const CrossValidationOptions& options = {});

}  // namespace roadmine::eval

#endif  // ROADMINE_EVAL_CROSS_VALIDATION_H_
