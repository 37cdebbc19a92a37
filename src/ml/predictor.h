// The unified scoring interface every roadmine model implements.
//
// Before this interface existed, every model family exposed its own batch
// call shape (PredictProbaMany, PredictMany, a Status-out-parameter
// PredictProbaBatch) and deployment code took a per-row std::function
// hook. Predictor collapses all of them into one batch-first contract,
// and is the only model type deployment accepts:
//
//   * PredictBatch scores many rows in one call and returns the scores as
//     a util::Result — classifiers yield P(positive), regressors yield the
//     predicted target value;
//   * scoring layers (eval harnesses, serve::ScoringService, the
//     works-program engine core::BuildWorksProgramPaged and its in-RAM
//     entry point core::BuildWorksProgram) hold a `const Predictor&` and
//     never care which concrete family is behind it;
//   * concrete models stay value types with non-virtual hot paths; the
//     virtual call happens once per batch, not once per row.
#ifndef ROADMINE_ML_PREDICTOR_H_
#define ROADMINE_ML_PREDICTOR_H_

#include <vector>

#include "data/dataset.h"
#include "util/status.h"

namespace roadmine::ml {

class Predictor {
 public:
  virtual ~Predictor() = default;

  // Scores `rows` of `dataset` in order: one value per entry. Binary
  // classifiers return P(positive); regression models return the predicted
  // target. Fails with FailedPrecondition when the model is unfitted, and
  // with InvalidArgument when the dataset does not carry every fitted
  // column, by name and type, at its fitted index, or when a row id is
  // past the dataset (an empty list is valid). Every implementation checks
  // this before it reads a row; the learners' per-row PredictProba and
  // Predict calls check nothing.
  [[nodiscard]] virtual util::Result<std::vector<double>> PredictBatch(
      const data::Dataset& dataset, const std::vector<size_t>& rows) const = 0;

  // Stable model-type identifier, e.g. "decision_tree".
  virtual const char* name() const = 0;
};

}  // namespace roadmine::ml

#endif  // ROADMINE_ML_PREDICTOR_H_
