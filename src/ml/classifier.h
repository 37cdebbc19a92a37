// A polymorphic facade over the binary classifiers.
//
// The concrete models keep their value-type APIs (no virtual dispatch in
// the hot loops); this facade exists for config-driven call sites — "run
// whatever model the experiment file names" — in benches, examples, and
// downstream deployments.
//
// Scoring goes through the ml::Predictor contract: PredictBatch is the
// one batch entry point every eval/ harness, bench, and deployment uses,
// so a model that can amortize per-call overhead (encoder lookups,
// ensemble traversal) or shard the batch across an executor overrides one
// method and every caller benefits.
#ifndef ROADMINE_ML_CLASSIFIER_H_
#define ROADMINE_ML_CLASSIFIER_H_

#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "ml/bagging.h"
#include "ml/decision_tree.h"
#include "ml/gradient_boosting.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"
#include "ml/neural_net.h"
#include "ml/predictor.h"
#include "util/status.h"

namespace roadmine::ml {

class BinaryClassifier : public Predictor {
 public:
  [[nodiscard]] virtual util::Status Fit(const data::Dataset& dataset,
                           const std::string& target_column,
                           const std::vector<std::string>& feature_columns,
                           const std::vector<size_t>& rows) = 0;

  // P(positive) for one row. The per-row call is the unchecked hot path:
  // it trusts that `dataset` carries the fitted schema and that `row` is
  // inside it. PredictBatch, which every implementation forwards to the
  // concrete model's batch path, checks both (see ml::Predictor).
  virtual double PredictProba(const data::Dataset& dataset,
                              size_t row) const = 0;

  // Probability-typed alias of PredictBatch, kept because classifier call
  // sites read better asking for probabilities.
  [[nodiscard]] util::Result<std::vector<double>> PredictProbaBatch(
      const data::Dataset& dataset, const std::vector<size_t>& rows) const {
    return PredictBatch(dataset, rows);
  }

  // Hard prediction at `cutoff`; unchecked, like PredictProba.
  int Predict(const data::Dataset& dataset, size_t row,
              double cutoff = 0.5) const {
    return PredictProba(dataset, row) >= cutoff ? 1 : 0;
  }
};

// Known classifier names (the factory vocabulary):
//   "decision_tree", "naive_bayes", "logistic_regression", "neural_net",
//   "bagged_trees", "gbt".
const std::vector<std::string>& KnownClassifierNames();

// A declarative model recipe: the factory name plus per-model parameters
// and an optional seed override. Experiment drivers (study sweeps, bench
// tables, the model zoo) build models from specs instead of hand-wiring
// concrete types, so swapping or re-tuning a model is a data edit.
struct ClassifierSpec {
  std::string name;

  // Per-model parameter bundles; only the one matching `name` is used
  // ("bagged_trees" also reads `bagged_trees.tree`).
  DecisionTreeParams decision_tree;
  NaiveBayesParams naive_bayes;
  LogisticRegressionParams logistic_regression;
  NeuralNetParams neural_net;
  BaggedTreesParams bagged_trees;
  GradientBoostedTreesParams gbt;

  // When nonzero, overrides the seed of the stochastic models
  // (neural_net, bagged_trees, gbt); zero keeps the bundle's own seed.
  uint64_t seed = 0;
};

// Convenience literal: a spec with `name` and all-default parameters.
ClassifierSpec Spec(std::string name);

// Builds a classifier from a spec; errors on an unknown name.
[[nodiscard]] util::Result<std::unique_ptr<BinaryClassifier>> MakeBinaryClassifier(
    const ClassifierSpec& spec);

// Thin wrapper over the spec overload: default parameters by name.
[[nodiscard]] util::Result<std::unique_ptr<BinaryClassifier>> MakeBinaryClassifier(
    const std::string& name);

}  // namespace roadmine::ml

#endif  // ROADMINE_ML_CLASSIFIER_H_
