// Adapters from the ml:: classifier facade to eval:: trainers.
//
// Before this helper every bench, example, and study sweep hand-rolled the
// same twelve-line BinaryTrainer lambda (make model, fit, wrap scorer).
// ClassifierTrainer collapses that into one call and routes held-out
// scoring through ml::Predictor::PredictBatch — the unified batch entry
// point — so a model that batches or parallelizes its scoring speeds up
// every evaluation harness at once.
#ifndef ROADMINE_EVAL_TRAINERS_H_
#define ROADMINE_EVAL_TRAINERS_H_

#include <string>
#include <vector>

#include "eval/cross_validation.h"
#include "ml/classifier.h"

namespace roadmine::eval {

// A BinaryTrainer that builds a fresh classifier from `spec` for each
// fold, fits it on the fold's training rows, and scores held-out rows
// through PredictBatch. Spec errors (unknown name) surface when the
// trainer first runs.
//
// Tree specs ("decision_tree", "bagged_trees") whose fits read an
// ml::FeatureIndex (ml::ReadsFeatureIndex) share one lazily-built index
// across all folds trained on the same dataset, instead of re-sorting the feature
// columns per fold. The index is immutable and fold-independent, so this
// preserves the CV determinism contract and changes no results.
BinaryTrainer ClassifierTrainer(ml::ClassifierSpec spec, std::string target,
                                std::vector<std::string> features);

}  // namespace roadmine::eval

#endif  // ROADMINE_EVAL_TRAINERS_H_
