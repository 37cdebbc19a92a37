// M5 model tree: a variance-reduction regression tree whose leaves carry
// ridge-regularized linear models over the numeric features (Quinlan 1992),
// with optional leaf-toward-root smoothing. The paper lists M5 among the
// supporting algorithms whose efficiency trends match the decision trees.
#ifndef ROADMINE_ML_M5_TREE_H_
#define ROADMINE_ML_M5_TREE_H_

#include <optional>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "ml/common.h"
#include "ml/predictor.h"
#include "ml/regression_tree.h"
#include "util/status.h"

namespace roadmine::ml {

struct M5TreeParams {
  // Parameters of the structural regression tree, including its
  // FeatureIndex settings (see RegressionTreeParams).
  RegressionTreeParams tree;
  // Ridge penalty for the leaf linear models, relative to the mean
  // diagonal of X^T X (scale-invariant shrinkage).
  double ridge = 1e-3;
  // Quinlan smoothing constant; 0 disables smoothing.
  double smoothing = 15.0;
};

class M5Tree : public Predictor {
 public:
  explicit M5Tree(M5TreeParams params = {})
      : params_(params), structure_(params_.tree) {}

  // Grows the structural tree, then fits a ridge model per leaf on the
  // numeric features (intercept-only when a leaf is too small, the normal
  // equations are ill-conditioned or the solved model is not finite).
  [[nodiscard]] util::Status Fit(const data::Dataset& dataset,
                   const std::string& target_column,
                   const std::vector<std::string>& feature_columns,
                   const std::vector<size_t>& rows);

  double Predict(const data::Dataset& dataset, size_t row) const;

  // Predictor: smoothed leaf-model predictions for many rows, in order.
  [[nodiscard]] util::Result<std::vector<double>> PredictBatch(
      const data::Dataset& dataset,
      const std::vector<size_t>& rows) const override;
  const char* name() const override { return "m5_tree"; }

  bool fitted() const { return structure_.fitted(); }
  size_t leaf_count() const { return structure_.leaf_count(); }
  const RegressionTree& structure() const { return structure_; }

  // A leaf's linear model over numeric_features().
  struct LeafModel {
    double intercept = 0.0;
    std::vector<double> weights;  // Parallel to numeric_features().
    size_t count = 0;             // Training rows it was solved on.
  };
  // The linear model of structure node `node_id`, or null when the node
  // predicts its training mean (as every non-leaf and every leaf too
  // small or ill-conditioned for a model does).
  const LeafModel* leaf_model(size_t node_id) const {
    return node_id < leaf_models_.size() && leaf_models_[node_id]
               ? &*leaf_models_[node_id]
               : nullptr;
  }
  const std::vector<FeatureRef>& numeric_features() const {
    return numeric_features_;
  }
  double smoothing() const { return params_.smoothing; }

  // Deployment persistence: leaf models plus the embedded structure tree.
  std::string Serialize() const;
  [[nodiscard]] static util::Result<M5Tree> Deserialize(const std::string& text,
                                          const data::Dataset& dataset);

 private:
  M5TreeParams params_;
  RegressionTree structure_;
  std::vector<FeatureRef> numeric_features_;
  // Node index in `structure_` -> model; empty entries fall back to the
  // structural node mean.
  std::vector<std::optional<LeafModel>> leaf_models_;
};

}  // namespace roadmine::ml

#endif  // ROADMINE_ML_M5_TREE_H_
