// Compiled flat models for serving.
//
// Training-side trees (ml::DecisionTreeClassifier, ml::RegressionTree,
// ml::M5Tree, ml::BaggedTreesClassifier, ml::GradientBoostedTrees) store
// nodes as per-node structs with heap-allocated category masks, which is
// the right shape for growing but chases pointers at scoring time.
// CompileModel() lowers any of them into a FlatModel: one contiguous pool
// of packed step records (threshold, feature slot, children indexed by
// the routing bit, missing direction, category-mask reference into a
// shared bit pool) plus leaf payloads, traversed without touching the
// training objects. A leaf's step points to itself.
//
// Loading (CompileModel or Deserialize) links the pool once: it rejects
// nodes that do not form trees and records each tree's depth (and, for
// M5, each node's parent). PredictBatch then scores blocks of up to 64
// rows: it gathers each split feature's values for the block column by
// column, and for each tree in member order advances every row one level
// at a time for that tree's depth, picking the child arithmetically from
// (v <= threshold) | (isnan(v) & missing_left), four rows in flight.
// Categorical splits test their mask behind a rarely taken branch. Rows
// outside the groups of four (all of a one-row request) walk alone with a
// branch per node, which suits a single dependent chain. PredictRow
// descends one row with per-node branches (FindLeaf), the independent
// reference.
//
// Equivalence guarantee: a FlatModel's predictions are bit-identical to
// the source model's PredictBatch on every dataset — routing, Laplace leaf
// probabilities, ensemble averaging order (each row starts from the base
// score and adds leaf values in member order), M5 leaf models and Quinlan
// smoothing are replicated operation-for-operation (test-enforced by
// serve_flat_model_test).
#ifndef ROADMINE_SERVE_FLAT_MODEL_H_
#define ROADMINE_SERVE_FLAT_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "ml/bagging.h"
#include "ml/common.h"
#include "ml/decision_tree.h"
#include "ml/gradient_boosting.h"
#include "ml/m5_tree.h"
#include "ml/predictor.h"
#include "ml/regression_tree.h"
#include "util/status.h"

namespace roadmine::serve {

class FlatModel : public ml::Predictor {
 public:
  enum class Kind {
    kDecisionTree,    // Leaf payload: Laplace-smoothed P(positive).
    kBaggedTrees,     // Mean of member leaf probabilities, member order.
    kRegressionTree,  // Leaf payload: training mean.
    kM5Tree,          // Leaf linear models + Quinlan smoothing.
    kGbt,             // sigmoid(base score + sum of member leaf weights).
  };

  FlatModel() = default;

  // Scores one row (probability for classifiers, value for regressors).
  // The dataset must pass the same schema check as PredictBatch; this
  // single-row path re-resolves columns per call and exists for
  // latency-sensitive one-off scoring.
  [[nodiscard]] util::Result<double> PredictRow(const data::Dataset& dataset,
                                  size_t row) const;

  // Predictor: scores many rows in order. Resolves the feature schema
  // against `dataset` once per batch, then scores 64-row blocks through
  // the step pool.
  [[nodiscard]] util::Result<std::vector<double>> PredictBatch(
      const data::Dataset& dataset,
      const std::vector<size_t>& rows) const override;
  const char* name() const override;

  Kind kind() const { return kind_; }
  size_t node_count() const { return steps_.size(); }
  size_t tree_count() const { return roots_.size(); }
  bool compiled() const { return !roots_.empty(); }

  // Deployment persistence of the compiled form itself, so a serving
  // process can load the flat pool without the training-side model.
  std::string Serialize() const;
  [[nodiscard]] static util::Result<FlatModel> Deserialize(const std::string& text,
                                             const data::Dataset& dataset);

 private:
  friend class FlatModelCompiler;  // Builds the pools during CompileModel().
  friend util::Result<FlatModel> CompileModel(
      const ml::DecisionTreeClassifier& model);
  friend util::Result<FlatModel> CompileModel(
      const ml::BaggedTreesClassifier& model);
  friend util::Result<FlatModel> CompileModel(const ml::RegressionTree& model);
  friend util::Result<FlatModel> CompileModel(const ml::M5Tree& model);
  friend util::Result<FlatModel> CompileModel(
      const ml::GradientBoostedTrees& model);

  // Feature tables resolved against a scoring dataset (name + type checked
  // at each stored column index), done once per batch.
  struct ResolvedColumns {
    std::vector<const data::Column*> split_columns;  // Parallel to features_.
    std::vector<const data::Column*> lm_columns;  // Parallel to lm_features_.
  };
  [[nodiscard]] util::Result<ResolvedColumns> ResolveColumns(
      const data::Dataset& dataset) const;

  static constexpr int32_t kInvalid = -1;

  // One node of the pool, packed for the block descent.
  struct Step {
    double threshold = 0.0;           // Numeric split threshold.
    int32_t child[2] = {0, 0};        // {right, left}; a leaf's are itself.
    int32_t slot = 0;                 // Index into features_ (0 for a leaf).
    int32_t mask_offset = kInvalid;   // Word offset into mask_words_;
                                      // kInvalid = numeric split or leaf.
    int32_t mask_nbits = 0;           // Category-mask width in bits.
    uint8_t missing_left = 1;         // Missing value routing.
    uint8_t leaf = 0;                 // 1 = leaf; its payload is leaf_value_.
  };

  // Run once the pool is filled: rejects any node reached twice from the
  // roots (a cycle, or a node shared between parents or trees), and
  // records each tree's depth and, for M5, each node's parent.
  [[nodiscard]] util::Status Link();

  // Categorical routing at split `step` (negative code = missing).
  bool CategoryGoesLeft(const Step& step, int32_t code) const;

  // Root-to-leaf descent of tree `t` for one dataset row, one branch per
  // node; appends visited node ids to `path` when it is non-null.
  size_t FindLeaf(size_t t, const ResolvedColumns& columns, size_t row,
                  std::vector<size_t>* path) const;

  // Routing bit of split `step` for row `i` of a gathered block
  // (`values[slot * stride + i]`), without a data-dependent branch for
  // numeric splits.
  int GoesLeft(const Step& step, const double* values, size_t stride,
               size_t i) const;

  // Advances rows [0, n) of a gathered block, `n` a multiple of four,
  // through tree `t`, leaving each row's leaf in `node`.
  void DescendBlock(size_t t, const double* values, size_t stride, size_t n,
                    int32_t* node) const;

  // Walks row `i` of a gathered block alone to its leaf in tree `t`, with
  // a branch per node.
  int32_t WalkRow(size_t t, const double* values, size_t stride,
                  size_t i) const;

  // M5 leaf linear model at `row` (NaN features skipped), or the leaf mean.
  double LeafModel(size_t leaf, const ResolvedColumns& columns,
                   size_t row) const;

  Kind kind_ = Kind::kDecisionTree;

  // Feature table shared by all trees (deduplicated by column name).
  std::vector<ml::FeatureRef> features_;

  // Node pool, one step per node across all trees; children are absolute
  // pool indices.
  std::vector<Step> steps_;
  std::vector<double> leaf_value_;     // Probability / mean payload.
  std::vector<uint64_t> mask_words_;   // Packed left-category bitsets.

  // Per-tree root offsets into the node pool, in member order, and each
  // tree's depth in edges (set by Link()).
  std::vector<int32_t> roots_;
  std::vector<int32_t> depth_;

  // M5 extras (empty for the other kinds).
  std::vector<double> node_mean_;      // Per-node training mean.
  std::vector<double> node_n_;         // Per-node training count (as double).
  std::vector<int32_t> lm_offset_;     // Offset into lm_pool_; kInvalid = none.
  std::vector<double> lm_pool_;        // [intercept, w_0..w_{d-1}] per model.
  std::vector<ml::FeatureRef> lm_features_;  // Numeric features, model order.
  std::vector<int32_t> parent_;        // Per-node parent; kInvalid = root.
  double smoothing_ = 0.0;

  // GBT extra: the log-odds prior under the leaf-weight sum (0 otherwise).
  double base_score_ = 0.0;
};

// Compiles a fitted model into its flat form. Fails on unfitted models.
[[nodiscard]] util::Result<FlatModel> CompileModel(const ml::DecisionTreeClassifier& model);
[[nodiscard]] util::Result<FlatModel> CompileModel(const ml::BaggedTreesClassifier& model);
[[nodiscard]] util::Result<FlatModel> CompileModel(const ml::RegressionTree& model);
[[nodiscard]] util::Result<FlatModel> CompileModel(const ml::M5Tree& model);
[[nodiscard]] util::Result<FlatModel> CompileModel(const ml::GradientBoostedTrees& model);

}  // namespace roadmine::serve

#endif  // ROADMINE_SERVE_FLAT_MODEL_H_
