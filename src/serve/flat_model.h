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
// nodes that do not form trees and numeric thresholds the block kernel
// cannot route (NaN, +inf), records each tree's depth (and, for M5, each
// node's parent), and builds a gather plan. The plan has one block column
// per (numeric split feature, missing direction), holding the values with
// NaN gathered as -inf where missing goes left and +inf where it goes
// right, and one per distinct (categorical feature, mask, missing
// direction), holding the split's routing bit as 0.0 (left) or 1.0
// (right) under threshold 0.5. Every split is then one `value <=
// threshold` test on one column, exactly the source model's routing for
// any threshold that is finite or -inf.
//
// PredictBatch scores blocks of up to 64 rows: it gathers the plan's
// columns for the block, then walks each group of eight rows through
// every tree in member order, the eight together, picking each child
// arithmetically from the comparison. Rows outside the groups of eight
// (all of a one-row request) walk alone with a branch per level, which
// suits a single dependent chain. PredictRow descends one row with
// per-node branches over the source routing rules (FindLeaf), the
// independent reference. Both reject row ids past the dataset.
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
  // latency-sensitive one-off scoring. A row past the dataset is
  // InvalidArgument.
  [[nodiscard]] util::Result<double> PredictRow(const data::Dataset& dataset,
                                  size_t row) const;

  // Predictor: scores many rows in order. Resolves the feature schema
  // against `dataset` once per batch, rejects any row past the dataset
  // (InvalidArgument), then scores 64-row blocks through the gather plan.
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
  // Tests set thresholds that no model file or training run can carry.
  friend class FlatModelTestPeer;
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

  // One node of the pool, as the model file describes it.
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

  // One node as the block kernel reads it, in kernel order: breadth-first
  // per tree, each split's children adjacent (left, then right). A row
  // goes to `left` when its value in the block column at `offset` is <=
  // threshold, else to `left + 1`. A leaf's threshold is +inf and its
  // `left` is itself, so every row stays.
  struct KernelStep {
    double threshold = 0.0;
    int32_t offset = 0;  // Block column index * 64, the kernel's stride.
    int32_t left = 0;
  };

  // One column of the gathered block: split feature `slot`'s values with
  // NaN resolved to `missing_left` (numeric), or one categorical split's
  // routing bit. A categorical column's left-category mask is
  // `mask_words` words at `mask_offset` in gather_masks_, trimmed after
  // its highest set bit but at least one word long.
  struct GatherColumn {
    int32_t slot = 0;
    uint8_t missing_left = 1;
    int32_t mask_offset = kInvalid;  // kInvalid = numeric.
    int32_t mask_words = 0;
  };

  // Run once the pool is filled: rejects any node reached twice from the
  // roots (a cycle, or a node shared between parents or trees) and any
  // numeric split whose threshold is NaN or +inf, records each tree's
  // depth and, for M5, each node's parent, and builds the gather plan
  // and the kernel steps.
  [[nodiscard]] util::Status Link();

  // Categorical routing at split `step` (negative code = missing).
  bool CategoryGoesLeft(const Step& step, int32_t code) const;

  // Root-to-leaf descent of tree `t` for one dataset row, one branch per
  // node; appends visited node ids to `path` when it is non-null.
  size_t FindLeaf(size_t t, const ResolvedColumns& columns, size_t row,
                  std::vector<size_t>* path) const;

  // Fills rows [0, n) of every plan column (`values[c * stride + i]`)
  // from dataset rows `block[0, n)`.
  void Gather(const ResolvedColumns& columns, const size_t* block, size_t n,
              size_t stride, double* values) const;

  // Walks eight rows of a gathered 64-row-stride block, starting at
  // `lanes`, through every tree scored: adds each tree's leaf payload to
  // sum[0, 8) and leaves the last tree's kernel leaves in leaf[0, 8).
  void DescendGroup(size_t trees, const double* lanes, double* sum,
                    int32_t* leaf) const;

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

  // Gather plan and kernel (set by Link()): the block columns and their
  // trimmed category masks; the kernel steps with each tree's root, and
  // per kernel step its leaf payload (0 for a split) and its node in
  // steps_.
  std::vector<GatherColumn> gather_;
  std::vector<uint64_t> gather_masks_;
  std::vector<KernelStep> kernel_;
  std::vector<int32_t> kernel_root_;
  std::vector<double> kernel_leaf_;
  std::vector<int32_t> kernel_node_;

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
