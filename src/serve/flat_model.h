// Compiled flat models for serving.
//
// CompileModel() lowers any fitted tree model (ml::DecisionTreeClassifier,
// ml::RegressionTree, ml::M5Tree, ml::BaggedTreesClassifier,
// ml::GradientBoostedTrees) into a FlatModel, which scores without
// touching the training objects. It keeps the fitted ml::TreeNode records,
// one vector per tree in member order, each split's feature remapped into
// one feature table shared by all trees, plus each leaf's payload. A tree
// is laid out as every learner fits it: node 0 its root, children after
// their parent. In the model file tree t holds nodes [root t, root t+1):
// the roots start at 0 and ascend, and children stay inside their tree.
//
// Loading (CompileModel or Deserialize) links the trees once: it checks
// each tree's links (ml::CheckTreeLinks) and rejects numeric thresholds
// the block kernel cannot route (NaN, +inf), records each tree's depth
// (and, for M5, each node's parent), and builds a gather plan. The plan
// has one block column per (numeric split feature, missing direction),
// holding the values with NaN gathered as -inf where missing goes left and
// +inf where it goes right, and one per distinct (categorical feature,
// mask, missing direction), holding the split's routing bit as 0.0 (left)
// or 1.0 (right) under threshold 0.5. Every split is then one `value <=
// threshold` test on one column, exactly the source model's routing for
// any threshold that is finite or -inf.
//
// PredictBatch checks its input with ml::CheckPredictInput, then scores
// blocks of up to 64 rows: it gathers the plan's columns for the block,
// then walks each group of eight rows through every tree in member order,
// the eight together, picking each child arithmetically from the
// comparison. Rows outside the groups of eight (all of a one-row request)
// walk alone with a branch per level, which suits a single dependent
// chain. PredictRow is PredictBatch over one row.
//
// Equivalence guarantee: a FlatModel's predictions are bit-identical to
// the source model's PredictBatch, whose per-row descent is ml::FindLeaf,
// on every dataset — routing, Laplace leaf probabilities, ensemble
// averaging order (each row starts from the base score and adds leaf
// values in member order), M5 leaf models and Quinlan smoothing are
// replicated operation-for-operation (test-enforced by
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
#include "ml/tree_growth.h"
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

  // Scores one row (probability for classifiers, value for regressors):
  // PredictBatch(dataset, {row}), with its checks.
  [[nodiscard]] util::Result<double> PredictRow(const data::Dataset& dataset,
                                  size_t row) const;

  // Predictor: scores many rows in order. Checks the split and leaf-model
  // features against `dataset` and every row id (ml::CheckPredictInput;
  // InvalidArgument), then scores 64-row blocks through the gather plan.
  [[nodiscard]] util::Result<std::vector<double>> PredictBatch(
      const data::Dataset& dataset,
      const std::vector<size_t>& rows) const override;
  const char* name() const override;

  Kind kind() const { return kind_; }
  size_t node_count() const;
  size_t tree_count() const { return trees_.size(); }
  bool compiled() const { return !trees_.empty(); }

  // Deployment persistence of the compiled form itself, so a serving
  // process can load the flat trees without the training-side model.
  std::string Serialize() const;
  [[nodiscard]] static util::Result<FlatModel> Deserialize(const std::string& text,
                                             const data::Dataset& dataset);

 private:
  friend class FlatModelCompiler;  // Builds the trees during CompileModel().
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

  static constexpr int32_t kInvalid = -1;

  // One node: the source model's record, its split feature indexing
  // features_, plus its leaf payload (probability, mean or weight).
  struct Node : ml::TreeNode {
    double leaf_value = 0.0;
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

  // Run once the trees are filled: checks each tree's links
  // (ml::CheckTreeLinks) and rejects any numeric split whose threshold is
  // NaN or +inf, records each tree's depth and, for M5, each node's
  // parent, and builds the gather plan and the kernel steps.
  [[nodiscard]] util::Status Link();

  // Fills rows [0, n) of every plan column (`values[c * stride + i]`)
  // from dataset rows `block[0, n)`.
  void Gather(const data::Dataset& dataset, const size_t* block, size_t n,
              size_t stride, double* values) const;

  // Walks eight rows of a gathered 64-row-stride block, starting at
  // `lanes`, through every tree scored: adds each tree's leaf payload to
  // sum[0, 8) and leaves the last tree's kernel leaves in leaf[0, 8).
  void DescendGroup(size_t trees, const double* lanes, double* sum,
                    int32_t* leaf) const;

  // M5 leaf linear model at `row` (NaN features skipped), or the leaf mean.
  double LeafModel(size_t leaf, const data::Dataset& dataset,
                   size_t row) const;

  Kind kind_ = Kind::kDecisionTree;

  // Feature table shared by all trees (deduplicated by column name).
  std::vector<ml::FeatureRef> features_;

  // The trees in member order, node 0 each one's root, and each tree's
  // depth in edges (set by Link()).
  std::vector<std::vector<Node>> trees_;
  std::vector<int32_t> depth_;

  // Gather plan and kernel (set by Link()): the block columns and their
  // trimmed category masks; the kernel steps with each tree's root, and
  // per kernel step its leaf payload (0 for a split) and its node in its
  // tree.
  std::vector<GatherColumn> gather_;
  std::vector<uint64_t> gather_masks_;
  std::vector<KernelStep> kernel_;
  std::vector<int32_t> kernel_root_;
  std::vector<double> kernel_leaf_;
  std::vector<int32_t> kernel_node_;

  // M5 extras (empty for the other kinds), indexed by node of its tree.
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
