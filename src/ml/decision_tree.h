// Binary-target classification decision tree.
//
// This is the paper's primary model: "decision trees, using [a] chi-square
// test on a Boolean target". Design points reproduced from the study:
//   * chi-square split criterion with a significance-level stop (CHAID
//     style), with Gini/entropy alternatives for the ablation bench;
//   * best-first growth under an explicit leaf budget, since the paper
//     reports model size as leaf counts (Tables 3-4) after "a series of
//     modeling tests ... to determine a suitable tree size";
//   * missing values treated as valid data: each split learns a routing
//     direction for missing rows instead of discarding them;
//   * rule extraction, the reason the paper prefers trees ("the potential
//     to extract domain knowledge from the rules").
#ifndef ROADMINE_ML_DECISION_TREE_H_
#define ROADMINE_ML_DECISION_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "ml/common.h"
#include "ml/predictor.h"
#include "util/status.h"

namespace roadmine::exec {
class Executor;
}  // namespace roadmine::exec

namespace roadmine::ml {

class FeatureIndex;
class HistogramIndex;

enum class SplitCriterion {
  kChiSquare,  // Paper's choice: chi-square statistic, p-value stopping.
  kGini,       // CART-style Gini impurity decrease.
  kEntropy,    // C4.5-style information gain.
};

const char* SplitCriterionName(SplitCriterion criterion);

struct DecisionTreeParams {
  SplitCriterion criterion = SplitCriterion::kChiSquare;
  // Hard depth cap (root = depth 0).
  int max_depth = 16;
  // A node needs at least this many rows to be considered for splitting.
  size_t min_samples_split = 40;
  // Each child must keep at least this many rows.
  size_t min_samples_leaf = 15;
  // Best-first leaf budget; 0 = unlimited (grow until stopping rules bite).
  size_t max_leaves = 0;
  // Chi-square stop: do not split when the (Bonferroni-adjusted, if enabled)
  // p-value exceeds this. Ignored for Gini/entropy.
  double significance_level = 0.05;
  // CHAID-style Bonferroni adjustment: multiply the best split's p-value by
  // the number of candidate features before the significance check.
  bool bonferroni_adjust = true;
  // Search numeric splits over a pre-sorted FeatureIndex (ml/feature_index.h)
  // instead of re-sorting each node's rows per attribute. The produced tree
  // is bit-identical either way; this only changes the work done to find it.
  // The legacy per-node-sort path (false) is kept for A/B benching.
  bool use_feature_index = true;
  // Optional pre-built index over the training dataset's feature columns,
  // shared across fits (ensemble members, CV folds, a study sweep). Not
  // owned; only read during Fit. When null and use_feature_index is set,
  // Fit builds a private index. Must cover the fit's features over the
  // same dataset.
  const FeatureIndex* feature_index = nullptr;
  // Search numeric splits over quantile-binned histograms
  // (ml/histogram_index.h) instead of every sorted value: per-node class
  // counts per bin, candidates only at bin upper bounds (actual data
  // values — see the corrected-cut-semantics note there). Takes
  // precedence over use_feature_index for numeric features; categorical
  // features keep their per-level scan, which is already histogram-shaped.
  // When every column's distinct values fit in max_bins the tree equals
  // the exact-greedy one on the training rows bit-for-bit (thresholds
  // differ — bin uppers instead of midpoints — but route identically);
  // with merged bins the candidate set coarsens (DESIGN.md §12).
  bool use_histogram = false;
  // Bins per numeric column for the histogram path (2..65534).
  size_t max_bins = 256;
  // Optional pre-built histogram index shared across fits; same ownership
  // and coverage rules as feature_index. When null and use_histogram is
  // set, Fit bins the fit rows privately.
  const HistogramIndex* histogram_index = nullptr;
  // Optional parallelism for the per-feature split scan and index build
  // (not owned, may be null = serial). Results are bit-identical either way.
  exec::Executor* executor = nullptr;
};

class DecisionTreeClassifier : public Predictor {
 public:
  explicit DecisionTreeClassifier(DecisionTreeParams params = {})
      : params_(params) {}

  // Learns a tree over `rows` of `dataset`. The target column must be
  // binary (see ExtractBinaryLabels); features may be numeric or
  // categorical, with missing values allowed.
  [[nodiscard]] util::Status Fit(const data::Dataset& dataset,
                   const std::string& target_column,
                   const std::vector<std::string>& feature_columns,
                   const std::vector<size_t>& rows);

  // P(class = 1) for one row: the training positive fraction of the reached
  // leaf (Laplace-smoothed).
  double PredictProba(const data::Dataset& dataset, size_t row) const;

  // Hard prediction at the given probability cutoff.
  int Predict(const data::Dataset& dataset, size_t row,
              double cutoff = 0.5) const;

  // Predictor: probabilities for many rows, in order.
  [[nodiscard]] util::Result<std::vector<double>> PredictBatch(
      const data::Dataset& dataset,
      const std::vector<size_t>& rows) const override;
  const char* name() const override { return "decision_tree"; }

  // Reduced-error pruning against a validation set: collapses any subtree
  // whose leaf-majority predictions do not beat the subtree on `rows`.
  // Must be called after Fit; `dataset` must carry the same schema.
  [[nodiscard]] util::Status PruneReducedError(const data::Dataset& dataset,
                                 const std::string& target_column,
                                 const std::vector<size_t>& rows);

  bool fitted() const { return !nodes_.empty(); }
  size_t leaf_count() const;
  size_t node_count() const { return nodes_.size(); }
  int depth() const;

  // Human-readable rules, one line per leaf:
  // "IF f60 <= 42.1 AND surface=chip_seal THEN crash_prone (p=0.83, n=412)".
  std::vector<std::string> ExtractRules() const;

  // Split-gain feature importances over the fitted feature list, normalized
  // to sum to 1 (all-zero when the tree is a single leaf). Quantifies the
  // paper's data-understanding observation that "most road attributes
  // contributed, some in a small way".
  std::vector<std::pair<std::string, double>> FeatureImportances() const;

  // Indented tree dump for debugging/reports.
  std::string ToString() const;

  // Deployment persistence: a stable line-oriented text format carrying
  // the split structure, leaf statistics, and the feature schema. Feature
  // columns are re-resolved against `dataset` on load, so a model trained
  // on one network can score any dataset with the same schema.
  std::string Serialize() const;
  [[nodiscard]] static util::Result<DecisionTreeClassifier> Deserialize(
      const std::string& text, const data::Dataset& dataset);

  // Read-only flat view of one fitted node, exported for model compilers
  // (serve::FlatModel). leaf_value is the Laplace-smoothed positive
  // fraction — exactly what PredictProba returns at that leaf.
  struct NodeView {
    bool is_leaf = true;
    size_t feature = 0;
    double threshold = 0.0;
    std::vector<uint8_t> left_categories;
    bool missing_goes_left = true;
    int left = -1;
    int right = -1;
    double leaf_value = 0.0;
  };
  std::vector<NodeView> ExportNodes() const;
  const std::vector<FeatureRef>& features() const { return features_; }

 private:
  struct Node {
    bool is_leaf = true;
    int depth = 0;
    // Split definition (valid when !is_leaf):
    size_t feature = 0;          // Index into features_.
    double threshold = 0.0;      // Numeric: x <= threshold goes left.
    std::vector<uint8_t> left_categories;  // Categorical: code k goes left
                                           // iff left_categories[k] != 0.
    // Human-readable category sets captured at fit time so rules render
    // without access to the training dataset's dictionaries.
    std::string left_set_desc;
    std::string right_set_desc;
    bool missing_goes_left = true;
    int left = -1;
    int right = -1;
    double split_gain = 0.0;  // Criterion score of the applied split.
    // Node statistics (training rows reaching this node):
    size_t count_negative = 0;
    size_t count_positive = 0;

    size_t total() const { return count_negative + count_positive; }
    double positive_fraction() const {
      // Laplace smoothing keeps probabilities off the 0/1 rails.
      return (static_cast<double>(count_positive) + 1.0) /
             (static_cast<double>(total()) + 2.0);
    }
  };

  // Route one row from `node` one step down. Returns child index.
  int Route(const Node& node, const data::Dataset& dataset, size_t row) const;
  int FindLeaf(const data::Dataset& dataset, size_t row) const;

  DecisionTreeParams params_;
  std::vector<FeatureRef> features_;
  std::vector<Node> nodes_;  // nodes_[0] is the root once fitted.
};

}  // namespace roadmine::ml

#endif  // ROADMINE_ML_DECISION_TREE_H_
