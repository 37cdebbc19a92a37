// Best-first, exact-greedy growth of one binary tree: the engine behind
// the paper's chi-square decision tree and F-test regression tree (and so
// M5 and the bagged ensemble).
//
// The grower owns every part of growth that does not depend on the split
// statistic: resolving the numeric search (a FeatureIndex workspace, the
// per-node sort, or HistogramIndex bins), the per-feature split scan on
// the executor, the categorical prefix scan, and the best-first heap with
// row partitioning. Its only per-learner part is the split criterion
// (tree_growth.cc): a learner passes its params, which select one, and
// turns the GrownNodes into its own node records. This is the split
// between tree model and construction algorithm that xgboost draws with
// its RegTreeUpdater.
//
// Both learners' statistics are (n, Σy, Σy²) sums. For a 0/1 target they
// are the class counts (n rows, Σy positives), so one SplitStats type and
// one missing-value rule serve both.
#ifndef ROADMINE_ML_TREE_GROWTH_H_
#define ROADMINE_ML_TREE_GROWTH_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "ml/common.h"
#include "util/status.h"

namespace roadmine::ml {

struct DecisionTreeParams;
struct RegressionTreeParams;

// Sufficient statistics of a set of target values.
struct SplitStats {
  double n = 0.0;
  double sum = 0.0;
  double sum_sq = 0.0;

  void Add(double y) {
    n += 1.0;
    sum += y;
    sum_sq += y * y;
  }
  void Add(const SplitStats& other) {
    n += other.n;
    sum += other.sum;
    sum_sq += other.sum_sq;
  }
  double mean() const { return n > 0.0 ? sum / n : 0.0; }
  double sse() const {
    return n > 0.0 ? std::max(0.0, sum_sq - sum * sum / n) : 0.0;
  }
};

// The one rule for whether a tree fit reads a FeatureIndex: the indexed
// numeric search is on and the histogram search, which replaces it, is
// off. The grower and every caller that builds an index to share across
// fits (bagging, CV trainers, the study sweep) decide by it.
bool ReadsFeatureIndex(bool use_feature_index, bool use_histogram);

// The one node record of every tree model (decision tree, regression
// tree and so M5, the bagged ensemble's members, GBT): its place in the
// tree and, unless it is a leaf, its split. Each learner derives its node
// from it and adds only its leaf payload and statistics. The root is node
// 0; a split appends its left then its right child, so children always
// follow their parent.
struct TreeNode {
  bool is_leaf = true;
  int depth = 0;
  size_t feature = 0;      // Index into the fit's features.
  double threshold = 0.0;  // Numeric: x <= threshold goes left.
  std::vector<uint8_t> left_categories;  // Categorical: code k goes left
                                         // iff left_categories[k] != 0.
  bool missing_goes_left = true;
  int left = -1;
  int right = -1;

  // Whether the split sends `row` of its feature's column `col` left. A
  // category code the split never saw goes right.
  bool GoesLeft(const data::Column& col, bool numeric, size_t row) const {
    if (col.IsMissing(row)) return missing_goes_left;
    if (numeric) return col.NumericAt(row) <= threshold;
    const size_t code = static_cast<size_t>(col.CodeAt(row));
    return code < left_categories.size() && left_categories[code] != 0;
  }
  // The child that `row` of `dataset` descends to; `features` are the
  // fit's.
  int Child(const std::vector<FeatureRef>& features,
            const data::Dataset& dataset, size_t row) const {
    const FeatureRef& ref = features[feature];
    return GoesLeft(dataset.column(ref.column_index),
                    ref.type == data::ColumnType::kNumeric, row)
               ? left
               : right;
  }
};

// The one descent over fitted node records: the id of the leaf that `row`
// of `dataset` reaches from node 0 of `nodes`, whose split features index
// `features`. When `path` is non-null it is replaced by the ids of every
// node visited, root first and the leaf last. Every tree model's
// per-row prediction, M5's smoothing and reduced-error pruning descend
// through it; serve::FlatModel is the compiled form of the same routing.
template <typename Node>
int FindLeaf(const std::vector<Node>& nodes,
             const std::vector<FeatureRef>& features,
             const data::Dataset& dataset, size_t row,
             std::vector<int>* path = nullptr) {
  if (path != nullptr) path->assign(1, 0);
  int id = 0;
  while (!nodes[static_cast<size_t>(id)].is_leaf) {
    id = nodes[static_cast<size_t>(id)].Child(features, dataset, row);
    if (path != nullptr) path->push_back(id);
  }
  return id;
}

// One node of a grown tree.
struct GrownNode : TreeNode {
  double score = 0.0;  // Criterion score of the applied split.
  SplitStats stats;    // Target values of the node's rows, in fit order.
};

// Grows one tree over `rows` (already checked by CheckFitRows) of
// `dataset` under a learner's `params`, where `target` holds each dataset
// row's target value and `features` are resolved against `dataset`: a
// decision tree by the chi-square, Gini or entropy criterion its params
// select, or a regression tree by the F-test criterion. Fails when a
// shared index in `params` does not cover the features, or when an index
// build or a parallel scan fails. The tree is identical at any executor
// thread count and, for the exact searches, with or without the
// FeatureIndex.
[[nodiscard]] util::Result<std::vector<GrownNode>> GrowTree(
    const data::Dataset& dataset, const std::vector<double>& target,
    const std::vector<FeatureRef>& features, const std::vector<size_t>& rows,
    const DecisionTreeParams& params);
[[nodiscard]] util::Result<std::vector<GrownNode>> GrowTree(
    const data::Dataset& dataset, const std::vector<double>& target,
    const std::vector<FeatureRef>& features, const std::vector<size_t>& rows,
    const RegressionTreeParams& params);

}  // namespace roadmine::ml

#endif  // ROADMINE_ML_TREE_GROWTH_H_
