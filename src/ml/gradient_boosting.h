// Gradient-boosted trees on binned features (logistic loss).
//
// The paper deliberately avoided boosting during discovery (see
// ml/bagging.h for the quote); this learner is the production-scale
// counterpart the ROADMAP calls for: second-order gradient boosting in
// the xgboost mold, trained entirely over bin codes — per-node
// gradient/hessian histograms, sibling subtraction (build the smaller
// child, derive the larger as parent minus smaller), and a per-feature
// split scan merged in feature order. Every numeric threshold is a bin
// upper bound (an actual data value), so training-time code routing and
// serving-time `x <= threshold` routing agree exactly on the training
// rows (the corrected cut semantics, DESIGN.md §12).
//
// Fit and FitPaged drive one growth engine. It keeps every per-row array
// by fit position (Fit's `rows` order, or the stream's row order), grows
// each tree level by level, and runs each level as two executor batches:
// one task per split routing its parent's positions (and summing the
// children's G/H), then one task per (sibling pair x feature) that
// accumulates the histogram and scans the split. Each histogram task
// adds its rows in position order into a private copy of its feature's
// slot range.
//
// Determinism: row subsampling draws from Rng::SplitSeed child stream 2t
// and column subsampling from stream 2t+1 of tree t, per-feature split
// candidates are computed independently and merged with a strict
// comparison in feature order, and every sum runs in ascending position
// order — the fitted ensemble is bit-identical at any thread count,
// grain and chunking.
#ifndef ROADMINE_ML_GRADIENT_BOOSTING_H_
#define ROADMINE_ML_GRADIENT_BOOSTING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/row_source.h"
#include "ml/common.h"
#include "ml/predictor.h"
#include "ml/tree_growth.h"
#include "util/status.h"

namespace roadmine::exec {
class Executor;
}  // namespace roadmine::exec

namespace roadmine::ml {

class HistogramIndex;

struct GradientBoostedTreesParams {
  // Boosting rounds (one tree per round; rounds whose row sample comes up
  // empty append no tree).
  size_t num_trees = 80;
  // Hard depth cap per tree (root = depth 0). Boosted trees stay shallow;
  // depth carries the interaction order, not the model capacity.
  int max_depth = 5;
  // Shrinkage applied to every leaf weight.
  double learning_rate = 0.15;
  // L2 penalty on leaf weights (xgboost lambda). Keeps leaf values and
  // gain denominators finite even on saturated nodes.
  double lambda = 1.0;
  // Minimum gain for a split to happen (strict: gain must exceed this).
  double gamma = 0.0;
  // Minimum hessian sum on each side of a split.
  double min_child_weight = 1.0;
  // Fraction of training rows drawn (Bernoulli) per tree.
  double subsample = 1.0;
  // Fraction of feature columns drawn (without replacement) per tree.
  double colsample = 1.0;
  // Bins per numeric column when Fit builds its own HistogramIndex.
  size_t max_bins = 256;
  // Tree t draws rows from SplitSeed child stream 2t and columns from
  // 2t+1, so the ensemble is identical at any thread count.
  uint64_t seed = 61;
  // Optional pre-built binning shared across fits (CV folds, studies).
  // Not owned; must cover the fit's features over the same dataset.
  const HistogramIndex* histogram_index = nullptr;
  // Optional parallelism for the growth engine's per-level batches (not
  // owned, may be null = serial). Bit-identical either way.
  exec::Executor* executor = nullptr;
};

// Knobs for FitPaged (see below). Per row the paged fit keeps about 37 B
// — margin (8 B), gradient and hessian (16 B), label (1 B), leaf id
// (4 B) and position lists for two tree levels (8 B) — and bin codes are
// the one optional cache.
struct PagedFitOptions {
  // Budget for the bin-code cache. When the full code matrix
  // (features x rows x 2 bytes) fits, the source is binned once and every
  // training sweep runs from RAM; otherwise each sweep re-reads and
  // re-bins the stream — identical results, more passes.
  size_t code_cache_bytes = 256ull << 20;
};

class GradientBoostedTrees : public Predictor {
 public:
  explicit GradientBoostedTrees(GradientBoostedTreesParams params = {})
      : params_(params) {}

  // Trains on `rows` in the order given; a row listed twice is two
  // training rows, each with its own margin.
  [[nodiscard]] util::Status Fit(const data::Dataset& dataset,
                                 const std::string& target_column,
                                 const std::vector<std::string>& feature_columns,
                                 const std::vector<size_t>& rows);

  // Out-of-core fit: trains the same ensemble from a chunked RowSource
  // (a PagedDataset page stream, a CSV reader) without materializing the
  // rows. Numeric cuts come from a streaming QuantileSketch that is exact
  // — and therefore the fitted model bit-identical to Fit over all rows —
  // whenever each numeric feature has at most 64 Ki distinct values; past
  // that the sketch compacts deterministically and the paged model is
  // reproducible but no longer pinned to the in-RAM one. The trees grow
  // in the same engine as Fit's, fed one block of codes per chunk when
  // the codes are not cached. params_.histogram_index is ignored (the
  // binning is derived from the stream itself).
  [[nodiscard]] util::Status FitPaged(
      data::RowSource& source, const std::string& target_column,
      const std::vector<std::string>& feature_columns,
      const PagedFitOptions& options = {});

  // sigmoid(base + sum of per-tree leaf weights).
  double PredictProba(const data::Dataset& dataset, size_t row) const;
  int Predict(const data::Dataset& dataset, size_t row,
              double cutoff = 0.5) const {
    return PredictProba(dataset, row) >= cutoff ? 1 : 0;
  }

  // Predictor: probabilities for many rows, in order.
  [[nodiscard]] util::Result<std::vector<double>> PredictBatch(
      const data::Dataset& dataset,
      const std::vector<size_t>& rows) const override;
  const char* name() const override { return "gradient_boosted_trees"; }

  bool fitted() const { return !trees_.empty(); }
  size_t tree_count() const { return trees_.size(); }
  // Total leaves across the ensemble (the model-size figure the study
  // tables report for the other tree families).
  size_t total_leaves() const;
  // Log-odds prior added to every margin before the trees.
  double base_score() const { return base_score_; }
  const std::vector<FeatureRef>& features() const { return features_; }

  // One fitted node: the split record every tree model shares, plus the
  // leaf weight, shrinkage applied — a margin contribution, not a
  // probability. `depth` stays 0, and a leaf's `feature` 0: the model
  // format carries neither.
  struct Node : TreeNode {
    double leaf_value = 0.0;
  };
  // Tree t's nodes (t < tree_count()), node 0 its root.
  const std::vector<Node>& tree(size_t t) const { return trees_[t]; }

  // Deployment persistence ("roadmine-gbt v1"): base score, feature
  // schema, then each tree's node block. %.17g doubles round-trip
  // bit-for-bit.
  std::string Serialize() const;
  [[nodiscard]] static util::Result<GradientBoostedTrees> Deserialize(
      const std::string& text, const data::Dataset& dataset);

 private:
  // The growth engine Fit and FitPaged share (gradient_boosting.cc).
  class Grower;

  GradientBoostedTreesParams params_;
  std::vector<FeatureRef> features_;
  double base_score_ = 0.0;
  std::vector<std::vector<Node>> trees_;
};

}  // namespace roadmine::ml

#endif  // ROADMINE_ML_GRADIENT_BOOSTING_H_
