// Interval-target regression tree.
//
// Mirrors the paper's second tree family: "regression trees, using the
// f-test on a target configured as interval, to obtain the coefficient of
// determination (r-squared) ... Interval models tended to be more accurate
// but with less compact models." Splits maximize the variance reduction
// (SSE decrease); an F test of the two-group means gates each split, and
// leaf predictions are training means.
#ifndef ROADMINE_ML_REGRESSION_TREE_H_
#define ROADMINE_ML_REGRESSION_TREE_H_

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

struct RegressionTreeParams {
  int max_depth = 16;
  size_t min_samples_split = 40;
  size_t min_samples_leaf = 15;
  // Best-first leaf budget; 0 = unlimited.
  size_t max_leaves = 0;
  // F-test stop: reject splits whose p-value exceeds this.
  double significance_level = 0.05;
  // Search numeric splits over a pre-sorted FeatureIndex. Regression
  // statistics are order-sensitive double sums, so the indexed path is
  // additionally gated on the fit rows being strictly ascending (the only
  // case where it provably matches the legacy accumulation order); other
  // row sets silently use the legacy per-node-sort path. Those include
  // the shuffled train rows of data::StratifiedTrainValidationSplit, so
  // every core::Study regression-tree and M5 fit takes the legacy path.
  // Trees are bit-identical either way.
  bool use_feature_index = true;
  // Optional shared pre-built index; see DecisionTreeParams::feature_index.
  const FeatureIndex* feature_index = nullptr;
  // Optional parallelism for the per-feature split scan (not owned, may be
  // null = serial). Results are bit-identical either way.
  exec::Executor* executor = nullptr;
};

class RegressionTree : public Predictor {
 public:
  explicit RegressionTree(RegressionTreeParams params = {}) : params_(params) {}

  // Learns a tree over `rows`. Target must be numeric without missing
  // values; features may be numeric or categorical with missing allowed.
  [[nodiscard]] util::Status Fit(const data::Dataset& dataset,
                   const std::string& target_column,
                   const std::vector<std::string>& feature_columns,
                   const std::vector<size_t>& rows);

  // Leaf mean for one row.
  double Predict(const data::Dataset& dataset, size_t row) const;

  // Predictor: leaf means for many rows, in order.
  [[nodiscard]] util::Result<std::vector<double>> PredictBatch(
      const data::Dataset& dataset,
      const std::vector<size_t>& rows) const override;
  const char* name() const override { return "regression_tree"; }

  // Stable id of the leaf a row lands in (for leaf-level analysis).
  int LeafId(const data::Dataset& dataset, size_t row) const;

  // Node ids from root to the reached leaf inclusive (for M5 smoothing).
  std::vector<int> PathToLeaf(const data::Dataset& dataset, size_t row) const;

  // Training statistics of any node (valid ids are < node_count()).
  double NodeMean(int id) const { return nodes_[static_cast<size_t>(id)].mean; }
  size_t NodeCount(int id) const {
    return nodes_[static_cast<size_t>(id)].count;
  }

  bool fitted() const { return !nodes_.empty(); }
  size_t leaf_count() const;
  int depth() const;
  size_t node_count() const { return nodes_.size(); }

  std::string ToString() const;

  // Deployment persistence, mirroring the decision-tree format: feature
  // schema re-resolved against `dataset` on load, doubles exact.
  std::string Serialize() const;
  [[nodiscard]] static util::Result<RegressionTree> Deserialize(const std::string& text,
                                                  const data::Dataset& dataset);

  // Read-only flat view of one fitted node for model compilers
  // (serve::FlatModel). `mean`/`count` are exported for every node, not
  // just leaves, because M5 smoothing walks ancestor statistics.
  struct NodeView {
    bool is_leaf = true;
    size_t feature = 0;
    double threshold = 0.0;
    std::vector<uint8_t> left_categories;
    bool missing_goes_left = true;
    int left = -1;
    int right = -1;
    size_t count = 0;
    double mean = 0.0;
  };
  std::vector<NodeView> ExportNodes() const;
  const std::vector<FeatureRef>& features() const { return features_; }

 private:
  struct Node {
    bool is_leaf = true;
    int depth = 0;
    size_t feature = 0;
    double threshold = 0.0;
    std::vector<uint8_t> left_categories;
    bool missing_goes_left = true;
    int left = -1;
    int right = -1;
    size_t count = 0;
    double mean = 0.0;
    double sse = 0.0;  // Training sum of squared errors around `mean`.
  };

  int Route(const Node& node, const data::Dataset& dataset, size_t row) const;

  RegressionTreeParams params_;
  std::vector<FeatureRef> features_;
  std::vector<Node> nodes_;
};

}  // namespace roadmine::ml

#endif  // ROADMINE_ML_REGRESSION_TREE_H_
