#include "ml/regression_tree.h"

#include <algorithm>

#include "ml/serialize.h"
#include "ml/tree_growth.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace roadmine::ml {

using util::InvalidArgumentError;
using util::Status;

Status RegressionTree::Fit(const data::Dataset& dataset,
                           const std::string& target_column,
                           const std::vector<std::string>& feature_columns,
                           const std::vector<size_t>& rows) {
  ROADMINE_TRACE_SPAN("ml.regression_tree.fit");
  obs::ScopedLatency fit_timer(
      obs::MetricsRegistry::Global().GetHistogram("ml.fit_ms"));
  ROADMINE_RETURN_IF_ERROR(CheckFitRows(rows, dataset.num_rows()));
  auto target = ExtractNumericTarget(dataset, target_column);
  if (!target.ok()) return target.status();
  auto features = ResolveFeatures(dataset, feature_columns, target_column);
  if (!features.ok()) return features.status();
  features_ = std::move(*features);
  nodes_.clear();

  auto grown = GrowTree(dataset, *target, features_, rows, params_);
  if (!grown.ok()) return grown.status();

  for (GrownNode& grown_node : *grown) {
    Node node;
    node.count = static_cast<size_t>(grown_node.stats.n);
    node.mean = grown_node.stats.mean();
    node.sse = grown_node.stats.sse();
    static_cast<TreeNode&>(node) = std::move(grown_node);
    nodes_.push_back(std::move(node));
  }
  const size_t leaves = leaf_count();
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.GetCounter("ml.regression_tree.fits").Increment();
  metrics.GetCounter("ml.regression_tree.splits").Increment(leaves - 1);
  metrics.GetGauge("ml.regression_tree.leaves")
      .Set(static_cast<double>(leaves));
  return Status::Ok();
}

double RegressionTree::Predict(const data::Dataset& dataset, size_t row) const {
  return nodes_[static_cast<size_t>(FindLeaf(nodes_, features_, dataset, row))]
      .mean;
}

util::Result<std::vector<double>> RegressionTree::PredictBatch(
    const data::Dataset& dataset, const std::vector<size_t>& rows) const {
  if (!fitted()) return util::FailedPreconditionError("tree not fitted");
  ROADMINE_RETURN_IF_ERROR(CheckPredictInput(features_, dataset, rows));
  std::vector<double> out;
  out.reserve(rows.size());
  for (size_t r : rows) out.push_back(Predict(dataset, r));
  return out;
}

size_t RegressionTree::leaf_count() const {
  size_t count = 0;
  for (const Node& node : nodes_) count += node.is_leaf;
  return count;
}

int RegressionTree::depth() const {
  int max_depth = 0;
  for (const Node& node : nodes_) {
    if (node.is_leaf) max_depth = std::max(max_depth, node.depth);
  }
  return max_depth;
}

std::string RegressionTree::ToString() const {
  std::string out;
  if (nodes_.empty()) return "(unfitted tree)\n";
  struct Frame {
    int node;
    int indent;
  };
  std::vector<Frame> stack = {{0, 0}};
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();
    const Node& node = nodes_[static_cast<size_t>(frame.node)];
    out.append(static_cast<size_t>(frame.indent) * 2, ' ');
    if (node.is_leaf) {
      out += "leaf mean=" + util::FormatDouble(node.mean, 3) +
             " n=" + std::to_string(node.count) + "\n";
    } else {
      const FeatureRef& ref = features_[node.feature];
      if (ref.type == data::ColumnType::kNumeric) {
        out += "split " + ref.name + " <= " +
               util::FormatDouble(node.threshold, 3) + "\n";
      } else {
        out += "split " + ref.name + " (categorical)\n";
      }
      stack.push_back({node.right, frame.indent + 1});
      stack.push_back({node.left, frame.indent + 1});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

namespace {
constexpr char kSerializationHeader[] = "roadmine-regression-tree v1";
}  // namespace

std::string RegressionTree::Serialize() const {
  std::string out = kSerializationHeader;
  out += "\n";
  AppendFeatureSection(features_, &out);
  out += "nodes " + std::to_string(nodes_.size()) + "\n";
  for (const Node& node : nodes_) {
    AppendTreeNodeFields(node, &out);
    out += std::to_string(node.count) + "\t";
    out += SerializeDouble(node.mean) + "\t";
    out += SerializeDouble(node.sse) + "\t";
    AppendCategoryMask(node.left_categories, &out);
    out += "\n";
  }
  return out;
}

util::Result<RegressionTree> RegressionTree::Deserialize(
    const std::string& text, const data::Dataset& dataset) {
  LineCursor cursor(text);
  const std::string* header = cursor.Next();
  if (header == nullptr || *header != kSerializationHeader) {
    return InvalidArgumentError("bad serialization header");
  }
  RegressionTree tree;
  auto features = ParseFeatureSection(cursor, dataset);
  if (!features.ok()) return features.status();
  tree.features_ = std::move(*features);

  auto nodes = ParseTreeNodes<Node>(
      cursor, 12, tree.features_.size(),
      [](const std::vector<std::string>& parts, Node* node) -> Status {
        int64_t value = 0;
        if (!util::ParseInt(parts[8], &value) || value < 0) {
          return InvalidArgumentError("bad count");
        }
        node->count = static_cast<size_t>(value);
        if (!util::ParseDouble(parts[9], &node->mean)) {
          return InvalidArgumentError("bad mean");
        }
        if (!util::ParseDouble(parts[10], &node->sse)) {
          return InvalidArgumentError("bad sse");
        }
        return ParseCategoryMask(parts[11], &node->left_categories);
      });
  if (!nodes.ok()) return nodes.status();
  tree.nodes_ = std::move(*nodes);
  return tree;
}

}  // namespace roadmine::ml
