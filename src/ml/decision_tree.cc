#include "ml/decision_tree.h"

#include <algorithm>

#include "ml/serialize.h"
#include "ml/tree_growth.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace roadmine::ml {

using util::InvalidArgumentError;
using util::Status;

const char* SplitCriterionName(SplitCriterion criterion) {
  switch (criterion) {
    case SplitCriterion::kChiSquare:
      return "chi-square";
    case SplitCriterion::kGini:
      return "gini";
    case SplitCriterion::kEntropy:
      return "entropy";
  }
  return "unknown";
}

Status DecisionTreeClassifier::Fit(
    const data::Dataset& dataset, const std::string& target_column,
    const std::vector<std::string>& feature_columns,
    const std::vector<size_t>& rows) {
  ROADMINE_TRACE_SPAN("ml.decision_tree.fit");
  obs::ScopedLatency fit_timer(
      obs::MetricsRegistry::Global().GetHistogram("ml.fit_ms"));
  ROADMINE_RETURN_IF_ERROR(CheckFitRows(rows, dataset.num_rows()));
  auto labels = ExtractBinaryLabels(dataset, target_column);
  if (!labels.ok()) return labels.status();
  auto features = ResolveFeatures(dataset, feature_columns, target_column);
  if (!features.ok()) return features.status();
  features_ = std::move(*features);
  nodes_.clear();

  const std::vector<double> target(labels->begin(), labels->end());
  auto grown = GrowTree(dataset, target, features_, rows, params_);
  if (!grown.ok()) return grown.status();

  for (GrownNode& grown_node : *grown) {
    Node node;
    node.split_gain = grown_node.score;
    node.count_positive = static_cast<size_t>(grown_node.stats.sum);
    node.count_negative =
        static_cast<size_t>(grown_node.stats.n - grown_node.stats.sum);
    static_cast<TreeNode&>(node) = std::move(grown_node);
    if (!node.left_categories.empty()) {
      // Category sets render from the training dictionary, captured now.
      const data::Column& col =
          dataset.column(features_[node.feature].column_index);
      std::vector<std::string> left_names, right_names;
      for (size_t k = 0; k < node.left_categories.size(); ++k) {
        (node.left_categories[k] ? left_names : right_names)
            .push_back(col.CategoryName(static_cast<int32_t>(k)));
      }
      node.left_set_desc = "{";
      node.left_set_desc += util::Join(left_names, ",");
      node.left_set_desc += "}";
      node.right_set_desc = "{";
      node.right_set_desc += util::Join(right_names, ",");
      node.right_set_desc += "}";
    }
    nodes_.push_back(std::move(node));
  }
  const size_t leaves = leaf_count();
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.GetCounter("ml.decision_tree.fits").Increment();
  metrics.GetCounter("ml.decision_tree.splits").Increment(leaves - 1);
  metrics.GetGauge("ml.decision_tree.leaves").Set(static_cast<double>(leaves));
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Prediction
// ---------------------------------------------------------------------------

double DecisionTreeClassifier::PredictProba(const data::Dataset& dataset,
                                            size_t row) const {
  return nodes_[static_cast<size_t>(FindLeaf(nodes_, features_, dataset, row))]
      .positive_fraction();
}

int DecisionTreeClassifier::Predict(const data::Dataset& dataset, size_t row,
                                    double cutoff) const {
  return PredictProba(dataset, row) >= cutoff ? 1 : 0;
}

util::Result<std::vector<double>> DecisionTreeClassifier::PredictBatch(
    const data::Dataset& dataset, const std::vector<size_t>& rows) const {
  if (!fitted()) return util::FailedPreconditionError("tree not fitted");
  ROADMINE_RETURN_IF_ERROR(CheckPredictInput(features_, dataset, rows));
  std::vector<double> probs;
  probs.reserve(rows.size());
  for (size_t r : rows) probs.push_back(PredictProba(dataset, r));
  return probs;
}

// ---------------------------------------------------------------------------
// Pruning
// ---------------------------------------------------------------------------

Status DecisionTreeClassifier::PruneReducedError(
    const data::Dataset& dataset, const std::string& target_column,
    const std::vector<size_t>& rows) {
  ROADMINE_RETURN_IF_ERROR(CheckFitRows(rows, dataset.num_rows()));
  if (!fitted()) return util::FailedPreconditionError("tree not fitted");
  auto labels = ExtractBinaryLabels(dataset, target_column);
  if (!labels.ok()) return labels.status();

  // Validation class counts per node, accumulated along each row's path.
  std::vector<size_t> val_pos(nodes_.size(), 0), val_neg(nodes_.size(), 0);
  std::vector<int> path;
  for (size_t r : rows) {
    FindLeaf(nodes_, features_, dataset, r, &path);
    std::vector<size_t>& counts = (*labels)[r] ? val_pos : val_neg;
    for (const int id : path) ++counts[static_cast<size_t>(id)];
  }

  // Children always have larger indices than parents (nodes are appended as
  // splits happen), so one reverse sweep is a bottom-up traversal.
  std::vector<size_t> subtree_errors(nodes_.size(), 0);
  for (size_t i = nodes_.size(); i-- > 0;) {
    Node& node = nodes_[i];
    // Error if this node predicted its training majority for its share of
    // the validation set.
    const bool majority_positive = node.count_positive > node.count_negative;
    const size_t own_error = majority_positive ? val_neg[i] : val_pos[i];
    if (node.is_leaf) {
      subtree_errors[i] = own_error;
      continue;
    }
    const size_t child_error = subtree_errors[static_cast<size_t>(node.left)] +
                               subtree_errors[static_cast<size_t>(node.right)];
    if (own_error <= child_error) {
      node.is_leaf = true;  // Orphaned descendants stay allocated but dead.
      subtree_errors[i] = own_error;
    } else {
      subtree_errors[i] = child_error;
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

std::vector<int> DecisionTreeClassifier::ReachableNodes() const {
  std::vector<int> reached;
  std::vector<int> stack;
  if (!nodes_.empty()) stack.push_back(0);
  while (!stack.empty()) {
    reached.push_back(stack.back());
    stack.pop_back();
    const Node& node = nodes_[static_cast<size_t>(reached.back())];
    if (!node.is_leaf) {
      stack.push_back(node.left);
      stack.push_back(node.right);
    }
  }
  return reached;
}

size_t DecisionTreeClassifier::leaf_count() const {
  size_t count = 0;
  for (int id : ReachableNodes()) {
    count += nodes_[static_cast<size_t>(id)].is_leaf ? 1 : 0;
  }
  return count;
}

int DecisionTreeClassifier::depth() const {
  int max_depth = 0;
  for (int id : ReachableNodes()) {
    const Node& node = nodes_[static_cast<size_t>(id)];
    if (node.is_leaf) max_depth = std::max(max_depth, node.depth);
  }
  return max_depth;
}

std::vector<std::string> DecisionTreeClassifier::ExtractRules() const {
  std::vector<std::string> rules;
  if (nodes_.empty()) return rules;

  struct Frame {
    int node;
    std::vector<std::string> conditions;
  };
  std::vector<Frame> stack;
  stack.push_back({0, {}});
  while (!stack.empty()) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    const Node& node = nodes_[static_cast<size_t>(frame.node)];
    if (node.is_leaf) {
      std::string rule = "IF ";
      rule += frame.conditions.empty() ? "TRUE"
                                       : util::Join(frame.conditions, " AND ");
      rule += " THEN p(positive)=" + util::FormatDouble(node.positive_fraction(), 3);
      rule += " (n=" + std::to_string(node.total()) + ")";
      rules.push_back(std::move(rule));
      continue;
    }
    const FeatureRef& ref = features_[node.feature];
    std::string left_cond, right_cond;
    if (ref.type == data::ColumnType::kNumeric) {
      left_cond = ref.name + " <= " + util::FormatDouble(node.threshold, 3);
      right_cond = ref.name + " > " + util::FormatDouble(node.threshold, 3);
    } else {
      left_cond = ref.name + " in " + node.left_set_desc;
      right_cond = ref.name + " in " + node.right_set_desc;
    }

    Frame left{node.left, frame.conditions};
    left.conditions.push_back(left_cond);
    Frame right{node.right, std::move(frame.conditions)};
    right.conditions.push_back(right_cond);
    stack.push_back(std::move(right));
    stack.push_back(std::move(left));
  }
  return rules;
}

std::string DecisionTreeClassifier::ToString() const {
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
      out += "leaf p=" + util::FormatDouble(node.positive_fraction(), 3) +
             " n=" + std::to_string(node.total()) + "\n";
    } else {
      const FeatureRef& ref = features_[node.feature];
      if (ref.type == data::ColumnType::kNumeric) {
        out += "split " + ref.name + " <= " +
               util::FormatDouble(node.threshold, 3);
      } else {
        out += "split " + ref.name + " (categorical)";
      }
      out += node.missing_goes_left ? " [missing->left]\n" : " [missing->right]\n";
      stack.push_back({node.right, frame.indent + 1});
      stack.push_back({node.left, frame.indent + 1});
    }
  }
  return out;
}

std::vector<std::pair<std::string, double>>
DecisionTreeClassifier::FeatureImportances() const {
  std::vector<double> gain(features_.size(), 0.0);
  double total = 0.0;
  for (int id : ReachableNodes()) {
    const Node& node = nodes_[static_cast<size_t>(id)];
    if (node.is_leaf) continue;
    gain[node.feature] += node.split_gain;
    total += node.split_gain;
  }
  std::vector<std::pair<std::string, double>> importances;
  importances.reserve(features_.size());
  for (size_t f = 0; f < features_.size(); ++f) {
    importances.emplace_back(features_[f].name,
                             total > 0.0 ? gain[f] / total : 0.0);
  }
  std::sort(importances.begin(), importances.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return importances;
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

namespace {
constexpr char kSerializationHeader[] = "roadmine-decision-tree v1";
}  // namespace

std::string DecisionTreeClassifier::Serialize() const {
  // Line-oriented, tab-separated. Category-set descriptions go last on the
  // node line because they may contain spaces (never tabs).
  std::string out = kSerializationHeader;
  out += "\n";
  AppendFeatureSection(features_, &out);
  out += "nodes " + std::to_string(nodes_.size()) + "\n";
  for (const Node& node : nodes_) {
    AppendTreeNodeFields(node, &out);
    out += std::to_string(node.count_negative) + "\t";
    out += std::to_string(node.count_positive) + "\t";
    AppendCategoryMask(node.left_categories, &out);
    out += "\t" + node.left_set_desc + "\t" + node.right_set_desc + "\n";
  }
  return out;
}

util::Result<DecisionTreeClassifier> DecisionTreeClassifier::Deserialize(
    const std::string& text, const data::Dataset& dataset) {
  LineCursor cursor(text);
  const std::string* header = cursor.Next();
  if (header == nullptr || *header != kSerializationHeader) {
    return InvalidArgumentError("bad serialization header");
  }

  DecisionTreeClassifier tree;
  auto features = ParseFeatureSection(cursor, dataset);
  if (!features.ok()) return features.status();
  tree.features_ = std::move(*features);

  auto nodes = ParseTreeNodes<Node>(
      cursor, 13, tree.features_.size(),
      [](const std::vector<std::string>& parts, Node* node) -> Status {
        int64_t value = 0;
        if (!util::ParseInt(parts[8], &value) || value < 0) {
          return InvalidArgumentError("bad negative count");
        }
        node->count_negative = static_cast<size_t>(value);
        if (!util::ParseInt(parts[9], &value) || value < 0) {
          return InvalidArgumentError("bad positive count");
        }
        node->count_positive = static_cast<size_t>(value);
        node->left_set_desc = parts[11];
        node->right_set_desc = parts[12];
        return ParseCategoryMask(parts[10], &node->left_categories);
      });
  if (!nodes.ok()) return nodes.status();
  tree.nodes_ = std::move(*nodes);
  return tree;
}

}  // namespace roadmine::ml
