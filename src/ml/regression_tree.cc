#include "ml/regression_tree.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <queue>

#include "exec/executor.h"
#include "ml/feature_index.h"
#include "ml/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/distributions.h"
#include "util/string_util.h"

namespace roadmine::ml {

using util::InvalidArgumentError;
using util::Status;

namespace {

// Sufficient statistics of a target subset.
struct TargetStats {
  double n = 0.0;
  double sum = 0.0;
  double sum_sq = 0.0;

  void Add(double y) {
    n += 1.0;
    sum += y;
    sum_sq += y * y;
  }
  double mean() const { return n > 0.0 ? sum / n : 0.0; }
  double sse() const {
    return n > 0.0 ? std::max(0.0, sum_sq - sum * sum / n) : 0.0;
  }
};

struct SplitSpec {
  bool valid = false;
  size_t feature = 0;
  double threshold = 0.0;
  std::vector<uint8_t> left_categories;
  bool missing_goes_left = true;
  double gain = 0.0;     // SSE reduction over the non-missing rows.
  double p_value = 1.0;  // F test of the induced two-group means.
};

// F statistic for the split: one-way ANOVA with k = 2 computed from
// sufficient statistics.
double SplitPValue(const TargetStats& left, const TargetStats& right) {
  const double df_within = left.n + right.n - 2.0;
  if (df_within <= 0.0) return 1.0;
  const double grand_mean =
      (left.sum + right.sum) / std::max(left.n + right.n, 1.0);
  const double ss_between =
      left.n * (left.mean() - grand_mean) * (left.mean() - grand_mean) +
      right.n * (right.mean() - grand_mean) * (right.mean() - grand_mean);
  const double ss_within = left.sse() + right.sse();
  if (ss_within <= 0.0) return ss_between > 0.0 ? 0.0 : 1.0;
  const double f = ss_between / (ss_within / df_within);
  return stats::FSf(f, 1.0, df_within);
}

struct FitContext {
  const data::Dataset* dataset = nullptr;
  const std::vector<double>* target = nullptr;  // By dataset row id.
  const std::vector<FeatureRef>* features = nullptr;
  const RegressionTreeParams* params = nullptr;
  // Pre-sorted view of the numeric features (null = legacy per-node sort,
  // the identity tests' reference). Target sums are order-sensitive
  // doubles; the workspace lists each node's rows by (value, fit
  // position), which is the order the legacy stable sort of the node's
  // gathered rows yields, for any fit-row list.
  IndexedSplitWorkspace* workspace = nullptr;
};

// Missing rows follow the child whose mean is nearest theirs.
bool MissingGoesLeft(const TargetStats& left, const TargetStats& right,
                     const TargetStats& missing_stats) {
  if (missing_stats.n > 0.0) {
    return std::fabs(missing_stats.mean() - left.mean()) <=
           std::fabs(missing_stats.mean() - right.mean());
  }
  return left.n >= right.n;
}

// Scans one numeric feature's candidate thresholds over its present rows
// in (value, fit position) order — the shared enumeration for the legacy
// and indexed paths, which must visit rows in the identical order for the
// running target sums to match bit-for-bit.
template <typename ValueAt, typename TargetAt>
SplitSpec ScanNumericFeature(const RegressionTreeParams& params, size_t f,
                             size_t count, const ValueAt& value_at,
                             const TargetAt& target_at,
                             const TargetStats& missing_stats) {
  SplitSpec best;
  if (count < 2 * params.min_samples_leaf) return best;

  TargetStats total;
  for (size_t i = 0; i < count; ++i) total.Add(target_at(i));
  const double parent_sse = total.sse();

  TargetStats left;
  for (size_t i = 0; i + 1 < count; ++i) {
    left.Add(target_at(i));
    if (value_at(i) == value_at(i + 1)) continue;
    if (left.n < params.min_samples_leaf ||
        total.n - left.n < params.min_samples_leaf) {
      continue;
    }
    TargetStats right;
    right.n = total.n - left.n;
    right.sum = total.sum - left.sum;
    right.sum_sq = total.sum_sq - left.sum_sq;
    const double gain = parent_sse - left.sse() - right.sse();
    if (gain > best.gain) {
      best.valid = true;
      best.gain = gain;
      best.feature = f;
      best.threshold = SplitMidpoint(value_at(i), value_at(i + 1));
      best.p_value = SplitPValue(left, right);
      best.missing_goes_left = MissingGoesLeft(left, right, missing_stats);
    }
  }
  return best;
}

// Best split of feature `f` over the node's rows; invalid when none is
// admissible.
SplitSpec EvaluateFeature(const FitContext& ctx, const std::vector<size_t>& rows,
                          int node_id, size_t f) {
  const auto& target = *ctx.target;
  const auto& params = *ctx.params;
  const FeatureRef& ref = (*ctx.features)[f];
  const data::Column& col = ctx.dataset->column(ref.column_index);
  if (ctx.workspace != nullptr && ctx.workspace->IsConstant(f)) return {};

  TargetStats missing_stats;

  if (ref.type == data::ColumnType::kNumeric) {
    if (ctx.workspace != nullptr) {
      const IndexedSplitWorkspace::NumericView view =
          ctx.workspace->NodeNumeric(node_id, f);
      for (size_t i = 0; i < view.missing_count; ++i) {
        missing_stats.Add(target[view.missing_rows[i]]);
      }
      return ScanNumericFeature(
          params, f, view.count, [&](size_t i) { return view.values[i]; },
          [&](size_t i) { return target[view.rows[i]]; }, missing_stats);
    }
    std::vector<std::pair<double, double>> present;  // (feature, target).
    present.reserve(rows.size());
    for (size_t r : rows) {
      const double v = col.NumericAt(r);
      if (std::isnan(v)) {
        missing_stats.Add(target[r]);
      } else {
        present.emplace_back(v, target[r]);
      }
    }
    if (present.size() < 2 * params.min_samples_leaf) return {};
    // Stable: equal feature values keep their gather (node-row, i.e. fit
    // position) order, so the candidate stats are exactly what the
    // indexed path computes.
    std::stable_sort(present.begin(), present.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    return ScanNumericFeature(
        params, f, present.size(), [&](size_t i) { return present[i].first; },
        [&](size_t i) { return present[i].second; }, missing_stats);
  }

  SplitSpec best;
  const size_t k = col.category_count();
  if (k < 2) return best;
  std::vector<TargetStats> per_category(k);
  for (size_t r : rows) {
    const int32_t code = col.CodeAt(r);
    if (code < 0) {
      missing_stats.Add(target[r]);
    } else {
      per_category[static_cast<size_t>(code)].Add(target[r]);
    }
  }
  std::vector<size_t> order;
  TargetStats total;
  for (size_t cat = 0; cat < k; ++cat) {
    if (per_category[cat].n <= 0.0) continue;
    order.push_back(cat);
    total.n += per_category[cat].n;
    total.sum += per_category[cat].sum;
    total.sum_sq += per_category[cat].sum_sq;
  }
  if (order.size() < 2 || total.n < 2 * params.min_samples_leaf) return best;
  // Order categories by target mean; prefix splits are optimal for SSE
  // (Fisher's grouping result).
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return per_category[a].mean() < per_category[b].mean();
  });
  const double parent_sse = total.sse();

  TargetStats left;
  for (size_t j = 0; j + 1 < order.size(); ++j) {
    left.n += per_category[order[j]].n;
    left.sum += per_category[order[j]].sum;
    left.sum_sq += per_category[order[j]].sum_sq;
    if (left.n < params.min_samples_leaf ||
        total.n - left.n < params.min_samples_leaf) {
      continue;
    }
    TargetStats right;
    right.n = total.n - left.n;
    right.sum = total.sum - left.sum;
    right.sum_sq = total.sum_sq - left.sum_sq;
    const double gain = parent_sse - left.sse() - right.sse();
    if (gain > best.gain) {
      best.valid = true;
      best.gain = gain;
      best.feature = f;
      best.left_categories.assign(k, 0);
      for (size_t jj = 0; jj <= j; ++jj) {
        best.left_categories[order[jj]] = 1;
      }
      best.p_value = SplitPValue(left, right);
      best.missing_goes_left = MissingGoesLeft(left, right, missing_stats);
    }
  }
  return best;
}

// Engage the executor only at nodes at least this large (a function of
// the node's row count alone, so it cannot perturb results); smaller
// scans are cheaper than waking the pool. Matches decision_tree.cc.
constexpr size_t kParallelSplitMinRows = 4096;

// Per-feature winners merged in feature order with a strict comparison —
// exactly the serial left-to-right scan, at any executor thread count.
// Fails only through the scheduler's exception backstop, which must be
// propagated: a swallowed error would silently turn a split into a leaf.
util::Result<SplitSpec> FindBestSplit(const FitContext& ctx,
                                      const std::vector<size_t>& rows,
                                      int node_id) {
  const auto& params = *ctx.params;
  const size_t num_features = ctx.features->size();
  std::vector<SplitSpec> specs(num_features);
  exec::Executor* executor =
      rows.size() >= kParallelSplitMinRows ? params.executor : nullptr;
  ROADMINE_RETURN_IF_ERROR(exec::ParallelFor(
      executor, num_features, [&](size_t f) -> Status {
        specs[f] = EvaluateFeature(ctx, rows, node_id, f);
        return Status::Ok();
      }));
  SplitSpec best;
  for (SplitSpec& spec : specs) {
    if (spec.valid && spec.gain > best.gain) best = std::move(spec);
  }

  if (best.valid && best.p_value > params.significance_level) {
    best.valid = false;
  }
  return best;
}

}  // namespace

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

  // Grow over the caller's shared index when provided (after validating
  // it matches this fit), else over a private one, whatever the row order
  // (see FitContext::workspace). use_feature_index = false keeps the
  // per-node sorts as the identity tests' reference.
  const FeatureIndex* index = nullptr;
  std::optional<FeatureIndex> local_index;
  std::optional<IndexedSplitWorkspace> workspace;
  if (params_.use_feature_index) {
    if (params_.feature_index != nullptr) {
      if (params_.feature_index->num_rows() != dataset.num_rows() ||
          !params_.feature_index->Covers(features_)) {
        return InvalidArgumentError(
            "feature_index does not cover this dataset's feature columns");
      }
      index = params_.feature_index;
    } else {
      auto built = FeatureIndex::Build(dataset, features_, params_.executor);
      if (!built.ok()) return built.status();
      local_index.emplace(std::move(*built));
      index = &*local_index;
    }
    workspace.emplace(*index, dataset, features_, rows, params_.executor);
  }

  FitContext ctx;
  ctx.dataset = &dataset;
  ctx.target = &target.value();
  ctx.features = &features_;
  ctx.params = &params_;
  ctx.workspace = workspace ? &*workspace : nullptr;

  auto make_node = [&](const std::vector<size_t>& node_rows, int depth) {
    TargetStats stats;
    for (size_t r : node_rows) stats.Add((*ctx.target)[r]);
    Node node;
    node.depth = depth;
    node.count = node_rows.size();
    node.mean = stats.mean();
    node.sse = stats.sse();
    nodes_.push_back(node);
    return static_cast<int>(nodes_.size()) - 1;
  };

  std::vector<std::vector<size_t>> node_rows;
  node_rows.push_back(rows);
  make_node(rows, 0);

  struct HeapEntry {
    double gain;
    int node;
    SplitSpec spec;
    bool operator<(const HeapEntry& other) const { return gain < other.gain; }
  };
  std::priority_queue<HeapEntry> heap;

  auto consider = [&](int node_id) -> Status {
    const Node& node = nodes_[static_cast<size_t>(node_id)];
    if (node.depth >= params_.max_depth) return Status::Ok();
    if (node.count < params_.min_samples_split) return Status::Ok();
    if (node.sse <= 1e-12) return Status::Ok();  // Already pure.
    auto spec =
        FindBestSplit(ctx, node_rows[static_cast<size_t>(node_id)], node_id);
    if (!spec.ok()) return spec.status();
    if (spec->valid) heap.push({spec->gain, node_id, std::move(*spec)});
    return Status::Ok();
  };
  ROADMINE_RETURN_IF_ERROR(consider(0));

  size_t leaves = 1;
  while (!heap.empty() &&
         (params_.max_leaves == 0 || leaves < params_.max_leaves)) {
    HeapEntry entry = heap.top();
    heap.pop();
    const int node_id = entry.node;
    const SplitSpec& spec = entry.spec;

    std::vector<size_t> left_rows, right_rows;
    const FeatureRef& ref = features_[spec.feature];
    const data::Column& col = dataset.column(ref.column_index);
    auto go_left = [&](size_t r) {
      if (col.IsMissing(r)) return spec.missing_goes_left;
      if (ref.type == data::ColumnType::kNumeric) {
        return col.NumericAt(r) <= spec.threshold;
      }
      return spec.left_categories[static_cast<size_t>(col.CodeAt(r))] != 0;
    };
    for (size_t r : node_rows[static_cast<size_t>(node_id)]) {
      (go_left(r) ? left_rows : right_rows).push_back(r);
    }
    if (left_rows.empty() || right_rows.empty()) continue;

    const int node_depth = nodes_[static_cast<size_t>(node_id)].depth;
    const int left_id = make_node(left_rows, node_depth + 1);
    const int right_id = make_node(right_rows, node_depth + 1);
    node_rows.push_back(std::move(left_rows));
    node_rows.push_back(std::move(right_rows));
    if (workspace) {
      workspace->SplitNode(node_id, left_id, right_id, [&](uint32_t r) {
        return go_left(static_cast<size_t>(r));
      });
    }

    Node& node = nodes_[static_cast<size_t>(node_id)];
    node.is_leaf = false;
    node.feature = spec.feature;
    node.threshold = spec.threshold;
    node.left_categories = spec.left_categories;
    node.missing_goes_left = spec.missing_goes_left;
    node.left = left_id;
    node.right = right_id;
    node_rows[static_cast<size_t>(node_id)].clear();
    node_rows[static_cast<size_t>(node_id)].shrink_to_fit();
    ++leaves;

    ROADMINE_RETURN_IF_ERROR(consider(left_id));
    ROADMINE_RETURN_IF_ERROR(consider(right_id));
  }
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.GetCounter("ml.regression_tree.fits").Increment();
  metrics.GetCounter("ml.regression_tree.splits").Increment(leaves - 1);
  metrics.GetGauge("ml.regression_tree.leaves")
      .Set(static_cast<double>(leaves));
  return Status::Ok();
}

int RegressionTree::Route(const Node& node, const data::Dataset& dataset,
                          size_t row) const {
  const FeatureRef& ref = features_[node.feature];
  const data::Column& col = dataset.column(ref.column_index);
  bool go_left;
  if (col.IsMissing(row)) {
    go_left = node.missing_goes_left;
  } else if (ref.type == data::ColumnType::kNumeric) {
    go_left = col.NumericAt(row) <= node.threshold;
  } else {
    const size_t code = static_cast<size_t>(col.CodeAt(row));
    go_left =
        code < node.left_categories.size() && node.left_categories[code] != 0;
  }
  return go_left ? node.left : node.right;
}

int RegressionTree::LeafId(const data::Dataset& dataset, size_t row) const {
  int id = 0;
  while (!nodes_[static_cast<size_t>(id)].is_leaf) {
    id = Route(nodes_[static_cast<size_t>(id)], dataset, row);
  }
  return id;
}

std::vector<int> RegressionTree::PathToLeaf(const data::Dataset& dataset,
                                            size_t row) const {
  std::vector<int> path;
  int id = 0;
  path.push_back(id);
  while (!nodes_[static_cast<size_t>(id)].is_leaf) {
    id = Route(nodes_[static_cast<size_t>(id)], dataset, row);
    path.push_back(id);
  }
  return path;
}

double RegressionTree::Predict(const data::Dataset& dataset, size_t row) const {
  return nodes_[static_cast<size_t>(LeafId(dataset, row))].mean;
}

util::Result<std::vector<double>> RegressionTree::PredictBatch(
    const data::Dataset& dataset, const std::vector<size_t>& rows) const {
  if (!fitted()) return util::FailedPreconditionError("tree not fitted");
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

std::vector<RegressionTree::NodeView> RegressionTree::ExportNodes() const {
  std::vector<NodeView> views;
  views.reserve(nodes_.size());
  for (const Node& node : nodes_) {
    NodeView view;
    view.is_leaf = node.is_leaf;
    view.feature = node.feature;
    view.threshold = node.threshold;
    view.left_categories = node.left_categories;
    view.missing_goes_left = node.missing_goes_left;
    view.left = node.left;
    view.right = node.right;
    view.count = node.count;
    view.mean = node.mean;
    views.push_back(std::move(view));
  }
  return views;
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
    out += "node\t";
    out += std::to_string(node.is_leaf ? 1 : 0) + "\t";
    out += std::to_string(node.depth) + "\t";
    out += std::to_string(node.feature) + "\t";
    out += SerializeDouble(node.threshold) + "\t";
    out += std::to_string(node.missing_goes_left ? 1 : 0) + "\t";
    out += std::to_string(node.left) + "\t";
    out += std::to_string(node.right) + "\t";
    out += std::to_string(node.count) + "\t";
    out += SerializeDouble(node.mean) + "\t";
    out += SerializeDouble(node.sse) + "\t";
    if (node.left_categories.empty()) {
      out += "-";
    } else {
      for (uint8_t bit : node.left_categories) out += bit ? '1' : '0';
    }
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

  auto node_count = ParseCountLine(cursor, "nodes");
  if (!node_count.ok()) return node_count.status();
  if (*node_count <= 0) return InvalidArgumentError("no nodes");
  for (int64_t i = 0; i < *node_count; ++i) {
    const std::string* line = cursor.Next();
    if (line == nullptr) return InvalidArgumentError("truncated nodes");
    const std::vector<std::string> parts = util::Split(*line, '\t');
    if (parts.size() != 12 || parts[0] != "node") {
      return InvalidArgumentError("bad node line: " + *line);
    }
    Node node;
    int64_t value = 0;
    if (!util::ParseInt(parts[1], &value)) {
      return InvalidArgumentError("bad is_leaf");
    }
    node.is_leaf = value != 0;
    if (!util::ParseInt(parts[2], &value)) {
      return InvalidArgumentError("bad depth");
    }
    node.depth = static_cast<int>(value);
    if (!util::ParseInt(parts[3], &value) || value < 0) {
      return InvalidArgumentError("bad feature index");
    }
    node.feature = static_cast<size_t>(value);
    if (!node.is_leaf && node.feature >= tree.features_.size()) {
      return InvalidArgumentError("feature index out of range");
    }
    if (!util::ParseDouble(parts[4], &node.threshold)) {
      return InvalidArgumentError("bad threshold");
    }
    if (!util::ParseInt(parts[5], &value)) {
      return InvalidArgumentError("bad missing direction");
    }
    node.missing_goes_left = value != 0;
    if (!ParseChild(parts[6], &node.left)) {
      return InvalidArgumentError("bad left child");
    }
    if (!ParseChild(parts[7], &node.right)) {
      return InvalidArgumentError("bad right child");
    }
    if (!util::ParseInt(parts[8], &value) || value < 0) {
      return InvalidArgumentError("bad count");
    }
    node.count = static_cast<size_t>(value);
    if (!util::ParseDouble(parts[9], &node.mean)) {
      return InvalidArgumentError("bad mean");
    }
    if (!util::ParseDouble(parts[10], &node.sse)) {
      return InvalidArgumentError("bad sse");
    }
    if (parts[11] != "-") {
      node.left_categories.reserve(parts[11].size());
      for (char c : parts[11]) {
        if (c != '0' && c != '1') {
          return InvalidArgumentError("bad category mask");
        }
        node.left_categories.push_back(c == '1' ? 1 : 0);
      }
    }
    tree.nodes_.push_back(std::move(node));
  }
  ROADMINE_RETURN_IF_ERROR(CheckTreeLinks(
      tree.nodes_, [](const Node& node) { return node.is_leaf; }));
  return tree;
}

}  // namespace roadmine::ml
