#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <queue>

#include "exec/executor.h"
#include "ml/feature_index.h"
#include "ml/histogram_index.h"
#include "ml/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/distributions.h"
#include "util/string_util.h"

namespace roadmine::ml {

using util::InvalidArgumentError;
using util::Status;

namespace {

// 2x2 class counts induced by a candidate binary split (non-missing rows).
struct SplitCounts {
  double left_pos = 0.0;
  double left_neg = 0.0;
  double right_pos = 0.0;
  double right_neg = 0.0;

  double left_total() const { return left_pos + left_neg; }
  double right_total() const { return right_pos + right_neg; }
  double total() const { return left_total() + right_total(); }
};

// Pearson chi-square statistic of the 2x2 table (df = 1).
double ChiSquareStatistic(const SplitCounts& c) {
  const double row_l = c.left_total();
  const double row_r = c.right_total();
  const double col_p = c.left_pos + c.right_pos;
  const double col_n = c.left_neg + c.right_neg;
  const double n = c.total();
  const double denom = row_l * row_r * col_p * col_n;
  if (denom <= 0.0) return 0.0;
  const double det = c.left_pos * c.right_neg - c.left_neg * c.right_pos;
  return n * det * det / denom;
}

double GiniImpurity(double pos, double neg) {
  const double n = pos + neg;
  if (n <= 0.0) return 0.0;
  const double p = pos / n;
  return 2.0 * p * (1.0 - p);
}

double GiniGain(const SplitCounts& c) {
  const double n = c.total();
  if (n <= 0.0) return 0.0;
  const double parent =
      GiniImpurity(c.left_pos + c.right_pos, c.left_neg + c.right_neg);
  const double child = (c.left_total() / n) * GiniImpurity(c.left_pos, c.left_neg) +
                       (c.right_total() / n) * GiniImpurity(c.right_pos, c.right_neg);
  return parent - child;
}

double BinaryEntropy(double pos, double neg) {
  const double n = pos + neg;
  if (n <= 0.0) return 0.0;
  double h = 0.0;
  for (double count : {pos, neg}) {
    if (count <= 0.0) continue;
    const double p = count / n;
    h -= p * std::log2(p);
  }
  return h;
}

double EntropyGain(const SplitCounts& c) {
  const double n = c.total();
  if (n <= 0.0) return 0.0;
  const double parent =
      BinaryEntropy(c.left_pos + c.right_pos, c.left_neg + c.right_neg);
  const double child =
      (c.left_total() / n) * BinaryEntropy(c.left_pos, c.left_neg) +
      (c.right_total() / n) * BinaryEntropy(c.right_pos, c.right_neg);
  return parent - child;
}

double SplitScore(SplitCriterion criterion, const SplitCounts& c) {
  switch (criterion) {
    case SplitCriterion::kChiSquare:
      return ChiSquareStatistic(c);
    case SplitCriterion::kGini:
      return GiniGain(c);
    case SplitCriterion::kEntropy:
      return EntropyGain(c);
  }
  return 0.0;
}

// A fully-specified candidate split for one node.
struct SplitSpec {
  bool valid = false;
  size_t feature = 0;
  double threshold = 0.0;
  std::vector<uint8_t> left_categories;
  bool missing_goes_left = true;
  double score = 0.0;
  double p_value = 1.0;
  SplitCounts counts;
};

}  // namespace

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

// ---------------------------------------------------------------------------
// Fitting
// ---------------------------------------------------------------------------

namespace {

// Search state shared across the best-first growth of one Fit call.
struct FitContext {
  const data::Dataset* dataset = nullptr;
  const std::vector<int8_t>* labels = nullptr;  // By dataset row id.
  const std::vector<FeatureRef>* features = nullptr;
  const DecisionTreeParams* params = nullptr;
  // Pre-sorted view of the numeric features (null = legacy per-node sort).
  IndexedSplitWorkspace* workspace = nullptr;
  // Quantile-binned view (null = exact-greedy). Numeric features scan
  // per-bin class counts instead of sorted values when set.
  const HistogramIndex* hist = nullptr;
};

// Decides how the split routes missing rows: toward the child whose class
// mix is nearest the missing rows' mix (majority side when nothing is
// missing).
bool MissingGoesLeft(const SplitCounts& c, double missing_pos,
                     double missing_neg) {
  const double miss_total = missing_pos + missing_neg;
  if (miss_total > 0.0) {
    const double miss_rate = missing_pos / miss_total;
    const double left_rate = c.left_pos / std::max(c.left_total(), 1.0);
    const double right_rate = c.right_pos / std::max(c.right_total(), 1.0);
    return std::fabs(miss_rate - left_rate) <=
           std::fabs(miss_rate - right_rate);
  }
  return c.left_total() >= c.right_total();
}

// Scans one numeric feature's candidate thresholds over its present rows
// in ascending value order. Shared by the legacy (gather + sort) and
// indexed (pre-sorted segment) paths so the candidate enumeration and
// scoring cannot diverge between them. The class counts are integer-valued
// doubles, so the accumulation is exact and the result does not depend on
// the order of equal values.
template <typename ValueAt, typename LabelAt>
SplitSpec ScanNumericFeature(const DecisionTreeParams& params, size_t f,
                             size_t count, const ValueAt& value_at,
                             const LabelAt& label_at, double missing_pos,
                             double missing_neg) {
  SplitSpec best;
  if (count < 2 * params.min_samples_leaf) return best;

  double total_pos = 0.0;
  for (size_t i = 0; i < count; ++i) total_pos += label_at(i);
  const double total = static_cast<double>(count);

  double left_pos = 0.0;
  for (size_t i = 0; i + 1 < count; ++i) {
    left_pos += label_at(i);
    if (value_at(i) == value_at(i + 1)) continue;
    const double left_n = static_cast<double>(i + 1);
    if (left_n < params.min_samples_leaf ||
        total - left_n < params.min_samples_leaf) {
      continue;
    }
    SplitCounts c;
    c.left_pos = left_pos;
    c.left_neg = left_n - left_pos;
    c.right_pos = total_pos - left_pos;
    c.right_neg = (total - left_n) - c.right_pos;
    const double score = SplitScore(params.criterion, c);
    if (score > best.score) {
      best.valid = true;
      best.score = score;
      best.feature = f;
      best.threshold = SplitMidpoint(value_at(i), value_at(i + 1));
      best.counts = c;
      best.missing_goes_left = MissingGoesLeft(c, missing_pos, missing_neg);
    }
  }
  return best;
}

// Scans one numeric feature's binned class counts in ascending bin order.
// Candidates sit at nonempty bins' upper bounds (the corrected cut
// semantics: a threshold is an actual data value, so `x <= threshold`
// routes binned rows exactly as the bin comparison did). When bins map
// 1:1 onto the node's distinct present values this enumerates the same
// (counts, candidate-order) sequence as ScanNumericFeature, so scores,
// the strict-> winner, and the induced partition all coincide with the
// exact-greedy scan.
SplitSpec ScanBinnedFeature(const DecisionTreeParams& params, size_t f,
                            const std::vector<double>& upper,
                            const std::vector<double>& pos,
                            const std::vector<double>& neg,
                            double missing_pos, double missing_neg) {
  SplitSpec best;
  double total_pos = 0.0, total = 0.0;
  for (size_t b = 0; b < upper.size(); ++b) {
    total_pos += pos[b];
    total += pos[b] + neg[b];
  }
  if (total < 2.0 * static_cast<double>(params.min_samples_leaf)) return best;

  double left_pos = 0.0, left_n = 0.0;
  for (size_t b = 0; b + 1 < upper.size(); ++b) {
    left_pos += pos[b];
    left_n += pos[b] + neg[b];
    if (pos[b] + neg[b] <= 0.0) continue;  // Same partition as previous cut.
    if (total - left_n <= 0.0) break;      // Everything after is empty.
    if (left_n < static_cast<double>(params.min_samples_leaf) ||
        total - left_n < static_cast<double>(params.min_samples_leaf)) {
      continue;
    }
    SplitCounts c;
    c.left_pos = left_pos;
    c.left_neg = left_n - left_pos;
    c.right_pos = total_pos - left_pos;
    c.right_neg = (total - left_n) - c.right_pos;
    const double score = SplitScore(params.criterion, c);
    if (score > best.score) {
      best.valid = true;
      best.score = score;
      best.feature = f;
      best.threshold = upper[b];
      best.counts = c;
      best.missing_goes_left = MissingGoesLeft(c, missing_pos, missing_neg);
    }
  }
  return best;
}

// Best split of feature `f` over the node's rows; invalid when none is
// admissible. The indexed path reads the node's pre-sorted segment instead
// of gathering and sorting, and skips globally-constant columns outright
// (they can never produce a candidate at any node).
SplitSpec EvaluateFeature(const FitContext& ctx, const std::vector<size_t>& rows,
                          int node_id, size_t f) {
  const auto& labels = *ctx.labels;
  const auto& params = *ctx.params;
  const FeatureRef& ref = (*ctx.features)[f];
  const data::Column& col = ctx.dataset->column(ref.column_index);
  if (ctx.workspace != nullptr && ctx.workspace->IsConstant(f)) return {};

  double missing_pos = 0.0, missing_neg = 0.0;

  if (ref.type == data::ColumnType::kNumeric && ctx.hist != nullptr) {
    const HistogramIndex::FeatureBins& bins =
        ctx.hist->ColumnBins(ref.column_index);
    if (bins.constant) return {};
    std::vector<double> pos(bins.num_bins, 0.0), neg(bins.num_bins, 0.0);
    for (size_t r : rows) {
      const uint16_t code = bins.codes[r];
      if (code == HistogramIndex::kMissingBin) {
        (labels[r] ? missing_pos : missing_neg) += 1.0;
      } else {
        (labels[r] ? pos : neg)[code] += 1.0;
      }
    }
    return ScanBinnedFeature(params, f, bins.upper, pos, neg, missing_pos,
                             missing_neg);
  }

  if (ref.type == data::ColumnType::kNumeric) {
    if (ctx.workspace != nullptr) {
      const IndexedSplitWorkspace::NumericView view =
          ctx.workspace->NodeNumeric(node_id, f);
      for (size_t i = 0; i < view.missing_count; ++i) {
        (labels[view.missing_rows[i]] ? missing_pos : missing_neg) += 1.0;
      }
      return ScanNumericFeature(
          params, f, view.count, [&](size_t i) { return view.values[i]; },
          [&](size_t i) { return labels[view.rows[i]]; }, missing_pos,
          missing_neg);
    }
    // Legacy: gather (value, label) for present rows, then sort.
    std::vector<std::pair<double, int8_t>> present;
    present.reserve(rows.size());
    for (size_t r : rows) {
      const double v = col.NumericAt(r);
      if (std::isnan(v)) {
        (labels[r] ? missing_pos : missing_neg) += 1.0;
      } else {
        present.emplace_back(v, labels[r]);
      }
    }
    if (present.size() < 2 * params.min_samples_leaf) return {};
    std::sort(present.begin(), present.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return ScanNumericFeature(
        params, f, present.size(),
        [&](size_t i) { return present[i].first; },
        [&](size_t i) { return present[i].second; }, missing_pos, missing_neg);
  }

  // Categorical: order categories by positive rate, scan prefix splits
  // (optimal for Gini on binary targets; strong heuristic for the
  // chi-square and entropy criteria). The per-level accumulation already
  // touches each node row once, so there is no sort to index away.
  SplitSpec best;
  const size_t k = col.category_count();
  if (k < 2) return best;
  std::vector<double> pos(k, 0.0), neg(k, 0.0);
  for (size_t r : rows) {
    const int32_t code = col.CodeAt(r);
    if (code < 0) {
      (labels[r] ? missing_pos : missing_neg) += 1.0;
    } else {
      (labels[r] ? pos : neg)[static_cast<size_t>(code)] += 1.0;
    }
  }
  std::vector<size_t> order;
  double total_pos = 0.0, total_all = 0.0;
  for (size_t cat = 0; cat < k; ++cat) {
    if (pos[cat] + neg[cat] <= 0.0) continue;  // Unseen at this node.
    order.push_back(cat);
    total_pos += pos[cat];
    total_all += pos[cat] + neg[cat];
  }
  if (order.size() < 2 || total_all < 2 * params.min_samples_leaf) return best;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const double ra = pos[a] / (pos[a] + neg[a]);
    const double rb = pos[b] / (pos[b] + neg[b]);
    return ra < rb;
  });

  double left_pos = 0.0, left_all = 0.0;
  for (size_t j = 0; j + 1 < order.size(); ++j) {
    left_pos += pos[order[j]];
    left_all += pos[order[j]] + neg[order[j]];
    if (left_all < params.min_samples_leaf ||
        total_all - left_all < params.min_samples_leaf) {
      continue;
    }
    SplitCounts c;
    c.left_pos = left_pos;
    c.left_neg = left_all - left_pos;
    c.right_pos = total_pos - left_pos;
    c.right_neg = (total_all - left_all) - c.right_pos;
    const double score = SplitScore(params.criterion, c);
    if (score > best.score) {
      best.valid = true;
      best.score = score;
      best.feature = f;
      best.left_categories.assign(k, 0);
      for (size_t jj = 0; jj <= j; ++jj) {
        best.left_categories[order[jj]] = 1;
      }
      best.counts = c;
      best.missing_goes_left = MissingGoesLeft(c, missing_pos, missing_neg);
    }
  }
  return best;
}

// Engage the executor for per-feature split scans only at nodes at least
// this large: below it, the scan is cheaper than waking the pool. The
// cutoff depends only on the node's row count — never on the thread
// count — so it cannot perturb results (and the executor couldn't
// anyway: per-feature winners merge in feature order either way).
constexpr size_t kParallelSplitMinRows = 4096;

// Finds the best split of node `node_id` holding `rows` (indices into the
// dataset). Returns an invalid spec when no admissible split exists.
// Features evaluate independently; merging the per-feature winners in
// feature order with a strict comparison reproduces the serial
// left-to-right scan exactly, so an executor changes nothing but speed.
// Fails only through the scheduler's exception backstop (EvaluateFeature
// returns no status of its own), but that failure must not be dropped:
// a swallowed error here would silently yield a leaf where a split
// belongs.
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
    if (spec.valid && spec.score > best.score) best = std::move(spec);
  }

  if (!best.valid) return best;
  if (params.criterion == SplitCriterion::kChiSquare) {
    best.p_value = stats::ChiSquareSf(best.score, 1.0);
    if (params.bonferroni_adjust) {
      best.p_value = std::min(
          1.0, best.p_value * static_cast<double>(ctx.features->size()));
    }
    if (best.p_value > params.significance_level) best.valid = false;
  } else if (best.score <= 1e-12) {
    best.valid = false;
  }
  return best;
}

}  // namespace

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

  // Pre-sorted index: use the caller's shared one when provided (after
  // validating it matches this fit), else build a private one. The root
  // sort costs what one legacy node evaluation did; every further node
  // then splits in O(n) instead of re-sorting.
  // Histogram mode replaces the exact-greedy numeric scan entirely, so
  // the pre-sorted index would be dead weight; categorical features keep
  // the per-level scan, which needs no index either way.
  const HistogramIndex* hist = nullptr;
  std::optional<HistogramIndex> local_hist;
  if (params_.use_histogram) {
    if (params_.histogram_index != nullptr) {
      if (params_.histogram_index->num_rows() != dataset.num_rows() ||
          !params_.histogram_index->Covers(features_)) {
        return InvalidArgumentError(
            "histogram_index does not cover this dataset's feature columns");
      }
      hist = params_.histogram_index;
    } else {
      auto built = HistogramIndex::Build(dataset, features_, rows,
                                         {.max_bins = params_.max_bins},
                                         params_.executor);
      if (!built.ok()) return built.status();
      local_hist.emplace(std::move(*built));
      hist = &*local_hist;
    }
  }

  const FeatureIndex* index = nullptr;
  std::optional<FeatureIndex> local_index;
  std::optional<IndexedSplitWorkspace> workspace;
  if (params_.use_feature_index && !params_.use_histogram) {
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
  ctx.labels = &labels.value();
  ctx.features = &features_;
  ctx.params = &params_;
  ctx.workspace = workspace ? &*workspace : nullptr;
  ctx.hist = hist;

  auto make_node = [&](const std::vector<size_t>& node_rows, int depth) {
    Node node;
    node.depth = depth;
    for (size_t r : node_rows) {
      if ((*ctx.labels)[r]) {
        ++node.count_positive;
      } else {
        ++node.count_negative;
      }
    }
    nodes_.push_back(node);
    return static_cast<int>(nodes_.size()) - 1;
  };

  // Pending rows for still-leaf nodes (freed as nodes split or finalize).
  std::vector<std::vector<size_t>> node_rows;
  node_rows.push_back(rows);
  make_node(rows, 0);

  // Best-first growth: always split the node with the best criterion value,
  // so an explicit leaf budget yields the most valuable tree of that size.
  struct HeapEntry {
    double score;
    int node;
    SplitSpec spec;
    bool operator<(const HeapEntry& other) const {
      return score < other.score;
    }
  };
  std::priority_queue<HeapEntry> heap;

  auto consider = [&](int node_id) -> Status {
    const Node& node = nodes_[static_cast<size_t>(node_id)];
    if (node.depth >= params_.max_depth) return Status::Ok();
    if (node.total() < params_.min_samples_split) return Status::Ok();
    if (node.count_positive == 0 || node.count_negative == 0) {
      return Status::Ok();
    }
    auto spec =
        FindBestSplit(ctx, node_rows[static_cast<size_t>(node_id)], node_id);
    if (!spec.ok()) return spec.status();
    if (spec->valid) heap.push({spec->score, node_id, std::move(*spec)});
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

    // Partition this node's rows.
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
    if (left_rows.empty() || right_rows.empty()) continue;  // Degenerate.

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
    if (!spec.left_categories.empty()) {
      std::vector<std::string> left_names, right_names;
      for (size_t k = 0; k < spec.left_categories.size(); ++k) {
        (spec.left_categories[k] ? left_names : right_names)
            .push_back(col.CategoryName(static_cast<int32_t>(k)));
      }
      node.left_set_desc = "{";
      node.left_set_desc += util::Join(left_names, ",");
      node.left_set_desc += "}";
      node.right_set_desc = "{";
      node.right_set_desc += util::Join(right_names, ",");
      node.right_set_desc += "}";
    }
    node.missing_goes_left = spec.missing_goes_left;
    node.left = left_id;
    node.right = right_id;
    node.split_gain = spec.score;
    node_rows[static_cast<size_t>(node_id)].clear();
    node_rows[static_cast<size_t>(node_id)].shrink_to_fit();
    ++leaves;

    ROADMINE_RETURN_IF_ERROR(consider(left_id));
    ROADMINE_RETURN_IF_ERROR(consider(right_id));
  }
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.GetCounter("ml.decision_tree.fits").Increment();
  metrics.GetCounter("ml.decision_tree.splits").Increment(leaves - 1);
  metrics.GetGauge("ml.decision_tree.leaves").Set(static_cast<double>(leaves));
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Prediction
// ---------------------------------------------------------------------------

int DecisionTreeClassifier::Route(const Node& node, const data::Dataset& dataset,
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
    go_left = code < node.left_categories.size() &&
              node.left_categories[code] != 0;
  }
  return go_left ? node.left : node.right;
}

int DecisionTreeClassifier::FindLeaf(const data::Dataset& dataset,
                                     size_t row) const {
  int id = 0;
  while (!nodes_[static_cast<size_t>(id)].is_leaf) {
    id = Route(nodes_[static_cast<size_t>(id)], dataset, row);
  }
  return id;
}

double DecisionTreeClassifier::PredictProba(const data::Dataset& dataset,
                                            size_t row) const {
  return nodes_[static_cast<size_t>(FindLeaf(dataset, row))].positive_fraction();
}

int DecisionTreeClassifier::Predict(const data::Dataset& dataset, size_t row,
                                    double cutoff) const {
  return PredictProba(dataset, row) >= cutoff ? 1 : 0;
}

util::Result<std::vector<double>> DecisionTreeClassifier::PredictBatch(
    const data::Dataset& dataset, const std::vector<size_t>& rows) const {
  if (!fitted()) return util::FailedPreconditionError("tree not fitted");
  std::vector<double> probs;
  probs.reserve(rows.size());
  for (size_t r : rows) probs.push_back(PredictProba(dataset, r));
  return probs;
}

std::vector<DecisionTreeClassifier::NodeView>
DecisionTreeClassifier::ExportNodes() const {
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
    view.leaf_value = node.positive_fraction();
    views.push_back(std::move(view));
  }
  return views;
}

// ---------------------------------------------------------------------------
// Pruning
// ---------------------------------------------------------------------------

Status DecisionTreeClassifier::PruneReducedError(
    const data::Dataset& dataset, const std::string& target_column,
    const std::vector<size_t>& rows) {
  if (!fitted()) return util::FailedPreconditionError("tree not fitted");
  auto labels = ExtractBinaryLabels(dataset, target_column);
  if (!labels.ok()) return labels.status();

  // Validation class counts per node, accumulated along each row's path.
  std::vector<size_t> val_pos(nodes_.size(), 0), val_neg(nodes_.size(), 0);
  for (size_t r : rows) {
    int id = 0;
    while (true) {
      if ((*labels)[r]) {
        ++val_pos[static_cast<size_t>(id)];
      } else {
        ++val_neg[static_cast<size_t>(id)];
      }
      const Node& node = nodes_[static_cast<size_t>(id)];
      if (node.is_leaf) break;
      id = Route(node, dataset, r);
    }
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

size_t DecisionTreeClassifier::leaf_count() const {
  if (nodes_.empty()) return 0;
  // Count reachable leaves only (pruning can orphan nodes).
  size_t count = 0;
  std::vector<int> stack = {0};
  while (!stack.empty()) {
    const Node& node = nodes_[static_cast<size_t>(stack.back())];
    stack.pop_back();
    if (node.is_leaf) {
      ++count;
    } else {
      stack.push_back(node.left);
      stack.push_back(node.right);
    }
  }
  return count;
}

int DecisionTreeClassifier::depth() const {
  int max_depth = 0;
  if (nodes_.empty()) return 0;
  std::vector<int> stack = {0};
  while (!stack.empty()) {
    const Node& node = nodes_[static_cast<size_t>(stack.back())];
    stack.pop_back();
    if (node.is_leaf) {
      max_depth = std::max(max_depth, node.depth);
    } else {
      stack.push_back(node.left);
      stack.push_back(node.right);
    }
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
  // Only reachable internal nodes count (pruning can orphan subtrees).
  std::vector<int> stack;
  if (!nodes_.empty()) stack.push_back(0);
  while (!stack.empty()) {
    const Node& node = nodes_[static_cast<size_t>(stack.back())];
    stack.pop_back();
    if (node.is_leaf) continue;
    gain[node.feature] += node.split_gain;
    total += node.split_gain;
    stack.push_back(node.left);
    stack.push_back(node.right);
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
    out += "node\t";
    out += std::to_string(node.is_leaf ? 1 : 0) + "\t";
    out += std::to_string(node.depth) + "\t";
    out += std::to_string(node.feature) + "\t";
    out += SerializeDouble(node.threshold) + "\t";
    out += std::to_string(node.missing_goes_left ? 1 : 0) + "\t";
    out += std::to_string(node.left) + "\t";
    out += std::to_string(node.right) + "\t";
    out += std::to_string(node.count_negative) + "\t";
    out += std::to_string(node.count_positive) + "\t";
    // Category mask as a 0/1 string ("-" when not a categorical split).
    if (node.left_categories.empty()) {
      out += "-";
    } else {
      for (uint8_t bit : node.left_categories) {
        out += bit ? '1' : '0';
      }
    }
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

  auto node_count = ParseCountLine(cursor, "nodes");
  if (!node_count.ok()) return node_count.status();
  if (*node_count <= 0) return InvalidArgumentError("no nodes");
  for (int64_t i = 0; i < *node_count; ++i) {
    const std::string* node_line = cursor.Next();
    if (node_line == nullptr) return InvalidArgumentError("truncated nodes");
    const std::vector<std::string> parts = util::Split(*node_line, '\t');
    if (parts.size() != 13 || parts[0] != "node") {
      return InvalidArgumentError("bad node line: " + *node_line);
    }
    Node node;
    int64_t value = 0;
    double threshold = 0.0;
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
    if (!util::ParseDouble(parts[4], &threshold)) {
      return InvalidArgumentError("bad threshold");
    }
    node.threshold = threshold;
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
      return InvalidArgumentError("bad negative count");
    }
    node.count_negative = static_cast<size_t>(value);
    if (!util::ParseInt(parts[9], &value) || value < 0) {
      return InvalidArgumentError("bad positive count");
    }
    node.count_positive = static_cast<size_t>(value);
    if (parts[10] != "-") {
      node.left_categories.reserve(parts[10].size());
      for (char c : parts[10]) {
        if (c != '0' && c != '1') {
          return InvalidArgumentError("bad category mask");
        }
        node.left_categories.push_back(c == '1' ? 1 : 0);
      }
    }
    node.left_set_desc = parts[11];
    node.right_set_desc = parts[12];
    tree.nodes_.push_back(std::move(node));
  }
  ROADMINE_RETURN_IF_ERROR(CheckTreeLinks(
      tree.nodes_, [](const Node& node) { return node.is_leaf; }));
  return tree;
}

}  // namespace roadmine::ml
