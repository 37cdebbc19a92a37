#include "ml/tree_growth.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <queue>
#include <type_traits>
#include <utility>

#include "exec/executor.h"
#include "ml/decision_tree.h"
#include "ml/feature_index.h"
#include "ml/histogram_index.h"
#include "ml/regression_tree.h"
#include "stats/distributions.h"

namespace roadmine::ml {

using util::InvalidArgumentError;
using util::Status;

bool ReadsFeatureIndex(bool use_feature_index, bool use_histogram) {
  return use_feature_index && !use_histogram;
}

namespace {

// Class counts are integers, so each is exact however it was summed.

// Pearson chi-square statistic of the 2x2 table (df = 1).
double ChiSquareStatistic(const SplitStats& left, const SplitStats& right,
                          const SplitStats& parent) {
  const double denom =
      left.n * right.n * parent.sum * (parent.n - parent.sum);
  if (denom <= 0.0) return 0.0;
  const double det =
      left.sum * (right.n - right.sum) - (left.n - left.sum) * right.sum;
  return parent.n * det * det / denom;
}

double GiniImpurity(const SplitStats& s) {
  if (s.n <= 0.0) return 0.0;
  const double p = s.sum / s.n;
  return 2.0 * p * (1.0 - p);
}

double BinaryEntropy(const SplitStats& s) {
  if (s.n <= 0.0) return 0.0;
  double h = 0.0;
  for (double count : {s.sum, s.n - s.sum}) {
    if (count <= 0.0) continue;
    const double p = count / s.n;
    h -= p * std::log2(p);
  }
  return h;
}

// The parent's impurity less the children's, weighted by their shares.
double ImpurityGain(double (*impurity)(const SplitStats&),
                    const SplitStats& left, const SplitStats& right,
                    const SplitStats& parent) {
  if (parent.n <= 0.0) return 0.0;
  return impurity(parent) - ((left.n / parent.n) * impurity(left) +
                             (right.n / parent.n) * impurity(right));
}

// p-value of the split's F statistic: one-way ANOVA with k = 2, from
// sufficient statistics.
double SplitPValue(const SplitStats& left, const SplitStats& right) {
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

// A split criterion is the only per-learner part of growth.
// Score(left, right, parent) scores splitting a node's present
// (non-missing) rows `parent` into `left` and `right`; per node the grower
// keeps the first candidate, in feature then cut order, with the highest
// score above 0. Accepts(score, left, right, num_features) says whether a
// node's best split, chosen among `num_features` features, is worth
// applying. Pure(node) says a node is never split. The grower is generic
// over the criterion, so the score inlines into the split scan.

// The decision tree's: chi-square, Gini or entropy of the 2x2 class
// table. For a 0/1 target, SplitStats' (n, sum) are the class counts:
// n rows, sum positives.
struct ClassTableCriterion {
  const DecisionTreeParams& params;

  double Score(const SplitStats& left, const SplitStats& right,
               const SplitStats& parent) const {
    switch (params.criterion) {
      case SplitCriterion::kChiSquare:
        return ChiSquareStatistic(left, right, parent);
      case SplitCriterion::kGini:
        return ImpurityGain(GiniImpurity, left, right, parent);
      case SplitCriterion::kEntropy:
        return ImpurityGain(BinaryEntropy, left, right, parent);
    }
    return 0.0;
  }
  // Chi-square: the (Bonferroni-adjusted, if enabled) p-value must reach
  // the significance level. Gini and entropy: the gain must exceed 1e-12.
  bool Accepts(double score, const SplitStats& /*left*/,
               const SplitStats& /*right*/, size_t num_features) const {
    if (params.criterion != SplitCriterion::kChiSquare) return score > 1e-12;
    double p_value = stats::ChiSquareSf(score, 1.0);
    if (params.bonferroni_adjust) {
      p_value = std::min(1.0, p_value * static_cast<double>(num_features));
    }
    return p_value <= params.significance_level;
  }
  bool Pure(const SplitStats& node) const {
    return node.sum == 0.0 || node.sum == node.n;
  }
};

// The regression tree's: the SSE reduction, accepted by the F test of the
// two child means.
struct FTestCriterion {
  const RegressionTreeParams& params;

  double Score(const SplitStats& left, const SplitStats& right,
               const SplitStats& parent) const {
    return parent.sse() - left.sse() - right.sse();
  }
  bool Accepts(double /*score*/, const SplitStats& left,
               const SplitStats& right, size_t /*num_features*/) const {
    return SplitPValue(left, right) <= params.significance_level;
  }
  bool Pure(const SplitStats& node) const { return node.sse() <= 1e-12; }
};

// Engage the executor for per-feature split scans only at nodes at least
// this large: below it, the scan is cheaper than waking the pool. The
// cutoff depends only on the node's row count, never on the thread
// count, so it cannot perturb results.
constexpr size_t kParallelSplitMinRows = 4096;

// A node's best candidate split: its feature, cut and missing direction.
struct Candidate : TreeNode {
  bool valid = false;
  double score = 0.0;
  SplitStats left_stats;   // Present rows sent left.
  SplitStats right_stats;  // Present rows sent right.
};

// Split search over one tree's fit. Read-only, so per-feature scans run
// concurrently.
template <typename Criterion>
struct SplitSearch {
  const data::Dataset& dataset;
  const std::vector<double>& target;
  const std::vector<FeatureRef>& features;
  const Criterion& criterion;
  size_t min_samples_leaf;
  exec::Executor* executor;
  const IndexedSplitWorkspace* workspace;  // Null: no FeatureIndex search.
  const HistogramIndex* hist;              // Null: exact numeric search.

  // Best admissible split of node `node_id` holding `rows`; invalid when
  // there is none. Features evaluate independently; merging their winners
  // in feature order with a strict comparison reproduces the serial scan
  // exactly, so an executor changes nothing but speed. Fails only through
  // the scheduler's exception backstop, which must not be dropped: a
  // swallowed error would silently yield a leaf where a split belongs.
  util::Result<Candidate> FindBestSplit(const std::vector<size_t>& rows,
                                        int node_id) const {
    std::vector<Candidate> candidates(features.size());
    ROADMINE_RETURN_IF_ERROR(exec::ParallelFor(
        rows.size() >= kParallelSplitMinRows ? executor : nullptr,
        features.size(), [&](size_t f) -> Status {
          candidates[f] = EvaluateFeature(rows, node_id, f);
          return Status::Ok();
        }));
    Candidate best;
    for (Candidate& candidate : candidates) {
      if (candidate.valid && candidate.score > best.score) {
        best = std::move(candidate);
      }
    }
    if (best.valid && !criterion.Accepts(best.score, best.left_stats,
                                         best.right_stats, features.size())) {
      best.valid = false;
    }
    return best;
  }

  // Best split of feature `f` over the node's rows. Globally constant
  // features can never split and are skipped without a scan.
  Candidate EvaluateFeature(const std::vector<size_t>& rows, int node_id,
                            size_t f) const {
    const FeatureRef& ref = features[f];
    const data::Column& col = dataset.column(ref.column_index);
    if (workspace != nullptr && workspace->IsConstant(f)) return {};

    SplitStats missing;
    Candidate best;
    if (ref.type == data::ColumnType::kCategorical) {
      // Levels in target-mean order (for a 0/1 target, positive rate),
      // then prefix cuts: optimal for SSE (Fisher's grouping) and for Gini
      // on a binary target, a strong heuristic for chi-square and entropy.
      std::vector<SplitStats> per_level(col.category_count());
      for (size_t r : rows) {
        const int32_t code = col.CodeAt(r);
        (code < 0 ? missing : per_level[static_cast<size_t>(code)])
            .Add(target[r]);
      }
      SplitStats parent;
      std::vector<size_t> order = Populated(per_level, &parent);
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return per_level[a].mean() < per_level[b].mean();
      });
      best = ScanInOrder(
          f, parent, order.size(),
          [&](size_t j) { return per_level[order[j]]; },
          [](size_t) { return false; },
          [&](size_t j, Candidate* split) {
            split->left_categories.assign(per_level.size(), 0);
            for (size_t i = 0; i <= j; ++i) {
              split->left_categories[order[i]] = 1;
            }
          });
    } else if (hist != nullptr) {
      // Cuts at nonempty bins' upper bounds, which are data values, so
      // `x <= threshold` routes binned rows exactly as the bin comparison
      // did. When bins map 1:1 onto the node's distinct present values
      // these are the exact search's partitions, in its order.
      const HistogramIndex::FeatureBins& bins =
          hist->ColumnBins(ref.column_index);
      if (bins.constant) return best;
      std::vector<SplitStats> per_bin(bins.num_bins);
      for (size_t r : rows) {
        const uint16_t code = bins.codes[r];
        (code == HistogramIndex::kMissingBin ? missing : per_bin[code])
            .Add(target[r]);
      }
      SplitStats parent;
      const std::vector<size_t> order = Populated(per_bin, &parent);
      best = ScanInOrder(
          f, parent, order.size(), [&](size_t j) { return per_bin[order[j]]; },
          [](size_t) { return false; },
          [&](size_t j, Candidate* split) {
            split->threshold = bins.upper[order[j]];
          });
    } else if (workspace != nullptr) {
      const IndexedSplitWorkspace::NumericView view =
          workspace->NodeNumeric(node_id, f);
      for (size_t i = 0; i < view.missing_count; ++i) {
        missing.Add(target[view.missing_rows[i]]);
      }
      best = ScanValues(f, view.count, [&](size_t i) { return view.values[i]; },
                        [&](size_t i) { return target[view.rows[i]]; });
    } else {
      // Per-node sort, the reference the indexed scan is tested against.
      // Stable, so equal values keep their fit order, as in the index.
      std::vector<std::pair<double, double>> present;  // (value, target)
      present.reserve(rows.size());
      for (size_t r : rows) {
        const double v = col.NumericAt(r);
        if (std::isnan(v)) {
          missing.Add(target[r]);
        } else {
          present.emplace_back(v, target[r]);
        }
      }
      std::stable_sort(
          present.begin(), present.end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      best = ScanValues(f, present.size(),
                        [&](size_t i) { return present[i].first; },
                        [&](size_t i) { return present[i].second; });
    }
    if (best.valid) best.missing_goes_left = MissingGoesLeft(best, missing);
    return best;
  }

  // A numeric feature's present rows in (value, fit position) order: one
  // group per row, cuts between distinct values at their midpoint. Both
  // exact searches visit rows in that order, so their running sums match
  // bit-for-bit.
  template <typename ValueAt, typename TargetAt>
  Candidate ScanValues(size_t f, size_t count, const ValueAt& value_at,
                       const TargetAt& target_at) const {
    SplitStats parent;
    for (size_t i = 0; i < count; ++i) parent.Add(target_at(i));
    return ScanInOrder(
        f, parent, count,
        [&](size_t i) {
          const double y = target_at(i);
          return SplitStats{1.0, y, y * y};
        },
        [&](size_t i) { return value_at(i) == value_at(i + 1); },
        [&](size_t i, Candidate* split) {
          split->threshold = SplitMidpoint(value_at(i), value_at(i + 1));
        });
  }

  // The cuts between consecutive groups of a node's present rows
  // `parent`, in order: group i holds `stats_at(i)`, the cut after it is
  // skipped when `tied(i)`, and `record(i, &best)` stores where a winning
  // cut falls.
  template <typename StatsAt, typename Tied, typename Record>
  Candidate ScanInOrder(size_t f, const SplitStats& parent, size_t count,
                        const StatsAt& stats_at, const Tied& tied,
                        const Record& record) const {
    Candidate best;
    const double min_leaf = static_cast<double>(min_samples_leaf);
    if (parent.n < 2.0 * min_leaf) return best;
    SplitStats left;
    for (size_t i = 0; i + 1 < count; ++i) {
      left.Add(stats_at(i));
      if (tied(i) || left.n < min_leaf || parent.n - left.n < min_leaf) {
        continue;
      }
      SplitStats right;
      right.n = parent.n - left.n;
      right.sum = parent.sum - left.sum;
      right.sum_sq = parent.sum_sq - left.sum_sq;
      const double score = criterion.Score(left, right, parent);
      if (score > best.score) {
        best.valid = true;
        best.feature = f;
        best.score = score;
        best.left_stats = left;
        best.right_stats = right;
        record(i, &best);
      }
    }
    return best;
  }

  // Indices of the groups holding at least one row, ascending; `total`
  // sums them in that order.
  static std::vector<size_t> Populated(const std::vector<SplitStats>& groups,
                                       SplitStats* total) {
    std::vector<size_t> populated;
    for (size_t g = 0; g < groups.size(); ++g) {
      if (groups[g].n <= 0.0) continue;
      populated.push_back(g);
      total->Add(groups[g]);
    }
    return populated;
  }

  // Missing rows follow the child whose mean (for a 0/1 target, whose
  // class mix) is nearest theirs; with none missing, the larger child.
  static bool MissingGoesLeft(const Candidate& split,
                              const SplitStats& missing) {
    if (missing.n > 0.0) {
      return std::fabs(missing.mean() - split.left_stats.mean()) <=
             std::fabs(missing.mean() - split.right_stats.mean());
    }
    return split.left_stats.n >= split.right_stats.n;
  }
};

// Grows one tree by `criterion`, under the limits and search settings of
// the learner's `params`.
template <typename Params, typename Criterion>
util::Result<std::vector<GrownNode>> Grow(
    const data::Dataset& dataset, const std::vector<double>& target,
    const std::vector<FeatureRef>& features, const std::vector<size_t>& rows,
    const Params& params, const Criterion& criterion) {
  // Histogram search, which only decision trees offer: the caller's
  // shared bins when given (after checking they cover this fit), else the
  // fit rows binned privately. It replaces the exact numeric search, so
  // no FeatureIndex is read then.
  bool use_histogram = false;
  const HistogramIndex* hist = nullptr;
  std::optional<HistogramIndex> local_hist;
  if constexpr (std::is_same_v<Params, DecisionTreeParams>) {
    use_histogram = params.use_histogram;
    if (use_histogram) {
      hist = params.histogram_index;
      if (hist != nullptr && (hist->num_rows() != dataset.num_rows() ||
                              !hist->Covers(features))) {
        return InvalidArgumentError(
            "histogram_index does not cover this dataset's feature columns");
      }
      if (hist == nullptr) {
        auto built = HistogramIndex::Build(dataset, features, rows,
                                           {.max_bins = params.max_bins},
                                           params.executor);
        if (!built.ok()) return built.status();
        hist = &local_hist.emplace(std::move(*built));
      }
    }
  }

  // Indexed search: the caller's shared FeatureIndex when given, else a
  // private one. Its root sort costs what one per-node sort did; every
  // further node then splits in O(n) instead of re-sorting.
  std::optional<FeatureIndex> local_index;
  std::optional<IndexedSplitWorkspace> workspace;
  if (ReadsFeatureIndex(params.use_feature_index, use_histogram)) {
    const FeatureIndex* index = params.feature_index;
    if (index != nullptr && (index->num_rows() != dataset.num_rows() ||
                             !index->Covers(features))) {
      return InvalidArgumentError(
          "feature_index does not cover this dataset's feature columns");
    }
    if (index == nullptr) {
      auto built = FeatureIndex::Build(dataset, features, params.executor);
      if (!built.ok()) return built.status();
      index = &local_index.emplace(std::move(*built));
    }
    workspace.emplace(*index, dataset, features, rows, params.executor);
  }
  const SplitSearch<Criterion> search{dataset,
                                      target,
                                      features,
                                      criterion,
                                      params.min_samples_leaf,
                                      params.executor,
                                      workspace ? &*workspace : nullptr,
                                      hist};

  // Pending rows of still-leaf nodes, freed as nodes split.
  std::vector<GrownNode> nodes;
  std::vector<std::vector<size_t>> node_rows;
  auto add_node = [&](std::vector<size_t> own_rows, int depth) {
    GrownNode node;
    node.depth = depth;
    for (size_t r : own_rows) node.stats.Add(target[r]);
    nodes.push_back(std::move(node));
    node_rows.push_back(std::move(own_rows));
    return static_cast<int>(nodes.size()) - 1;
  };
  add_node(rows, 0);

  // Best-first growth: always split the node with the best criterion
  // score, so a leaf budget yields the most valuable tree of that size.
  struct HeapEntry {
    double score;
    int node;
    Candidate split;
    bool operator<(const HeapEntry& other) const { return score < other.score; }
  };
  std::priority_queue<HeapEntry> heap;
  auto consider = [&](int node_id) -> Status {
    const GrownNode& node = nodes[static_cast<size_t>(node_id)];
    if (node.depth >= params.max_depth ||
        node.stats.n < static_cast<double>(params.min_samples_split) ||
        criterion.Pure(node.stats)) {
      return Status::Ok();
    }
    auto split =
        search.FindBestSplit(node_rows[static_cast<size_t>(node_id)], node_id);
    if (!split.ok()) return split.status();
    if (split->valid) heap.push({split->score, node_id, std::move(*split)});
    return Status::Ok();
  };
  ROADMINE_RETURN_IF_ERROR(consider(0));

  size_t leaves = 1;
  while (!heap.empty() &&
         (params.max_leaves == 0 || leaves < params.max_leaves)) {
    const HeapEntry entry = heap.top();
    heap.pop();
    const Candidate& split = entry.split;
    const size_t id = static_cast<size_t>(entry.node);
    const FeatureRef& ref = features[split.feature];
    const data::Column& col = dataset.column(ref.column_index);
    const bool numeric = ref.type == data::ColumnType::kNumeric;

    std::vector<size_t> left_rows, right_rows;
    for (size_t r : node_rows[id]) {
      (split.GoesLeft(col, numeric, r) ? left_rows : right_rows).push_back(r);
    }
    if (left_rows.empty() || right_rows.empty()) continue;  // Degenerate.

    const int depth = nodes[id].depth + 1;
    const int left_id = add_node(std::move(left_rows), depth);
    const int right_id = add_node(std::move(right_rows), depth);
    if (workspace) {
      workspace->SplitNode(entry.node, left_id, right_id, [&](uint32_t r) {
        return split.GoesLeft(col, numeric, r);
      });
    }
    GrownNode& node = nodes[id];
    node.is_leaf = false;
    node.feature = split.feature;
    node.threshold = split.threshold;
    node.left_categories = split.left_categories;
    node.missing_goes_left = split.missing_goes_left;
    node.left = left_id;
    node.right = right_id;
    node.score = split.score;
    std::vector<size_t>().swap(node_rows[id]);
    ++leaves;

    ROADMINE_RETURN_IF_ERROR(consider(left_id));
    ROADMINE_RETURN_IF_ERROR(consider(right_id));
  }
  return nodes;
}

}  // namespace

util::Result<std::vector<GrownNode>> GrowTree(
    const data::Dataset& dataset, const std::vector<double>& target,
    const std::vector<FeatureRef>& features, const std::vector<size_t>& rows,
    const DecisionTreeParams& params) {
  return Grow(dataset, target, features, rows, params,
              ClassTableCriterion{params});
}

util::Result<std::vector<GrownNode>> GrowTree(
    const data::Dataset& dataset, const std::vector<double>& target,
    const std::vector<FeatureRef>& features, const std::vector<size_t>& rows,
    const RegressionTreeParams& params) {
  return Grow(dataset, target, features, rows, params, FTestCriterion{params});
}

}  // namespace roadmine::ml
