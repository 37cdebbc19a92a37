// Pre-sorted feature index for exact-greedy tree training.
//
// The tree learners (decision_tree, regression_tree, m5_tree) search
// numeric splits by scanning each candidate attribute in value order. The
// legacy implementation re-gathers and re-sorts the node's rows for every
// numeric attribute at every node — an O(attrs * n log n)-per-node cost.
// A FeatureIndex removes every per-node sort: each numeric column's
// values are ranked once per dataset (missing rows flagged), each
// categorical column's rows are grouped into level buckets, and tree
// growth maintains the value order per node by *stable partitioning* the
// sorted ranges as nodes split (the SLIQ/SPRINT layout; see also the
// exact-greedy column index in xgboost).
//
// Bit-identity guarantee: split search over the index visits exactly the
// same candidate thresholds with exactly the same sufficient statistics,
// accumulated in exactly the same order, as the legacy per-node-sort
// path, so the produced trees are bit-identical for any fit-row list
// (enforced by tests/ml_feature_index_test.cc). The legacy path stable-
// sorts a node's gathered rows by value, so equal values keep their order
// in the fit's `rows`, and missing rows keep it too. The per-fit
// IndexedSplitWorkspace lists rows in that same (value, fit position)
// order, with missing rows in fit order, and stable partitioning keeps it
// at every node. That order matters for regression, whose statistics are
// running double sums; classification statistics are integer counts and
// exact in any order.
//
// One index is built per dataset and shared — across all members of a
// bagged ensemble, across CV folds, across every tree of a study sweep.
// The index holds row ids and value ranks only, is immutable after Build,
// and is safe to read from any number of threads.
#ifndef ROADMINE_ML_FEATURE_INDEX_H_
#define ROADMINE_ML_FEATURE_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "ml/common.h"
#include "util/status.h"

namespace roadmine::exec {
class Executor;
}  // namespace roadmine::exec

namespace roadmine::ml {

class FeatureIndex {
 public:
  // Rank of a missing (NaN) value in NumericColumn::rank.
  static constexpr uint32_t kMissingRank = UINT32_MAX;

  struct NumericColumn {
    // Per dataset row: the dense rank of the row's value among the
    // column's distinct present values (0 = smallest, equal values share
    // a rank), or kMissingRank when the value is missing. A fit orders its
    // rows by counting sort on this rank (see IndexedSplitWorkspace).
    std::vector<uint32_t> rank;
    // Number of distinct present values (one past the largest rank).
    uint32_t distinct = 0;
    // Fewer than two distinct present values: the column can never yield
    // a split at any node, so split search skips it outright.
    bool constant = false;
  };

  struct CategoricalColumn {
    // Rows grouped by category code ("level buckets"): level c occupies
    // bucket_rows[bucket_begin[c] .. bucket_begin[c + 1]), ascending
    // within each bucket.
    std::vector<uint32_t> bucket_rows;
    std::vector<uint32_t> bucket_begin;  // Size category_count() + 1.
    // Rows with a missing code (-1), ascending.
    std::vector<uint32_t> missing_rows;
    // Levels with at least one row.
    size_t populated_levels = 0;
    // Fewer than two populated levels: never splittable at any node.
    bool constant = false;
  };

  // Builds the index for the named columns of `dataset`. Columns build
  // independently, so an executor parallelizes the per-column sorts; the
  // result is identical at any thread count. Fails when the dataset has
  // more rows than a uint32_t row id can address.
  [[nodiscard]] static util::Result<FeatureIndex> Build(
      const data::Dataset& dataset,
      const std::vector<std::string>& columns,
      exec::Executor* executor = nullptr);

  // Same, for columns already resolved to FeatureRefs.
  [[nodiscard]] static util::Result<FeatureIndex> Build(
      const data::Dataset& dataset, const std::vector<FeatureRef>& features,
      exec::Executor* executor = nullptr);

  // Row count of the dataset the index was built over. A consumer must
  // reject an index whose row count differs from its training dataset.
  size_t num_rows() const { return num_rows_; }

  // True when every feature's column is indexed (with a matching type).
  bool Covers(const std::vector<FeatureRef>& features) const;

  // Per-column lookup by dataset column index; nullptr when the column is
  // not indexed (or indexed as the other type).
  const NumericColumn* Numeric(size_t column_index) const;
  const CategoricalColumn* Categorical(size_t column_index) const;

 private:
  FeatureIndex() = default;

  size_t num_rows_ = 0;
  // column index -> slot + 1 into numeric_/categorical_ (0 = absent).
  std::vector<size_t> numeric_slot_;
  std::vector<size_t> categorical_slot_;
  std::vector<NumericColumn> numeric_;
  std::vector<CategoricalColumn> categorical_;
};

// True when `rows` is strictly ascending (sorted, no duplicates). No
// library code calls it: tree fits grow over the index for any row order.
// It is kept because perfbench/study.cc's replay still reads it.
bool StrictlyAscending(const std::vector<size_t>& rows);

// Per-fit mutable view over a FeatureIndex: every numeric feature's rows
// for one tree fit, held in value order and partitioned into per-node
// contiguous segments as the tree grows. Split search reads a node's
// segment (already sorted — no per-node sort); applying a split stable-
// partitions the parent's segment into the two child segments in place.
//
// Node handles are the caller's node ids (the tree's node vector indices):
// the root is node 0, and SplitNode registers the children's segments
// under the ids the caller allocated. The root lists each numeric
// feature's present rows by (value, position in `rows`) and its missing
// rows in `rows` order; a row listed twice (bootstrap samples) appears at
// each of its positions. That is the order the legacy path's stable
// per-node sort produces for any row list (see the file comment).
class IndexedSplitWorkspace {
 public:
  // `features` must be covered by `index`, `index.num_rows()` must match
  // `dataset.num_rows()` and every id in `rows` must be below it (the tree
  // Fit validates all three). `rows` is the fit's row list, in fit order.
  // Each numeric feature is ordered by a stable counting sort of `rows` on
  // the index's value ranks: O(rows + distinct values), no comparison
  // sort. An executor parallelizes per-feature work; results are
  // identical at any thread count.
  IndexedSplitWorkspace(const FeatureIndex& index,
                        const data::Dataset& dataset,
                        const std::vector<FeatureRef>& features,
                        const std::vector<size_t>& rows,
                        exec::Executor* executor);

  // A node's view of one numeric feature: `count` rows in (value, fit
  // position) order plus the node's missing rows for that feature (fit
  // order).
  struct NumericView {
    const double* values = nullptr;
    const uint32_t* rows = nullptr;
    size_t count = 0;
    const uint32_t* missing_rows = nullptr;
    size_t missing_count = 0;
  };

  // Feature f (index into the fit's feature list) must be numeric.
  NumericView NodeNumeric(int node, size_t feature) const;

  // Globally-constant features can never split and are skipped without a
  // scan (<2 distinct present values / <2 populated levels).
  bool IsConstant(size_t feature) const { return constant_[feature]; }

  // Registers `left_node`/`right_node` as the children of `node` and
  // stable-partitions every numeric feature's segments of `node` by
  // `go_left(row)`. The predicate must be deterministic per row (it is the
  // tree's routing rule for the applied split). Each feature partitions
  // independently, so the executor parallelizes this; the resulting
  // orders do not depend on the thread count.
  template <typename GoLeft>
  void SplitNode(int node, int left_node, int right_node,
                 const GoLeft& go_left) {
    EnsureNode(std::max(left_node, right_node));
    RunPerFeature([&](size_t f) {
      if (slot_[f] == kNoSlot) return;
      PartitionFeature(slot_[f], node, left_node, right_node, go_left);
    });
  }

 private:
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  // One numeric feature's per-fit payload: fit rows in (value, fit
  // position) order (`values`/`rows` parallel), missing rows in fit order,
  // plus scratch for the right-hand side of an in-place stable partition.
  struct NumericWork {
    std::vector<double> values;
    std::vector<uint32_t> rows;
    std::vector<uint32_t> missing;
    std::vector<double> scratch_values;
    std::vector<uint32_t> scratch_rows;
  };

  // A node's contiguous ranges inside one feature's work arrays.
  struct Segment {
    size_t present_begin = 0;
    size_t present_count = 0;
    size_t missing_begin = 0;
    size_t missing_count = 0;
  };

  void EnsureNode(int node);
  void RunPerFeature(const std::function<void(size_t)>& fn);

  template <typename GoLeft>
  void PartitionFeature(size_t slot, int node, int left_node, int right_node,
                        const GoLeft& go_left) {
    NumericWork& work = work_[slot];
    const Segment seg = segments_[slot][static_cast<size_t>(node)];

    // Stable in-place partition: left-goers compact forward, right-goers
    // stage in scratch then append. Both sides keep (value, fit position)
    // order because a subsequence of a sorted range is sorted.
    size_t write = seg.present_begin;
    size_t staged = 0;
    for (size_t i = seg.present_begin;
         i < seg.present_begin + seg.present_count; ++i) {
      if (go_left(work.rows[i])) {
        work.values[write] = work.values[i];
        work.rows[write] = work.rows[i];
        ++write;
      } else {
        work.scratch_values[staged] = work.values[i];
        work.scratch_rows[staged] = work.rows[i];
        ++staged;
      }
    }
    for (size_t i = 0; i < staged; ++i) {
      work.values[write + i] = work.scratch_values[i];
      work.rows[write + i] = work.scratch_rows[i];
    }

    size_t missing_write = seg.missing_begin;
    size_t missing_staged = 0;
    for (size_t i = seg.missing_begin;
         i < seg.missing_begin + seg.missing_count; ++i) {
      if (go_left(work.missing[i])) {
        work.missing[missing_write++] = work.missing[i];
      } else {
        work.scratch_rows[missing_staged++] = work.missing[i];
      }
    }
    for (size_t i = 0; i < missing_staged; ++i) {
      work.missing[missing_write + i] = work.scratch_rows[i];
    }

    Segment left;
    left.present_begin = seg.present_begin;
    left.present_count = write - seg.present_begin;
    left.missing_begin = seg.missing_begin;
    left.missing_count = missing_write - seg.missing_begin;
    Segment right;
    right.present_begin = write;
    right.present_count = staged;
    right.missing_begin = missing_write;
    right.missing_count = missing_staged;
    segments_[slot][static_cast<size_t>(left_node)] = left;
    segments_[slot][static_cast<size_t>(right_node)] = right;
  }

  exec::Executor* executor_ = nullptr;
  size_t num_features_ = 0;
  // feature index -> slot into work_ (kNoSlot for categorical features).
  std::vector<size_t> slot_;
  std::vector<uint8_t> constant_;
  std::vector<NumericWork> work_;
  // segments_[slot][node id]; all slots share the node id space.
  std::vector<std::vector<Segment>> segments_;
};

}  // namespace roadmine::ml

#endif  // ROADMINE_ML_FEATURE_INDEX_H_
