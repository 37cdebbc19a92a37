#include "ml/feature_index.h"

#include <cmath>

#include "exec/executor.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace roadmine::ml {

using util::InvalidArgumentError;
using util::Status;

util::Result<FeatureIndex> FeatureIndex::Build(
    const data::Dataset& dataset, const std::vector<std::string>& columns,
    exec::Executor* executor) {
  std::vector<FeatureRef> features;
  features.reserve(columns.size());
  for (const std::string& name : columns) {
    auto index = dataset.ColumnIndex(name);
    if (!index.ok()) return index.status();
    FeatureRef ref;
    ref.name = name;
    ref.column_index = *index;
    ref.type = dataset.column(*index).type();
    features.push_back(std::move(ref));
  }
  return Build(dataset, features, executor);
}

util::Result<FeatureIndex> FeatureIndex::Build(
    const data::Dataset& dataset, const std::vector<FeatureRef>& features,
    exec::Executor* executor) {
  ROADMINE_TRACE_SPAN("ml.feature_index.build");
  obs::ScopedLatency build_timer(obs::MetricsRegistry::Global().GetHistogram(
      "ml.feature_index.build_ms"));

  if (dataset.num_rows() >= kMissingRank) {
    return InvalidArgumentError("too many rows for a FeatureIndex");
  }
  FeatureIndex out;
  out.num_rows_ = dataset.num_rows();
  out.numeric_slot_.assign(dataset.num_columns(), 0);
  out.categorical_slot_.assign(dataset.num_columns(), 0);
  for (const FeatureRef& ref : features) {
    if (ref.column_index >= dataset.num_columns()) {
      return InvalidArgumentError("feature column index out of range");
    }
    if (dataset.column(ref.column_index).type() != ref.type) {
      return InvalidArgumentError("feature type mismatch for column '" +
                                  ref.name + "'");
    }
    // Duplicate feature entries share one slot.
    if (ref.type == data::ColumnType::kNumeric) {
      if (out.numeric_slot_[ref.column_index] == 0) {
        out.numeric_.emplace_back();
        out.numeric_slot_[ref.column_index] = out.numeric_.size();
      }
    } else {
      if (out.categorical_slot_[ref.column_index] == 0) {
        out.categorical_.emplace_back();
        out.categorical_slot_[ref.column_index] = out.categorical_.size();
      }
    }
  }

  // Each column sorts/buckets independently into its own slot, so the
  // parallel build is bit-identical to the serial one.
  const size_t n = dataset.num_rows();
  std::vector<size_t> numeric_columns, categorical_columns;
  for (size_t c = 0; c < dataset.num_columns(); ++c) {
    if (out.numeric_slot_[c] != 0) numeric_columns.push_back(c);
    if (out.categorical_slot_[c] != 0) categorical_columns.push_back(c);
  }
  const size_t total = numeric_columns.size() + categorical_columns.size();
  const Status status = exec::ParallelFor(executor, total, [&](size_t i) {
    if (i < numeric_columns.size()) {
      const size_t c = numeric_columns[i];
      const data::Column& col = dataset.column(c);
      NumericColumn& slot = out.numeric_[out.numeric_slot_[c] - 1];
      slot.rank.assign(n, kMissingRank);
      std::vector<std::pair<double, uint32_t>> present;
      present.reserve(n);
      for (size_t r = 0; r < n; ++r) {
        const double v = col.NumericAt(r);
        if (!std::isnan(v)) present.emplace_back(v, static_cast<uint32_t>(r));
      }
      // Equal values share a rank, so their order after the sort is
      // irrelevant and an unstable sort suffices.
      std::sort(present.begin(), present.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (size_t j = 0; j < present.size(); ++j) {
        if (j > 0 && present[j - 1].first < present[j].first) ++slot.distinct;
        slot.rank[present[j].second] = slot.distinct;
      }
      if (!present.empty()) ++slot.distinct;
      slot.constant = slot.distinct < 2;
    } else {
      const size_t c = categorical_columns[i - numeric_columns.size()];
      const data::Column& col = dataset.column(c);
      CategoricalColumn& slot = out.categorical_[out.categorical_slot_[c] - 1];
      const size_t k = col.category_count();
      std::vector<uint32_t> counts(k, 0);
      size_t present = 0;
      for (size_t r = 0; r < n; ++r) {
        const int32_t code = col.CodeAt(r);
        if (code < 0) {
          slot.missing_rows.push_back(static_cast<uint32_t>(r));
        } else {
          ++counts[static_cast<size_t>(code)];
          ++present;
        }
      }
      slot.bucket_begin.assign(k + 1, 0);
      for (size_t cat = 0; cat < k; ++cat) {
        slot.bucket_begin[cat + 1] = slot.bucket_begin[cat] + counts[cat];
        if (counts[cat] > 0) ++slot.populated_levels;
      }
      slot.bucket_rows.resize(present);
      std::vector<uint32_t> cursor(slot.bucket_begin.begin(),
                                   slot.bucket_begin.end() - 1);
      for (size_t r = 0; r < n; ++r) {
        const int32_t code = col.CodeAt(r);
        if (code >= 0) {
          slot.bucket_rows[cursor[static_cast<size_t>(code)]++] =
              static_cast<uint32_t>(r);
        }
      }
      slot.constant = slot.populated_levels < 2;
    }
    return Status::Ok();
  });
  if (!status.ok()) return status;
  return out;
}

bool FeatureIndex::Covers(const std::vector<FeatureRef>& features) const {
  for (const FeatureRef& ref : features) {
    if (ref.type == data::ColumnType::kNumeric) {
      if (Numeric(ref.column_index) == nullptr) return false;
    } else {
      if (Categorical(ref.column_index) == nullptr) return false;
    }
  }
  return true;
}

const FeatureIndex::NumericColumn* FeatureIndex::Numeric(
    size_t column_index) const {
  if (column_index >= numeric_slot_.size()) return nullptr;
  const size_t slot = numeric_slot_[column_index];
  return slot == 0 ? nullptr : &numeric_[slot - 1];
}

const FeatureIndex::CategoricalColumn* FeatureIndex::Categorical(
    size_t column_index) const {
  if (column_index >= categorical_slot_.size()) return nullptr;
  const size_t slot = categorical_slot_[column_index];
  return slot == 0 ? nullptr : &categorical_[slot - 1];
}

bool StrictlyAscending(const std::vector<size_t>& rows) {
  for (size_t i = 0; i + 1 < rows.size(); ++i) {
    if (rows[i] >= rows[i + 1]) return false;
  }
  return true;
}

IndexedSplitWorkspace::IndexedSplitWorkspace(
    const FeatureIndex& index, const data::Dataset& dataset,
    const std::vector<FeatureRef>& features, const std::vector<size_t>& rows,
    exec::Executor* executor)
    : executor_(executor), num_features_(features.size()) {
  slot_.assign(features.size(), kNoSlot);
  constant_.assign(features.size(), 0);

  size_t numeric_count = 0;
  for (size_t f = 0; f < features.size(); ++f) {
    if (features[f].type == data::ColumnType::kNumeric) {
      slot_[f] = numeric_count++;
      constant_[f] = index.Numeric(features[f].column_index)->constant;
    } else {
      constant_[f] = index.Categorical(features[f].column_index)->constant;
    }
  }
  work_.resize(numeric_count);
  segments_.resize(numeric_count);

  // Stable counting sort of the fit rows by value rank: present rows land
  // in (value, fit position) order, each duplicate at its own position,
  // and missing rows keep fit order.
  RunPerFeature([&](size_t f) {
    if (slot_[f] == kNoSlot) return;
    const FeatureIndex::NumericColumn& column =
        *index.Numeric(features[f].column_index);
    const data::Column& col = dataset.column(features[f].column_index);
    NumericWork& work = work_[slot_[f]];
    // next[k] = first output position of rank k (after the prefix sum).
    std::vector<size_t> next(static_cast<size_t>(column.distinct) + 1, 0);
    size_t missing = 0;
    for (size_t r : rows) {
      const uint32_t k = column.rank[r];
      if (k == FeatureIndex::kMissingRank) {
        ++missing;
      } else {
        ++next[static_cast<size_t>(k) + 1];
      }
    }
    for (size_t k = 1; k < next.size(); ++k) next[k] += next[k - 1];
    work.values.resize(rows.size() - missing);
    work.rows.resize(rows.size() - missing);
    work.missing.reserve(missing);
    for (size_t r : rows) {
      const uint32_t k = column.rank[r];
      if (k == FeatureIndex::kMissingRank) {
        work.missing.push_back(static_cast<uint32_t>(r));
        continue;
      }
      const size_t at = next[k]++;
      work.values[at] = col.NumericAt(r);
      work.rows[at] = static_cast<uint32_t>(r);
    }
    const size_t scratch = std::max(work.rows.size(), work.missing.size());
    work.scratch_values.resize(scratch);
    work.scratch_rows.resize(scratch);

    Segment root;
    root.present_count = work.rows.size();
    root.missing_count = work.missing.size();
    segments_[slot_[f]].assign(1, root);
  });
}

IndexedSplitWorkspace::NumericView IndexedSplitWorkspace::NodeNumeric(
    int node, size_t feature) const {
  const NumericWork& work = work_[slot_[feature]];
  const Segment& seg = segments_[slot_[feature]][static_cast<size_t>(node)];
  NumericView view;
  view.values = work.values.data() + seg.present_begin;
  view.rows = work.rows.data() + seg.present_begin;
  view.count = seg.present_count;
  view.missing_rows = work.missing.data() + seg.missing_begin;
  view.missing_count = seg.missing_count;
  return view;
}

void IndexedSplitWorkspace::EnsureNode(int node) {
  const size_t needed = static_cast<size_t>(node) + 1;
  for (std::vector<Segment>& per_node : segments_) {
    if (per_node.size() < needed) per_node.resize(needed);
  }
}

void IndexedSplitWorkspace::RunPerFeature(
    const std::function<void(size_t)>& fn) {
  // Infallible by construction: `fn` is a void per-feature partition or
  // gather over preallocated buffers — it returns no status and calls
  // nothing that throws, so the only failure the batch could carry is
  // the scheduler's exception backstop for a std:: throw that cannot
  // occur here. The status is discarded deliberately; callers
  // (SplitNode, the workspace constructor) have no error channel and a
  // partial partition is impossible without an exception.
  (void)exec::ParallelFor(executor_, num_features_, [&fn](size_t f) {
    fn(f);
    return Status::Ok();
  });
}

}  // namespace roadmine::ml
