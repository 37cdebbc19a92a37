#include "ml/histogram_index.h"

#include "exec/executor.h"
#include "ml/feature_index.h"

namespace roadmine::ml {

using util::InvalidArgumentError;
using util::Result;
using util::Status;

namespace {

// Bins one numeric column from its dense value ranks (FeatureIndex's
// NumericColumn: per dataset row, the rank of its value among the
// column's distinct present values). Cut values are data values: all
// distinct build-row values when they fit, else the values at max_bins
// evenly spaced positions b*n/max_bins - 1 of the sorted build-row
// multiset, deduplicated (heavy ties collapse, so a column may end with
// far fewer bins than max_bins). Counting build rows per rank finds those
// positions without sorting, and a rank-to-bin table codes every row.
void BinNumeric(const data::Column& col,
                const FeatureIndex::NumericColumn& ranks,
                const std::vector<size_t>& rows, size_t max_bins,
                HistogramIndex::FeatureBins* out) {
  std::vector<size_t> count(ranks.distinct, 0);
  size_t n = 0;
  for (size_t r : rows) {
    const uint32_t k = ranks.rank[r];
    if (k == FeatureIndex::kMissingRank) continue;
    ++count[k];
    ++n;
  }
  // The rank of each cut, ascending.
  std::vector<uint32_t> cuts;
  size_t present = 0;
  for (size_t c : count) present += c > 0;
  if (present <= max_bins) {
    for (uint32_t k = 0; k < ranks.distinct; ++k) {
      if (count[k] > 0) cuts.push_back(k);
    }
  } else {
    uint32_t k = 0;
    size_t through_k = count[0];  // Build rows ranked <= k.
    for (size_t b = 1; b <= max_bins; ++b) {
      const size_t position = b * n / max_bins - 1;
      while (through_k <= position) through_k += count[++k];
      if (cuts.empty() || cuts.back() != k) cuts.push_back(k);
    }
  }
  out->num_bins = cuts.size();
  out->constant = cuts.size() < 2;

  out->codes.resize(col.size(), HistogramIndex::kMissingBin);
  if (cuts.empty()) return;  // All missing: every code stays kMissingBin.
  // bin_of[k]: the first bin whose cut ranks >= k; ranks above the last
  // cut (possible only outside the build set) clamp into the last bin.
  std::vector<uint16_t> bin_of(ranks.distinct);
  size_t bin = 0;
  for (uint32_t k = 0; k < ranks.distinct; ++k) {
    while (bin + 1 < cuts.size() && cuts[bin] < k) ++bin;
    bin_of[k] = static_cast<uint16_t>(bin);
  }
  for (size_t r = 0; r < col.size(); ++r) {
    const uint32_t k = ranks.rank[r];
    if (k != FeatureIndex::kMissingRank) out->codes[r] = bin_of[k];
  }
  // Every cut's rank is held by a build row, so the cut values come from
  // build rows alone (-0.0 and +0.0 share a rank but print differently).
  out->upper.resize(cuts.size());
  for (size_t r : rows) {
    const uint32_t k = ranks.rank[r];
    if (k != FeatureIndex::kMissingRank && cuts[bin_of[k]] == k) {
      out->upper[bin_of[k]] = col.NumericAt(r);
    }
  }
}

Status BinCategorical(const data::Column& col, const std::vector<size_t>& rows,
                      HistogramIndex::FeatureBins* out) {
  const size_t k = col.category_count();
  if (k >= HistogramIndex::kMissingBin) {
    return InvalidArgumentError("column '" + col.name() + "' has " +
                                std::to_string(k) +
                                " levels, beyond the histogram code space");
  }
  out->is_numeric = false;
  out->num_bins = k;
  const std::vector<int32_t>& src = col.codes();
  out->codes.resize(src.size(), HistogramIndex::kMissingBin);
  for (size_t r = 0; r < src.size(); ++r) {
    if (src[r] >= 0) out->codes[r] = static_cast<uint16_t>(src[r]);
  }
  // Constant when the build rows touch fewer than two levels.
  std::vector<uint8_t> seen(k, 0);
  size_t present = 0;
  for (size_t r : rows) {
    const int32_t code = src[r];
    if (code < 0 || seen[static_cast<size_t>(code)]) continue;
    seen[static_cast<size_t>(code)] = 1;
    ++present;
    if (present >= 2) break;
  }
  out->constant = present < 2;
  return Status::Ok();
}

}  // namespace

Result<HistogramIndex> HistogramIndex::Build(
    const data::Dataset& dataset, const std::vector<FeatureRef>& features,
    const std::vector<size_t>& rows, HistogramIndexParams params,
    exec::Executor* executor, const FeatureIndex* ranks) {
  ROADMINE_RETURN_IF_ERROR(CheckFitRows(rows, dataset.num_rows()));
  if (features.empty()) return InvalidArgumentError("no features to bin");
  if (params.max_bins < 2 || params.max_bins >= kMissingBin) {
    return InvalidArgumentError("max_bins must be in [2, 65534]");
  }
  for (const FeatureRef& ref : features) {
    if (ref.column_index >= dataset.num_columns() ||
        dataset.column(ref.column_index).type() != ref.type) {
      return InvalidArgumentError("feature '" + ref.name +
                                  "' does not match the dataset's columns");
    }
    if (ref.type != data::ColumnType::kNumeric) continue;
    if (ranks == nullptr) {
      if (dataset.num_rows() >= FeatureIndex::kMissingRank) {
        return InvalidArgumentError("too many rows to rank for binning");
      }
    } else if (ranks->num_rows() != dataset.num_rows() ||
               ranks->Numeric(ref.column_index) == nullptr) {
      return InvalidArgumentError("feature index does not cover column '" +
                                  ref.name + "' of this dataset");
    }
  }
  HistogramIndex index;
  index.params_ = params;
  index.num_rows_ = dataset.num_rows();
  index.slot_.assign(dataset.num_columns(), 0);
  index.bins_.resize(features.size());
  for (size_t f = 0; f < features.size(); ++f) {
    index.slot_[features[f].column_index] = f + 1;
  }
  // Each feature bins independently and writes only its own slot, so an
  // executor changes nothing but speed. Without an index, a numeric
  // column's ranks live only while its own task bins it.
  ROADMINE_RETURN_IF_ERROR(exec::ParallelFor(
      executor, features.size(), [&](size_t f) -> Status {
        const data::Column& col = dataset.column(features[f].column_index);
        FeatureBins& out = index.bins_[f];
        if (features[f].type != data::ColumnType::kNumeric) {
          return BinCategorical(col, rows, &out);
        }
        if (ranks != nullptr) {
          BinNumeric(col, *ranks->Numeric(features[f].column_index), rows,
                     params.max_bins, &out);
        } else {
          BinNumeric(col, FeatureIndex::RankNumeric(col), rows,
                     params.max_bins, &out);
        }
        return Status::Ok();
      }));
  return index;
}

bool HistogramIndex::Covers(const std::vector<FeatureRef>& features) const {
  for (const FeatureRef& ref : features) {
    if (ref.column_index >= slot_.size() || slot_[ref.column_index] == 0) {
      return false;
    }
    const FeatureBins& bins = bins_[slot_[ref.column_index] - 1];
    if (bins.is_numeric != (ref.type == data::ColumnType::kNumeric)) {
      return false;
    }
  }
  return true;
}

}  // namespace roadmine::ml
