// Quantile-sketch feature binning for histogram-based tree training.
//
// A HistogramIndex maps every feature column to a small code space once
// per dataset: numeric columns get at most `max_bins` bins whose upper
// bounds are ACTUAL data values chosen at evenly spaced ranks of the
// sorted build rows (all distinct values when there are few enough),
// categorical columns map their level codes through directly, and missing
// values get the dedicated kMissingBin code. Numeric columns are binned
// from each row's dense value rank (a FeatureIndex's, or ranked in
// place), by counting build rows per rank: no sort of the build rows and
// no search per row. Trainers then build per-node statistics over codes
// (O(rows) per feature, no sorting) and scan at most max_bins candidate
// cuts per split.
//
// Corrected cut semantics: because every numeric cut is a data value (the
// upper bound of a bin), a split "bin <= b" serializes as the threshold
// `upper[b]` and the serving-side rule `x <= threshold` routes every
// binned row exactly as training did. No midpoint is ever synthesized, so
// the bin edges cannot reintroduce the overflow/rounding defects fixed in
// ml::SplitMidpoint (see DESIGN.md §12 for the equivalence contract:
// when a column's distinct values fit in max_bins the binned candidate
// set equals the exact-greedy one, and a histogram-trained tree scores
// the training rows bit-identically to the exact-greedy tree).
#ifndef ROADMINE_ML_HISTOGRAM_INDEX_H_
#define ROADMINE_ML_HISTOGRAM_INDEX_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "ml/common.h"
#include "util/status.h"

namespace roadmine::exec {
class Executor;
}  // namespace roadmine::exec

namespace roadmine::ml {

class FeatureIndex;

struct HistogramIndexParams {
  // Upper bound on bins per numeric column (2..65535). 256 keeps a
  // per-node histogram of a whole feature in a few cache lines while
  // leaving split quality indistinguishable at study scale.
  size_t max_bins = 256;
};

class HistogramIndex {
 public:
  // Code reserved for missing values (numeric NaN / negative categorical
  // code). Also assigned to rows the index was built without, should a
  // caller bin a dataset row outside the build set's value range.
  static constexpr uint16_t kMissingBin = 0xFFFF;

  // One column's binning. `codes` is dense over ALL dataset rows (not
  // just the build rows) so trainers can subsample rows freely without
  // re-binning; rows whose value falls outside the build range clamp to
  // the first/last bin.
  struct FeatureBins {
    bool is_numeric = true;
    // Fewer than two distinct present values among the build rows: the
    // column can never split and trainers skip it outright.
    bool constant = false;
    // Numeric only: ascending cut values, one per bin; bin b holds values
    // in (upper[b-1], upper[b]] and upper.back() is the build-row max.
    std::vector<double> upper;
    // upper.size() for numeric columns, category_count for categorical.
    size_t num_bins = 0;
    std::vector<uint16_t> codes;
  };

  HistogramIndex() = default;

  // Bins every feature column over the build rows (a row listed twice
  // counts twice). Numeric columns take their value ranks from `ranks`
  // when given, a FeatureIndex built over this same dataset (callers that
  // already hold one, like the study sweep, skip the ranking); otherwise
  // each column is ranked in place. The bins are the same either way.
  // Features evaluate independently on `executor` (results are
  // bit-identical at any thread count). Fails on a row list CheckFitRows
  // rejects, no features, a feature that does not match the dataset's
  // columns, out-of-range max_bins, `ranks` of another row count or
  // missing a numeric feature, or a categorical column with more levels
  // than the code space.
  [[nodiscard]] static util::Result<HistogramIndex> Build(
      const data::Dataset& dataset, const std::vector<FeatureRef>& features,
      const std::vector<size_t>& rows, HistogramIndexParams params = {},
      exec::Executor* executor = nullptr,
      const FeatureIndex* ranks = nullptr);

  // True when every listed feature column is indexed with matching type.
  bool Covers(const std::vector<FeatureRef>& features) const;

  // Binning for the feature stored at `column_index`; requires Covers.
  const FeatureBins& ColumnBins(size_t column_index) const {
    return bins_[slot_[column_index] - 1];
  }

  size_t num_rows() const { return num_rows_; }
  size_t max_bins() const { return params_.max_bins; }

 private:
  HistogramIndexParams params_;
  size_t num_rows_ = 0;
  // slot_[column_index] is 1 + index into bins_, or 0 when not indexed.
  std::vector<size_t> slot_;
  std::vector<FeatureBins> bins_;
};

}  // namespace roadmine::ml

#endif  // ROADMINE_ML_HISTOGRAM_INDEX_H_
