// Helpers shared by the roadmine model implementations: target extraction
// and feature resolution against a Dataset.
#ifndef ROADMINE_ML_COMMON_H_
#define ROADMINE_ML_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/row_source.h"
#include "util/status.h"

namespace roadmine::ml {

// Per-row 0/1 labels from a binary target column. Numeric columns map
// nonzero -> 1; categorical columns map code 0 -> 0, anything else -> 1.
// Missing labels are an error (targets are never missing in this study).
[[nodiscard]] util::Result<std::vector<int8_t>> ExtractBinaryLabels(
    const data::Dataset& dataset, const std::string& target_column);

// Per-row numeric target values for regression; must be a numeric column
// with no missing values.
[[nodiscard]] util::Result<std::vector<double>> ExtractNumericTarget(
    const data::Dataset& dataset, const std::string& target_column);

// Validates a fit's row list against the dataset it indexes: an empty
// list, or any row id >= `num_rows`, is an InvalidArgumentError. Every
// learner's Fit(dataset, ..., rows) calls it first, before any per-row
// array is indexed by a row id.
[[nodiscard]] util::Status CheckFitRows(const std::vector<size_t>& rows,
                                        size_t num_rows);

// A resolved feature column reference.
struct FeatureRef {
  size_t column_index = 0;
  data::ColumnType type = data::ColumnType::kNumeric;
  std::string name;
};

// Resolves feature names against a dataset; errors if a name is absent or
// names the target column.
[[nodiscard]] util::Result<std::vector<FeatureRef>> ResolveFeatures(
    const data::Dataset& dataset, const std::vector<std::string>& features,
    const std::string& target_column);

// Schema-level twin of ResolveFeatures for streaming fits: resolves the
// names against a RowSource's TableSchema with the same errors, so a
// paged fit and an in-RAM fit reject the same inputs identically.
[[nodiscard]] util::Result<std::vector<FeatureRef>> ResolveFeaturesSchema(
    const data::TableSchema& schema, const std::vector<std::string>& features,
    const std::string& target_column);

// All column names except the listed exclusions — the study's "keep the
// variable list constant" convention (everything but targets/bookkeeping).
std::vector<std::string> FeatureNamesExcluding(
    const data::Dataset& dataset, const std::vector<std::string>& excluded);

// Overflow-safe split threshold between two consecutive distinct sorted
// values, guaranteed to land in [left, right). Trees route rows with
// `x <= threshold` left, so the threshold must be >= left and strictly
// below right or rows equal to `right` would be misrouted at predict
// time. `0.5 * (left + right)` violates both bounds: the sum overflows to
// inf for same-sign magnitudes above ~9e307, and for adjacent
// representable doubles the unrepresentable midpoint can round half-to-even
// onto `right` itself. `0.5 * left + 0.5 * right` never overflows for
// finite inputs and agrees with the naive form whenever that form is
// finite and normal; the clamp to `left` covers the adjacent-double case.
inline double SplitMidpoint(double left, double right) {
  const double mid = 0.5 * left + 0.5 * right;
  return mid < right ? mid : left;
}

}  // namespace roadmine::ml

#endif  // ROADMINE_ML_COMMON_H_
