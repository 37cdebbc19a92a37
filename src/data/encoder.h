// Dense feature encoding for the vector-space models (logistic regression,
// neural network, k-means). Trees and naive Bayes consume the Dataset
// directly; these models need standardized numeric vectors:
//   * numeric column  -> (x - mean) / std, missing imputed to the mean
//                        (0 after standardization); a non-finite value
//                        (+-inf) counts as missing, and a column whose
//                        moments overflow (values near +-DBL_MAX) gets
//                        mean 0 and scale 0, so it encodes as 0;
//   * categorical col -> one-hot over the training dictionary, missing and
//                        unseen categories encode as all-zeros.
// Fit statistics come from the training rows only, so validation encoding
// never leaks target-side information.
//
// Fit(RowSource&) is the primary fit: it streams any chunked row source
// (an in-memory table, a CSV reader, an out-of-core page directory)
// through an EncoderAccumulator, so a fit never needs the rows
// materialized at once. The classic Fit(Dataset, columns, rows) delegates
// to it through a DatasetSource and produces bit-identical statistics —
// the accumulator applies the same Welford update in the same row order.
#ifndef ROADMINE_DATA_ENCODER_H_
#define ROADMINE_DATA_ENCODER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/row_source.h"
#include "util/status.h"

namespace roadmine::data {

// Running moments of one numeric stream (missing skipped). Add() is
// Welford's update — sequentially it reproduces the classic in-RAM loop
// bit for bit.
struct RunningMoments {
  uint64_t n = 0;
  double mean = 0.0;
  double m2 = 0.0;

  void Add(double value) {
    ++n;
    const double delta = value - mean;
    mean += delta / static_cast<double>(n);
    m2 += delta * (value - mean);
  }

  double Variance() const {
    return n > 1 ? m2 / static_cast<double>(n - 1) : 0.0;
  }
};

// Per-column fit state accumulated across chunks: one RunningMoments slot
// per fitted column (unused for categorical columns, whose plan needs only
// the dictionary width from the schema) plus the row count.
struct EncoderAccumulator {
  uint64_t rows = 0;
  std::vector<RunningMoments> numeric;
};

class FeatureEncoder {
 public:
  FeatureEncoder() = default;

  // Primary fit: streams `source` once and learns encoding statistics
  // for `feature_columns` (resolved against the source schema). Errors
  // if a column is missing, a categorical dictionary is empty, or the
  // stream has 0 rows.
  [[nodiscard]] util::Status Fit(RowSource& source,
                   const std::vector<std::string>& feature_columns);

  // Legacy shape: fits on `rows` of `dataset` by streaming a
  // DatasetSource over them. Bit-identical to the pre-streaming
  // implementation. Errors if a column is missing or `rows` is empty.
  [[nodiscard]] util::Status Fit(const Dataset& dataset,
                   const std::vector<std::string>& feature_columns,
                   const std::vector<size_t>& rows);

  // Encoded width (number of doubles per row). 0 before Fit.
  size_t feature_dim() const { return feature_dim_; }

  // Name of each encoded slot, e.g. "aadt" or "surface_type=asphalt".
  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }

  // Checks that `dataset` carries every fitted column at its fitted index,
  // with its fitted name and type (InvalidArgument otherwise): encoding
  // addresses columns by position.
  [[nodiscard]] util::Status CheckSchema(const Dataset& dataset) const;

  // Encodes one row into `out` (resized to feature_dim()). The dataset must
  // pass CheckSchema and `row` must be inside it; EncodeRow checks
  // neither.
  void EncodeRow(const Dataset& dataset, size_t row,
                 std::vector<double>& out) const;

  // Encodes many rows, each inside `dataset`, into a row-major matrix;
  // fails when the dataset does not pass CheckSchema.
  [[nodiscard]] util::Result<std::vector<std::vector<double>>> Transform(
      const Dataset& dataset, const std::vector<size_t>& rows) const;

  // Deployment persistence: per-column encoding plans. Columns are stored
  // by name and re-resolved against the scoring dataset on load; a
  // categorical dictionary narrower than the fitted width is rejected.
  std::string Serialize() const;
  [[nodiscard]] static util::Result<FeatureEncoder> Deserialize(const std::string& text,
                                                  const Dataset& dataset);

 private:
  struct ColumnPlan {
    size_t column_index = 0;
    ColumnType type = ColumnType::kNumeric;
    // Numeric:
    double mean = 0.0;
    double inv_std = 1.0;
    // Categorical: slot offset of category code k is `offset + k`.
    size_t offset = 0;
    size_t width = 1;
  };

  std::vector<std::string> column_names_;
  std::vector<ColumnPlan> plans_;
  std::vector<std::string> feature_names_;
  size_t feature_dim_ = 0;
};

}  // namespace roadmine::data

#endif  // ROADMINE_DATA_ENCODER_H_
