#include "data/encoder.h"

#include <cmath>
#include <cstdio>

#include "util/string_util.h"

namespace roadmine::data {

using util::InvalidArgumentError;
using util::Result;
using util::Status;

Status FeatureEncoder::Fit(RowSource& source,
                           const std::vector<std::string>& feature_columns) {
  const TableSchema& schema = source.schema();
  column_names_ = feature_columns;
  plans_.clear();
  feature_names_.clear();
  feature_dim_ = 0;

  // Resolve the fitted columns against the stream schema up front.
  std::vector<size_t> indices;
  indices.reserve(feature_columns.size());
  for (const std::string& name : feature_columns) {
    auto idx = schema.ColumnIndex(name);
    if (!idx.ok()) return idx.status();
    indices.push_back(*idx);
  }

  // One streaming pass: sequential Welford per numeric column, in row
  // order — the same update sequence the in-RAM fit applied, so the
  // resulting statistics (and their serialization) are bit-identical.
  EncoderAccumulator acc;
  acc.numeric.resize(feature_columns.size());
  ROADMINE_RETURN_IF_ERROR(source.Reset());
  while (true) {
    auto chunk_result = source.Next();
    if (!chunk_result.ok()) return chunk_result.status();
    const Dataset* chunk = *chunk_result;
    if (chunk == nullptr) break;
    acc.rows += chunk->num_rows();
    for (size_t i = 0; i < indices.size(); ++i) {
      const Column& col = chunk->column(indices[i]);
      if (col.type() != ColumnType::kNumeric) continue;
      RunningMoments& moments = acc.numeric[i];
      for (const double v : col.numeric_values()) {
        if (!std::isfinite(v)) continue;  // Missing, or +-inf.
        moments.Add(v);
      }
    }
  }
  if (acc.rows == 0) {
    return InvalidArgumentError("cannot fit encoder on 0 rows");
  }

  for (size_t i = 0; i < feature_columns.size(); ++i) {
    const std::string& name = feature_columns[i];
    const ColumnSpec& spec = schema.columns[indices[i]];

    ColumnPlan plan;
    plan.column_index = indices[i];
    plan.type = spec.type;
    plan.offset = feature_dim_;
    if (spec.type == ColumnType::kNumeric) {
      const RunningMoments& moments = acc.numeric[i];
      plan.mean = moments.n > 0 ? moments.mean : 0.0;
      const double var = moments.Variance();
      plan.inv_std = var > 1e-12 ? 1.0 / std::sqrt(var) : 1.0;
      // Moments that overflowed encode the column as 0 on every row.
      if (!std::isfinite(plan.mean) || !std::isfinite(var)) {
        plan.mean = 0.0;
        plan.inv_std = 0.0;
      }
      plan.width = 1;
      feature_names_.push_back(name);
    } else {
      plan.width = spec.categories.size();
      if (plan.width == 0) {
        return InvalidArgumentError("categorical column '" + name +
                                    "' has an empty dictionary");
      }
      for (size_t k = 0; k < plan.width; ++k) {
        feature_names_.push_back(name + "=" + spec.categories[k]);
      }
    }
    feature_dim_ += plan.width;
    plans_.push_back(plan);
  }
  return Status::Ok();
}

Status FeatureEncoder::Fit(const Dataset& dataset,
                           const std::vector<std::string>& feature_columns,
                           const std::vector<size_t>& rows) {
  if (rows.empty()) return InvalidArgumentError("cannot fit encoder on 0 rows");
  // Whole-table fits stream the dataset zero-copy; subsets stream
  // gathered chunks. Either way the plans index into the full dataset
  // schema, exactly as before.
  bool all_rows = rows.size() == dataset.num_rows();
  for (size_t i = 0; all_rows && i < rows.size(); ++i) {
    all_rows = rows[i] == i;
  }
  if (all_rows) {
    DatasetSource source(dataset);
    return Fit(source, feature_columns);
  }
  DatasetSource source(dataset, rows);
  return Fit(source, feature_columns);
}

util::Status FeatureEncoder::CheckSchema(const Dataset& dataset) const {
  for (size_t i = 0; i < plans_.size(); ++i) {
    const ColumnPlan& plan = plans_[i];
    if (plan.column_index >= dataset.num_columns() ||
        dataset.column(plan.column_index).name() != column_names_[i] ||
        dataset.column(plan.column_index).type() != plan.type) {
      return InvalidArgumentError(
          "dataset schema does not match the fitted schema at column '" +
          column_names_[i] + "'");
    }
  }
  return util::Status::Ok();
}

void FeatureEncoder::EncodeRow(const Dataset& dataset, size_t row,
                               std::vector<double>& out) const {
  out.assign(feature_dim_, 0.0);
  for (const ColumnPlan& plan : plans_) {
    const Column& col = dataset.column(plan.column_index);
    if (plan.type == ColumnType::kNumeric) {
      const double v = col.NumericAt(row);
      // Missing or +-inf -> mean -> standardized 0 (already
      // zero-initialized).
      if (std::isfinite(v)) out[plan.offset] = (v - plan.mean) * plan.inv_std;
    } else {
      const int32_t code = col.CodeAt(row);
      if (code >= 0 && static_cast<size_t>(code) < plan.width) {
        out[plan.offset + static_cast<size_t>(code)] = 1.0;
      }
    }
  }
}

Result<std::vector<std::vector<double>>> FeatureEncoder::Transform(
    const Dataset& dataset, const std::vector<size_t>& rows) const {
  if (feature_dim_ == 0) {
    return util::FailedPreconditionError("encoder not fitted");
  }
  ROADMINE_RETURN_IF_ERROR(CheckSchema(dataset));
  std::vector<std::vector<double>> matrix(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EncodeRow(dataset, rows[i], matrix[i]);
  }
  return matrix;
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

namespace {
constexpr char kSerializationHeader[] = "roadmine-feature-encoder v1";

// %.17g round-trips any finite double exactly.
std::string FormatDouble(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}
}  // namespace

std::string FeatureEncoder::Serialize() const {
  std::string out = kSerializationHeader;
  out += "\ncolumns " + std::to_string(plans_.size()) + "\n";
  for (size_t c = 0; c < plans_.size(); ++c) {
    const ColumnPlan& plan = plans_[c];
    out += "column\t" + column_names_[c];
    if (plan.type == ColumnType::kNumeric) {
      out += "\tnumeric\t" + FormatDouble(plan.mean) + "\t" +
             FormatDouble(plan.inv_std) + "\n";
    } else {
      out += "\tcategorical\t" + std::to_string(plan.width) + "\n";
    }
  }
  return out;
}

util::Result<FeatureEncoder> FeatureEncoder::Deserialize(
    const std::string& text, const Dataset& dataset) {
  const std::vector<std::string> lines = util::Split(text, '\n');
  size_t pos = 0;
  auto next_line = [&]() -> const std::string* {
    while (pos < lines.size() && lines[pos].empty()) ++pos;
    return pos < lines.size() ? &lines[pos++] : nullptr;
  };

  const std::string* header = next_line();
  if (header == nullptr || *header != kSerializationHeader) {
    return InvalidArgumentError("bad serialization header");
  }
  const std::string* count_line = next_line();
  int64_t column_count = 0;
  if (count_line == nullptr || !util::StartsWith(*count_line, "columns ") ||
      !util::ParseInt(count_line->substr(8), &column_count) ||
      column_count < 0) {
    return InvalidArgumentError("bad column count line");
  }

  FeatureEncoder encoder;
  for (int64_t c = 0; c < column_count; ++c) {
    const std::string* line = next_line();
    if (line == nullptr) return InvalidArgumentError("truncated column list");
    const std::vector<std::string> parts = util::Split(*line, '\t');
    if (parts.size() < 3 || parts[0] != "column") {
      return InvalidArgumentError("bad column line: " + *line);
    }
    auto index = dataset.ColumnIndex(parts[1]);
    if (!index.ok()) return index.status();
    const Column& col = dataset.column(*index);

    ColumnPlan plan;
    plan.column_index = *index;
    plan.offset = encoder.feature_dim_;
    if (parts[2] == "numeric") {
      if (col.type() != ColumnType::kNumeric) {
        return InvalidArgumentError("column '" + parts[1] + "' is not numeric");
      }
      if (parts.size() != 5 || !util::ParseDouble(parts[3], &plan.mean) ||
          !util::ParseDouble(parts[4], &plan.inv_std)) {
        return InvalidArgumentError("bad numeric column line: " + *line);
      }
      plan.type = ColumnType::kNumeric;
      plan.width = 1;
      encoder.feature_names_.push_back(parts[1]);
    } else if (parts[2] == "categorical") {
      if (col.type() != ColumnType::kCategorical) {
        return InvalidArgumentError("column '" + parts[1] +
                                    "' is not categorical");
      }
      int64_t width = 0;
      if (parts.size() != 4 || !util::ParseInt(parts[3], &width) ||
          width <= 0) {
        return InvalidArgumentError("bad categorical column line: " + *line);
      }
      if (static_cast<size_t>(width) > col.category_count()) {
        return InvalidArgumentError(
            "column '" + parts[1] +
            "' has a narrower dictionary than the fitted encoder");
      }
      plan.type = ColumnType::kCategorical;
      plan.width = static_cast<size_t>(width);
      for (size_t k = 0; k < plan.width; ++k) {
        encoder.feature_names_.push_back(
            parts[1] + "=" + col.CategoryName(static_cast<int32_t>(k)));
      }
    } else {
      return InvalidArgumentError("bad column type: " + parts[2]);
    }
    encoder.feature_dim_ += plan.width;
    encoder.column_names_.push_back(parts[1]);
    encoder.plans_.push_back(plan);
  }
  return encoder;
}

}  // namespace roadmine::data
