#include "ml/common.h"

#include <algorithm>
#include <cmath>

namespace roadmine::ml {

using util::InvalidArgumentError;
using util::Result;

Result<std::vector<int8_t>> ExtractBinaryLabels(
    const data::Dataset& dataset, const std::string& target_column) {
  auto col = dataset.ColumnByName(target_column);
  if (!col.ok()) return col.status();
  std::vector<int8_t> labels;
  labels.reserve(dataset.num_rows());
  for (size_t r = 0; r < dataset.num_rows(); ++r) {
    if ((*col)->IsMissing(r)) {
      return InvalidArgumentError("missing target label at row " +
                                  std::to_string(r));
    }
    if ((*col)->type() == data::ColumnType::kNumeric) {
      labels.push_back((*col)->NumericAt(r) != 0.0 ? 1 : 0);
    } else {
      labels.push_back((*col)->CodeAt(r) != 0 ? 1 : 0);
    }
  }
  return labels;
}

util::Status CheckFitRows(const std::vector<size_t>& rows, size_t num_rows) {
  if (rows.empty()) return InvalidArgumentError("cannot fit on 0 rows");
  for (size_t r : rows) {
    if (r >= num_rows) {
      return InvalidArgumentError("fit row " + std::to_string(r) +
                                  " is past the dataset's " +
                                  std::to_string(num_rows) + " rows");
    }
  }
  return util::Status::Ok();
}

Result<std::vector<double>> ExtractNumericTarget(
    const data::Dataset& dataset, const std::string& target_column) {
  auto col = dataset.ColumnByName(target_column);
  if (!col.ok()) return col.status();
  if ((*col)->type() != data::ColumnType::kNumeric) {
    return InvalidArgumentError("target '" + target_column +
                                "' must be numeric for regression");
  }
  std::vector<double> values;
  values.reserve(dataset.num_rows());
  for (size_t r = 0; r < dataset.num_rows(); ++r) {
    const double v = (*col)->NumericAt(r);
    if (std::isnan(v)) {
      return InvalidArgumentError("missing target value at row " +
                                  std::to_string(r));
    }
    values.push_back(v);
  }
  return values;
}

Result<std::vector<FeatureRef>> ResolveFeatures(
    const data::Dataset& dataset, const std::vector<std::string>& features,
    const std::string& target_column) {
  if (features.empty()) return InvalidArgumentError("no feature columns");
  std::vector<FeatureRef> refs;
  refs.reserve(features.size());
  for (const std::string& name : features) {
    if (name == target_column) {
      return InvalidArgumentError("feature list contains the target '" +
                                  name + "'");
    }
    auto idx = dataset.ColumnIndex(name);
    if (!idx.ok()) return idx.status();
    FeatureRef ref;
    ref.column_index = *idx;
    ref.type = dataset.column(*idx).type();
    ref.name = name;
    refs.push_back(std::move(ref));
  }
  return refs;
}

Result<std::vector<FeatureRef>> ResolveFeaturesSchema(
    const data::TableSchema& schema, const std::vector<std::string>& features,
    const std::string& target_column) {
  if (features.empty()) return InvalidArgumentError("no feature columns");
  std::vector<FeatureRef> refs;
  refs.reserve(features.size());
  for (const std::string& name : features) {
    if (name == target_column) {
      return InvalidArgumentError("feature list contains the target '" +
                                  name + "'");
    }
    auto idx = schema.ColumnIndex(name);
    if (!idx.ok()) return idx.status();
    FeatureRef ref;
    ref.column_index = *idx;
    ref.type = schema.columns[*idx].type;
    ref.name = name;
    refs.push_back(std::move(ref));
  }
  return refs;
}

std::vector<std::string> FeatureNamesExcluding(
    const data::Dataset& dataset, const std::vector<std::string>& excluded) {
  std::vector<std::string> names;
  for (const std::string& name : dataset.ColumnNames()) {
    if (std::find(excluded.begin(), excluded.end(), name) == excluded.end()) {
      names.push_back(name);
    }
  }
  return names;
}

}  // namespace roadmine::ml
