#include "ml/m5_tree.h"

#include <cmath>
#include <unordered_map>

#include "ml/linalg.h"
#include "ml/serialize.h"
#include "util/string_util.h"

namespace roadmine::ml {

using util::InvalidArgumentError;
using util::Status;


Status M5Tree::Fit(const data::Dataset& dataset,
                   const std::string& target_column,
                   const std::vector<std::string>& feature_columns,
                   const std::vector<size_t>& rows) {
  ROADMINE_RETURN_IF_ERROR(CheckFitRows(rows, dataset.num_rows()));
  ROADMINE_RETURN_IF_ERROR(
      structure_.Fit(dataset, target_column, feature_columns, rows));
  auto target = ExtractNumericTarget(dataset, target_column);
  if (!target.ok()) return target.status();
  auto features = ResolveFeatures(dataset, feature_columns, target_column);
  if (!features.ok()) return features.status();
  numeric_features_.clear();
  for (const FeatureRef& ref : *features) {
    if (ref.type == data::ColumnType::kNumeric) {
      numeric_features_.push_back(ref);
    }
  }

  // Group training rows by leaf.
  std::unordered_map<int, std::vector<size_t>> leaf_rows;
  for (size_t r : rows) {
    leaf_rows[structure_.LeafId(dataset, r)].push_back(r);
  }

  leaf_models_.assign(structure_.node_count(), LeafModel{});
  has_model_.assign(structure_.node_count(), 0);
  const size_t d = numeric_features_.size();

  for (const auto& [leaf, members] : leaf_rows) {
    if (d == 0 || members.size() < d + 2) continue;  // Mean fallback.

    // Leaf-local feature means for missing-value imputation & centering.
    std::vector<double> x_mean(d, 0.0);
    std::vector<size_t> x_n(d, 0);
    for (size_t r : members) {
      for (size_t j = 0; j < d; ++j) {
        const double v =
            dataset.column(numeric_features_[j].column_index).NumericAt(r);
        if (std::isnan(v)) continue;
        x_mean[j] += v;
        ++x_n[j];
      }
    }
    for (size_t j = 0; j < d; ++j) {
      x_mean[j] = x_n[j] > 0 ? x_mean[j] / static_cast<double>(x_n[j]) : 0.0;
    }
    double y_mean = 0.0;
    for (size_t r : members) y_mean += (*target)[r];
    y_mean /= static_cast<double>(members.size());

    // Normal equations on centered data: (X^T X + ridge I) w = X^T y.
    std::vector<std::vector<double>> xtx(d, std::vector<double>(d, 0.0));
    std::vector<double> xty(d, 0.0);
    std::vector<double> x(d);
    for (size_t r : members) {
      for (size_t j = 0; j < d; ++j) {
        const double v =
            dataset.column(numeric_features_[j].column_index).NumericAt(r);
        x[j] = (std::isnan(v) ? x_mean[j] : v) - x_mean[j];
      }
      const double yc = (*target)[r] - y_mean;
      for (size_t j = 0; j < d; ++j) {
        xty[j] += x[j] * yc;
        for (size_t k = 0; k <= j; ++k) xtx[j][k] += x[j] * x[k];
      }
    }
    double trace = 0.0;
    for (size_t j = 0; j < d; ++j) trace += xtx[j][j];
    const double relative_ridge =
        params_.ridge * (trace / static_cast<double>(d) + 1e-12);
    for (size_t j = 0; j < d; ++j) {
      for (size_t k = j + 1; k < d; ++k) xtx[j][k] = xtx[k][j];
      xtx[j][j] += relative_ridge;
    }
    if (!SolveSpd(xtx, xty)) continue;  // Mean fallback on ill-conditioning.

    LeafModel model;
    model.weights = xty;
    model.count = members.size();
    model.intercept = y_mean;
    for (size_t j = 0; j < d; ++j) {
      model.intercept -= model.weights[j] * x_mean[j];
    }
    leaf_models_[static_cast<size_t>(leaf)] = std::move(model);
    has_model_[static_cast<size_t>(leaf)] = 1;
  }
  return Status::Ok();
}

double M5Tree::Predict(const data::Dataset& dataset, size_t row) const {
  const std::vector<int> path = structure_.PathToLeaf(dataset, row);
  const int leaf = path.back();

  double prediction;
  if (has_model_[static_cast<size_t>(leaf)]) {
    const LeafModel& model = leaf_models_[static_cast<size_t>(leaf)];
    prediction = model.intercept;
    for (size_t j = 0; j < numeric_features_.size(); ++j) {
      const double v =
          dataset.column(numeric_features_[j].column_index).NumericAt(row);
      if (!std::isnan(v)) prediction += model.weights[j] * v;
      // Missing values were imputed to the leaf mean at fit time; the
      // centered formulation makes their contribution 0 here as well.
    }
  } else {
    prediction = structure_.NodeMean(leaf);
  }

  if (params_.smoothing <= 0.0) return prediction;
  // Quinlan smoothing: blend with ancestor means walking to the root.
  for (size_t i = path.size() - 1; i-- > 0;) {
    const int node = path[i];
    const double n = static_cast<double>(structure_.NodeCount(path[i + 1]));
    prediction = (n * prediction + params_.smoothing * structure_.NodeMean(node)) /
                 (n + params_.smoothing);
  }
  return prediction;
}

util::Result<std::vector<double>> M5Tree::PredictBatch(
    const data::Dataset& dataset, const std::vector<size_t>& rows) const {
  if (!fitted()) return util::FailedPreconditionError("tree not fitted");
  std::vector<double> out;
  out.reserve(rows.size());
  for (size_t r : rows) out.push_back(Predict(dataset, r));
  return out;
}

M5Tree::LeafModelView M5Tree::leaf_model(int node_id) const {
  LeafModelView view;
  const size_t id = static_cast<size_t>(node_id);
  if (id < has_model_.size() && has_model_[id]) {
    view.has_model = true;
    view.intercept = leaf_models_[id].intercept;
    view.weights = leaf_models_[id].weights;
  }
  return view;
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

namespace {
constexpr char kSerializationHeader[] = "roadmine-m5-tree v1";
}  // namespace

std::string M5Tree::Serialize() const {
  // Leaf models come before the embedded structure block: the structure
  // tree's own format is self-terminating, so it can run to end-of-text.
  std::string out = kSerializationHeader;
  out += "\nsmoothing\t" + SerializeDouble(params_.smoothing) + "\n";
  out += "numeric_features " + std::to_string(numeric_features_.size()) + "\n";
  for (const FeatureRef& ref : numeric_features_) {
    out += "nfeature\t" + ref.name + "\n";
  }
  size_t model_count = 0;
  for (uint8_t has : has_model_) model_count += has;
  out += "leaf_models " + std::to_string(model_count) + "\n";
  for (size_t id = 0; id < has_model_.size(); ++id) {
    if (!has_model_[id]) continue;
    const LeafModel& model = leaf_models_[id];
    out += "leaf\t" + std::to_string(id) + "\t" +
           std::to_string(model.count) + "\t" +
           SerializeDouble(model.intercept);
    for (double w : model.weights) {
      out += '\t';
      out += SerializeDouble(w);
    }
    out += "\n";
  }
  out += "structure\n";
  out += structure_.Serialize();
  return out;
}

util::Result<M5Tree> M5Tree::Deserialize(const std::string& text,
                                         const data::Dataset& dataset) {
  LineCursor cursor(text);
  const std::string* header = cursor.Next();
  if (header == nullptr || *header != kSerializationHeader) {
    return InvalidArgumentError("bad serialization header");
  }
  M5Tree tree;

  const std::string* smoothing_line = cursor.Next();
  if (smoothing_line == nullptr) {
    return InvalidArgumentError("missing smoothing line");
  }
  {
    const std::vector<std::string> parts = util::Split(*smoothing_line, '\t');
    if (parts.size() != 2 || parts[0] != "smoothing" ||
        !util::ParseDouble(parts[1], &tree.params_.smoothing)) {
      return InvalidArgumentError("bad smoothing line");
    }
  }

  auto feature_count = ParseCountLine(cursor, "numeric_features");
  if (!feature_count.ok()) return feature_count.status();
  for (int64_t i = 0; i < *feature_count; ++i) {
    const std::string* line = cursor.Next();
    if (line == nullptr) {
      return InvalidArgumentError("truncated numeric feature list");
    }
    const std::vector<std::string> parts = util::Split(*line, '\t');
    if (parts.size() != 2 || parts[0] != "nfeature") {
      return InvalidArgumentError("bad numeric feature line: " + *line);
    }
    auto index = dataset.ColumnIndex(parts[1]);
    if (!index.ok()) return index.status();
    if (dataset.column(*index).type() != data::ColumnType::kNumeric) {
      return InvalidArgumentError("feature '" + parts[1] + "' is not numeric");
    }
    FeatureRef ref;
    ref.name = parts[1];
    ref.column_index = *index;
    ref.type = data::ColumnType::kNumeric;
    tree.numeric_features_.push_back(std::move(ref));
  }

  auto model_count = ParseCountLine(cursor, "leaf_models");
  if (!model_count.ok()) return model_count.status();
  struct PendingModel {
    size_t id;
    LeafModel model;
  };
  std::vector<PendingModel> pending;  // Not reserved: the count is unchecked.
  const size_t d = tree.numeric_features_.size();
  for (int64_t i = 0; i < *model_count; ++i) {
    const std::string* line = cursor.Next();
    if (line == nullptr) return InvalidArgumentError("truncated leaf models");
    const std::vector<std::string> parts = util::Split(*line, '\t');
    if (parts.size() != 4 + d || parts[0] != "leaf") {
      return InvalidArgumentError("bad leaf model line: " + *line);
    }
    PendingModel entry;
    int64_t value = 0;
    if (!util::ParseInt(parts[1], &value) || value < 0) {
      return InvalidArgumentError("bad leaf id");
    }
    entry.id = static_cast<size_t>(value);
    if (!util::ParseInt(parts[2], &value) || value < 0) {
      return InvalidArgumentError("bad leaf model count");
    }
    entry.model.count = static_cast<size_t>(value);
    if (!util::ParseDouble(parts[3], &entry.model.intercept)) {
      return InvalidArgumentError("bad leaf model intercept");
    }
    entry.model.weights.resize(d);
    for (size_t j = 0; j < d; ++j) {
      if (!util::ParseDouble(parts[4 + j], &entry.model.weights[j])) {
        return InvalidArgumentError("bad leaf model weight");
      }
    }
    pending.push_back(std::move(entry));
  }

  const std::string* marker = cursor.Next();
  if (marker == nullptr || *marker != "structure") {
    return InvalidArgumentError("missing structure block");
  }
  auto structure = RegressionTree::Deserialize(cursor.Remainder(), dataset);
  if (!structure.ok()) return structure.status();
  tree.structure_ = std::move(*structure);

  tree.leaf_models_.assign(tree.structure_.node_count(), LeafModel{});
  tree.has_model_.assign(tree.structure_.node_count(), 0);
  for (PendingModel& entry : pending) {
    if (entry.id >= tree.leaf_models_.size()) {
      return InvalidArgumentError("leaf model id out of range");
    }
    tree.leaf_models_[entry.id] = std::move(entry.model);
    tree.has_model_[entry.id] = 1;
  }
  return tree;
}

}  // namespace roadmine::ml
