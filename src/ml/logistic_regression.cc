#include "ml/logistic_regression.h"

#include <algorithm>
#include <cmath>

#include "ml/common.h"
#include "ml/serialize.h"
#include "util/string_util.h"

namespace roadmine::ml {

using util::InvalidArgumentError;
using util::Status;

namespace {

double Sigmoid(double z) {
  if (z >= 0.0) {
    return 1.0 / (1.0 + std::exp(-z));
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

}  // namespace

Status LogisticRegression::Fit(const data::Dataset& dataset,
                               const std::string& target_column,
                               const std::vector<std::string>& feature_columns,
                               const std::vector<size_t>& rows) {
  ROADMINE_RETURN_IF_ERROR(CheckFitRows(rows, dataset.num_rows()));
  auto labels = ExtractBinaryLabels(dataset, target_column);
  if (!labels.ok()) return labels.status();
  ROADMINE_RETURN_IF_ERROR(encoder_.Fit(dataset, feature_columns, rows));
  auto matrix = encoder_.Transform(dataset, rows);
  if (!matrix.ok()) return matrix.status();

  const size_t n = rows.size();
  const size_t d = encoder_.feature_dim();
  weights_.assign(d, 0.0);
  intercept_ = 0.0;
  std::vector<double> velocity(d + 1, 0.0);
  std::vector<double> gradient(d + 1, 0.0);

  const double inv_n = 1.0 / static_cast<double>(n);
  for (int iter = 0; iter < params_.max_iterations; ++iter) {
    std::fill(gradient.begin(), gradient.end(), 0.0);
    for (size_t i = 0; i < n; ++i) {
      const std::vector<double>& x = (*matrix)[i];
      double z = intercept_;
      for (size_t j = 0; j < d; ++j) z += weights_[j] * x[j];
      const double err =
          Sigmoid(z) - static_cast<double>((*labels)[rows[i]]);
      for (size_t j = 0; j < d; ++j) gradient[j] += err * x[j];
      gradient[d] += err;
    }
    double max_grad = 0.0;
    for (size_t j = 0; j < d; ++j) {
      gradient[j] = gradient[j] * inv_n + params_.l2 * weights_[j];
      max_grad = std::max(max_grad, std::fabs(gradient[j]));
    }
    gradient[d] *= inv_n;  // Intercept is not regularized.
    max_grad = std::max(max_grad, std::fabs(gradient[d]));
    if (max_grad < params_.tolerance) break;

    for (size_t j = 0; j <= d; ++j) {
      velocity[j] = params_.momentum * velocity[j] -
                    params_.learning_rate * gradient[j];
    }
    for (size_t j = 0; j < d; ++j) weights_[j] += velocity[j];
    intercept_ += velocity[d];
  }
  fitted_ = true;
  return Status::Ok();
}

double LogisticRegression::PredictProba(const data::Dataset& dataset,
                                        size_t row) const {
  std::vector<double> x;
  encoder_.EncodeRow(dataset, row, x);
  double z = intercept_;
  for (size_t j = 0; j < x.size(); ++j) z += weights_[j] * x[j];
  return Sigmoid(z);
}

int LogisticRegression::Predict(const data::Dataset& dataset, size_t row,
                                double cutoff) const {
  return PredictProba(dataset, row) >= cutoff ? 1 : 0;
}

util::Result<std::vector<double>> LogisticRegression::PredictBatch(
    const data::Dataset& dataset, const std::vector<size_t>& rows) const {
  if (!fitted_) return util::FailedPreconditionError("model not fitted");
  ROADMINE_RETURN_IF_ERROR(encoder_.CheckSchema(dataset));
  ROADMINE_RETURN_IF_ERROR(CheckRowRange(rows, dataset.num_rows()));
  std::vector<double> probs;
  probs.reserve(rows.size());
  for (size_t r : rows) probs.push_back(PredictProba(dataset, r));
  return probs;
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

namespace {
constexpr char kSerializationHeader[] = "roadmine-logistic-regression v1";
}  // namespace

std::string LogisticRegression::Serialize() const {
  // The embedded encoder block comes last: its format is self-terminating,
  // so it can run to end-of-text.
  std::string out = kSerializationHeader;
  out += "\nintercept\t" + SerializeDouble(intercept_) + "\n";
  out += "weights " + std::to_string(weights_.size()) + "\n";
  for (double w : weights_) out += "w\t" + SerializeDouble(w) + "\n";
  out += "encoder\n";
  out += encoder_.Serialize();
  return out;
}

util::Result<LogisticRegression> LogisticRegression::Deserialize(
    const std::string& text, const data::Dataset& dataset) {
  LineCursor cursor(text);
  const std::string* header = cursor.Next();
  if (header == nullptr || *header != kSerializationHeader) {
    return InvalidArgumentError("bad serialization header");
  }
  LogisticRegression model;

  const std::string* intercept_line = cursor.Next();
  if (intercept_line == nullptr) {
    return InvalidArgumentError("missing intercept line");
  }
  {
    const std::vector<std::string> parts = util::Split(*intercept_line, '\t');
    if (parts.size() != 2 || parts[0] != "intercept" ||
        !util::ParseDouble(parts[1], &model.intercept_)) {
      return InvalidArgumentError("bad intercept line");
    }
  }

  auto weight_count = ParseCountLine(cursor, "weights");
  if (!weight_count.ok()) return weight_count.status();
  for (int64_t j = 0; j < *weight_count; ++j) {
    const std::string* line = cursor.Next();
    if (line == nullptr) return InvalidArgumentError("truncated weights");
    const std::vector<std::string> parts = util::Split(*line, '\t');
    double weight = 0.0;
    if (parts.size() != 2 || parts[0] != "w" ||
        !util::ParseDouble(parts[1], &weight)) {
      return InvalidArgumentError("bad weight line: " + *line);
    }
    model.weights_.push_back(weight);
  }

  const std::string* marker = cursor.Next();
  if (marker == nullptr || *marker != "encoder") {
    return InvalidArgumentError("missing encoder block");
  }
  auto encoder = data::FeatureEncoder::Deserialize(cursor.Remainder(), dataset);
  if (!encoder.ok()) return encoder.status();
  model.encoder_ = std::move(*encoder);
  if (model.encoder_.feature_dim() != model.weights_.size()) {
    return InvalidArgumentError("weight count does not match encoder width");
  }
  model.fitted_ = true;
  return model;
}

}  // namespace roadmine::ml
