#include "ml/naive_bayes.h"

#include <cmath>

#include "ml/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/distributions.h"
#include "util/string_util.h"

namespace roadmine::ml {

using util::InvalidArgumentError;
using util::Status;

Status NaiveBayesClassifier::Fit(const data::Dataset& dataset,
                                 const std::string& target_column,
                                 const std::vector<std::string>& feature_columns,
                                 const std::vector<size_t>& rows) {
  ROADMINE_TRACE_SPAN("ml.naive_bayes.fit");
  obs::ScopedLatency fit_timer(
      obs::MetricsRegistry::Global().GetHistogram("ml.fit_ms"));
  ROADMINE_RETURN_IF_ERROR(CheckFitRows(rows, dataset.num_rows()));
  auto labels = ExtractBinaryLabels(dataset, target_column);
  if (!labels.ok()) return labels.status();
  auto features = ResolveFeatures(dataset, feature_columns, target_column);
  if (!features.ok()) return features.status();
  features_ = std::move(*features);

  size_t class_count[2] = {0, 0};
  for (size_t r : rows) ++class_count[(*labels)[r]];
  if (class_count[0] == 0 || class_count[1] == 0) {
    return InvalidArgumentError("training rows contain a single class");
  }
  const double total = static_cast<double>(rows.size());
  log_prior_[0] = std::log(static_cast<double>(class_count[0]) / total);
  log_prior_[1] = std::log(static_cast<double>(class_count[1]) / total);

  models_.assign(features_.size(), FeatureModel{});
  for (size_t f = 0; f < features_.size(); ++f) {
    const FeatureRef& ref = features_[f];
    const data::Column& col = dataset.column(ref.column_index);
    FeatureModel& model = models_[f];

    if (ref.type == data::ColumnType::kNumeric) {
      // Per-class Welford.
      double mean[2] = {0.0, 0.0}, m2[2] = {0.0, 0.0};
      size_t n[2] = {0, 0};
      for (size_t r : rows) {
        const double v = col.NumericAt(r);
        if (!std::isfinite(v)) continue;  // Missing, or +-inf.
        const int y = (*labels)[r];
        ++n[y];
        const double delta = v - mean[y];
        mean[y] += delta / static_cast<double>(n[y]);
        m2[y] += delta * (v - mean[y]);
      }
      for (int y = 0; y < 2; ++y) {
        const double var =
            n[y] > 1 ? m2[y] / static_cast<double>(n[y] - 1) : 1.0;
        // Moments that overflowed (values near +-DBL_MAX) give no
        // estimate, like a class with fewer than two values.
        if (!std::isfinite(mean[y]) || !std::isfinite(var)) continue;
        model.gaussian[y].count = n[y];
        model.gaussian[y].mean = mean[y];
        model.gaussian[y].variance = std::max(var, params_.min_variance);
      }
    } else {
      const size_t k = col.category_count();
      std::vector<double> counts[2];
      counts[0].assign(k, 0.0);
      counts[1].assign(k, 0.0);
      double seen[2] = {0.0, 0.0};
      for (size_t r : rows) {
        const int32_t code = col.CodeAt(r);
        if (code < 0) continue;
        const int y = (*labels)[r];
        counts[y][static_cast<size_t>(code)] += 1.0;
        seen[y] += 1.0;
      }
      for (int y = 0; y < 2; ++y) {
        model.log_prob[y].resize(k);
        const double denom =
            seen[y] + params_.laplace_alpha * static_cast<double>(k);
        for (size_t cat = 0; cat < k; ++cat) {
          model.log_prob[y][cat] =
              std::log((counts[y][cat] + params_.laplace_alpha) /
                       std::max(denom, 1e-12));
        }
      }
    }
  }
  fitted_ = true;
  obs::MetricsRegistry::Global().GetCounter("ml.naive_bayes.fits").Increment();
  return Status::Ok();
}

double NaiveBayesClassifier::PredictProba(const data::Dataset& dataset,
                                          size_t row) const {
  double log_like[2] = {log_prior_[0], log_prior_[1]};
  for (size_t f = 0; f < features_.size(); ++f) {
    const FeatureRef& ref = features_[f];
    const data::Column& col = dataset.column(ref.column_index);
    if (col.IsMissing(row)) continue;  // Missing contributes no evidence.
    const FeatureModel& model = models_[f];
    if (ref.type == data::ColumnType::kNumeric) {
      const double v = col.NumericAt(row);
      if (!std::isfinite(v)) continue;  // +-inf: no evidence either.
      double feature_ll[2] = {0.0, 0.0};
      for (int y = 0; y < 2; ++y) {
        const GaussianStats& g = model.gaussian[y];
        if (g.count < 2) continue;  // No usable class-conditional estimate.
        feature_ll[y] = stats::NormalLogPdf(v, g.mean, std::sqrt(g.variance));
      }
      // A value so far out that z^2 overflows under both Gaussians rules
      // out neither class over the other: no evidence.
      if (std::isinf(feature_ll[0]) && std::isinf(feature_ll[1])) continue;
      log_like[0] += feature_ll[0];
      log_like[1] += feature_ll[1];
    } else {
      const size_t code = static_cast<size_t>(col.CodeAt(row));
      for (int y = 0; y < 2; ++y) {
        if (code < model.log_prob[y].size()) {
          log_like[y] += model.log_prob[y][code];
        }
      }
    }
  }
  // Normalize via log-sum-exp. Two features can each rule out a
  // different class; with both sums at -inf the row carries no usable
  // evidence and the prior stands.
  const double* ll = std::isinf(std::max(log_like[0], log_like[1]))
                         ? log_prior_
                         : log_like;
  const double max_ll = std::max(ll[0], ll[1]);
  const double z = std::exp(ll[0] - max_ll) + std::exp(ll[1] - max_ll);
  return std::exp(ll[1] - max_ll) / z;
}

int NaiveBayesClassifier::Predict(const data::Dataset& dataset, size_t row,
                                  double cutoff) const {
  return PredictProba(dataset, row) >= cutoff ? 1 : 0;
}

util::Result<std::vector<double>> NaiveBayesClassifier::PredictBatch(
    const data::Dataset& dataset, const std::vector<size_t>& rows) const {
  if (!fitted_) return util::FailedPreconditionError("model not fitted");
  ROADMINE_RETURN_IF_ERROR(CheckPredictInput(features_, dataset, rows));
  std::vector<double> probs;
  probs.reserve(rows.size());
  for (size_t r : rows) probs.push_back(PredictProba(dataset, r));
  return probs;
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

namespace {
constexpr char kSerializationHeader[] = "roadmine-naive-bayes v1";
}  // namespace

std::string NaiveBayesClassifier::Serialize() const {
  std::string out = kSerializationHeader;
  out += "\npriors\t" + SerializeDouble(log_prior_[0]) + "\t" +
         SerializeDouble(log_prior_[1]) + "\n";
  AppendFeatureSection(features_, &out);
  for (size_t f = 0; f < models_.size(); ++f) {
    const FeatureModel& model = models_[f];
    if (features_[f].type == data::ColumnType::kNumeric) {
      out += "gauss";
      for (int y = 0; y < 2; ++y) {
        out += '\t';
        out += SerializeDouble(model.gaussian[y].mean);
        out += '\t';
        out += SerializeDouble(model.gaussian[y].variance);
        out += '\t';
        out += std::to_string(model.gaussian[y].count);
      }
      out += "\n";
    } else {
      out += "cat\t" + std::to_string(model.log_prob[0].size());
      for (int y = 0; y < 2; ++y) {
        for (double lp : model.log_prob[y]) {
          out += '\t';
          out += SerializeDouble(lp);
        }
      }
      out += "\n";
    }
  }
  return out;
}

util::Result<NaiveBayesClassifier> NaiveBayesClassifier::Deserialize(
    const std::string& text, const data::Dataset& dataset) {
  LineCursor cursor(text);
  const std::string* header = cursor.Next();
  if (header == nullptr || *header != kSerializationHeader) {
    return InvalidArgumentError("bad serialization header");
  }
  NaiveBayesClassifier nb;

  const std::string* priors_line = cursor.Next();
  if (priors_line == nullptr) return InvalidArgumentError("missing priors");
  {
    const std::vector<std::string> parts = util::Split(*priors_line, '\t');
    if (parts.size() != 3 || parts[0] != "priors" ||
        !util::ParseDouble(parts[1], &nb.log_prior_[0]) ||
        !util::ParseDouble(parts[2], &nb.log_prior_[1])) {
      return InvalidArgumentError("bad priors line");
    }
  }

  auto features = ParseFeatureSection(cursor, dataset);
  if (!features.ok()) return features.status();
  nb.features_ = std::move(*features);

  nb.models_.reserve(nb.features_.size());
  for (const FeatureRef& ref : nb.features_) {
    const std::string* line = cursor.Next();
    if (line == nullptr) return InvalidArgumentError("truncated feature models");
    const std::vector<std::string> parts = util::Split(*line, '\t');
    FeatureModel model;
    if (parts[0] == "gauss") {
      if (ref.type != data::ColumnType::kNumeric) {
        return InvalidArgumentError("gauss model for categorical feature '" +
                                    ref.name + "'");
      }
      if (parts.size() != 7) {
        return InvalidArgumentError("bad gauss line: " + *line);
      }
      for (int y = 0; y < 2; ++y) {
        int64_t count = 0;
        if (!util::ParseDouble(parts[1 + 3 * y], &model.gaussian[y].mean) ||
            !util::ParseDouble(parts[2 + 3 * y], &model.gaussian[y].variance) ||
            !util::ParseInt(parts[3 + 3 * y], &count) || count < 0) {
          return InvalidArgumentError("bad gauss line: " + *line);
        }
        model.gaussian[y].count = static_cast<size_t>(count);
      }
    } else if (parts[0] == "cat") {
      if (ref.type != data::ColumnType::kCategorical) {
        return InvalidArgumentError("cat model for numeric feature '" +
                                    ref.name + "'");
      }
      int64_t k = 0;
      if (parts.size() < 2 || !util::ParseInt(parts[1], &k) || k < 0 ||
          parts.size() != 2 + 2 * static_cast<size_t>(k)) {
        return InvalidArgumentError("bad cat line: " + *line);
      }
      for (int y = 0; y < 2; ++y) {
        model.log_prob[y].resize(static_cast<size_t>(k));
        for (int64_t cat = 0; cat < k; ++cat) {
          if (!util::ParseDouble(parts[2 + static_cast<size_t>(y * k + cat)],
                                 &model.log_prob[y][static_cast<size_t>(cat)])) {
            return InvalidArgumentError("bad cat line: " + *line);
          }
        }
      }
    } else {
      return InvalidArgumentError("bad feature model line: " + *line);
    }
    nb.models_.push_back(std::move(model));
  }
  nb.fitted_ = true;
  return nb;
}

}  // namespace roadmine::ml
