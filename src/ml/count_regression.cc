#include "ml/count_regression.h"

#include <algorithm>
#include <cmath>

#include "ml/common.h"
#include "ml/linalg.h"

namespace roadmine::ml {

using util::InvalidArgumentError;
using util::Status;

namespace {

constexpr double kMaxEta = 30.0;  // exp(30) ~ 1e13: overflow guard.

double Sigmoid(double z) {
  if (z >= 0.0) return 1.0 / (1.0 + std::exp(-z));
  const double e = std::exp(z);
  return e / (1.0 + e);
}

// Poisson deviance contribution of one observation.
double DevianceTerm(double y, double mu) {
  mu = std::max(mu, 1e-12);
  double term = -(y - mu);
  if (y > 0.0) term += y * std::log(y / mu);
  return 2.0 * term;
}

// Weighted Poisson IRLS on an encoded design matrix. Returns false on a
// numerically degenerate system.
bool FitPoissonIrls(const std::vector<std::vector<double>>& x,
                    const std::vector<double>& y,
                    const std::vector<double>& obs_weights,
                    const PoissonRegressionParams& params,
                    std::vector<double>& weights, double& intercept) {
  const size_t n = x.size();
  const size_t d = n > 0 ? x[0].size() : 0;
  weights.assign(d, 0.0);
  // Start at the weighted-mean intercept.
  double y_sum = 0.0, w_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    y_sum += obs_weights[i] * y[i];
    w_sum += obs_weights[i];
  }
  intercept = std::log(std::max(y_sum / std::max(w_sum, 1e-12), 1e-6));

  std::vector<double> eta(n), mu(n);
  for (int iter = 0; iter < params.max_iterations; ++iter) {
    // Newton step: (X^T W X + l2 I) delta = X^T (y - mu), W = diag(w_i mu_i).
    std::vector<std::vector<double>> hessian(
        d + 1, std::vector<double>(d + 1, 0.0));
    std::vector<double> gradient(d + 1, 0.0);
    for (size_t i = 0; i < n; ++i) {
      double e = intercept;
      for (size_t j = 0; j < d; ++j) e += weights[j] * x[i][j];
      e = std::clamp(e, -kMaxEta, kMaxEta);
      eta[i] = e;
      mu[i] = std::exp(e);
      const double w = obs_weights[i];
      const double resid = w * (y[i] - mu[i]);
      const double curv = w * mu[i];
      for (size_t j = 0; j < d; ++j) {
        gradient[j] += resid * x[i][j];
        for (size_t k = 0; k <= j; ++k) {
          hessian[j][k] += curv * x[i][j] * x[i][k];
        }
        hessian[d][j] += curv * x[i][j];
      }
      gradient[d] += resid;
      hessian[d][d] += curv;
    }
    for (size_t j = 0; j <= d; ++j) {
      for (size_t k = j + 1; k <= d; ++k) hessian[j][k] = hessian[k][j];
    }
    for (size_t j = 0; j < d; ++j) {
      hessian[j][j] += params.l2;
      gradient[j] -= params.l2 * weights[j];
    }
    hessian[d][d] += 1e-12;

    std::vector<double> step = gradient;
    if (!SolveSpd(hessian, step)) return false;
    double max_step = 0.0;
    for (size_t j = 0; j < d; ++j) {
      weights[j] += step[j];
      max_step = std::max(max_step, std::fabs(step[j]));
    }
    intercept += step[d];
    max_step = std::max(max_step, std::fabs(step[d]));
    if (max_step < params.tolerance) break;
  }
  return true;
}

}  // namespace

Status PoissonRegression::Fit(const data::Dataset& dataset,
                              const std::string& target_column,
                              const std::vector<std::string>& feature_columns,
                              const std::vector<size_t>& rows) {
  ROADMINE_RETURN_IF_ERROR(CheckFitRows(rows, dataset.num_rows()));
  auto target = ExtractNumericTarget(dataset, target_column);
  if (!target.ok()) return target.status();
  for (size_t r : rows) {
    if ((*target)[r] < 0.0) {
      return InvalidArgumentError("negative count at row " +
                                  std::to_string(r));
    }
  }
  ROADMINE_RETURN_IF_ERROR(encoder_.Fit(dataset, feature_columns, rows));
  auto matrix = encoder_.Transform(dataset, rows);
  if (!matrix.ok()) return matrix.status();

  std::vector<double> y;
  y.reserve(rows.size());
  for (size_t r : rows) y.push_back((*target)[r]);
  const std::vector<double> ones(rows.size(), 1.0);
  if (!FitPoissonIrls(*matrix, y, ones, params_, weights_, intercept_)) {
    return util::InternalError("Poisson IRLS failed (degenerate design)");
  }

  // Deviance + McFadden pseudo-R^2 against the intercept-only model.
  double mean_y = 0.0;
  for (double v : y) mean_y += v;
  mean_y = std::max(mean_y / static_cast<double>(y.size()), 1e-12);
  deviance_ = 0.0;
  double null_deviance = 0.0;
  for (size_t i = 0; i < y.size(); ++i) {
    double eta = intercept_;
    for (size_t j = 0; j < weights_.size(); ++j) {
      eta += weights_[j] * (*matrix)[i][j];
    }
    const double mu = std::exp(std::clamp(eta, -kMaxEta, kMaxEta));
    deviance_ += DevianceTerm(y[i], mu);
    null_deviance += DevianceTerm(y[i], mean_y);
  }
  pseudo_r2_ =
      null_deviance > 0.0 ? 1.0 - deviance_ / null_deviance : 0.0;
  fitted_ = true;
  return Status::Ok();
}

double PoissonRegression::PredictMean(const data::Dataset& dataset,
                                      size_t row) const {
  std::vector<double> x;
  encoder_.EncodeRow(dataset, row, x);
  double eta = intercept_;
  for (size_t j = 0; j < weights_.size(); ++j) eta += weights_[j] * x[j];
  return std::exp(std::clamp(eta, -kMaxEta, kMaxEta));
}

util::Result<std::vector<double>> PoissonRegression::PredictMeanMany(
    const data::Dataset& dataset, const std::vector<size_t>& rows) const {
  if (!fitted_) return util::FailedPreconditionError("model not fitted");
  ROADMINE_RETURN_IF_ERROR(encoder_.CheckSchema(dataset));
  ROADMINE_RETURN_IF_ERROR(CheckRowRange(rows, dataset.num_rows()));
  std::vector<double> out;
  out.reserve(rows.size());
  for (size_t r : rows) out.push_back(PredictMean(dataset, r));
  return out;
}

// ---------------------------------------------------------------------------
// Zero-inflated Poisson
// ---------------------------------------------------------------------------

Status ZeroInflatedPoisson::Fit(const data::Dataset& dataset,
                                const std::string& target_column,
                                const std::vector<std::string>& feature_columns,
                                const std::vector<size_t>& rows) {
  ROADMINE_RETURN_IF_ERROR(CheckFitRows(rows, dataset.num_rows()));
  auto target = ExtractNumericTarget(dataset, target_column);
  if (!target.ok()) return target.status();
  ROADMINE_RETURN_IF_ERROR(gate_encoder_.Fit(dataset, feature_columns, rows));
  auto matrix = gate_encoder_.Transform(dataset, rows);
  if (!matrix.ok()) return matrix.status();
  const size_t n = rows.size();
  const size_t d = gate_encoder_.feature_dim();

  std::vector<double> y(n);
  size_t zero_count = 0;
  for (size_t i = 0; i < n; ++i) {
    y[i] = (*target)[rows[i]];
    if (y[i] < 0.0) return InvalidArgumentError("negative count");
    zero_count += y[i] == 0.0;
  }
  if (zero_count == 0 || zero_count == n) {
    return InvalidArgumentError(
        "zero inflation needs both zero and positive counts");
  }

  // Responsibilities: probability each zero is structural.
  std::vector<double> z(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (y[i] == 0.0) z[i] = 0.5;
  }
  gate_weights_.assign(d, 0.0);
  gate_intercept_ = 0.0;

  std::vector<double> poisson_weights(n, 1.0);
  count_weights_.assign(d, 0.0);
  count_intercept_ = 0.0;
  for (int em = 0; em < params_.em_iterations; ++em) {
    // M-step 1: count model weighted by (1 - z).
    for (size_t i = 0; i < n; ++i) poisson_weights[i] = 1.0 - z[i];
    if (!FitPoissonIrls(*matrix, y, poisson_weights, params_.count_model,
                        count_weights_, count_intercept_)) {
      return util::InternalError("ZIP count-model IRLS failed");
    }

    // M-step 2: logistic gate on soft targets z (a few GD epochs suffice —
    // the gate is refit every EM round).
    for (int epoch = 0; epoch < 40; ++epoch) {
      std::vector<double> gradient(d + 1, 0.0);
      for (size_t i = 0; i < n; ++i) {
        double eta = gate_intercept_;
        for (size_t j = 0; j < d; ++j) {
          eta += gate_weights_[j] * (*matrix)[i][j];
        }
        const double err = Sigmoid(eta) - z[i];
        for (size_t j = 0; j < d; ++j) gradient[j] += err * (*matrix)[i][j];
        gradient[d] += err;
      }
      const double rate = 0.5 / static_cast<double>(n);
      for (size_t j = 0; j < d; ++j) gate_weights_[j] -= rate * gradient[j];
      gate_intercept_ -= rate * gradient[d];
    }

    // E-step: update responsibilities for the zeros.
    for (size_t i = 0; i < n; ++i) {
      if (y[i] != 0.0) {
        z[i] = 0.0;
        continue;
      }
      double count_eta = count_intercept_;
      double gate_eta = gate_intercept_;
      for (size_t j = 0; j < d; ++j) {
        count_eta += count_weights_[j] * (*matrix)[i][j];
        gate_eta += gate_weights_[j] * (*matrix)[i][j];
      }
      const double mu = std::exp(std::clamp(count_eta, -kMaxEta, kMaxEta));
      const double pi = Sigmoid(gate_eta);
      const double poisson_zero = (1.0 - pi) * std::exp(-std::min(mu, 700.0));
      z[i] = pi / std::max(pi + poisson_zero, 1e-12);
    }
  }

  fitted_ = true;
  return Status::Ok();
}

double ZeroInflatedPoisson::PredictCountBranchMean(
    const data::Dataset& dataset, size_t row) const {
  std::vector<double> x;
  gate_encoder_.EncodeRow(dataset, row, x);
  double eta = count_intercept_;
  for (size_t j = 0; j < count_weights_.size(); ++j) {
    eta += count_weights_[j] * x[j];
  }
  return std::exp(std::clamp(eta, -kMaxEta, kMaxEta));
}

double ZeroInflatedPoisson::PredictZeroProbability(const data::Dataset& dataset,
                                                   size_t row) const {
  std::vector<double> x;
  gate_encoder_.EncodeRow(dataset, row, x);
  double eta = gate_intercept_;
  for (size_t j = 0; j < gate_weights_.size(); ++j) {
    eta += gate_weights_[j] * x[j];
  }
  return Sigmoid(eta);
}

double ZeroInflatedPoisson::PredictMean(const data::Dataset& dataset,
                                        size_t row) const {
  return (1.0 - PredictZeroProbability(dataset, row)) *
         PredictCountBranchMean(dataset, row);
}

}  // namespace roadmine::ml
