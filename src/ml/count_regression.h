// Count-data regression: the statistical-methods baseline.
//
// The paper positions itself against "the foundation study ... performed
// by Shankar et al, using statistical methods" — count models of crash
// frequency. This module implements that baseline family so the benches
// can compare the paper's trees against what road-safety statistics used
// before data mining:
//   * Poisson GLM (log link) fitted by IRLS;
//   * a zero-inflated variant: a Bernoulli "structural zero" gate times a
//     Poisson count process — the spirit of Shankar's zero-altered
//     probability process.
#ifndef ROADMINE_ML_COUNT_REGRESSION_H_
#define ROADMINE_ML_COUNT_REGRESSION_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/encoder.h"
#include "util/status.h"

namespace roadmine::ml {

struct PoissonRegressionParams {
  int max_iterations = 50;
  // IRLS convergence threshold on the max coefficient update.
  double tolerance = 1e-8;
  // L2 ridge on the (standardized) coefficients, for stability.
  double l2 = 1e-6;
};

// Poisson GLM: E[y | x] = exp(w.x + b). Targets must be non-negative
// counts (numeric column without missing values).
class PoissonRegression {
 public:
  explicit PoissonRegression(PoissonRegressionParams params = {})
      : params_(params) {}

  [[nodiscard]] util::Status Fit(const data::Dataset& dataset,
                   const std::string& target_column,
                   const std::vector<std::string>& feature_columns,
                   const std::vector<size_t>& rows);

  // Expected count for one row; checks neither the schema nor `row`.
  double PredictMean(const data::Dataset& dataset, size_t row) const;
  // Expected counts for many rows, in order. An unfitted model is
  // FailedPrecondition; a dataset without the fitted columns, or a row id
  // past it, is InvalidArgument.
  [[nodiscard]] util::Result<std::vector<double>> PredictMeanMany(
      const data::Dataset& dataset, const std::vector<size_t>& rows) const;

  bool fitted() const { return fitted_; }
  // Coefficients in encoded space (see encoder().feature_names()).
  const std::vector<double>& coefficients() const { return weights_; }
  double intercept() const { return intercept_; }
  const data::FeatureEncoder& encoder() const { return encoder_; }

  // Training-set deviance (2 * sum[y log(y/mu) - (y - mu)]); lower is a
  // better fit. Computed at the end of Fit.
  double deviance() const { return deviance_; }
  // McFadden-style pseudo R^2 vs the intercept-only model.
  double pseudo_r_squared() const { return pseudo_r2_; }

 private:
  PoissonRegressionParams params_;
  data::FeatureEncoder encoder_;
  std::vector<double> weights_;
  double intercept_ = 0.0;
  double deviance_ = 0.0;
  double pseudo_r2_ = 0.0;
  bool fitted_ = false;
};

struct ZeroInflatedPoissonParams {
  PoissonRegressionParams count_model;
  // Iterations of the EM-style alternation between the zero gate and the
  // count process.
  int em_iterations = 15;
};

// Zero-inflated Poisson: P(y=0) mixes a structural-zero gate pi(x) with
// the Poisson zero mass; positive counts come from the Poisson branch.
// The gate is a logistic model on the same features.
class ZeroInflatedPoisson {
 public:
  explicit ZeroInflatedPoisson(ZeroInflatedPoissonParams params = {})
      : params_(params) {}

  [[nodiscard]] util::Status Fit(const data::Dataset& dataset,
                   const std::string& target_column,
                   const std::vector<std::string>& feature_columns,
                   const std::vector<size_t>& rows);

  // P(structural zero | x): the "inherently safe road" probability.
  double PredictZeroProbability(const data::Dataset& dataset,
                                size_t row) const;
  // mu(x): expected count of the Poisson branch (roads that do crash).
  double PredictCountBranchMean(const data::Dataset& dataset,
                                size_t row) const;
  // E[y | x] = (1 - pi(x)) * mu(x).
  double PredictMean(const data::Dataset& dataset, size_t row) const;

  bool fitted() const { return fitted_; }

 private:
  ZeroInflatedPoissonParams params_;
  // Count branch and logistic gate share one encoded feature space.
  data::FeatureEncoder gate_encoder_;
  std::vector<double> count_weights_;
  double count_intercept_ = 0.0;
  std::vector<double> gate_weights_;
  double gate_intercept_ = 0.0;
  bool fitted_ = false;
};

}  // namespace roadmine::ml

#endif  // ROADMINE_ML_COUNT_REGRESSION_H_
