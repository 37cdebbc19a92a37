// Naive Bayes classifier for mixed numeric/categorical features — the
// paper's supporting model of Table 5 / Figure 3.
//
// Numeric features use class-conditional Gaussians; categorical features
// use Laplace-smoothed frequency tables. Missing values simply contribute
// no likelihood term (the natural NB treatment of "missing as valid"); a
// numeric +-inf counts as missing, in the fit and in scoring.
#ifndef ROADMINE_ML_NAIVE_BAYES_H_
#define ROADMINE_ML_NAIVE_BAYES_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "ml/common.h"
#include "ml/predictor.h"
#include "util/status.h"

namespace roadmine::ml {

struct NaiveBayesParams {
  // Laplace smoothing pseudo-count for categorical tables.
  double laplace_alpha = 1.0;
  // Variance floor for the Gaussian likelihoods (avoids zero-variance
  // spikes on near-constant features).
  double min_variance = 1e-6;
};

class NaiveBayesClassifier : public Predictor {
 public:
  explicit NaiveBayesClassifier(NaiveBayesParams params = {})
      : params_(params) {}

  [[nodiscard]] util::Status Fit(const data::Dataset& dataset,
                   const std::string& target_column,
                   const std::vector<std::string>& feature_columns,
                   const std::vector<size_t>& rows);

  // P(class = 1 | x) via log-sum-exp normalization.
  double PredictProba(const data::Dataset& dataset, size_t row) const;
  int Predict(const data::Dataset& dataset, size_t row,
              double cutoff = 0.5) const;

  // Predictor: probabilities for many rows, in order.
  [[nodiscard]] util::Result<std::vector<double>> PredictBatch(
      const data::Dataset& dataset,
      const std::vector<size_t>& rows) const override;
  const char* name() const override { return "naive_bayes"; }

  bool fitted() const { return fitted_; }

  // Deployment persistence: priors plus per-feature class-conditional
  // statistics (Gaussians / log frequency tables).
  std::string Serialize() const;
  [[nodiscard]] static util::Result<NaiveBayesClassifier> Deserialize(
      const std::string& text, const data::Dataset& dataset);

 private:
  struct GaussianStats {
    double mean = 0.0;
    double variance = 1.0;
    size_t count = 0;  // Non-missing training rows for this class.
  };
  struct FeatureModel {
    // Per class (0/1):
    GaussianStats gaussian[2];            // Numeric features.
    std::vector<double> log_prob[2];      // Categorical: log P(code | class).
  };

  NaiveBayesParams params_;
  std::vector<FeatureRef> features_;
  std::vector<FeatureModel> models_;
  double log_prior_[2] = {0.0, 0.0};
  bool fitted_ = false;
};

}  // namespace roadmine::ml

#endif  // ROADMINE_ML_NAIVE_BAYES_H_
