#include "ml/classifier.h"

namespace roadmine::ml {
namespace {

// One adapter template covers every concrete model: they all share the
// Fit/PredictProba value-type signature and the Predictor batch contract,
// which the adapter forwards to directly.
template <typename Model>
class Adapter : public BinaryClassifier {
 public:
  explicit Adapter(const char* name, Model model = {})
      : model_(std::move(model)), name_(name) {}

  util::Status Fit(const data::Dataset& dataset,
                   const std::string& target_column,
                   const std::vector<std::string>& feature_columns,
                   const std::vector<size_t>& rows) override {
    return model_.Fit(dataset, target_column, feature_columns, rows);
  }

  double PredictProba(const data::Dataset& dataset,
                      size_t row) const override {
    return model_.PredictProba(dataset, row);
  }

  util::Result<std::vector<double>> PredictBatch(
      const data::Dataset& dataset,
      const std::vector<size_t>& rows) const override {
    return model_.PredictBatch(dataset, rows);
  }

  const char* name() const override { return name_; }

 private:
  Model model_;
  const char* name_;
};

}  // namespace

const std::vector<std::string>& KnownClassifierNames() {
  static const std::vector<std::string>& names = *new std::vector<std::string>{
      "decision_tree", "naive_bayes", "logistic_regression", "neural_net",
      "bagged_trees", "gbt"};
  return names;
}

ClassifierSpec Spec(std::string name) {
  ClassifierSpec spec;
  spec.name = std::move(name);
  return spec;
}

util::Result<std::unique_ptr<BinaryClassifier>> MakeBinaryClassifier(
    const ClassifierSpec& spec) {
  if (spec.name == "decision_tree") {
    return std::unique_ptr<BinaryClassifier>(new Adapter<DecisionTreeClassifier>(
        "decision_tree", DecisionTreeClassifier(spec.decision_tree)));
  }
  if (spec.name == "naive_bayes") {
    return std::unique_ptr<BinaryClassifier>(new Adapter<NaiveBayesClassifier>(
        "naive_bayes", NaiveBayesClassifier(spec.naive_bayes)));
  }
  if (spec.name == "logistic_regression") {
    return std::unique_ptr<BinaryClassifier>(new Adapter<LogisticRegression>(
        "logistic_regression", LogisticRegression(spec.logistic_regression)));
  }
  if (spec.name == "neural_net") {
    NeuralNetParams params = spec.neural_net;
    if (spec.seed != 0) params.seed = spec.seed;
    return std::unique_ptr<BinaryClassifier>(new Adapter<NeuralNetClassifier>(
        "neural_net", NeuralNetClassifier(std::move(params))));
  }
  if (spec.name == "bagged_trees") {
    BaggedTreesParams params = spec.bagged_trees;
    if (spec.seed != 0) params.seed = spec.seed;
    return std::unique_ptr<BinaryClassifier>(new Adapter<BaggedTreesClassifier>(
        "bagged_trees", BaggedTreesClassifier(params)));
  }
  if (spec.name == "gbt") {
    GradientBoostedTreesParams params = spec.gbt;
    if (spec.seed != 0) params.seed = spec.seed;
    return std::unique_ptr<BinaryClassifier>(new Adapter<GradientBoostedTrees>(
        "gbt", GradientBoostedTrees(params)));
  }
  return util::NotFoundError("unknown classifier '" + spec.name + "'");
}

util::Result<std::unique_ptr<BinaryClassifier>> MakeBinaryClassifier(
    const std::string& name) {
  return MakeBinaryClassifier(Spec(name));
}

}  // namespace roadmine::ml
