#include "eval/trainers.h"

#include <memory>
#include <mutex>
#include <utility>

#include "ml/feature_index.h"
#include "ml/tree_growth.h"

namespace roadmine::eval {

namespace {

// Lazily-built ml::FeatureIndex shared by every fold a trainer runs on the
// same dataset. The index depends only on the dataset's feature columns —
// not on which rows train — so fold 1..k-1 reuse fold 0's build, and the
// result is bit-identical to each fold building its own. Keyed on the
// dataset's identity and shape: a trainer is conventionally driven against
// one dataset, and a different dataset object (or a resized one at the
// same address) triggers a rebuild.
class SharedIndexState {
 public:
  util::Result<std::shared_ptr<const ml::FeatureIndex>> GetOrBuild(
      const data::Dataset& dataset, const std::vector<std::string>& features) {
    std::lock_guard<std::mutex> lock(mu_);
    if (index_ != nullptr && dataset_ == &dataset &&
        num_rows_ == dataset.num_rows() &&
        num_columns_ == dataset.num_columns()) {
      return index_;
    }
    auto built = ml::FeatureIndex::Build(dataset, features);
    if (!built.ok()) return built.status();
    index_ = std::make_shared<const ml::FeatureIndex>(std::move(*built));
    dataset_ = &dataset;
    num_rows_ = dataset.num_rows();
    num_columns_ = dataset.num_columns();
    return index_;
  }

 private:
  std::mutex mu_;  // Folds may train concurrently (see CrossValidateBinary).
  const data::Dataset* dataset_ = nullptr;
  size_t num_rows_ = 0;
  size_t num_columns_ = 0;
  std::shared_ptr<const ml::FeatureIndex> index_;
};

// Only the tree-based classifiers read a FeatureIndex, and only when
// ml::ReadsFeatureIndex says their fit does.
bool SpecUsesFeatureIndex(const ml::ClassifierSpec& spec) {
  const ml::DecisionTreeParams* tree = nullptr;
  if (spec.name == "decision_tree") tree = &spec.decision_tree;
  if (spec.name == "bagged_trees") tree = &spec.bagged_trees.tree;
  return tree != nullptr &&
         ml::ReadsFeatureIndex(tree->use_feature_index, tree->use_histogram) &&
         tree->feature_index == nullptr;
}

}  // namespace

BinaryTrainer ClassifierTrainer(ml::ClassifierSpec spec, std::string target,
                                std::vector<std::string> features) {
  auto index_state = std::make_shared<SharedIndexState>();
  return [spec = std::move(spec), target = std::move(target),
          features = std::move(features), index_state](
             const data::Dataset& dataset,
             const std::vector<size_t>& train_rows)
             -> util::Result<FoldScorer> {
    ml::ClassifierSpec fold_spec = spec;
    std::shared_ptr<const ml::FeatureIndex> index;
    if (SpecUsesFeatureIndex(spec)) {
      auto shared = index_state->GetOrBuild(dataset, features);
      if (!shared.ok()) return shared.status();
      index = std::move(*shared);
      fold_spec.decision_tree.feature_index = index.get();
      fold_spec.bagged_trees.tree.feature_index = index.get();
    }
    auto built = ml::MakeBinaryClassifier(fold_spec);
    if (!built.ok()) return built.status();
    std::shared_ptr<ml::BinaryClassifier> model = std::move(*built);
    ROADMINE_RETURN_IF_ERROR(
        model->Fit(dataset, target, features, train_rows));
    // `index` rides in the captures to keep the shared index alive at
    // least as long as the model that was configured with it.
    return FoldScorer(
        [model, index, &dataset](const std::vector<size_t>& rows) {
          return model->PredictProbaBatch(dataset, rows);
        });
  };
}

}  // namespace roadmine::eval
