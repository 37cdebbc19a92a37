#include "ml/bagging.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "exec/executor.h"
#include "ml/feature_index.h"
#include "ml/serialize.h"
#include "util/string_util.h"

namespace roadmine::ml {

using util::InvalidArgumentError;
using util::Status;

Status BaggedTreesClassifier::Fit(const data::Dataset& dataset,
                                  const std::string& target_column,
                                  const std::vector<std::string>& feature_columns,
                                  const std::vector<size_t>& rows) {
  if (params_.num_trees == 0) return InvalidArgumentError("num_trees == 0");
  if (params_.sample_fraction <= 0.0 || params_.sample_fraction > 1.0) {
    return InvalidArgumentError("sample_fraction outside (0, 1]");
  }
  if (params_.feature_fraction <= 0.0 || params_.feature_fraction > 1.0) {
    return InvalidArgumentError("feature_fraction outside (0, 1]");
  }
  ROADMINE_RETURN_IF_ERROR(CheckFitRows(rows, dataset.num_rows()));
  if (feature_columns.empty()) return InvalidArgumentError("no features");

  trees_.clear();

  const size_t sample_size = std::max<size_t>(
      1, static_cast<size_t>(std::llround(
             params_.sample_fraction * static_cast<double>(rows.size()))));
  const size_t features_per_tree = std::max<size_t>(
      1, static_cast<size_t>(std::llround(
             params_.feature_fraction *
             static_cast<double>(feature_columns.size()))));

  // One pre-sorted index serves every member: it depends only on the
  // dataset's feature columns, not on any bootstrap, and members only read
  // it. Feature-bagged members use a subset of the indexed columns, which
  // the index covers by construction.
  DecisionTreeParams tree_params = params_.tree;
  std::optional<FeatureIndex> ensemble_index;
  if (tree_params.use_feature_index && tree_params.feature_index == nullptr) {
    auto built =
        FeatureIndex::Build(dataset, feature_columns, params_.executor);
    if (!built.ok()) return built.status();
    ensemble_index.emplace(std::move(*built));
    tree_params.feature_index = &*ensemble_index;
  }

  // Member t's bootstrap and feature subset come from child stream t of
  // the ensemble seed, so they do not depend on which members trained
  // before it — serial and parallel fits build the same forest.
  std::vector<std::optional<DecisionTreeClassifier>> slots(params_.num_trees);
  const Status status = exec::ParallelFor(
      params_.executor, params_.num_trees, [&](size_t t) -> Status {
        util::Rng rng(util::Rng::SplitSeed(params_.seed, t));
        // Bootstrap rows (with replacement).
        std::vector<size_t> sample;
        sample.reserve(sample_size);
        for (size_t i = 0; i < sample_size; ++i) {
          sample.push_back(rows[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(rows.size()) - 1))]);
        }
        // Optional feature bagging; the full-feature case reuses the
        // caller's list instead of copying it per member.
        const std::vector<std::string>* features = &feature_columns;
        std::vector<std::string> bagged;
        if (features_per_tree < feature_columns.size()) {
          bagged = feature_columns;
          rng.Shuffle(bagged);
          bagged.resize(features_per_tree);
          features = &bagged;
        }

        DecisionTreeClassifier tree(tree_params);
        if (tree.Fit(dataset, target_column, *features, sample).ok()) {
          // A degenerate bootstrap (e.g. single-class sample in a tiny
          // minority setting) skips the member rather than failing the
          // ensemble, unless nothing trains at all.
          slots[t] = std::move(tree);
        }
        return Status::Ok();
      });
  if (!status.ok()) return status;

  trees_.reserve(params_.num_trees);
  for (std::optional<DecisionTreeClassifier>& slot : slots) {
    if (slot.has_value()) trees_.push_back(std::move(*slot));
  }
  if (trees_.empty()) {
    return InvalidArgumentError("no bootstrap member could be trained");
  }
  return Status::Ok();
}

double BaggedTreesClassifier::PredictProba(const data::Dataset& dataset,
                                           size_t row) const {
  double sum = 0.0;
  for (const DecisionTreeClassifier& tree : trees_) {
    sum += tree.PredictProba(dataset, row);
  }
  return sum / static_cast<double>(trees_.size());
}

int BaggedTreesClassifier::Predict(const data::Dataset& dataset, size_t row,
                                   double cutoff) const {
  return PredictProba(dataset, row) >= cutoff ? 1 : 0;
}

util::Result<std::vector<double>> BaggedTreesClassifier::PredictBatch(
    const data::Dataset& dataset, const std::vector<size_t>& rows) const {
  if (!fitted()) return util::FailedPreconditionError("ensemble not fitted");
  std::vector<double> probs(rows.size());
  // Chunks are independent reads of fitted trees into index-addressed
  // slots, so the output is thread-count-invariant at any chunking. The
  // task itself is infallible, but the scheduler's exception backstop is
  // not — propagate rather than return scores that were never computed.
  ROADMINE_RETURN_IF_ERROR(exec::ParallelForRanges(
      params_.executor, rows.size(),
      [&](size_t begin, size_t end) -> Status {
        for (size_t i = begin; i < end; ++i) {
          probs[i] = PredictProba(dataset, rows[i]);
        }
        return Status::Ok();
      }));
  return probs;
}

size_t BaggedTreesClassifier::total_leaves() const {
  size_t total = 0;
  for (const DecisionTreeClassifier& tree : trees_) {
    total += tree.leaf_count();
  }
  return total;
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

namespace {
constexpr char kSerializationHeader[] = "roadmine-bagged-trees v1";
}  // namespace

std::string BaggedTreesClassifier::Serialize() const {
  // Member trees embed as full decision-tree blocks behind "tree <k>"
  // marker lines; the inner format never emits a bare "tree <k>" line, so
  // the markers delimit unambiguously.
  std::string out = kSerializationHeader;
  out += "\ntrees " + std::to_string(trees_.size()) + "\n";
  for (size_t t = 0; t < trees_.size(); ++t) {
    out += "tree " + std::to_string(t) + "\n";
    out += trees_[t].Serialize();
  }
  return out;
}

util::Result<BaggedTreesClassifier> BaggedTreesClassifier::Deserialize(
    const std::string& text, const data::Dataset& dataset) {
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
  int64_t tree_count = 0;
  if (count_line == nullptr || !util::StartsWith(*count_line, "trees ") ||
      !util::ParseInt(count_line->substr(6), &tree_count) || tree_count <= 0) {
    return InvalidArgumentError("bad tree count line");
  }

  BaggedTreesClassifier ensemble;
  for (int64_t t = 0; t < tree_count; ++t) {
    const std::string* marker = next_line();
    if (marker == nullptr || *marker != "tree " + std::to_string(t)) {
      return InvalidArgumentError("missing 'tree " + std::to_string(t) +
                                  "' marker");
    }
    // The member block runs until the next "tree <k>" marker or the end.
    const std::string next_marker = "tree " + std::to_string(t + 1);
    std::string block;
    while (pos < lines.size() && lines[pos] != next_marker) {
      block += lines[pos++];
      block += '\n';
    }
    auto tree = DecisionTreeClassifier::Deserialize(block, dataset);
    if (!tree.ok()) return tree.status();
    ensemble.trees_.push_back(std::move(*tree));
  }
  return ensemble;
}

}  // namespace roadmine::ml
