#include "serve/flat_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "ml/serialize.h"
#include "util/string_util.h"

namespace roadmine::serve {

using util::InvalidArgumentError;
using util::Result;
using util::Status;

namespace {

constexpr char kSerializationHeader[] = "roadmine-flat-model v1";

// Rows per PredictBatch block: 64 rows of every plan column stay in L1.
constexpr size_t kBlockRows = 64;

// Rows that walk one tree together in the block kernel.
constexpr size_t kLanes = 8;

const char* KindName(FlatModel::Kind kind) {
  switch (kind) {
    case FlatModel::Kind::kDecisionTree:
      return "decision_tree";
    case FlatModel::Kind::kBaggedTrees:
      return "bagged_trees";
    case FlatModel::Kind::kRegressionTree:
      return "regression_tree";
    case FlatModel::Kind::kM5Tree:
      return "m5_tree";
    case FlatModel::Kind::kGbt:
      return "gbt";
  }
  return "unknown";
}

}  // namespace

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

// Shared state while lowering one or more trees into a FlatModel: the
// deduplicated feature table plus the trees appended so far.
class FlatModelCompiler {
 public:
  explicit FlatModelCompiler(FlatModel* out) : out_(*out) {}

  // Appends the fitted records `nodes` (ml::TreeNode and the learner's
  // payload) as one tree. `leaf_value(node)` reads a leaf's payload. A
  // leaf keeps only its payload, and a numeric split no mask; Link()
  // checks the links.
  template <typename SourceNode, typename LeafValueFn>
  util::Status AppendTree(const std::vector<SourceNode>& nodes,
                          const std::vector<ml::FeatureRef>& tree_features,
                          LeafValueFn leaf_value) {
    if (nodes.empty()) return InvalidArgumentError("tree has no nodes");
    // Map the tree's local feature indices into the shared table.
    std::vector<size_t> remap(tree_features.size());
    for (size_t f = 0; f < tree_features.size(); ++f) {
      auto mapped = MapFeature(tree_features[f]);
      if (!mapped.ok()) return mapped.status();
      remap[f] = *mapped;
    }

    std::vector<FlatModel::Node>& tree = out_.trees_.emplace_back();
    tree.reserve(nodes.size());
    for (const SourceNode& source : nodes) {
      FlatModel::Node& node = tree.emplace_back();
      if (source.is_leaf) {
        node.leaf_value = leaf_value(source);
        continue;
      }
      if (source.feature >= tree_features.size()) {
        return InvalidArgumentError("malformed split node");
      }
      static_cast<ml::TreeNode&>(node) = source;
      node.feature = remap[source.feature];
      if (tree_features[source.feature].type == data::ColumnType::kNumeric) {
        node.left_categories.clear();
      }
    }
    return util::Status::Ok();
  }

 private:
  Result<size_t> MapFeature(const ml::FeatureRef& ref) {
    auto it = by_name_.find(ref.name);
    if (it != by_name_.end()) {
      const ml::FeatureRef& existing = out_.features_[it->second];
      if (existing.column_index != ref.column_index ||
          existing.type != ref.type) {
        return InvalidArgumentError("feature '" + ref.name +
                                    "' is inconsistent across member trees");
      }
      return it->second;
    }
    const size_t id = out_.features_.size();
    out_.features_.push_back(ref);
    by_name_.emplace(ref.name, id);
    return id;
  }

  FlatModel& out_;
  std::unordered_map<std::string, size_t> by_name_;
};

namespace {

// Leaf payloads: a decision tree's Laplace-smoothed positive fraction
// (what its PredictProba returns), a regression tree's training mean and
// a GBT leaf's weight.
double LaplaceLeaf(const ml::DecisionTreeClassifier::Node& node) {
  return node.positive_fraction();
}
double MeanLeaf(const ml::RegressionTree::Node& node) { return node.mean; }
double GbtLeaf(const ml::GradientBoostedTrees::Node& node) {
  return node.leaf_value;
}

}  // namespace

Result<FlatModel> CompileModel(const ml::DecisionTreeClassifier& model) {
  if (!model.fitted()) return util::FailedPreconditionError("tree not fitted");
  FlatModel flat;
  flat.kind_ = FlatModel::Kind::kDecisionTree;
  FlatModelCompiler compiler(&flat);
  ROADMINE_RETURN_IF_ERROR(
      compiler.AppendTree(model.nodes(), model.features(), LaplaceLeaf));
  ROADMINE_RETURN_IF_ERROR(flat.Link());
  return flat;
}

Result<FlatModel> CompileModel(const ml::BaggedTreesClassifier& model) {
  if (!model.fitted()) {
    return util::FailedPreconditionError("ensemble not fitted");
  }
  FlatModel flat;
  flat.kind_ = FlatModel::Kind::kBaggedTrees;
  FlatModelCompiler compiler(&flat);
  for (const ml::DecisionTreeClassifier& tree : model.trees()) {
    ROADMINE_RETURN_IF_ERROR(
        compiler.AppendTree(tree.nodes(), tree.features(), LaplaceLeaf));
  }
  ROADMINE_RETURN_IF_ERROR(flat.Link());
  return flat;
}

Result<FlatModel> CompileModel(const ml::RegressionTree& model) {
  if (!model.fitted()) return util::FailedPreconditionError("tree not fitted");
  FlatModel flat;
  flat.kind_ = FlatModel::Kind::kRegressionTree;
  FlatModelCompiler compiler(&flat);
  ROADMINE_RETURN_IF_ERROR(
      compiler.AppendTree(model.nodes(), model.features(), MeanLeaf));
  ROADMINE_RETURN_IF_ERROR(flat.Link());
  return flat;
}

Result<FlatModel> CompileModel(const ml::M5Tree& model) {
  if (!model.fitted()) return util::FailedPreconditionError("tree not fitted");
  FlatModel flat;
  flat.kind_ = FlatModel::Kind::kM5Tree;
  FlatModelCompiler compiler(&flat);
  const std::vector<ml::RegressionTree::Node>& nodes =
      model.structure().nodes();
  ROADMINE_RETURN_IF_ERROR(
      compiler.AppendTree(nodes, model.structure().features(), MeanLeaf));

  flat.smoothing_ = model.smoothing();
  flat.lm_features_ = model.numeric_features();
  flat.node_mean_.reserve(nodes.size());
  flat.node_n_.reserve(nodes.size());
  flat.lm_offset_.assign(nodes.size(), FlatModel::kInvalid);
  for (size_t id = 0; id < nodes.size(); ++id) {
    flat.node_mean_.push_back(nodes[id].mean);
    flat.node_n_.push_back(static_cast<double>(nodes[id].count));
    const ml::M5Tree::LeafModel* lm = model.leaf_model(id);
    if (lm == nullptr) continue;
    if (lm->weights.size() != flat.lm_features_.size()) {
      return InvalidArgumentError("leaf model width mismatch");
    }
    flat.lm_offset_[id] = static_cast<int32_t>(flat.lm_pool_.size());
    flat.lm_pool_.push_back(lm->intercept);
    flat.lm_pool_.insert(flat.lm_pool_.end(), lm->weights.begin(),
                         lm->weights.end());
  }
  ROADMINE_RETURN_IF_ERROR(flat.Link());
  return flat;
}

Result<FlatModel> CompileModel(const ml::GradientBoostedTrees& model) {
  if (!model.fitted()) {
    return util::FailedPreconditionError("ensemble not fitted");
  }
  FlatModel flat;
  flat.kind_ = FlatModel::Kind::kGbt;
  flat.base_score_ = model.base_score();
  FlatModelCompiler compiler(&flat);
  for (size_t t = 0; t < model.tree_count(); ++t) {
    ROADMINE_RETURN_IF_ERROR(
        compiler.AppendTree(model.tree(t), model.features(), GbtLeaf));
  }
  ROADMINE_RETURN_IF_ERROR(flat.Link());
  return flat;
}

// ---------------------------------------------------------------------------
// Scoring
// ---------------------------------------------------------------------------

const char* FlatModel::name() const {
  switch (kind_) {
    case Kind::kDecisionTree:
      return "flat_decision_tree";
    case Kind::kBaggedTrees:
      return "flat_bagged_trees";
    case Kind::kRegressionTree:
      return "flat_regression_tree";
    case Kind::kM5Tree:
      return "flat_m5_tree";
    case Kind::kGbt:
      return "flat_gbt";
  }
  return "flat_model";
}

size_t FlatModel::node_count() const {
  size_t count = 0;
  for (const std::vector<Node>& tree : trees_) count += tree.size();
  return count;
}

Status FlatModel::Link() {
  // One breadth-first pass per tree lays out the kernel: a node's kernel
  // index is its position in kernel_node_, and a split's two children are
  // queued together, so they sit side by side.
  std::vector<int32_t> depth_of;  // Parallel to kernel_node_.
  kernel_.clear();
  kernel_root_.clear();
  kernel_leaf_.clear();
  kernel_node_.clear();
  gather_.clear();
  gather_masks_.clear();
  depth_.assign(trees_.size(), 0);
  if (kind_ == Kind::kM5Tree) parent_.assign(trees_[0].size(), kInvalid);
  // Numeric block columns are keyed by (slot, missing direction);
  // categorical ones also by the mask trimmed after its highest set bit,
  // so splits that route every code alike share one.
  using ColumnKey = std::tuple<size_t, bool, bool, std::vector<uint64_t>>;
  std::map<ColumnKey, int32_t> column_of;
  for (size_t t = 0; t < trees_.size(); ++t) {
    const std::vector<Node>& nodes = trees_[t];
    ROADMINE_RETURN_IF_ERROR(ml::CheckTreeLinks(nodes));
    kernel_root_.push_back(static_cast<int32_t>(kernel_node_.size()));
    kernel_node_.push_back(0);
    depth_of.push_back(0);
    for (size_t k = kernel_.size(); k < kernel_node_.size(); ++k) {
      const int32_t id = kernel_node_[k];
      const Node& node = nodes[static_cast<size_t>(id)];
      KernelStep out;
      if (node.is_leaf) {
        depth_[t] = std::max(depth_[t], depth_of[k]);
        out.threshold = std::numeric_limits<double>::infinity();
        out.left = static_cast<int32_t>(k);
        kernel_.push_back(out);
        kernel_leaf_.push_back(node.leaf_value);
        continue;
      }
      out.left = static_cast<int32_t>(kernel_node_.size());
      for (const int child : {node.left, node.right}) {
        if (kind_ == Kind::kM5Tree && t == 0) {
          parent_[static_cast<size_t>(child)] = id;
        }
        kernel_node_.push_back(child);
        depth_of.push_back(depth_of[k] + 1);
      }
      const bool categorical =
          features_[node.feature].type == data::ColumnType::kCategorical;
      std::vector<uint64_t> mask;
      if (categorical) {
        for (size_t bit = 0; bit < node.left_categories.size(); ++bit) {
          if (node.left_categories[bit] != 0) {
            mask.resize(bit / 64 + 1, 0);
            mask[bit / 64] |= uint64_t{1} << (bit % 64);
          }
        }
        if (mask.empty()) mask.push_back(0);
        out.threshold = 0.5;
      } else {
        // -inf stands for missing-left and +inf for missing-right, which
        // `v <= threshold` routes as the source model does only for
        // thresholds below +inf.
        if (std::isnan(node.threshold) ||
            node.threshold == std::numeric_limits<double>::infinity()) {
          return InvalidArgumentError("node " + std::to_string(id) +
                                      " has an unroutable threshold " +
                                      ml::SerializeDouble(node.threshold));
        }
        out.threshold = node.threshold;
      }
      auto [it, added] = column_of.try_emplace(
          ColumnKey{node.feature, node.missing_goes_left, categorical, mask},
          static_cast<int32_t>(gather_.size()));
      if (added) {
        GatherColumn column;
        column.slot = static_cast<int32_t>(node.feature);
        column.missing_left = node.missing_goes_left ? 1 : 0;
        if (categorical) {
          column.mask_offset = static_cast<int32_t>(gather_masks_.size());
          column.mask_words = static_cast<int32_t>(mask.size());
          gather_masks_.insert(gather_masks_.end(), mask.begin(), mask.end());
        }
        gather_.push_back(column);
      }
      if (it->second > std::numeric_limits<int32_t>::max() /
                           static_cast<int32_t>(kBlockRows)) {
        return InvalidArgumentError("too many distinct splits to lay out");
      }
      out.offset = it->second * static_cast<int32_t>(kBlockRows);
      kernel_.push_back(out);
      kernel_leaf_.push_back(0.0);
    }
  }
  return Status::Ok();
}

void FlatModel::Gather(const data::Dataset& dataset, const size_t* block,
                       size_t n, size_t stride, double* values) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < gather_.size(); ++c) {
    const GatherColumn& column = gather_[c];
    const data::Column& col = dataset.column(
        features_[static_cast<size_t>(column.slot)].column_index);
    double* dst = values + c * stride;
    // NaN (data::Column's numeric missing encoding) becomes -inf where
    // missing goes left and +inf where it goes right. The copy and the
    // NaN pass are separate loops, so the pass runs without a branch on
    // whole vectors of the block.
    if (column.mask_offset == kInvalid) {
      const double missing = column.missing_left != 0 ? -kInf : kInf;
      const double* src = col.numeric_values().data();
      for (size_t i = 0; i < n; ++i) dst[i] = src[block[i]];
      for (size_t i = 0; i < n; ++i) {
        dst[i] = std::isnan(dst[i]) ? missing : dst[i];
      }
      continue;
    }
    // A categorical routing bit: codes past the trimmed mask, and negative
    // (missing) codes, read no mask bit; missing codes then take the
    // missing direction.
    const uint64_t* mask = gather_masks_.data() + column.mask_offset;
    const uint32_t limit = static_cast<uint32_t>(column.mask_words) * 64;
    const uint32_t missing_left = column.missing_left;
    const int32_t* src = col.codes().data();
    for (size_t i = 0; i < n; ++i) {
      const uint32_t code = static_cast<uint32_t>(src[block[i]]);
      const uint32_t in = code < limit ? 1 : 0;
      const uint64_t word = mask[(code / 64) & (0u - in)];
      const uint32_t left = (static_cast<uint32_t>(word >> (code % 64)) & in) |
                            ((code >> 31) & missing_left);
      dst[i] = static_cast<double>(left ^ 1);
    }
  }
}

// Out of line on purpose: with `lanes` a parameter, the compiler reads
// the eight rows as fixed displacements from one pointer rather than
// carrying eight induction variables through the level loop. Aligned to
// a cache line, so where unrelated code puts it does not change how its
// loop falls across lines.
[[gnu::noinline, gnu::aligned(64)]] void FlatModel::DescendGroup(
    size_t trees, const double* lanes, double* sum, int32_t* leaf) const {
  const KernelStep* steps = kernel_.data();
  int32_t id[kLanes];
  for (size_t t = 0; t < trees; ++t) {
    std::fill(id, id + kLanes, kernel_root_[t]);
    for (int32_t level = 0; level < depth_[t]; ++level) {
#pragma GCC unroll 8
      for (size_t k = 0; k < kLanes; ++k) {
        const KernelStep& step = steps[id[k]];
        id[k] = step.left + (lanes[static_cast<size_t>(step.offset) + k] <=
                                     step.threshold
                                 ? 0
                                 : 1);
      }
    }
    for (size_t k = 0; k < kLanes; ++k) {
      sum[k] += kernel_leaf_[static_cast<size_t>(id[k])];
    }
  }
  std::copy(id, id + kLanes, leaf);
}

double FlatModel::LeafModel(size_t leaf, const data::Dataset& dataset,
                            size_t row) const {
  const int32_t offset = lm_offset_[leaf];
  if (offset == kInvalid) return node_mean_[leaf];
  const double* weights = lm_pool_.data() + offset;
  double prediction = weights[0];
  for (size_t j = 0; j < lm_features_.size(); ++j) {
    const double v =
        dataset.column(lm_features_[j].column_index).NumericAt(row);
    if (!std::isnan(v)) prediction += weights[1 + j] * v;
  }
  return prediction;
}

Result<double> FlatModel::PredictRow(const data::Dataset& dataset,
                                     size_t row) const {
  auto scores = PredictBatch(dataset, {row});
  if (!scores.ok()) return scores.status();
  return scores->front();
}

Result<std::vector<double>> FlatModel::PredictBatch(
    const data::Dataset& dataset, const std::vector<size_t>& rows) const {
  if (!compiled()) return util::FailedPreconditionError("model not compiled");
  ROADMINE_RETURN_IF_ERROR(ml::CheckPredictInput(features_, dataset, rows));
  ROADMINE_RETURN_IF_ERROR(ml::CheckPredictInput(lm_features_, dataset, {}));
  std::vector<double> out(rows.size());
  if (rows.empty()) return out;

  // The plan's block columns, at least one: leaf steps read column 0,
  // which must never hold NaN. They are kBlockRows long, the stride the
  // kernel steps' offsets assume, once a batch fills a group of eight;
  // shorter batches only walk rows alone and keep `rows`-long columns.
  const size_t stride = rows.size() < kLanes ? rows.size() : kBlockRows;
  std::vector<double> values(std::max<size_t>(1, gather_.size()) * stride,
                             0.0);
  const KernelStep* steps = kernel_.data();
  int32_t leaf[kBlockRows];
  double sum[kBlockRows];
  const bool ensemble = kind_ == Kind::kBaggedTrees || kind_ == Kind::kGbt;
  const size_t trees = ensemble ? trees_.size() : 1;
  const double start = kind_ == Kind::kGbt ? base_score_ : 0.0;
  // A row's score from its leaf-value sum (ensembles) or its kernel leaf
  // (single-tree kinds; M5 evaluates the leaf model at `row`).
  const auto finish = [&](double total, int32_t kernel_leaf, size_t row) {
    switch (kind_) {
      case Kind::kDecisionTree:
      case Kind::kRegressionTree:
        return kernel_leaf_[static_cast<size_t>(kernel_leaf)];
      case Kind::kBaggedTrees:
        return total / static_cast<double>(trees_.size());
      case Kind::kGbt:
        return 1.0 / (1.0 + std::exp(-total));
      case Kind::kM5Tree:
        break;
    }
    const int32_t node = kernel_node_[static_cast<size_t>(kernel_leaf)];
    double prediction = LeafModel(static_cast<size_t>(node), dataset, row);
    if (smoothing_ > 0.0) {
      // Quinlan smoothing from the leaf up: the path ml::FindLeaf records,
      // walked in the same order.
      for (int32_t child = node, parent;
           (parent = parent_[static_cast<size_t>(child)]) != kInvalid;
           child = parent) {
        const double count = node_n_[static_cast<size_t>(child)];
        prediction = (count * prediction +
                      smoothing_ * node_mean_[static_cast<size_t>(parent)]) /
                     (count + smoothing_);
      }
    }
    return prediction;
  };
  for (size_t begin = 0; begin < rows.size(); begin += kBlockRows) {
    const size_t n = std::min(kBlockRows, rows.size() - begin);
    const size_t* block = rows.data() + begin;
    Gather(dataset, block, n, stride, values.data());
    // Each row starts from the base score (0 for bagging) and adds leaf
    // values in member order — the source ensembles' own expression, so
    // every sum rounds identically.
    const size_t grouped = n - n % kLanes;
    std::fill(sum, sum + grouped, start);
    for (size_t i = 0; i < grouped; i += kLanes) {
      DescendGroup(trees, values.data() + i, sum + i, leaf + i);
    }
    for (size_t i = 0; i < grouped; ++i) {
      out[begin + i] = finish(sum[i], leaf[i], block[i]);
    }
    // The rest (all of a one-row request) walk alone, summing in a
    // register: a lone row is one dependent chain, which gains more from
    // speculating down a child than from the arithmetic pick.
    for (size_t i = grouped; i < n; ++i) {
      double total = start;
      int32_t id = 0;
      for (size_t t = 0; t < trees; ++t) {
        id = kernel_root_[t];
        for (int32_t level = 0; level < depth_[t]; ++level) {
          const KernelStep& step = steps[id];
          const size_t column = static_cast<size_t>(step.offset) / kBlockRows;
          // [[likely]] keeps this a branch rather than a select.
          if (values[column * stride + i] <= step.threshold) [[likely]] {
            id = step.left;
          } else {
            id = step.left + 1;
          }
        }
        total += kernel_leaf_[static_cast<size_t>(id)];
      }
      out[begin + i] = finish(total, id, block[i]);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

std::string FlatModel::Serialize() const {
  std::string out = kSerializationHeader;
  out += "\nkind\t";
  out += KindName(kind_);
  out += "\nsmoothing\t" + ml::SerializeDouble(smoothing_) + "\n";
  // Only the GBT kind carries a base score; older readers never see the
  // extra line because they never see the gbt kind either.
  if (kind_ == Kind::kGbt) {
    out += "base\t" + ml::SerializeDouble(base_score_) + "\n";
  }
  // Two positional feature sections: split features, then M5 leaf-model
  // features (empty for the other kinds).
  ml::AppendFeatureSection(features_, &out);
  ml::AppendFeatureSection(lm_features_, &out);
  // Tree t's nodes follow tree t-1's, its children offset by its root.
  out += "roots " + std::to_string(trees_.size()) + "\n";
  size_t root = 0;
  for (const std::vector<Node>& tree : trees_) {
    out += "root\t" + std::to_string(root) + "\n";
    root += tree.size();
  }
  out += "nodes " + std::to_string(root) + "\n";
  const bool m5 = kind_ == Kind::kM5Tree;
  size_t id = 0;
  root = 0;
  for (const std::vector<Node>& tree : trees_) {
    for (const Node& node : tree) {
      const auto child = [&](int local) {
        return node.is_leaf ? std::to_string(kInvalid)
                            : std::to_string(root + static_cast<size_t>(local));
      };
      out += "node\t" +
             (node.is_leaf ? std::to_string(kInvalid)
                           : std::to_string(node.feature)) +
             "\t" + ml::SerializeDouble(node.threshold) + "\t" +
             std::to_string(node.missing_goes_left ? 1 : 0) + "\t" +
             child(node.left) + "\t" + child(node.right) + "\t" +
             ml::SerializeDouble(node.leaf_value) + "\t" +
             ml::SerializeDouble(m5 ? node_mean_[id] : 0.0) + "\t" +
             ml::SerializeDouble(m5 ? node_n_[id] : 0.0) + "\t" +
             std::to_string(m5 ? lm_offset_[id] : kInvalid) + "\t";
      if (!node.is_leaf && features_[node.feature].type ==
                               data::ColumnType::kCategorical) {
        for (const uint8_t bit : node.left_categories) {
          out += bit != 0 ? '1' : '0';
        }
      } else {
        out += '-';
      }
      out += "\n";
      ++id;
    }
    root += tree.size();
  }
  out += "lm_pool " + std::to_string(lm_pool_.size()) + "\n";
  if (!lm_pool_.empty()) {
    out += "pool";
    for (double v : lm_pool_) {
      out += '\t';
      out += ml::SerializeDouble(v);
    }
    out += "\n";
  }
  return out;
}

Result<FlatModel> FlatModel::Deserialize(const std::string& text,
                                         const data::Dataset& dataset) {
  ml::LineCursor cursor(text);
  const std::string* header = cursor.Next();
  if (header == nullptr || *header != kSerializationHeader) {
    return InvalidArgumentError("bad serialization header");
  }
  FlatModel flat;

  const std::string* kind_line = cursor.Next();
  if (kind_line == nullptr) return InvalidArgumentError("missing kind line");
  {
    const std::vector<std::string> parts = util::Split(*kind_line, '\t');
    if (parts.size() != 2 || parts[0] != "kind") {
      return InvalidArgumentError("bad kind line");
    }
    if (parts[1] == "decision_tree") {
      flat.kind_ = Kind::kDecisionTree;
    } else if (parts[1] == "bagged_trees") {
      flat.kind_ = Kind::kBaggedTrees;
    } else if (parts[1] == "regression_tree") {
      flat.kind_ = Kind::kRegressionTree;
    } else if (parts[1] == "m5_tree") {
      flat.kind_ = Kind::kM5Tree;
    } else if (parts[1] == "gbt") {
      flat.kind_ = Kind::kGbt;
    } else {
      return InvalidArgumentError("unknown model kind: " + parts[1]);
    }
  }

  const std::string* smoothing_line = cursor.Next();
  if (smoothing_line == nullptr) {
    return InvalidArgumentError("missing smoothing line");
  }
  {
    const std::vector<std::string> parts = util::Split(*smoothing_line, '\t');
    if (parts.size() != 2 || parts[0] != "smoothing" ||
        !util::ParseDouble(parts[1], &flat.smoothing_)) {
      return InvalidArgumentError("bad smoothing line");
    }
  }

  if (flat.kind_ == Kind::kGbt) {
    const std::string* base_line = cursor.Next();
    if (base_line == nullptr) return InvalidArgumentError("missing base line");
    const std::vector<std::string> parts = util::Split(*base_line, '\t');
    if (parts.size() != 2 || parts[0] != "base" ||
        !util::ParseDouble(parts[1], &flat.base_score_)) {
      return InvalidArgumentError("bad base line");
    }
  }

  // Either section may be empty: a single-leaf tree has no split
  // features, and only the M5 kind carries leaf-model features.
  auto features = ml::ParseFeatureSection(cursor, dataset, /*allow_empty=*/true);
  if (!features.ok()) return features.status();
  flat.features_ = std::move(*features);
  auto lm_features =
      ml::ParseFeatureSection(cursor, dataset, /*allow_empty=*/true);
  if (!lm_features.ok()) return lm_features.status();
  flat.lm_features_ = std::move(*lm_features);

  // Tree t holds nodes [root t, root t+1): the roots start at 0 and
  // ascend.
  auto root_count = ml::ParseCountLine(cursor, "roots");
  if (!root_count.ok()) return root_count.status();
  if (*root_count == 0) return InvalidArgumentError("model has no trees");
  // The single-tree kinds score, and M5 smooths over, tree 0 alone.
  if (flat.kind_ != Kind::kBaggedTrees && flat.kind_ != Kind::kGbt &&
      *root_count != 1) {
    return InvalidArgumentError("a single-tree model lists " +
                                std::to_string(*root_count) + " roots");
  }
  std::vector<int64_t> roots;
  for (int64_t t = 0; t < *root_count; ++t) {
    const std::string* line = cursor.Next();
    if (line == nullptr) return InvalidArgumentError("truncated root list");
    const std::vector<std::string> parts = util::Split(*line, '\t');
    int64_t root = 0;
    if (parts.size() != 2 || parts[0] != "root" ||
        !util::ParseInt(parts[1], &root)) {
      return InvalidArgumentError("bad root line: " + *line);
    }
    if (roots.empty() ? root != 0 : root <= roots.back()) {
      return InvalidArgumentError(
          "roots must start at 0 and ascend: " + *line);
    }
    roots.push_back(root);
  }

  auto node_count = ml::ParseCountLine(cursor, "nodes");
  if (!node_count.ok()) return node_count.status();
  const int64_t node_total = *node_count;
  if (roots.back() >= node_total) {
    return InvalidArgumentError("root offset out of range");
  }
  const bool m5 = flat.kind_ == Kind::kM5Tree;
  flat.trees_.resize(roots.size());
  size_t t = 0;
  for (int64_t id = 0; id < node_total; ++id) {
    if (t + 1 < roots.size() && id == roots[t + 1]) ++t;
    const std::string* line = cursor.Next();
    if (line == nullptr) return InvalidArgumentError("truncated node list");
    const std::vector<std::string> parts = util::Split(*line, '\t');
    if (parts.size() != 11 || parts[0] != "node") {
      return InvalidArgumentError("bad node line: " + *line);
    }
    int64_t feature = 0, missing = 0, left = 0, right = 0, lm_offset = 0;
    double mean = 0.0, n = 0.0;
    Node node;
    if (!util::ParseInt(parts[1], &feature) ||
        !ml::ParseThreshold(parts[2], &node.threshold) ||
        !util::ParseInt(parts[3], &missing) ||
        !util::ParseInt(parts[4], &left) ||
        !util::ParseInt(parts[5], &right) ||
        !util::ParseDouble(parts[6], &node.leaf_value) ||
        !util::ParseDouble(parts[7], &mean) ||
        !util::ParseDouble(parts[8], &n) ||
        !util::ParseInt(parts[9], &lm_offset)) {
      return InvalidArgumentError("bad node line: " + *line);
    }
    node.missing_goes_left = missing != 0;
    // A leaf is feature -1; its links and mask are not read.
    if (feature >= 0) {
      if (static_cast<size_t>(feature) >= flat.features_.size() ||
          left < 0 || left >= node_total || right < 0 ||
          right >= node_total) {
        return InvalidArgumentError("node references out of range: " + *line);
      }
      // The mask field must match the feature's declared type: a numeric
      // feature's slot holds values, not category codes.
      const bool categorical =
          flat.features_[static_cast<size_t>(feature)].type ==
          data::ColumnType::kCategorical;
      if (categorical != (parts[10] != "-")) {
        return InvalidArgumentError(
            "split mask disagrees with its feature's type: " + *line);
      }
      if (categorical) {
        ROADMINE_RETURN_IF_ERROR(
            ml::ParseCategoryMask(parts[10], &node.left_categories));
      }
      node.is_leaf = false;
      node.feature = static_cast<size_t>(feature);
      // Links are written file-wide; ml::CheckTreeLinks (in Link()) keeps
      // them inside the tree.
      node.left = static_cast<int>(left - roots[t]);
      node.right = static_cast<int>(right - roots[t]);
    }
    flat.trees_[t].push_back(std::move(node));
    if (m5) {
      flat.node_mean_.push_back(mean);
      flat.node_n_.push_back(n);
      flat.lm_offset_.push_back(lm_offset < 0
                                    ? kInvalid
                                    : static_cast<int32_t>(lm_offset));
    }
  }

  auto pool_count = ml::ParseCountLine(cursor, "lm_pool");
  if (!pool_count.ok()) return pool_count.status();
  if (*pool_count > 0) {
    const std::string* line = cursor.Next();
    if (line == nullptr) return InvalidArgumentError("missing lm pool line");
    const std::vector<std::string> parts = util::Split(*line, '\t');
    if (parts.size() != 1 + static_cast<size_t>(*pool_count) ||
        parts[0] != "pool") {
      return InvalidArgumentError("bad lm pool line");
    }
    flat.lm_pool_.resize(static_cast<size_t>(*pool_count));
    for (int64_t i = 0; i < *pool_count; ++i) {
      if (!util::ParseDouble(parts[1 + static_cast<size_t>(i)],
                             &flat.lm_pool_[static_cast<size_t>(i)])) {
        return InvalidArgumentError("bad lm pool value");
      }
    }
  }
  if (m5) {
    const size_t stride = 1 + flat.lm_features_.size();
    for (int32_t offset : flat.lm_offset_) {
      if (offset != kInvalid &&
          static_cast<size_t>(offset) + stride > flat.lm_pool_.size()) {
        return InvalidArgumentError("lm offset out of range");
      }
    }
  }
  ROADMINE_RETURN_IF_ERROR(flat.Link());
  return flat;
}

}  // namespace roadmine::serve
