// Shared vocabulary for the model persistence formats.
//
// Every trained model serializes to a versioned, line-oriented,
// tab-separated text block: a "roadmine-<type> v<N>" header line, then
// sections introduced by "<section> <count>" lines. Doubles are written
// with %.17g so a round-trip reproduces them bit-for-bit. Feature columns
// are stored by name and re-resolved against the scoring dataset on load,
// which is what lets a model trained on one network score another with
// the same schema. Container formats (M5, bagged ensembles) embed inner
// model blocks verbatim; inner formats are self-terminating (every
// section carries its count), so trailing text after a block is ignored
// by that block's parser.
#ifndef ROADMINE_ML_SERIALIZE_H_
#define ROADMINE_ML_SERIALIZE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "ml/common.h"
#include "ml/tree_growth.h"
#include "util/status.h"
#include "util/string_util.h"

namespace roadmine::ml {

// %.17g — the shortest printf format that round-trips any finite double.
std::string SerializeDouble(double value);

// Forward-only cursor over the lines of a serialized block. Empty lines
// are skipped, so formats may be separated by blank lines when embedded.
class LineCursor {
 public:
  explicit LineCursor(const std::string& text);

  // Next non-empty line, or nullptr at end of input.
  const std::string* Next();
  // Like Next() without consuming.
  const std::string* Peek();
  // Unconsumed lines rejoined with '\n' — hands an embedded trailing
  // block (e.g. an M5 structure tree) to its own parser.
  std::string Remainder() const;

 private:
  std::vector<std::string> lines_;
  size_t pos_ = 0;
};

// Appends the feature-schema section shared by the tree and Bayes
// formats:
//   features N
//   feature\t<name>\t<numeric|categorical>   (N lines)
void AppendFeatureSection(const std::vector<FeatureRef>& features,
                          std::string* out);

// Parses a feature-schema section, re-resolving each name against
// `dataset` and checking the stored type against the live column's.
// Training formats always carry at least one feature; pass `allow_empty`
// for sections that may legitimately be empty (a compiled FlatModel's
// leaf-model features, or a single-leaf tree with no splits).
[[nodiscard]] util::Result<std::vector<FeatureRef>> ParseFeatureSection(
    LineCursor& cursor, const data::Dataset& dataset,
    bool allow_empty = false);

// Parses "<keyword> <count>" with a nonnegative count.
[[nodiscard]] util::Result<int64_t> ParseCountLine(LineCursor& cursor,
                                     const std::string& keyword);

// Parses a split threshold: what util::ParseDouble accepts, plus exactly
// "-inf". A numeric column that holds -inf splits there (SplitMidpoint(-inf,
// x) is -inf), and `x <= -inf` routes it; NaN and +inf stay refused, since
// no split produces them and FlatModel's kernel cannot route them.
[[nodiscard]] bool ParseThreshold(const std::string& text, double* value);

// Parses a tree node's child field into the int the trees store; false
// when it is not an integer or does not fit an int.
[[nodiscard]] bool ParseChild(const std::string& text, int* child);

// Checks the child links of a decoded tree of TreeNode records: both
// children of every internal node lie after it and inside the tree, and
// no node is a child twice. Every Fit produces this shape — children are
// appended after their parent — and it rules out cycles and shared
// subtrees, so a descent from node 0 always ends at a leaf.
template <typename Node>
[[nodiscard]] util::Status CheckTreeLinks(const std::vector<Node>& nodes) {
  std::vector<uint8_t> is_child(nodes.size(), 0);
  for (size_t id = 0; id < nodes.size(); ++id) {
    if (nodes[id].is_leaf) continue;
    for (const int64_t child : {int64_t{nodes[id].left},
                                int64_t{nodes[id].right}}) {
      if (child <= static_cast<int64_t>(id) ||
          child >= static_cast<int64_t>(nodes.size())) {
        return util::InvalidArgumentError(
            "node " + std::to_string(id) + " has child " +
            std::to_string(child) + ": children must follow their parent");
      }
      if (is_child[static_cast<size_t>(child)]++ != 0) {
        return util::InvalidArgumentError(
            "node " + std::to_string(child) +
            " is a child twice: the nodes do not form a tree");
      }
    }
  }
  return util::Status::Ok();
}

// Appends the fields every tree node line starts with, each followed by a
// tab: "node", is_leaf, depth, feature, threshold, missing direction, left
// and right child.
void AppendTreeNodeFields(const TreeNode& node, std::string* out);

// Appends a categorical split's mask as a 0/1 string, or "-" when empty.
void AppendCategoryMask(const std::vector<uint8_t>& mask, std::string* out);

// Parses the fields AppendTreeNodeFields wrote, from a node line split on
// tabs. An internal node's feature must be below `num_features`.
[[nodiscard]] util::Status ParseTreeNodeFields(
    const std::vector<std::string>& parts, size_t num_features,
    TreeNode* node);

// Parses a mask written by AppendCategoryMask.
[[nodiscard]] util::Status ParseCategoryMask(const std::string& text,
                                             std::vector<uint8_t>* mask);

// Parses a tree's "nodes N" line and its N node lines of `num_fields`
// tab-separated fields: those of AppendTreeNodeFields, then the learner's
// own, which `parse_own(parts, &node)` reads. The links must form a tree.
template <typename Node, typename ParseOwn>
[[nodiscard]] util::Result<std::vector<Node>> ParseTreeNodes(
    LineCursor& cursor, size_t num_fields, size_t num_features,
    const ParseOwn& parse_own) {
  auto node_count = ParseCountLine(cursor, "nodes");
  if (!node_count.ok()) return node_count.status();
  if (*node_count <= 0) return util::InvalidArgumentError("no nodes");
  std::vector<Node> nodes;
  for (int64_t i = 0; i < *node_count; ++i) {
    const std::string* line = cursor.Next();
    if (line == nullptr) return util::InvalidArgumentError("truncated nodes");
    const std::vector<std::string> parts = util::Split(*line, '\t');
    if (parts.size() != num_fields || parts[0] != "node") {
      return util::InvalidArgumentError("bad node line: " + *line);
    }
    Node node;
    ROADMINE_RETURN_IF_ERROR(ParseTreeNodeFields(parts, num_features, &node));
    ROADMINE_RETURN_IF_ERROR(parse_own(parts, &node));
    nodes.push_back(std::move(node));
  }
  ROADMINE_RETURN_IF_ERROR(CheckTreeLinks(nodes));
  return nodes;
}

}  // namespace roadmine::ml

#endif  // ROADMINE_ML_SERIALIZE_H_
