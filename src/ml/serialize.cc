#include "ml/serialize.h"

#include <cstdio>
#include <limits>

#include "util/string_util.h"

namespace roadmine::ml {

using util::InvalidArgumentError;

std::string SerializeDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

LineCursor::LineCursor(const std::string& text)
    : lines_(util::Split(text, '\n')) {}

const std::string* LineCursor::Next() {
  while (pos_ < lines_.size() && lines_[pos_].empty()) ++pos_;
  return pos_ < lines_.size() ? &lines_[pos_++] : nullptr;
}

const std::string* LineCursor::Peek() {
  while (pos_ < lines_.size() && lines_[pos_].empty()) ++pos_;
  return pos_ < lines_.size() ? &lines_[pos_] : nullptr;
}

std::string LineCursor::Remainder() const {
  std::string out;
  for (size_t i = pos_; i < lines_.size(); ++i) {
    out += lines_[i];
    out += '\n';
  }
  return out;
}

void AppendFeatureSection(const std::vector<FeatureRef>& features,
                          std::string* out) {
  *out += "features " + std::to_string(features.size()) + "\n";
  for (const FeatureRef& ref : features) {
    *out += "feature\t" + ref.name + "\t";
    *out += ref.type == data::ColumnType::kNumeric ? "numeric" : "categorical";
    *out += "\n";
  }
}

util::Result<std::vector<FeatureRef>> ParseFeatureSection(
    LineCursor& cursor, const data::Dataset& dataset, bool allow_empty) {
  auto count = ParseCountLine(cursor, "features");
  if (!count.ok()) return count.status();
  if (*count <= 0 && !allow_empty) {
    return InvalidArgumentError("empty feature list");
  }
  std::vector<FeatureRef> features;  // Not reserved: the count is unchecked.
  for (int64_t i = 0; i < *count; ++i) {
    const std::string* line = cursor.Next();
    if (line == nullptr) return InvalidArgumentError("truncated feature list");
    const std::vector<std::string> parts = util::Split(*line, '\t');
    if (parts.size() != 3 || parts[0] != "feature") {
      return InvalidArgumentError("bad feature line: " + *line);
    }
    auto index = dataset.ColumnIndex(parts[1]);
    if (!index.ok()) return index.status();
    FeatureRef ref;
    ref.name = parts[1];
    ref.column_index = *index;
    ref.type = dataset.column(*index).type();
    const bool expect_numeric = parts[2] == "numeric";
    if (expect_numeric != (ref.type == data::ColumnType::kNumeric)) {
      return InvalidArgumentError("schema mismatch for feature '" + parts[1] +
                                  "'");
    }
    features.push_back(std::move(ref));
  }
  return features;
}

bool ParseThreshold(const std::string& text, double* value) {
  if (text == "-inf") {
    *value = -std::numeric_limits<double>::infinity();
    return true;
  }
  return util::ParseDouble(text, value);
}

bool ParseChild(const std::string& text, int* child) {
  int64_t value = 0;
  if (!util::ParseInt(text, &value) ||
      value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return false;
  }
  *child = static_cast<int>(value);
  return true;
}

void AppendTreeNodeFields(const TreeNode& node, std::string* out) {
  *out += "node\t";
  *out += std::to_string(node.is_leaf ? 1 : 0) + "\t";
  *out += std::to_string(node.depth) + "\t";
  *out += std::to_string(node.feature) + "\t";
  *out += SerializeDouble(node.threshold) + "\t";
  *out += std::to_string(node.missing_goes_left ? 1 : 0) + "\t";
  *out += std::to_string(node.left) + "\t";
  *out += std::to_string(node.right) + "\t";
}

void AppendCategoryMask(const std::vector<uint8_t>& mask, std::string* out) {
  if (mask.empty()) *out += "-";
  for (uint8_t bit : mask) *out += bit ? '1' : '0';
}

util::Status ParseTreeNodeFields(const std::vector<std::string>& parts,
                                 size_t num_features, TreeNode* node) {
  int64_t value = 0;
  if (!util::ParseInt(parts[1], &value)) {
    return InvalidArgumentError("bad is_leaf");
  }
  node->is_leaf = value != 0;
  if (!util::ParseInt(parts[2], &value)) {
    return InvalidArgumentError("bad depth");
  }
  node->depth = static_cast<int>(value);
  if (!util::ParseInt(parts[3], &value) || value < 0) {
    return InvalidArgumentError("bad feature index");
  }
  node->feature = static_cast<size_t>(value);
  if (!node->is_leaf && node->feature >= num_features) {
    return InvalidArgumentError("feature index out of range");
  }
  if (!ParseThreshold(parts[4], &node->threshold)) {
    return InvalidArgumentError("bad threshold");
  }
  if (!util::ParseInt(parts[5], &value)) {
    return InvalidArgumentError("bad missing direction");
  }
  node->missing_goes_left = value != 0;
  if (!ParseChild(parts[6], &node->left)) {
    return InvalidArgumentError("bad left child");
  }
  if (!ParseChild(parts[7], &node->right)) {
    return InvalidArgumentError("bad right child");
  }
  return util::Status::Ok();
}

util::Status ParseCategoryMask(const std::string& text,
                               std::vector<uint8_t>* mask) {
  if (text == "-") return util::Status::Ok();
  mask->reserve(text.size());
  for (char c : text) {
    if (c != '0' && c != '1') return InvalidArgumentError("bad category mask");
    mask->push_back(c == '1' ? 1 : 0);
  }
  return util::Status::Ok();
}

util::Result<int64_t> ParseCountLine(LineCursor& cursor,
                                     const std::string& keyword) {
  const std::string* line = cursor.Next();
  const std::string prefix = keyword + " ";
  int64_t count = 0;
  if (line == nullptr || !util::StartsWith(*line, prefix) ||
      !util::ParseInt(line->substr(prefix.size()), &count) || count < 0) {
    return InvalidArgumentError("bad '" + keyword + "' count line");
  }
  return count;
}

}  // namespace roadmine::ml
