#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace roadmine::obs {

std::string JsonQuote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // "key": was just emitted; the value follows directly.
  }
  if (!counts_.empty() && counts_.back() > 0) out_.push_back(',');
  if (!counts_.empty()) ++counts_.back();
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_.push_back('{');
  counts_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_.push_back('}');
  if (!counts_.empty()) counts_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_.push_back('[');
  counts_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_.push_back(']');
  if (!counts_.empty()) counts_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  if (!counts_.empty() && counts_.back() > 0) out_.push_back(',');
  if (!counts_.empty()) ++counts_.back();
  out_ += JsonQuote(key);
  out_ += ": ";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  out_ += JsonQuote(value);
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  BeforeValue();
  out_ += JsonNumber(value);
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::UInt(uint64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  BeforeValue();
  out_ += json;
  return *this;
}

namespace {

// Recursive-descent parser building a JsonValue DOM; ValidateJson runs it
// too and drops the document.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  util::Result<JsonValue> Run() {
    SkipSpace();
    JsonValue value;
    ROADMINE_RETURN_IF_ERROR(Value(0, &value));
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  util::Status Error(const std::string& what) const {
    return util::InvalidArgumentError("invalid JSON at byte " +
                                      std::to_string(pos_) + ": " + what);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  util::Status Value(int depth, JsonValue* out) {
    if (depth > 128) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return Object(depth, out);
    if (c == '[') return Array(depth, out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return StringValue(&out->string_value);
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      out->kind = JsonValue::Kind::kNumber;
      return NumberValue(&out->number_value);
    }
    if (ConsumeWord("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = true;
      return util::Status::Ok();
    }
    if (ConsumeWord("false")) {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = false;
      return util::Status::Ok();
    }
    if (ConsumeWord("null")) {
      out->kind = JsonValue::Kind::kNull;
      return util::Status::Ok();
    }
    return Error("unexpected character");
  }

  util::Status Object(int depth, JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (Consume('}')) return util::Status::Ok();
    while (true) {
      SkipSpace();
      std::string key;
      ROADMINE_RETURN_IF_ERROR(StringValue(&key));
      SkipSpace();
      if (!Consume(':')) return Error("expected ':' in object");
      SkipSpace();
      JsonValue member;
      ROADMINE_RETURN_IF_ERROR(Value(depth + 1, &member));
      out->members.emplace_back(std::move(key), std::move(member));
      SkipSpace();
      if (Consume('}')) return util::Status::Ok();
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  util::Status Array(int depth, JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (Consume(']')) return util::Status::Ok();
    while (true) {
      SkipSpace();
      JsonValue item;
      ROADMINE_RETURN_IF_ERROR(Value(depth + 1, &item));
      out->items.push_back(std::move(item));
      SkipSpace();
      if (Consume(']')) return util::Status::Ok();
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  util::Status StringValue(std::string* out) {
    if (!Consume('"')) return Error("expected string");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return util::Status::Ok();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            unsigned code = 0;
            for (int i = 1; i <= 4; ++i) {
              if (pos_ + static_cast<size_t>(i) >= text_.size() ||
                  !std::isxdigit(static_cast<unsigned char>(
                      text_[pos_ + static_cast<size_t>(i)]))) {
                return Error("bad \\u escape");
              }
              const char h = text_[pos_ + static_cast<size_t>(i)];
              code = code * 16 +
                     static_cast<unsigned>(
                         h <= '9' ? h - '0' : (std::tolower(h) - 'a' + 10));
            }
            out->push_back(code < 0x80 ? static_cast<char>(code) : '?');
            pos_ += 4;
            break;
          }
          default:
            return Error("bad escape character");
        }
        ++pos_;
        continue;
      }
      out->push_back(c);
      ++pos_;
    }
    return Error("unterminated string");
  }

  util::Status NumberValue(double* out) {
    const size_t start = pos_;
    Consume('-');  // optional sign; bool result is advisory. roadmine-lint: allow(dropped-status)
    if (!DigitRun()) return Error("expected digits");
    if (Consume('.')) {
      if (!DigitRun()) return Error("expected fraction digits");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!DigitRun()) return Error("expected exponent digits");
    }
    *out = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                       nullptr);
    return util::Status::Ok();
  }

  bool DigitRun() {
    const size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ > start;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

util::Status ValidateJson(std::string_view text) {
  return ParseJson(text).status();
}

util::Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Run();
}

util::Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return util::NotFoundError("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << file.rdbuf();
  if (!file.good() && !file.eof()) {
    return util::DataLossError("read failed for '" + path + "'");
  }
  return buffer.str();
}

}  // namespace roadmine::obs
