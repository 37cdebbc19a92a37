// Minimal JSON support for the observability layer: an append-style
// writer with deterministic number formatting (so run manifests and
// bench reports are byte-for-byte reproducible for equal inputs), and one
// small parser (ParseJson; ValidateJson runs it) that reads reports back
// for bench_compare, the bench smoke checks and tests.
//
// This is deliberately not a general JSON library: roadmine only reads
// back what it wrote.
#ifndef ROADMINE_OBS_JSON_H_
#define ROADMINE_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace roadmine::obs {

// Escapes control characters, quotes and backslashes per RFC 8259 and
// wraps the result in double quotes.
std::string JsonQuote(std::string_view text);

// Deterministic number rendering: integral doubles print without a
// fractional part, NaN/Inf (not representable in JSON) print as null.
std::string JsonNumber(double value);

// Streaming writer with automatic comma/structure management. Usage:
//
//   JsonWriter w;
//   w.BeginObject();
//   w.Key("seed").UInt(42);
//   w.Key("stages").BeginArray().String("fit").String("predict").EndArray();
//   w.EndObject();
//   std::string json = w.str();
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view key);
  JsonWriter& String(std::string_view value);
  JsonWriter& Number(double value);
  JsonWriter& Int(int64_t value);
  JsonWriter& UInt(uint64_t value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();
  // Splices a pre-serialized JSON value verbatim (the caller vouches for
  // its validity); used to embed subsections built by other writers.
  JsonWriter& Raw(std::string_view json);

  const std::string& str() const { return out_; }

 private:
  void BeforeValue();

  std::string out_;
  // One entry per open container: the number of values emitted so far.
  std::vector<size_t> counts_;
  bool pending_key_ = false;
};

// Validates that `text` is exactly one well-formed JSON value (objects,
// arrays, strings, numbers, booleans, null) with no trailing garbage:
// ParseJson(text).status(), the one JSON reader.
util::Status ValidateJson(std::string_view text);

// Minimal owning JSON document for the few places that *read* JSON back
// (bench_compare diffing BENCH_*.json files, tests inspecting reports).
// Numbers are doubles; object members keep insertion order. Escaped
// \uXXXX code points outside ASCII decode to '?' — the observability
// files this parser exists for never contain them.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> items;  // kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  // Object member lookup; null when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
};

// Parses exactly one JSON value (with no trailing garbage) into a DOM.
util::Result<JsonValue> ParseJson(std::string_view text);

// Reads a whole file; convenience for validation round-trips.
util::Result<std::string> ReadFileToString(const std::string& path);

}  // namespace roadmine::obs

#endif  // ROADMINE_OBS_JSON_H_
