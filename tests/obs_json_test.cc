// JsonWriter::Raw splicing and the ParseJson DOM: round-tripping the
// documents the observability layer writes (bench reports with raw
// sections) back into inspectable values for bench_compare and tests.
#include "obs/json.h"

#include <gtest/gtest.h>

namespace roadmine::obs {
namespace {

TEST(JsonWriterRawTest, SplicesPreSerializedValues) {
  JsonWriter inner;
  inner.BeginObject();
  inner.Key("p50").Number(1.5);
  inner.EndObject();

  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("x");
  w.Key("profile").Raw(inner.str());
  w.Key("after").Int(2);
  w.EndObject();

  EXPECT_EQ(w.str(),
            "{\"bench\": \"x\",\"profile\": {\"p50\": 1.5},\"after\": 2}");
  EXPECT_TRUE(ValidateJson(w.str()).ok());
}

TEST(JsonWriterRawTest, RawInsideArrayGetsCommas) {
  JsonWriter w;
  w.BeginArray();
  w.Raw("1").Raw("{\"a\": 2}").Raw("[3]");
  w.EndArray();
  EXPECT_EQ(w.str(), "[1,{\"a\": 2},[3]]");
  EXPECT_TRUE(ValidateJson(w.str()).ok());
}

TEST(ParseJsonTest, ParsesScalars) {
  EXPECT_EQ(ParseJson("null")->kind, JsonValue::Kind::kNull);
  EXPECT_TRUE(ParseJson("true")->bool_value);
  EXPECT_FALSE(ParseJson("false")->bool_value);
  EXPECT_DOUBLE_EQ(ParseJson("-12.5e2")->number_value, -1250.0);
  EXPECT_EQ(ParseJson("\"hi\"")->string_value, "hi");
}

TEST(ParseJsonTest, DecodesEscapes) {
  auto value = ParseJson("\"a\\\"b\\\\c\\n\\t\\u0041\"");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->string_value, "a\"b\\c\n\tA");
}

TEST(ParseJsonTest, ParsesNestedStructures) {
  auto value = ParseJson(
      "{\"timings_ms\": {\"fit\": 10.5, \"predict\": 2.0},"
      " \"stages\": [\"fit\", \"predict\"], \"ok\": true}");
  ASSERT_TRUE(value.ok());
  ASSERT_TRUE(value->is_object());
  const JsonValue* timings = value->Find("timings_ms");
  ASSERT_NE(timings, nullptr);
  ASSERT_TRUE(timings->is_object());
  ASSERT_EQ(timings->members.size(), 2u);
  // Members keep insertion order.
  EXPECT_EQ(timings->members[0].first, "fit");
  EXPECT_DOUBLE_EQ(timings->members[0].second.number_value, 10.5);
  const JsonValue* fit = timings->Find("fit");
  ASSERT_NE(fit, nullptr);
  EXPECT_TRUE(fit->is_number());

  const JsonValue* stages = value->Find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_TRUE(stages->is_array());
  ASSERT_EQ(stages->items.size(), 2u);
  EXPECT_EQ(stages->items[1].string_value, "predict");

  EXPECT_EQ(value->Find("missing"), nullptr);
}

TEST(ParseJsonTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(ParseJson("'single'").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
}

// ValidateJson rejects what ParseJson rejects, with ParseJson's message.
TEST(ValidateJsonTest, RejectsMalformedDocumentsWithParseJsonsMessage) {
  for (const char* text :
       {"", "{", "[1,]", "{\"a\": 1} trailing", "'single'", "{\"a\" 1}"}) {
    const util::Status parsed = ParseJson(text).status();
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(ValidateJson(text).ToString(), parsed.ToString()) << text;
  }
}

TEST(ParseJsonTest, RoundTripsWriterOutput) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name").String("perf \"ml\"\n");
  w.Key("total_ms").Number(123.456);
  w.Key("count").UInt(7);
  w.Key("flag").Bool(true);
  w.Key("nothing").Null();
  w.Key("list").BeginArray().Int(-1).Number(0.5).EndArray();
  w.EndObject();

  auto value = ParseJson(w.str());
  ASSERT_TRUE(value.ok()) << w.str();
  EXPECT_EQ(value->Find("name")->string_value, "perf \"ml\"\n");
  EXPECT_DOUBLE_EQ(value->Find("total_ms")->number_value, 123.456);
  EXPECT_DOUBLE_EQ(value->Find("count")->number_value, 7.0);
  EXPECT_TRUE(value->Find("flag")->bool_value);
  EXPECT_EQ(value->Find("nothing")->kind, JsonValue::Kind::kNull);
  ASSERT_EQ(value->Find("list")->items.size(), 2u);
  EXPECT_DOUBLE_EQ(value->Find("list")->items[0].number_value, -1.0);
}

}  // namespace
}  // namespace roadmine::obs
