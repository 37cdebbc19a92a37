#include "util/csv.h"

#include <gtest/gtest.h>

namespace roadmine::util {
namespace {

TEST(ParseCsvLineTest, SimpleFields) {
  auto fields = ParseCsvLine("a,b,c");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(ParseCsvLineTest, EmptyFields) {
  auto fields = ParseCsvLine("a,,c,");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"a", "", "c", ""}));
}

TEST(ParseCsvLineTest, EmptyLineIsOneEmptyField) {
  auto fields = ParseCsvLine("");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{""}));
}

TEST(ParseCsvLineTest, QuotedFieldWithDelimiter) {
  auto fields = ParseCsvLine(R"(a,"b,c",d)");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"a", "b,c", "d"}));
}

TEST(ParseCsvLineTest, DoubledQuoteEscapes) {
  auto fields = ParseCsvLine(R"("say ""hi""",x)");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ((*fields)[0], "say \"hi\"");
}

TEST(ParseCsvLineTest, UnterminatedQuoteFails) {
  auto fields = ParseCsvLine(R"("abc)");
  EXPECT_FALSE(fields.ok());
}

TEST(ParseCsvLineTest, AlternateDelimiter) {
  auto fields = ParseCsvLine("a;b;c", ';');
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(fields->size(), 3u);
}

TEST(ParseCsvTest, MultipleRecords) {
  auto rows = ParseCsv("a,b\n1,2\n3,4\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[2], (std::vector<std::string>{"3", "4"}));
}

TEST(ParseCsvTest, CrLfRecords) {
  auto rows = ParseCsv("a,b\r\n1,2\r\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"1", "2"}));
}

TEST(ParseCsvTest, QuotedNewlineInsideField) {
  auto rows = ParseCsv("a,\"line1\nline2\"\nx,y\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0][1], "line1\nline2");
}

TEST(ParseCsvTest, NoTrailingNewline) {
  auto rows = ParseCsv("a,b\n1,2");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
}

TEST(ParseCsvTest, EmptyTextYieldsNoRows) {
  auto rows = ParseCsv("");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST(EscapeCsvFieldTest, PlainFieldUnchanged) {
  EXPECT_EQ(EscapeCsvField("abc"), "abc");
}

TEST(EscapeCsvFieldTest, DelimiterTriggersQuoting) {
  EXPECT_EQ(EscapeCsvField("a,b"), "\"a,b\"");
}

TEST(EscapeCsvFieldTest, QuoteDoubling) {
  EXPECT_EQ(EscapeCsvField("a\"b"), "\"a\"\"b\"");
}

TEST(FormatCsvLineTest, RoundTripsThroughParse) {
  const std::vector<std::string> fields = {"plain", "with,comma",
                                           "with\"quote", "multi\nline", ""};
  auto parsed = ParseCsvLine(FormatCsvLine(fields));
  // Note: the embedded newline keeps this a single *record* because it is
  // quoted, but ParseCsvLine rejects raw newlines — use ParseCsv.
  auto rows = ParseCsv(FormatCsvLine(fields));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0], fields);
  (void)parsed;
}

// --- CsvStreamParser: chunk-boundary property ---------------------------

// A document designed so quoted fields, "" escapes, \r\n breaks, and
// multi-byte UTF-8 values all straddle chunk edges at small chunk sizes.
std::string HostileDocument() {
  std::string text;
  text += "name,note,value\r\n";                       // CRLF header.
  text += "plain,\"with,comma\",1\n";                  // Quoted delimiter.
  text += "\"say \"\"hi\"\"\",\"multi\nline\",2\r\n";  // Escape + newline.
  text += "emoji,\xF0\x9F\x9A\x97 road,3\n";           // 4-byte UTF-8.
  text += "\"q\",,4\r\n";                              // Empty field, CRLF.
  for (int i = 0; i < 40; ++i) {
    const std::string n = std::to_string(i);
    text += "r" + n + ",\"v,\"\"" + n + "\"\"\",\xC3\xA9" + n + "\n";
  }
  return text;
}

std::vector<std::vector<std::string>> ParseChunked(const std::string& text,
                                                   size_t chunk_bytes) {
  CsvStreamParser parser;
  std::vector<std::vector<std::string>> records;
  for (size_t pos = 0; pos < text.size(); pos += chunk_bytes) {
    EXPECT_TRUE(
        parser.Consume(std::string_view(text).substr(pos, chunk_bytes)).ok());
    for (auto& record : parser.TakeRecords()) {
      records.push_back(std::move(record));
    }
  }
  EXPECT_TRUE(parser.Finish().ok());
  for (auto& record : parser.TakeRecords()) {
    records.push_back(std::move(record));
  }
  return records;
}

TEST(CsvStreamParserTest, EveryChunkingParsesIdentically) {
  const std::string text = HostileDocument();
  auto whole = ParseCsv(text);
  ASSERT_TRUE(whole.ok());
  for (const size_t chunk_bytes : {size_t{1}, size_t{7}, size_t{4096}}) {
    EXPECT_EQ(ParseChunked(text, chunk_bytes), *whole)
        << "chunk size " << chunk_bytes;
  }
}

TEST(CsvStreamParserTest, BufferingStaysPerRecordNotPerDocument) {
  // 5000 small records fed in 64-byte chunks: the high-water mark must
  // track the longest record, not the document.
  std::string text = "a,b\n";
  for (int i = 0; i < 5000; ++i) {
    text += std::to_string(i) + ",\"value " + std::to_string(i) + "\"\n";
  }
  CsvStreamParser parser;
  size_t records = 0;
  for (size_t pos = 0; pos < text.size(); pos += 64) {
    ASSERT_TRUE(
        parser.Consume(std::string_view(text).substr(pos, 64)).ok());
    records += parser.TakeRecords().size();
  }
  ASSERT_TRUE(parser.Finish().ok());
  records += parser.TakeRecords().size();
  EXPECT_EQ(records, 5001u);
  EXPECT_LT(parser.peak_buffered_bytes(), 256u);
}

TEST(CsvStreamParserTest, UnterminatedQuoteAcrossChunksFails) {
  CsvStreamParser parser;
  ASSERT_TRUE(parser.Consume("a,\"open").ok());
  ASSERT_TRUE(parser.Consume(" still open").ok());
  EXPECT_FALSE(parser.Finish().ok());
}

}  // namespace
}  // namespace roadmine::util
