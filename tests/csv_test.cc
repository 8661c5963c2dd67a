// Tests for the CSV reader/writer.

#include "efes/common/csv.h"

#include <gtest/gtest.h>

#include "efes/common/file_io.h"
#include "test_paths.h"

namespace efes {
namespace {

TEST(CsvTest, ParsesSimpleDocument) {
  auto doc = ParseCsv("a,b,c\n1,2,3\n4,5,6\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->header, (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(doc->rows.size(), 2u);
  EXPECT_EQ(doc->rows[0], (std::vector<std::string>{"1", "2", "3"}));
  EXPECT_EQ(doc->rows[1], (std::vector<std::string>{"4", "5", "6"}));
}

TEST(CsvTest, HandlesMissingTrailingNewline) {
  auto doc = ParseCsv("a,b\n1,2");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 1u);
  EXPECT_EQ(doc->rows[0][1], "2");
}

TEST(CsvTest, HandlesCrLf) {
  auto doc = ParseCsv("a,b\r\n1,2\r\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 1u);
  EXPECT_EQ(doc->rows[0][0], "1");
}

TEST(CsvTest, ParsesQuotedFields) {
  auto doc = ParseCsv("a,b\n\"hello, world\",\"say \"\"hi\"\"\"\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows[0][0], "hello, world");
  EXPECT_EQ(doc->rows[0][1], "say \"hi\"");
}

TEST(CsvTest, ParsesEmbeddedNewlineInQuotes) {
  auto doc = ParseCsv("a\n\"line1\nline2\"\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows[0][0], "line1\nline2");
}

TEST(CsvTest, EmptyCellsPreserved) {
  auto doc = ParseCsv("a,b,c\n,,\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows[0], (std::vector<std::string>{"", "", ""}));
}

TEST(CsvTest, RejectsArityMismatch) {
  auto doc = ParseCsv("a,b\n1,2,3\n");
  EXPECT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kParseError);
}

TEST(CsvTest, RejectsUnterminatedQuote) {
  auto doc = ParseCsv("a\n\"oops\n");
  EXPECT_FALSE(doc.ok());
}

TEST(CsvTest, MixedCrLfAndLfLineEndings) {
  auto doc = ParseCsv("a,b\r\n1,2\n3,4\r\n5,6");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 3u);
  EXPECT_EQ(doc->rows[0], (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(doc->rows[1], (std::vector<std::string>{"3", "4"}));
  EXPECT_EQ(doc->rows[2], (std::vector<std::string>{"5", "6"}));
}

TEST(CsvTest, LoneCrEndsRecord) {
  auto doc = ParseCsv("a,b\r1,2\r");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 1u);
  EXPECT_EQ(doc->rows[0], (std::vector<std::string>{"1", "2"}));
}

TEST(CsvTest, CrLfInsideQuotesIsPreserved) {
  auto doc = ParseCsv("a\n\"x\r\ny\"\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 1u);
  EXPECT_EQ(doc->rows[0][0], "x\r\ny");
}

TEST(CsvTest, RejectsUnterminatedQuoteAtEof) {
  EXPECT_FALSE(ParseCsv("a\n\"oops").ok());
  EXPECT_FALSE(ParseCsv("a\n\"").ok());
  auto doc = ParseCsv("a\n\"trailing quote");
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kParseError);
}

TEST(CsvTest, EmptyTrailingFieldBeforeNewline) {
  auto doc = ParseCsv("a,b\n1,\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 1u);
  EXPECT_EQ(doc->rows[0], (std::vector<std::string>{"1", ""}));
}

TEST(CsvTest, EmptyTrailingFieldAtEof) {
  auto doc = ParseCsv("a,b\n1,");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 1u);
  EXPECT_EQ(doc->rows[0], (std::vector<std::string>{"1", ""}));
}

TEST(CsvTest, EmptyTrailingFieldWithCrLf) {
  auto doc = ParseCsv("a,b\r\n1,\r\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 1u);
  EXPECT_EQ(doc->rows[0], (std::vector<std::string>{"1", ""}));
}

TEST(CsvTest, QuotedEmptyTrailingField) {
  auto doc = ParseCsv("a,b\n1,\"\"\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 1u);
  EXPECT_EQ(doc->rows[0], (std::vector<std::string>{"1", ""}));
}

TEST(CsvTest, RejectsEmptyInput) {
  EXPECT_FALSE(ParseCsv("").ok());
}

TEST(CsvTest, CustomDelimiter) {
  CsvReadOptions options;
  options.delimiter = ';';
  auto doc = ParseCsv("a;b\n1;2\n", options);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows[0][1], "2");
}

TEST(CsvTest, WriteQuotesOnlyWhenNeeded) {
  CsvDocument doc;
  doc.header = {"plain", "with,comma", "with\"quote"};
  doc.rows = {{"v", "a,b", "x\"y"}};
  std::string text = WriteCsv(doc);
  EXPECT_EQ(text,
            "plain,\"with,comma\",\"with\"\"quote\"\n"
            "v,\"a,b\",\"x\"\"y\"\n");
}

TEST(CsvTest, RoundTripPreservesContent) {
  CsvDocument doc;
  doc.header = {"title", "notes"};
  doc.rows = {{"Sweet Home Alabama", "4:43"},
              {"contains, comma", "multi\nline"},
              {"", "\"quoted\""}};
  auto parsed = ParseCsv(WriteCsv(doc));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header, doc.header);
  EXPECT_EQ(parsed->rows, doc.rows);
}

TEST(CsvTest, FileRoundTrip) {
  CsvDocument doc;
  doc.header = {"a", "b"};
  doc.rows = {{"1", "2"}, {"3", ""}};
  std::string path = TestScratchPath("efes_csv_test") + ".csv";
  ASSERT_TRUE(WriteCsvFile(doc, path).ok());
  auto reader = ChunkedCsvReader::Open(path, CsvReadOptions{}, 0);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->header(), doc.header);
  auto rows = reader->NextChunk();
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, doc.rows);
  EXPECT_TRUE(reader->done());
}

TEST(CsvTest, ReadMissingFileFails) {
  auto result =
      ChunkedCsvReader::Open("/nonexistent/path/data.csv", CsvReadOptions{}, 0);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

CsvReadOptions RecoverOptions() {
  CsvReadOptions options;
  options.mode = CsvReadOptions::Mode::kRecover;
  return options;
}

TEST(CsvRecoverTest, PadsShortRows) {
  std::vector<DataIssue> issues;
  auto doc = ParseCsv("a,b,c\n1,2\n4,5,6\n", RecoverOptions(), &issues);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_EQ(doc->rows.size(), 2u);
  EXPECT_EQ(doc->rows[0], (std::vector<std::string>{"1", "2", ""}));
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].location, "row 1");
}

TEST(CsvRecoverTest, TruncatesLongRows) {
  std::vector<DataIssue> issues;
  auto doc = ParseCsv("a,b\n1,2,3,4\n", RecoverOptions(), &issues);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows[0], (std::vector<std::string>{"1", "2"}));
  ASSERT_EQ(issues.size(), 1u);
}

TEST(CsvRecoverTest, ClosesUnterminatedQuoteAtEof) {
  std::vector<DataIssue> issues;
  auto doc = ParseCsv("a\n\"oops", RecoverOptions(), &issues);
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 1u);
  EXPECT_EQ(doc->rows[0][0], "oops");
  EXPECT_FALSE(issues.empty());
}

TEST(CsvRecoverTest, NullIssueListIsAccepted) {
  auto doc = ParseCsv("a,b\n1\n", RecoverOptions(), nullptr);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows[0], (std::vector<std::string>{"1", ""}));
}

TEST(CsvRecoverTest, CleanInputYieldsNoIssues) {
  std::vector<DataIssue> issues;
  auto doc = ParseCsv("a,b\n1,2\n", RecoverOptions(), &issues);
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(issues.empty());
}

TEST(CsvGuardTest, OversizedFieldIsResourceExhausted) {
  CsvReadOptions options;
  options.max_field_bytes = 8;
  std::string text = "a\nthis-cell-is-longer-than-eight-bytes\n";
  auto strict = ParseCsv(text, options);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kResourceExhausted);
  // The guard is not repairable: recover mode fails identically.
  options.mode = CsvReadOptions::Mode::kRecover;
  auto recover = ParseCsv(text, options);
  ASSERT_FALSE(recover.ok());
  EXPECT_EQ(recover.status().code(), StatusCode::kResourceExhausted);
}

TEST(CsvGuardTest, TooManyRowsIsResourceExhausted) {
  CsvReadOptions options;
  options.max_rows = 3;  // header + two data rows
  EXPECT_TRUE(ParseCsv("a\n1\n2\n", options).ok());
  auto over = ParseCsv("a\n1\n2\n3\n", options);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
}

TEST(CsvGuardTest, DefaultLimitsAcceptNormalDocuments) {
  auto doc = ParseCsv("a,b\n1,2\n", CsvReadOptions{});
  EXPECT_TRUE(doc.ok());
}

// --- Chunked streaming reader ---------------------------------------------

std::string ChunkedScratchFile(const std::string& tag, std::string_view text) {
  std::string path = TestScratchPath("efes_csv_chunked_" + tag) + ".csv";
  EXPECT_TRUE(WriteFileAtomic(path, text).ok());
  return path;
}

/// Drains the reader and returns every delivered row, in order.
Result<std::vector<std::vector<std::string>>> DrainChunks(
    ChunkedCsvReader& reader, std::vector<DataIssue>* issues = nullptr) {
  std::vector<std::vector<std::string>> rows;
  while (!reader.done()) {
    EFES_ASSIGN_OR_RETURN(std::vector<std::vector<std::string>> chunk,
                          reader.NextChunk(issues));
    rows.insert(rows.end(), chunk.begin(), chunk.end());
  }
  return rows;
}

TEST(ChunkedCsvTest, DeliversAllRowsInOrderForAnyChunkSize) {
  std::string text = "id,name\n";
  for (int i = 0; i < 100; ++i) {
    text += std::to_string(i) + ",row-" + std::to_string(i) + "\n";
  }
  const std::string path = ChunkedScratchFile("sizes", text);
  auto whole = ParseCsv(text);
  ASSERT_TRUE(whole.ok());
  for (size_t chunk_rows : {size_t{1}, size_t{3}, size_t{7}, size_t{100},
                            size_t{1000}, size_t{0}}) {
    SCOPED_TRACE("chunk_rows=" + std::to_string(chunk_rows));
    auto reader = ChunkedCsvReader::Open(path, CsvReadOptions{}, chunk_rows);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ(reader->header(), whole->header);
    auto rows = DrainChunks(*reader);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(*rows, whole->rows);
    EXPECT_TRUE(reader->done());
    EXPECT_EQ(reader->rows_delivered(), whole->rows.size());
  }
}

TEST(ChunkedCsvTest, QuotedNewlinesAndCrLfStraddleChunkBoundaries) {
  // Embedded newlines, CRLF terminators, doubled quotes, and embedded
  // delimiters — every feature that makes "one row" span raw-byte
  // boundaries the block reader cannot see.
  const std::string text =
      "title,notes\r\n"
      "\"multi\nline\",\"a,b\"\r\n"
      "\"he said \"\"hi\"\"\",plain\r\n"
      "last,\"trailing\r\nbreak\"\r\n";
  const std::string path = ChunkedScratchFile("straddle", text);
  auto whole = ParseCsv(text);
  ASSERT_TRUE(whole.ok());
  for (size_t chunk_rows : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE("chunk_rows=" + std::to_string(chunk_rows));
    auto reader = ChunkedCsvReader::Open(path, CsvReadOptions{}, chunk_rows);
    ASSERT_TRUE(reader.ok());
    auto rows = DrainChunks(*reader);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(*rows, whole->rows);
  }
}

TEST(ChunkedCsvTest, StrictShapeErrorIsSticky) {
  const std::string path =
      ChunkedScratchFile("sticky", "a,b\n1,2\n3,4\nonly-one-cell\n5,6\n");
  auto reader = ChunkedCsvReader::Open(path, CsvReadOptions{}, 1);
  ASSERT_TRUE(reader.ok());
  auto first = reader->NextChunk();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, (std::vector<std::vector<std::string>>{{"1", "2"}}));
  (void)reader->NextChunk();  // {"3", "4"}
  auto bad = reader->NextChunk();
  ASSERT_FALSE(bad.ok());
  // Sticky: the reader never recovers past a strict-mode failure.
  auto again = reader->NextChunk();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(bad.status().code(), again.status().code());
}

TEST(ChunkedCsvTest, RecoverModeRepairsAcrossChunks) {
  const std::string path =
      ChunkedScratchFile("recover", "a,b\n1\n2,3,4\n5,6\n");
  auto reader = ChunkedCsvReader::Open(path, RecoverOptions(), 2);
  ASSERT_TRUE(reader.ok());
  std::vector<DataIssue> issues;
  auto rows = DrainChunks(*reader, &issues);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(*rows, (std::vector<std::vector<std::string>>{
                       {"1", ""}, {"2", "3"}, {"5", "6"}}));
  EXPECT_EQ(issues.size(), 2u);
}

TEST(ChunkedCsvTest, UnterminatedQuoteInHeaderOnlyFileIsReported) {
  // The header is the only record, so no data chunk carries the quote
  // report; done() stays false until NextChunk has made it.
  const std::string path = ChunkedScratchFile("header_quote", "a,\"b");
  auto strict = ChunkedCsvReader::Open(path, CsvReadOptions{}, 8);
  ASSERT_TRUE(strict.ok());
  EXPECT_FALSE(strict->done());
  auto failed = DrainChunks(*strict);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kParseError);
  EXPECT_FALSE(ParseCsv("a,\"b").ok());

  auto recover = ChunkedCsvReader::Open(path, RecoverOptions(), 8);
  ASSERT_TRUE(recover.ok());
  std::vector<DataIssue> issues;
  auto rows = DrainChunks(*recover, &issues);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_TRUE(rows->empty());
  EXPECT_EQ(recover->header(), (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].location, "end of input");
}

TEST(ChunkedCsvTest, MissingFileFailsAtOpen) {
  auto reader = ChunkedCsvReader::Open("/nonexistent/stream.csv",
                                       CsvReadOptions{}, 8);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kNotFound);
}

TEST(ChunkedCsvTest, RowLimitIsEnforced) {
  CsvReadOptions options;
  options.max_rows = 3;  // header + two data rows
  const std::string path =
      ChunkedScratchFile("limit", "a\n1\n2\n3\n4\n");
  // The guard trips wherever the scanner first sees the excess row —
  // here inside Open, since the whole file fits the first block.
  auto reader = ChunkedCsvReader::Open(path, options, 1);
  if (reader.ok()) {
    auto rows = DrainChunks(*reader);
    ASSERT_FALSE(rows.ok());
    EXPECT_EQ(rows.status().code(), StatusCode::kResourceExhausted);
  } else {
    EXPECT_EQ(reader.status().code(), StatusCode::kResourceExhausted);
  }
}

}  // namespace
}  // namespace efes
