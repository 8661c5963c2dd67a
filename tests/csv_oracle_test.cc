// Differential test of the CSV reader against a naive reference: the
// per-character scanner and chunk loop EFES used before the run-based
// scanner, kept here verbatim in behavior (one character at a time, one
// std::string per cell, a deque of pending records). Both read the same
// random CSV text, and header, rows, chunk boundaries, repair issues and
// the final status (code and message) must agree.
//
// Inputs are random records with doubled quotes, quoted delimiters and
// quoted \n / \r\n, bare \r, empty and trailing cells, stray quotes inside
// unquoted cells, no final newline and unterminated quotes. ParseCsv is
// compared on the text alone. ChunkedCsvReader reads files whose 64 KiB
// block boundary is moved to a chosen byte of the random body by a filler
// prefix, so the boundary falls inside quotes, between \r and \n, between
// the two quotes of an escape, one byte into the body and one byte before
// its end. Every read runs in strict and recover mode at chunk_rows 1, 7
// and 0, with fields exactly at and one byte over max_field_bytes, and
// with max_rows set to trip inside the body.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "efes/common/csv.h"
#include "efes/common/file_io.h"
#include "efes/common/random.h"
#include "test_paths.h"

namespace efes {
namespace {

/// The block size ChunkedCsvReader reads a file in.
constexpr size_t kBlockBytes = size_t{1} << 16;

// --- The naive reference ----------------------------------------------------

/// One character at a time; a pending-quote and a pending-CR flag defer
/// the decisions a block boundary can split.
class NaiveScanner {
 public:
  explicit NaiveScanner(const CsvReadOptions& options) : options_(options) {}

  bool Feed(std::string_view text) {
    for (char c : text) {
      if (!FeedChar(c)) return false;
    }
    return true;
  }

  bool Finish() {
    if (pending_cr_) {
      pending_cr_ = false;
      if (!EndRecord()) return false;
    }
    if (pending_quote_) {
      pending_quote_ = false;
      in_quotes_ = false;
    }
    if (in_quotes_) {
      unterminated_quote_ = true;
      in_quotes_ = false;
    }
    if (!current_cell_.empty() || !current_record_.empty() || cell_started_) {
      if (!EndRecord()) return false;
    }
    return true;
  }

  std::deque<std::vector<std::string>>& records() { return records_; }
  bool unterminated_quote() const { return unterminated_quote_; }
  const Status& limit_error() const { return limit_error_; }

 private:
  bool FeedChar(char c) {
    if (pending_quote_) {
      pending_quote_ = false;
      if (c == '"') return GrowCell('"');
      in_quotes_ = false;
    } else if (pending_cr_) {
      pending_cr_ = false;
      if (c == '\n') return EndRecord();
      if (!EndRecord()) return false;
    }
    if (in_quotes_) {
      if (c == '"') {
        pending_quote_ = true;
        return true;
      }
      return GrowCell(c);
    }
    if (c == '"' && !cell_started_ && current_cell_.empty()) {
      in_quotes_ = true;
      cell_started_ = true;
      return true;
    }
    if (c == options_.delimiter) {
      EndCell();
      return true;
    }
    if (c == '\r') {
      pending_cr_ = true;
      return true;
    }
    if (c == '\n') return EndRecord();
    cell_started_ = true;
    return GrowCell(c);
  }

  void EndCell() {
    current_record_.push_back(std::move(current_cell_));
    current_cell_.clear();
    cell_started_ = false;
  }

  bool EndRecord() {
    EndCell();
    records_.push_back(std::move(current_record_));
    current_record_.clear();
    ++total_records_;
    if (total_records_ > options_.max_rows) {
      std::ostringstream oss;
      oss << "CSV input exceeds the row limit of " << options_.max_rows;
      limit_error_ = Status::ResourceExhausted(oss.str());
      return false;
    }
    return true;
  }

  bool GrowCell(char c) {
    if (current_cell_.size() >= options_.max_field_bytes) {
      std::ostringstream oss;
      oss << "CSV field in record " << total_records_ + 1
          << " exceeds the field limit of " << options_.max_field_bytes
          << " bytes";
      limit_error_ = Status::ResourceExhausted(oss.str());
      return false;
    }
    current_cell_.push_back(c);
    return true;
  }

  const CsvReadOptions options_;
  std::deque<std::vector<std::string>> records_;
  std::vector<std::string> current_record_;
  std::string current_cell_;
  bool in_quotes_ = false;
  bool cell_started_ = false;
  bool pending_quote_ = false;
  bool pending_cr_ = false;
  bool unterminated_quote_ = false;
  size_t total_records_ = 0;
  Status limit_error_;
};

/// Everything a drain of a reader shows: what Open returned, the header,
/// the size of every chunk, the rows, the repair issues, and the status
/// that ended the drain (OK at end of input).
struct Outcome {
  bool opened = false;
  std::vector<std::string> header;
  std::vector<size_t> chunk_sizes;
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> issues;
  Status status;
};

std::string Render(const Status& status) {
  return status.ok() ? "OK" : status.ToString();
}

void ExpectSameOutcome(const Outcome& expected, const Outcome& actual) {
  EXPECT_EQ(Render(expected.status), Render(actual.status));
  EXPECT_EQ(expected.opened, actual.opened);
  EXPECT_EQ(expected.header, actual.header);
  EXPECT_EQ(expected.chunk_sizes, actual.chunk_sizes);
  EXPECT_EQ(expected.issues, actual.issues);
  ASSERT_EQ(expected.rows.size(), actual.rows.size());
  for (size_t r = 0; r < expected.rows.size(); ++r) {
    ASSERT_EQ(expected.rows[r], actual.rows[r]) << "row " << r;
  }
}

void RecordIssues(const std::vector<DataIssue>& issues,
                  std::vector<std::string>* out) {
  for (const DataIssue& issue : issues) {
    out->push_back(issue.component + "|" + issue.location + "|" +
                   issue.message);
  }
}

/// The naive reader over `text`: blocks of `block_bytes` (0: the whole
/// text in one Feed, as ParseCsv does), chunks of `chunk_rows` rows (0:
/// all), and `path` appended to errors as a file source does.
Outcome NaiveRead(std::string_view text, const CsvReadOptions& options,
                  size_t chunk_rows, size_t block_bytes,
                  const std::string& path) {
  Outcome outcome;
  NaiveScanner scanner(options);
  size_t position = 0;
  bool source_done = false;
  bool quote_issue_reported = false;
  Status error;
  auto fail = [&](const Status& status) {
    error = path.empty() ? status
                         : Status(status.code(),
                                  status.message() + " (" + path + ")");
    return error;
  };
  auto pump = [&]() -> Status {
    const size_t want = block_bytes == 0 ? text.size() - position
                                         : block_bytes;
    const size_t got = std::min(want, text.size() - position);
    if (got > 0 && !scanner.Feed(text.substr(position, got))) {
      return fail(scanner.limit_error());
    }
    position += got;
    // A file read that comes back short has hit end of file; a read of
    // exactly the remaining bytes has not, until the next (empty) read.
    if (block_bytes == 0 || got < block_bytes) {
      source_done = true;
      if (!scanner.Finish()) return fail(scanner.limit_error());
    }
    return Status::OK();
  };
  auto quote_pending = [&]() {
    return source_done && scanner.unterminated_quote() &&
           !quote_issue_reported;
  };

  while (scanner.records().empty() && !source_done) {
    Status pumped = pump();
    if (!pumped.ok()) {
      outcome.status = pumped;
      return outcome;
    }
  }
  if (scanner.records().empty()) {
    outcome.status = fail(Status::ParseError("CSV input contains no header row"));
    return outcome;
  }
  outcome.opened = true;
  outcome.header = std::move(scanner.records().front());
  scanner.records().pop_front();

  const bool recover = options.mode == CsvReadOptions::Mode::kRecover;
  const size_t want = chunk_rows == 0 ? options.max_rows : chunk_rows;
  size_t delivered = 0;
  while (source_done ? !scanner.records().empty() || quote_pending() : true) {
    std::vector<DataIssue> issues;
    Status status = [&]() -> Status {
      EFES_RETURN_IF_ERROR(error);
      while (scanner.records().size() < want && !source_done) {
        EFES_RETURN_IF_ERROR(pump());
      }
      if (quote_pending()) {
        quote_issue_reported = true;
        if (!recover) {
          return fail(Status::ParseError("unterminated quoted CSV field"));
        }
        issues.push_back(DataIssue{"csv", "end of input",
                                   "unterminated quoted field closed at "
                                   "end of input"});
      }
      std::vector<std::vector<std::string>> rows;
      while (!scanner.records().empty() && rows.size() < want) {
        std::vector<std::string> record =
            std::move(scanner.records().front());
        scanner.records().pop_front();
        const size_t row_number = delivered + rows.size() + 1;
        if (record.size() != outcome.header.size()) {
          if (!recover) {
            std::ostringstream oss;
            oss << "CSV row " << row_number << " has " << record.size()
                << " cells, expected " << outcome.header.size();
            return fail(Status::ParseError(oss.str()));
          }
          std::ostringstream oss;
          if (record.size() < outcome.header.size()) {
            oss << "short row padded from " << record.size() << " to "
                << outcome.header.size() << " cells";
          } else {
            oss << "long row truncated from " << record.size() << " to "
                << outcome.header.size() << " cells";
          }
          issues.push_back(DataIssue{
              "csv", "row " + std::to_string(row_number), oss.str()});
          record.resize(outcome.header.size());
        }
        rows.push_back(std::move(record));
      }
      delivered += rows.size();
      outcome.chunk_sizes.push_back(rows.size());
      for (auto& row : rows) outcome.rows.push_back(std::move(row));
      return Status::OK();
    }();
    RecordIssues(issues, &outcome.issues);
    if (!status.ok()) {
      outcome.status = status;
      return outcome;
    }
  }
  return outcome;
}

// --- The reader under test --------------------------------------------------

/// Drains ChunkedCsvReader over the file at `path` the way LoadTable does.
Outcome ReaderRead(const std::string& path, const CsvReadOptions& options,
                   size_t chunk_rows) {
  Outcome outcome;
  Result<ChunkedCsvReader> reader =
      ChunkedCsvReader::Open(path, options, chunk_rows);
  if (!reader.ok()) {
    outcome.status = reader.status();
    return outcome;
  }
  outcome.opened = true;
  outcome.header = reader->header();
  while (!reader->done()) {
    std::vector<DataIssue> issues;
    Result<std::vector<std::vector<std::string>>> rows =
        reader->NextChunk(&issues);
    RecordIssues(issues, &outcome.issues);
    if (!rows.ok()) {
      outcome.status = rows.status();
      // Errors are sticky.
      EXPECT_EQ(Render(reader->NextChunk().status()), Render(rows.status()));
      return outcome;
    }
    outcome.chunk_sizes.push_back(rows->size());
    for (auto& row : *rows) outcome.rows.push_back(std::move(row));
  }
  EXPECT_EQ(reader->rows_delivered(), outcome.rows.size());
  return outcome;
}

/// ParseCsv seen as a one-chunk drain.
Outcome ParseRead(std::string_view text, const CsvReadOptions& options) {
  Outcome outcome;
  std::vector<DataIssue> issues;
  Result<CsvDocument> doc = ParseCsv(text, options, &issues);
  RecordIssues(issues, &outcome.issues);
  if (!doc.ok()) {
    outcome.status = doc.status();
    return outcome;
  }
  outcome.opened = true;
  outcome.header = doc->header;
  outcome.rows = doc->rows;
  return outcome;
}

/// ParseCsv fails as a whole, so on failure only the status (and the
/// repair issues it made before failing) can be compared.
void ExpectSameParse(const Outcome& naive, const Outcome& parsed) {
  EXPECT_EQ(Render(naive.status), Render(parsed.status));
  EXPECT_EQ(naive.issues, parsed.issues);
  if (!naive.status.ok()) return;
  EXPECT_EQ(naive.header, parsed.header);
  EXPECT_EQ(naive.rows, parsed.rows);
}

// --- Random CSV text --------------------------------------------------------

/// A random cell: plain, empty, quoted (with doubled quotes, delimiters,
/// \n, \r\n), or malformed (stray quote, text after a closing quote).
std::string RandomCell(Random& rng, size_t max_len) {
  const size_t len = rng.UniformUint64(max_len + 1);
  std::string plain;
  for (size_t i = 0; i < len; ++i) {
    plain.push_back(static_cast<char>('a' + rng.UniformUint64(6)));
  }
  switch (rng.UniformUint64(10)) {
    case 0:
      return "";
    case 1:
    case 2: {
      std::string quoted = "\"";
      for (size_t i = 0; i < len; ++i) {
        switch (rng.UniformUint64(8)) {
          case 0: quoted += "\"\""; break;
          case 1: quoted += ","; break;
          case 2: quoted += "\n"; break;
          case 3: quoted += "\r\n"; break;
          default: quoted.push_back(plain[i]);
        }
      }
      return quoted + "\"";
    }
    case 3:
      return plain.empty() ? "x\"y" : plain.substr(0, 1) + "\"" + plain;
    case 4:
      return "\"" + plain + "\"" + (plain.empty() ? "z" : plain);
    default:
      return plain;
  }
}

/// Random records of 1 to 4 cells with mixed terminators; sometimes no
/// final terminator, sometimes an unterminated quote at the end.
std::string RandomBody(Random& rng, size_t records, size_t max_len) {
  std::string text;
  for (size_t r = 0; r < records; ++r) {
    const size_t width = 1 + rng.UniformUint64(4);
    for (size_t c = 0; c < width; ++c) {
      if (c > 0) text.push_back(',');
      text += RandomCell(rng, max_len);
    }
    if (rng.Bernoulli(0.1)) text.push_back(',');  // trailing empty cell
    switch (rng.UniformUint64(6)) {
      case 0: text += "\r\n"; break;
      case 1: text += "\r"; break;
      default: text += "\n";
    }
  }
  switch (rng.UniformUint64(6)) {
    case 0:
      if (!text.empty()) text.pop_back();  // no final newline
      break;
    case 1:
      text += "\"unterminated";
      break;
    case 2:
      text += "tail,\"";
      break;
    default:
      break;
  }
  return text;
}

/// Header "a,b,c" and filler rows "000,000,000" (the last one shorter),
/// so the body starts exactly `prefix_bytes` into the file. No filler
/// cell is longer than 3 bytes.
std::string Filler(size_t prefix_bytes) {
  std::string text = "a,b,c\n";
  size_t remaining = prefix_bytes - text.size();
  while (remaining >= 18) {
    text += "000,000,000\n";
    remaining -= 12;
  }
  // 6..17 bytes left: one or two rows whose cells share them.
  if (remaining > 12) {
    text += "0,0,0\n";
    remaining -= 6;
  }
  size_t extra = remaining - 6;
  for (int c = 0; c < 3; ++c) {
    const size_t grow = std::min<size_t>(2, extra);
    extra -= grow;
    text += std::string(1 + grow, '0');
    text.push_back(c < 2 ? ',' : '\n');
  }
  return text;
}

/// Records (header included) the naive scanner sees in `text`.
size_t CountRecords(std::string_view text) {
  CsvReadOptions options;
  options.max_field_bytes = text.size() + 1;
  options.max_rows = text.size() + 1;
  NaiveScanner scanner(options);
  EXPECT_TRUE(scanner.Feed(text) && scanner.Finish());
  return scanner.records().size();
}

std::vector<CsvReadOptions> OptionVariants(Random& rng,
                                           std::string_view text,
                                           size_t max_len) {
  std::vector<CsvReadOptions> variants;
  for (auto mode :
       {CsvReadOptions::Mode::kStrict, CsvReadOptions::Mode::kRecover}) {
    CsvReadOptions plain;
    plain.mode = mode;
    variants.push_back(plain);
    // Random cells reach max_len bytes (quoted ones more), so this limit
    // sees fields exactly at it and one byte over.
    CsvReadOptions field = plain;
    field.max_field_bytes = max_len;
    variants.push_back(field);
    CsvReadOptions rows = plain;
    const size_t records = CountRecords(text);
    rows.max_rows = records - std::min<size_t>(records - 1,
                                               rng.UniformUint64(3));
    variants.push_back(rows);
  }
  return variants;
}

std::string Describe(const CsvReadOptions& options) {
  std::ostringstream oss;
  oss << (options.mode == CsvReadOptions::Mode::kRecover ? "recover"
                                                          : "strict")
      << " max_field_bytes=" << options.max_field_bytes
      << " max_rows=" << options.max_rows;
  return oss.str();
}

TEST(CsvOracleTest, ParseCsvMatchesNaiveReferenceOnRandomText) {
  Random rng(20150301);
  for (int trial = 0; trial < 400; ++trial) {
    const size_t max_len = 1 + rng.UniformUint64(6);
    const std::string text =
        RandomBody(rng, 1 + rng.UniformUint64(12), max_len);
    SCOPED_TRACE("trial " + std::to_string(trial));
    if (CountRecords(text) == 0) {
      EXPECT_EQ(Render(ParseRead(text, {}).status),
                Render(NaiveRead(text, {}, 0, 0, "").status));
      continue;
    }
    for (const CsvReadOptions& options : OptionVariants(rng, text, max_len)) {
      SCOPED_TRACE(Describe(options));
      ExpectSameParse(NaiveRead(text, options, 0, 0, ""),
                      ParseRead(text, options));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(CsvOracleTest, ChunkedReaderMatchesNaiveReferenceAtEveryBlockBoundary) {
  Random rng(20150302);
  const std::string path = TestScratchPath("efes_csv_oracle") + ".csv";
  for (int trial = 0; trial < 12; ++trial) {
    const size_t max_len = 3 + rng.UniformUint64(4);
    const std::string body =
        RandomBody(rng, 4 + rng.UniformUint64(30), max_len);
    // Where the 64 KiB block boundary falls inside the body: at its start,
    // one byte in, one byte before its end (a 1-byte final block), at its
    // end (a file of exactly one block), and at a random byte.
    std::vector<size_t> offsets = {0, 1, body.size() - 1, body.size(),
                                   rng.UniformUint64(body.size() + 1)};
    for (size_t offset : offsets) {
      const std::string text = Filler(kBlockBytes - offset) + body;
      ASSERT_TRUE(WriteFileAtomic(path, text).ok());
      SCOPED_TRACE("trial " + std::to_string(trial) + " offset " +
                   std::to_string(offset));
      for (const CsvReadOptions& options :
           OptionVariants(rng, text, max_len)) {
        for (size_t chunk_rows : {size_t{1}, size_t{7}, size_t{0}}) {
          SCOPED_TRACE(Describe(options) +
                       " chunk_rows=" + std::to_string(chunk_rows));
          ExpectSameOutcome(
              NaiveRead(text, options, chunk_rows, kBlockBytes, path),
              ReaderRead(path, options, chunk_rows));
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(CsvOracleTest, BoundaryInsideEveryTwoByteDecision) {
  // Each body puts one deferred decision (the two quotes of an escape, a
  // closing quote before a delimiter, \r before \n, a bare \r) at its
  // byte 1, so offset 1 splits it across two blocks.
  const std::string path = TestScratchPath("efes_csv_oracle_pair") + ".csv";
  const std::vector<std::string> bodies = {
      "\"\"\"x\",y,z\n",      "\"ab\",c,d\n",     "\r\n1,2,3\n",
      "\r1,2,3\n",            "x\r\n1,2,3",       "\"a\r\nb\",c,d\r\n",
      "\"\",\"\",\"\"\n",     "\"open,2,3\n",     "1,2,\"",
  };
  for (const std::string& body : bodies) {
    for (size_t offset = 0; offset <= body.size(); ++offset) {
      const std::string text = Filler(kBlockBytes - offset) + body;
      ASSERT_TRUE(WriteFileAtomic(path, text).ok());
      for (auto mode :
           {CsvReadOptions::Mode::kStrict, CsvReadOptions::Mode::kRecover}) {
        CsvReadOptions options;
        options.mode = mode;
        for (size_t chunk_rows : {size_t{1}, size_t{7}, size_t{0}}) {
          SCOPED_TRACE("body " + body + " offset " + std::to_string(offset) +
                       " " + Describe(options) +
                       " chunk_rows=" + std::to_string(chunk_rows));
          ExpectSameOutcome(
              NaiveRead(text, options, chunk_rows, kBlockBytes, path),
              ReaderRead(path, options, chunk_rows));
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(CsvOracleTest, FieldLimitIsExactAndRowLimitTripsWhereTheNaiveOneDoes) {
  const std::string path = TestScratchPath("efes_csv_oracle_limit") + ".csv";
  CsvReadOptions options;
  options.max_field_bytes = 6;
  for (const std::string& body :
       {std::string("abcdef,1,2\n"), std::string("abcdefg,1,2\n"),
        std::string("\"ab\"\"de\",1,2\n"), std::string("\"ab\"\"def\",1,2\n"),
        std::string("\"a,\r\nbc\",1,2\n"), std::string("\"a,\r\nbcd\",1,2\n")}) {
    for (size_t offset : {size_t{0}, size_t{3}, body.size()}) {
      const std::string text = Filler(kBlockBytes - offset) + body;
      ASSERT_TRUE(WriteFileAtomic(path, text).ok());
      for (size_t rows_over : {size_t{0}, size_t{1}}) {
        CsvReadOptions limited = options;
        limited.max_rows = CountRecords(text) - rows_over;
        for (size_t chunk_rows : {size_t{1}, size_t{7}, size_t{0}}) {
          SCOPED_TRACE(body + " offset " + std::to_string(offset) + " " +
                       Describe(limited) +
                       " chunk_rows=" + std::to_string(chunk_rows));
          ExpectSameOutcome(
              NaiveRead(text, limited, chunk_rows, kBlockBytes, path),
              ReaderRead(path, limited, chunk_rows));
          ExpectSameParse(NaiveRead(text, limited, 0, 0, ""),
                          ParseRead(text, limited));
        }
      }
    }
  }
}

}  // namespace
}  // namespace efes
