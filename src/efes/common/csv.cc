#include "efes/common/csv.h"

#include <deque>
#include <fstream>
#include <sstream>
#include <utility>

#include "efes/common/fault.h"
#include "efes/common/file_io.h"

namespace efes {

namespace {

bool NeedsQuoting(std::string_view cell, char delimiter) {
  return cell.find(delimiter) != std::string_view::npos ||
         cell.find('"') != std::string_view::npos ||
         cell.find('\n') != std::string_view::npos ||
         cell.find('\r') != std::string_view::npos;
}

void AppendCell(std::string& out, std::string_view cell, char delimiter) {
  if (!NeedsQuoting(cell, delimiter)) {
    out.append(cell);
    return;
  }
  out.push_back('"');
  for (char c : cell) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
}

void AddIssue(std::vector<DataIssue>* issues, std::string location,
              std::string message) {
  if (issues == nullptr) return;
  issues->push_back(
      DataIssue{"csv", std::move(location), std::move(message)});
}

// Incremental RFC-4180 scanner behind ChunkedCsvReader: one Feed over
// in-memory text (ParseCsv), or repeated Feeds over file blocks. Because a
// quote escape ("") and a \r\n sequence can straddle a block boundary, the
// scanner defers those decisions with one-character pending flags instead
// of looking ahead, which makes it produce the exact same records for any
// split of the input.
class CsvScanner {
 public:
  explicit CsvScanner(const CsvReadOptions& options) : options_(options) {}

  // Feeds input bytes; completed records accumulate in records().
  // Returns false once a resource limit latched (see limit_error()).
  bool Feed(std::string_view text) {
    for (char c : text) {
      if (!FeedChar(c)) return false;
    }
    return true;
  }

  // Signals end of input: resolves pending state and flushes a final
  // record without a trailing newline. Same return contract as Feed.
  bool Finish() {
    if (pending_cr_) {
      pending_cr_ = false;
      if (!EndRecord()) return false;
    }
    if (pending_quote_) {
      // A closing quote was the last character of the input.
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
      if (c == '"') return GrowCell('"');  // doubled quote: literal "
      in_quotes_ = false;                  // closing quote; reprocess c
    } else if (pending_cr_) {
      pending_cr_ = false;
      if (c == '\n') return EndRecord();  // \r\n ends one record
      if (!EndRecord()) return false;     // bare \r; reprocess c
    }
    if (in_quotes_) {
      if (c == '"') {
        pending_quote_ = true;  // escape or closing quote: next char tells
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
      pending_cr_ = true;  // a following \n merges into one record end
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

// Conforms `record` (data row number `row_number`, 1-based) to the header
// width: strict mode fails, recover mode pads/truncates and reports.
Status NormalizeRecord(std::vector<std::string>& record, size_t header_size,
                       size_t row_number, bool recover,
                       std::vector<DataIssue>* issues) {
  if (record.size() == header_size) return Status::OK();
  if (!recover) {
    std::ostringstream oss;
    oss << "CSV row " << row_number << " has " << record.size()
        << " cells, expected " << header_size;
    return Status::ParseError(oss.str());
  }
  std::ostringstream location;
  location << "row " << row_number;
  std::ostringstream oss;
  if (record.size() < header_size) {
    oss << "short row padded from " << record.size() << " to " << header_size
        << " cells";
  } else {
    oss << "long row truncated from " << record.size() << " to "
        << header_size << " cells";
  }
  AddIssue(issues, location.str(), oss.str());
  record.resize(header_size);
  return Status::OK();
}

}  // namespace

std::string WriteCsv(const CsvDocument& doc, char delimiter) {
  std::string out;
  auto append_row = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out.push_back(delimiter);
      AppendCell(out, row[i], delimiter);
    }
    out.push_back('\n');
  };
  append_row(doc.header);
  for (const auto& row : doc.rows) append_row(row);
  return out;
}

Status WriteCsvFile(const CsvDocument& doc, const std::string& path,
                    char delimiter) {
  return WriteFileAtomic(path, WriteCsv(doc, delimiter));
}

// --- ChunkedCsvReader ------------------------------------------------------

struct ChunkedCsvReader::Impl {
  Impl(const CsvReadOptions& options, std::string path, size_t chunk_rows)
      : options(options),
        path(std::move(path)),
        chunk_rows(chunk_rows),
        scanner(options) {}

  // Appends " (path)" to errors of a file source, and latches the error
  // so every later NextChunk repeats it.
  Status Fail(const Status& status) {
    error = path.empty() ? status
                         : Status(status.code(),
                                  status.message() + " (" + path + ")");
    return error;
  }

  // Feeds the next block of the source into the scanner; sets
  // source_done and finishes the scanner at end of input. In-memory text
  // is fed as one block.
  Status Pump() {
    if (!stream.is_open()) {
      source_done = true;
      if (!scanner.Feed(text) || !scanner.Finish()) {
        return Fail(scanner.limit_error());
      }
      return Status::OK();
    }
    char buffer[1 << 16];
    stream.read(buffer, sizeof(buffer));
    const std::streamsize got = stream.gcount();
    if (stream.bad()) {
      return Fail(Status::Unavailable("read error"));
    }
    if (got > 0 &&
        !scanner.Feed(std::string_view(buffer, static_cast<size_t>(got)))) {
      return Fail(scanner.limit_error());
    }
    if (stream.eof()) {
      source_done = true;
      if (!scanner.Finish()) return Fail(scanner.limit_error());
    }
    return Status::OK();
  }

  // True while an unterminated final quote still has to be reported.
  bool QuotePending() const {
    return source_done && scanner.unterminated_quote() &&
           !quote_issue_reported;
  }

  const CsvReadOptions options;
  const std::string path;  // empty for in-memory text
  const size_t chunk_rows;
  std::ifstream stream;
  std::string_view text;  // the source when no file is open
  CsvScanner scanner;
  std::vector<std::string> header;
  bool source_done = false;
  bool quote_issue_reported = false;
  size_t rows_delivered = 0;
  Status error;
};

ChunkedCsvReader::ChunkedCsvReader(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
ChunkedCsvReader::ChunkedCsvReader(ChunkedCsvReader&&) noexcept = default;
ChunkedCsvReader& ChunkedCsvReader::operator=(ChunkedCsvReader&&) noexcept =
    default;
ChunkedCsvReader::~ChunkedCsvReader() = default;

Result<ChunkedCsvReader> ChunkedCsvReader::Open(const std::string& path,
                                                const CsvReadOptions& options,
                                                size_t chunk_rows) {
  EFES_RETURN_IF_ERROR(CheckFaultPoint("csv.read"));
  auto impl = std::make_unique<Impl>(options, path, chunk_rows);
  impl->stream.open(path, std::ios::binary);
  if (!impl->stream) {
    return Status::NotFound("cannot open: " + path);
  }
  return Start(std::move(impl));
}

Result<ChunkedCsvReader> ChunkedCsvReader::Start(std::unique_ptr<Impl> impl) {
  while (impl->scanner.records().empty() && !impl->source_done) {
    EFES_RETURN_IF_ERROR(impl->Pump());
  }
  if (impl->scanner.records().empty()) {
    return impl->Fail(Status::ParseError("CSV input contains no header row"));
  }
  impl->header = std::move(impl->scanner.records().front());
  impl->scanner.records().pop_front();
  return ChunkedCsvReader(std::move(impl));
}

const std::vector<std::string>& ChunkedCsvReader::header() const {
  return impl_->header;
}

Result<std::vector<std::vector<std::string>>> ChunkedCsvReader::NextChunk(
    std::vector<DataIssue>* issues) {
  Impl& impl = *impl_;
  EFES_RETURN_IF_ERROR(impl.error);
  const bool recover = impl.options.mode == CsvReadOptions::Mode::kRecover;
  const size_t want =
      impl.chunk_rows == 0 ? impl.options.max_rows : impl.chunk_rows;
  while (impl.scanner.records().size() < want && !impl.source_done) {
    EFES_RETURN_IF_ERROR(impl.Pump());
  }
  if (impl.QuotePending()) {
    impl.quote_issue_reported = true;
    if (!recover) {
      return impl.Fail(Status::ParseError("unterminated quoted CSV field"));
    }
    AddIssue(issues, "end of input",
             "unterminated quoted field closed at end of input");
  }
  std::vector<std::vector<std::string>> rows;
  std::deque<std::vector<std::string>>& pending = impl.scanner.records();
  while (!pending.empty() && rows.size() < want) {
    std::vector<std::string> record = std::move(pending.front());
    pending.pop_front();
    Status normalized = NormalizeRecord(record, impl.header.size(),
                                        impl.rows_delivered + rows.size() + 1,
                                        recover, issues);
    if (!normalized.ok()) return impl.Fail(normalized);
    rows.push_back(std::move(record));
  }
  impl.rows_delivered += rows.size();
  return rows;
}

bool ChunkedCsvReader::done() const {
  return impl_->source_done && impl_->scanner.records().empty() &&
         !impl_->QuotePending();
}

size_t ChunkedCsvReader::rows_delivered() const {
  return impl_->rows_delivered;
}

Result<CsvDocument> ParseCsv(std::string_view text,
                             const CsvReadOptions& options,
                             std::vector<DataIssue>* issues) {
  auto impl = std::make_unique<ChunkedCsvReader::Impl>(options, "", 0);
  impl->text = text;
  EFES_ASSIGN_OR_RETURN(ChunkedCsvReader reader,
                        ChunkedCsvReader::Start(std::move(impl)));
  CsvDocument doc;
  doc.header = reader.header();
  // chunk_rows 0: one NextChunk delivers every row.
  EFES_ASSIGN_OR_RETURN(doc.rows, reader.NextChunk(issues));
  return doc;
}

}  // namespace efes
