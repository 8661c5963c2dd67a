#include "efes/common/csv.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
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

// A chunk's offsets are 32-bit.
constexpr size_t kMaxChunkUnits = std::numeric_limits<uint32_t>::max();

Status ChunkLimitError() {
  std::ostringstream oss;
  oss << "CSV chunk exceeds " << kMaxChunkUnits
      << " bytes or cells; read it in fewer rows per chunk";
  return Status::ResourceExhausted(oss.str());
}

// Incremental RFC-4180 scanner behind ChunkedCsvReader: one Feed over
// in-memory text (ParseCsv), or repeated Feeds over file blocks. Because a
// quote escape ("") and a \r\n sequence can straddle a block boundary, the
// scanner defers those decisions with one-character pending flags instead
// of looking ahead, which makes it produce the exact same records for any
// split of the input.
//
// Between those decisions it works in runs: outside quotes, every byte up
// to the next delimiter, quote, \r or \n (a 256-entry class table); inside
// quotes, every byte up to the next quote (memchr). Each run is appended
// to the open cell with one append and checked against max_field_bytes
// once. Records accumulate flat in a CsvChunk; rows before next_row() are
// delivered and dropped by the next DropDelivered.
class CsvScanner {
 public:
  explicit CsvScanner(const CsvReadOptions& options) : options_(options) {
    for (char c : {'"', '\r', '\n', options.delimiter}) {
      special_[static_cast<unsigned char>(c)] = true;
    }
  }

  // Feeds input bytes; completed records accumulate in records().
  // Returns false once a resource limit latched (see limit_error()).
  bool Feed(std::string_view text) {
    // A block adds at most one byte and one cell per input byte.
    if (records_.bytes.size() + text.size() >= kMaxChunkUnits ||
        records_.cell_ends.size() + text.size() + 1 >= kMaxChunkUnits) {
      limit_error_ = ChunkLimitError();
      return false;
    }
    const char* p = text.data();
    const char* const end = p + text.size();
    while (p < end) {
      if (pending_quote_) {
        pending_quote_ = false;
        if (*p == '"') {  // doubled quote: literal "
          if (!Grow(p, 1)) return false;
          ++p;
          continue;
        }
        in_quotes_ = false;  // closing quote; reprocess *p
      } else if (pending_cr_) {
        pending_cr_ = false;
        if (!EndRecord()) return false;  // bare \r, or \r\n: one record end
        if (*p == '\n') {
          ++p;
          continue;
        }
      }
      if (in_quotes_) {
        // Everything up to the next quote is cell content; the quote is
        // an escape or the closing quote, and the next byte tells.
        const void* quote =
            std::memchr(p, '"', static_cast<size_t>(end - p));
        const char* stop =
            quote == nullptr ? end : static_cast<const char*>(quote);
        if (!Grow(p, static_cast<size_t>(stop - p))) return false;
        p = stop;
        if (p < end) {
          pending_quote_ = true;
          ++p;
        }
        continue;
      }
      const char c = *p;
      if (c == '"' && !cell_started_) {
        in_quotes_ = true;
        cell_started_ = true;
        ++p;
        continue;
      }
      if (c == options_.delimiter) {
        EndCell();
        ++p;
        continue;
      }
      if (c == '\r') {
        pending_cr_ = true;  // a following \n merges into one record end
        ++p;
        continue;
      }
      if (c == '\n') {
        if (!EndRecord()) return false;
        ++p;
        continue;
      }
      // An ordinary run; a quote inside an unquoted cell is ordinary.
      const char* stop = p + 1;
      while (stop < end && !special_[static_cast<unsigned char>(*stop)]) {
        ++stop;
      }
      cell_started_ = true;
      if (!Grow(p, static_cast<size_t>(stop - p))) return false;
      p = stop;
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
    if (OpenCellBytes() > 0 || RecordOpen() || cell_started_) {
      if (!EndRecord()) return false;
    }
    return true;
  }

  // Every record scanned and not yet dropped; rows before next_row() are
  // delivered.
  const CsvChunk& records() const { return records_; }
  size_t next_row() const { return next_row_; }
  size_t available() const { return records_.rows() - next_row_; }
  void MarkDelivered(size_t rows) { next_row_ += rows; }

  // Drops the delivered rows, keeping undelivered rows and the open
  // record. Called before each Feed, so the arena holds at most the
  // rows a chunk still needs plus one block.
  void DropDelivered() {
    if (next_row_ == 0) return;
    const uint32_t cells = records_.row_ends[next_row_ - 1];
    const uint32_t bytes = records_.cell_ends[cells - 1];
    records_.bytes.erase(0, bytes);
    records_.cell_ends.erase(records_.cell_ends.begin(),
                             records_.cell_ends.begin() + cells);
    for (uint32_t& end : records_.cell_ends) end -= bytes;
    records_.row_ends.erase(records_.row_ends.begin(),
                            records_.row_ends.begin() +
                                static_cast<std::ptrdiff_t>(next_row_));
    for (uint32_t& end : records_.row_ends) end -= cells;
    next_row_ = 0;
  }

  bool unterminated_quote() const { return unterminated_quote_; }
  const Status& limit_error() const { return limit_error_; }

 private:
  size_t CellsEnded() const { return records_.cell_ends.size(); }
  size_t OpenCellBytes() const {
    return records_.bytes.size() -
           (CellsEnded() == 0 ? 0 : records_.cell_ends.back());
  }
  bool RecordOpen() const {
    return CellsEnded() >
           (records_.row_ends.empty() ? 0 : records_.row_ends.back());
  }

  void EndCell() {
    records_.cell_ends.push_back(
        static_cast<uint32_t>(records_.bytes.size()));
    cell_started_ = false;
  }

  bool EndRecord() {
    EndCell();
    records_.row_ends.push_back(static_cast<uint32_t>(CellsEnded()));
    ++total_records_;
    if (total_records_ > options_.max_rows) {
      std::ostringstream oss;
      oss << "CSV input exceeds the row limit of " << options_.max_rows;
      limit_error_ = Status::ResourceExhausted(oss.str());
      return false;
    }
    return true;
  }

  bool Grow(const char* data, size_t size) {
    if (OpenCellBytes() + size > options_.max_field_bytes) {
      std::ostringstream oss;
      oss << "CSV field in record " << total_records_ + 1
          << " exceeds the field limit of " << options_.max_field_bytes
          << " bytes";
      limit_error_ = Status::ResourceExhausted(oss.str());
      return false;
    }
    records_.bytes.append(data, size);
    return true;
  }

  const CsvReadOptions options_;
  bool special_[256] = {};
  CsvChunk records_;
  size_t next_row_ = 0;
  bool in_quotes_ = false;
  bool cell_started_ = false;
  bool pending_quote_ = false;
  bool pending_cr_ = false;
  bool unterminated_quote_ = false;
  size_t total_records_ = 0;
  Status limit_error_;
};

// Appends row `row` of `from` to `out`, conformed to the header width:
// strict mode fails, recover mode pads/truncates and reports. `row_number`
// is the 1-based data row number.
Status AppendNormalized(const CsvChunk& from, size_t row, size_t header_size,
                        size_t row_number, bool recover,
                        std::vector<DataIssue>* issues, CsvChunk* out) {
  const size_t width = from.width(row);
  if (width != header_size) {
    if (!recover) {
      std::ostringstream oss;
      oss << "CSV row " << row_number << " has " << width
          << " cells, expected " << header_size;
      return Status::ParseError(oss.str());
    }
    std::ostringstream location;
    location << "row " << row_number;
    std::ostringstream oss;
    if (width < header_size) {
      oss << "short row padded from " << width << " to " << header_size
          << " cells";
    } else {
      oss << "long row truncated from " << width << " to " << header_size
          << " cells";
    }
    AddIssue(issues, location.str(), oss.str());
  }
  if (out->cell_ends.size() + header_size >= kMaxChunkUnits) {
    return ChunkLimitError();
  }
  // The kept cells are contiguous in the arena: one append, then their
  // ends rebased onto `out`; padding cells are empty.
  const size_t first = row == 0 ? 0 : from.row_ends[row - 1];
  const size_t kept = std::min(width, header_size);
  const size_t begin = first == 0 ? 0 : from.cell_ends[first - 1];
  const size_t end = from.cell_ends[first + kept - 1];
  const size_t base = out->bytes.size();
  out->bytes.append(from.bytes, begin, end - begin);
  for (size_t i = 0; i < kept; ++i) {
    out->cell_ends.push_back(
        static_cast<uint32_t>(base + from.cell_ends[first + i] - begin));
  }
  out->cell_ends.resize(out->cell_ends.size() + (header_size - kept),
                        static_cast<uint32_t>(out->bytes.size()));
  out->row_ends.push_back(static_cast<uint32_t>(out->cell_ends.size()));
  return Status::OK();
}

std::vector<std::string> RowStrings(const CsvChunk& chunk, size_t row) {
  std::vector<std::string> cells;
  cells.reserve(chunk.width(row));
  for (size_t c = 0; c < chunk.width(row); ++c) {
    cells.emplace_back(chunk.cell(row, c));
  }
  return cells;
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
  // so every later ReadChunk repeats it.
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
    scanner.DropDelivered();
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
  CsvScanner& scanner = impl->scanner;
  while (scanner.available() == 0 && !impl->source_done) {
    EFES_RETURN_IF_ERROR(impl->Pump());
  }
  if (scanner.available() == 0) {
    return impl->Fail(Status::ParseError("CSV input contains no header row"));
  }
  impl->header = RowStrings(scanner.records(), scanner.next_row());
  scanner.MarkDelivered(1);
  return ChunkedCsvReader(std::move(impl));
}

const std::vector<std::string>& ChunkedCsvReader::header() const {
  return impl_->header;
}

Status ChunkedCsvReader::ReadChunk(CsvChunk* chunk,
                                   std::vector<DataIssue>* issues) {
  Impl& impl = *impl_;
  chunk->clear();
  EFES_RETURN_IF_ERROR(impl.error);
  const bool recover = impl.options.mode == CsvReadOptions::Mode::kRecover;
  const size_t want =
      impl.chunk_rows == 0 ? impl.options.max_rows : impl.chunk_rows;
  CsvScanner& scanner = impl.scanner;
  while (scanner.available() < want && !impl.source_done) {
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
  const size_t take = std::min(want, scanner.available());
  for (size_t i = 0; i < take; ++i) {
    Status normalized = AppendNormalized(
        scanner.records(), scanner.next_row() + i, impl.header.size(),
        impl.rows_delivered + i + 1, recover, issues, chunk);
    if (!normalized.ok()) return impl.Fail(normalized);
  }
  scanner.MarkDelivered(take);
  impl.rows_delivered += take;
  return Status::OK();
}

Result<std::vector<std::vector<std::string>>> ChunkedCsvReader::NextChunk(
    std::vector<DataIssue>* issues) {
  CsvChunk chunk;
  EFES_RETURN_IF_ERROR(ReadChunk(&chunk, issues));
  std::vector<std::vector<std::string>> rows;
  rows.reserve(chunk.rows());
  for (size_t r = 0; r < chunk.rows(); ++r) {
    rows.push_back(RowStrings(chunk, r));
  }
  return rows;
}

bool ChunkedCsvReader::done() const {
  return impl_->source_done && impl_->scanner.available() == 0 &&
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
