// Minimal RFC-4180-style CSV reading and writing.
//
// The scenario generators persist their synthetic datasets as CSV so the
// examples can demonstrate loading external data, and tests round-trip
// through this module.
//
// There is one reading path: ChunkedCsvReader streams a file in row
// chunks, and ParseCsv drains the same reader over in-memory text, so
// quoting, header extraction, row normalization, and every error are
// defined once.
//
// Parsing runs in one of two modes (CsvReadOptions::Mode):
//   * kStrict (default): the historical fail-fast behavior — the first
//     malformed row aborts the parse with a ParseError.
//   * kRecover: malformed rows are repaired (short rows padded, long rows
//     truncated, an unterminated quote closed at end of input) and each
//     repair is described as a DataIssue instead of failing. Dirty inputs
//     are EFES's subject matter (paper §5); recover mode lets the
//     estimator operate over them.
// Both modes enforce resource guards (max field size, max row count) and
// fail with ResourceExhausted instead of allocating without bound.

#ifndef EFES_COMMON_CSV_H_
#define EFES_COMMON_CSV_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "efes/common/data_issue.h"
#include "efes/common/result.h"

namespace efes {

/// A parsed CSV document: a header row plus data rows. All cells are kept
/// as raw strings; typing happens at the relational layer.
struct CsvDocument {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

/// How to parse and which limits to enforce.
struct CsvReadOptions {
  enum class Mode { kStrict, kRecover };

  Mode mode = Mode::kStrict;
  char delimiter = ',';
  /// Largest accepted single cell; longer cells fail the parse with
  /// ResourceExhausted (both modes — a runaway field is a resource
  /// problem, not a repairable data problem).
  size_t max_field_bytes = 16u << 20;
  /// Largest accepted number of records including the header.
  size_t max_rows = 10u * 1000 * 1000;
};

/// Parses CSV text. Supports quoted fields with embedded delimiters,
/// doubled quotes, and embedded newlines; accepts both \n and \r\n.
/// In strict mode every row must have exactly as many cells as the
/// header; in recover mode misshapen rows are repaired and reported
/// through `issues` (may be null to discard the diagnostics).
/// Equivalent to draining a ChunkedCsvReader over `text` in one chunk.
Result<CsvDocument> ParseCsv(std::string_view text,
                             const CsvReadOptions& options = {},
                             std::vector<DataIssue>* issues = nullptr);

/// Serializes a document, quoting cells that contain the delimiter,
/// quotes, or newlines.
std::string WriteCsv(const CsvDocument& doc, char delimiter = ',');

/// Writes a document to disk atomically (temp file + rename), replacing
/// any existing file.
Status WriteCsvFile(const CsvDocument& doc, const std::string& path,
                    char delimiter = ',');

/// Streaming CSV ingest: reads a file in fixed-size row blocks instead of
/// materializing the whole document, so scenario loading and profiling
/// absorb arbitrarily large sources chunk by chunk. Errors surface in
/// stream order: a malformed row is reported by the chunk that holds it,
/// while an unterminated quote can only be seen at end of input and is
/// reported (strict: failed, recover: closed and described) by the last
/// NextChunk call, before that chunk's rows are normalized.
///
/// Usage:
///   EFES_ASSIGN_OR_RETURN(ChunkedCsvReader reader,
///                         ChunkedCsvReader::Open(path, options, 65536));
///   while (!reader.done()) {
///     EFES_ASSIGN_OR_RETURN(std::vector<std::vector<std::string>> rows,
///                           reader.NextChunk(&issues));
///     ...  // at most 65536 rows; empty only at end of file
///   }
class ChunkedCsvReader {
 public:
  /// Opens `path` and parses up to the header row. `chunk_rows` == 0 means
  /// "all remaining rows in one chunk". Fault point: `csv.read`.
  static Result<ChunkedCsvReader> Open(const std::string& path,
                                       const CsvReadOptions& options,
                                       size_t chunk_rows);

  ChunkedCsvReader(ChunkedCsvReader&&) noexcept;
  ChunkedCsvReader& operator=(ChunkedCsvReader&&) noexcept;
  ChunkedCsvReader(const ChunkedCsvReader&) = delete;
  ChunkedCsvReader& operator=(const ChunkedCsvReader&) = delete;
  ~ChunkedCsvReader();

  /// The header row (available immediately after Open succeeds).
  const std::vector<std::string>& header() const;

  /// The next block of at most chunk_rows data rows, normalized to the
  /// header width under the configured mode (repairs reported through
  /// `issues`, which may be null). Returns an empty vector at end of
  /// file. Errors (strict-mode shape violations, resource limits) are
  /// sticky: every later call returns the same status.
  Result<std::vector<std::vector<std::string>>> NextChunk(
      std::vector<DataIssue>* issues = nullptr);

  /// True once the file is exhausted and every row has been delivered
  /// (and an unterminated final quote, if any, has been reported).
  bool done() const;

  /// Data rows delivered so far (header excluded).
  size_t rows_delivered() const;

 private:
  friend Result<CsvDocument> ParseCsv(std::string_view text,
                                      const CsvReadOptions& options,
                                      std::vector<DataIssue>* issues);
  struct Impl;
  explicit ChunkedCsvReader(std::unique_ptr<Impl> impl);
  /// Reads up to the header row from impl's source.
  static Result<ChunkedCsvReader> Start(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace efes

#endif  // EFES_COMMON_CSV_H_
