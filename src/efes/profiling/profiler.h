// The profiling entry points — chunked, budgeted, cache-fronted.
//
// ProfileColumn/ProfileColumns are the only way to compute the §5.1
// statistics of a column (statistics.h holds the result types and the
// fit scoring). A column is split into ProfileOptions::chunk_rows
// blocks, each block is absorbed into a partial StatisticsSketch on the
// shared pool, and the partials are folded in canonical chunk order — so
// the result is byte-identical for any --threads=N and any chunk size
// (sketch.h explains why), while peak profiling memory is bounded by
// (threads + 1) sketches instead of one map over the whole column.
//
// Spill-to-cache: when a ProfileCache is active, multi-chunk columns
// content-address each chunk's partial sketch in the cache, so a warm
// (or interrupted-and-resumed) run re-reads absorbed chunks instead of
// recomputing them, and the finalized statistics are stored under a key
// that mixes in the approximation mode and budget whenever they can
// influence the result.
//
// Options are threaded the PR-5 way: explicitly per call, or ambient
// via ScopedProfileOptions (installed by EfesEngine::Run from
// RunOptions::profile, and by the CLI from --chunk-rows / --max-memory
// / --approx).
//
// ProfileCsvFile is the streaming entry point behind `efes profile`: it
// profiles a CSV file chunk by chunk without ever holding it whole.

#ifndef EFES_PROFILING_PROFILER_H_
#define EFES_PROFILING_PROFILER_H_

#include <string>
#include <vector>

#include "efes/common/csv.h"
#include "efes/common/data_issue.h"
#include "efes/common/result.h"
#include "efes/profiling/sketch.h"
#include "efes/profiling/statistics.h"
#include "efes/relational/value.h"

namespace efes {

/// One column to profile in a batch. The referenced column must outlive
/// the ProfileColumns call.
struct ProfileRequest {
  const std::vector<Value>* column = nullptr;
  DataType target_type = DataType::kText;
};

/// The ambient options consulted by the single-argument overloads: the
/// innermost ScopedProfileOptions, or defaults when none is installed.
ProfileOptions ActiveProfileOptions();

/// RAII activation of ambient profile options, mirroring
/// ScopedProfileCache: installs a copy for the current scope and
/// restores the previous options on destruction.
class ScopedProfileOptions {
 public:
  explicit ScopedProfileOptions(const ProfileOptions& options);
  ~ScopedProfileOptions();

  ScopedProfileOptions(const ScopedProfileOptions&) = delete;
  ScopedProfileOptions& operator=(const ScopedProfileOptions&) = delete;

 private:
  ProfileOptions options_;
  const ProfileOptions* previous_;
};

/// Profiles one column against `target_type`. Fails only on a
/// --max-memory budget an exact profile cannot satisfy
/// (kResourceExhausted; kSketch/kAuto degrade instead).
Result<AttributeStatistics> ProfileColumn(const std::vector<Value>& column,
                                          DataType target_type,
                                          const ProfileOptions& options);
Result<AttributeStatistics> ProfileColumn(const std::vector<Value>& column,
                                          DataType target_type);

/// Profiles many columns through the shared pool; results come back in
/// request order, bit-identical to profiling sequentially.
Result<std::vector<AttributeStatistics>> ProfileColumns(
    const std::vector<ProfileRequest>& requests,
    const ProfileOptions& options);
Result<std::vector<AttributeStatistics>> ProfileColumns(
    const std::vector<ProfileRequest>& requests);

/// A column, or a deterministic strided sample of at most `limit` of its
/// values (0 = all). Views the column in place and copies values only
/// when it really samples. The column must outlive the sample.
class ColumnSample {
 public:
  ColumnSample(const std::vector<Value>& column, size_t limit);

  const std::vector<Value>& values() const {
    return sampled_ ? sample_ : *column_;
  }

 private:
  const std::vector<Value>* column_;
  std::vector<Value> sample_;
  bool sampled_ = false;
};

/// The streamed profile of one CSV file, per column in header order.
struct CsvProfile {
  std::vector<std::string> header;
  size_t row_count = 0;
  /// Inferred target type: integer when every non-empty cell parses as
  /// an integer, else real when every one parses as a real, else text.
  std::vector<DataType> types;
  std::vector<AttributeStatistics> statistics;
  /// kSketch where the column's sketch coarsened under the budget.
  std::vector<ApproximationMode> modes;
  /// The rows a recover-mode read repaired, from the first pass only:
  /// the second pass re-reads the same bytes and would repeat them.
  std::vector<DataIssue> issues;
};

/// Profiles the CSV file at `path` in two streaming passes over
/// `options.chunk_rows`-row chunks: pass 1 infers each column's type,
/// pass 2 absorbs every chunk into per-column partial sketches
/// (column-parallel) and merges them into one sketch per column in chunk
/// order; the columns then finalize in parallel. The result is
/// byte-identical for any thread count and any chunk size.
Result<CsvProfile> ProfileCsvFile(const std::string& path,
                                  const CsvReadOptions& csv_options,
                                  const ProfileOptions& options);

}  // namespace efes

#endif  // EFES_PROFILING_PROFILER_H_
