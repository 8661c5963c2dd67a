#include "efes/profiling/profiler.h"

#include <algorithm>
#include <atomic>

#include "efes/cache/fingerprint.h"
#include "efes/cache/profile_cache.h"
#include "efes/common/clock.h"
#include "efes/common/metrics.h"
#include "efes/common/parallel.h"
#include "efes/common/string_util.h"
#include "efes/telemetry/trace.h"

namespace efes {

namespace {

// Ambient options (ScopedProfileOptions), following the
// ScopedProfileCache atomic-pointer idiom.
std::atomic<const ProfileOptions*> g_active_options{nullptr};

/// True when the options can change the finalized statistics: any
/// capped mode makes the result a function of the budget too, so cache
/// keys must separate it from the exact, unbudgeted profile.
bool CapActive(const ProfileOptions& options) {
  return options.mode != ApproximationMode::kExact ||
         options.max_memory_bytes != 0;
}

/// Key of the finalized statistics: the legacy column fingerprint, and
/// when a cap is active, the approximation configuration mixed in.
uint64_t StatisticsKey(const std::vector<Value>& column, DataType target_type,
                       const ProfileOptions& options) {
  const uint64_t base = FingerprintColumn(column, target_type);
  if (!CapActive(options)) return base;
  Fingerprinter fp;
  fp.MixString("profile.capped");
  fp.MixUint64(base);
  fp.MixUint64(static_cast<uint64_t>(options.mode));
  fp.MixUint64(options.max_memory_bytes);
  return fp.digest();
}

/// Content address of one chunk's partial sketch (the spill-to-cache
/// key): chunk values in row order plus everything that shapes the
/// sketch state — target type, mode, and budget.
uint64_t ChunkSketchKey(const std::vector<Value>& column, size_t begin,
                        size_t end, DataType target_type,
                        const ProfileOptions& options) {
  Fingerprinter fp;
  fp.MixString("profile.chunk");
  fp.MixUint64(static_cast<uint64_t>(target_type));
  fp.MixUint64(static_cast<uint64_t>(options.mode));
  fp.MixUint64(options.max_memory_bytes);
  fp.MixUint64(end - begin);
  for (size_t i = begin; i < end; ++i) fp.MixValue(column[i]);
  return fp.digest();
}

}  // namespace

ProfileOptions ActiveProfileOptions() {
  const ProfileOptions* active =
      g_active_options.load(std::memory_order_acquire);
  return active == nullptr ? ProfileOptions{} : *active;
}

ScopedProfileOptions::ScopedProfileOptions(const ProfileOptions& options)
    : options_(options),
      previous_(g_active_options.exchange(&options_,
                                          std::memory_order_acq_rel)) {}

ScopedProfileOptions::~ScopedProfileOptions() {
  g_active_options.store(previous_, std::memory_order_release);
}

Result<AttributeStatistics> ProfileColumn(const std::vector<Value>& column,
                                          DataType target_type,
                                          const ProfileOptions& options) {
  static Counter& columns_profiled =
      MetricsRegistry::Global().GetCounter("profiling.statistics.columns");
  static Counter& cells_scanned =
      MetricsRegistry::Global().GetCounter("profiling.statistics.cells");
  static Counter& chunks_absorbed =
      MetricsRegistry::Global().GetCounter("profiling.statistics.chunks");
  static Counter& sketch_degrades =
      MetricsRegistry::Global().GetCounter("profiling.statistics.degraded");
  static Histogram& compute_ms =
      MetricsRegistry::Global().GetHistogram("profiling.statistics.ms");

  ProfileCache* cache = ProfileCache::Active();
  uint64_t key = 0;
  if (cache != nullptr) {
    key = StatisticsKey(column, target_type, options);
    if (std::optional<AttributeStatistics> hit =
            cache->LookupStatistics(key)) {
      return *std::move(hit);
    }
  }

  columns_profiled.Increment();
  cells_scanned.Increment(column.size());
  const int64_t start_nanos = Clock::Default()->NowNanos();

  const size_t chunk_rows =
      options.chunk_rows == 0 ? column.size() : options.chunk_rows;
  StatisticsSketch accumulator(target_type, options);
  if (column.size() <= chunk_rows) {
    chunks_absorbed.Increment();
    EFES_RETURN_IF_ERROR(accumulator.AbsorbRange(column, 0, column.size()));
  } else {
    const size_t chunk_count = (column.size() + chunk_rows - 1) / chunk_rows;
    chunks_absorbed.Increment(chunk_count);
    // Waves of one chunk per configured thread: ParallelFor builds the
    // wave's partial sketches concurrently, then the wave folds into the
    // accumulator in canonical chunk order and is released — peak memory
    // stays at (threads + 1) sketches however long the column is.
    const size_t wave = std::max<size_t>(size_t{1}, ConfiguredThreadCount());
    for (size_t base = 0; base < chunk_count; base += wave) {
      const size_t batch = std::min(wave, chunk_count - base);
      std::vector<StatisticsSketch> partials(batch);
      EFES_RETURN_IF_ERROR(ParallelFor(batch, [&](size_t i) -> Status {
        const size_t lo = (base + i) * chunk_rows;
        const size_t hi = std::min(lo + chunk_rows, column.size());
        uint64_t chunk_key = 0;
        if (cache != nullptr) {
          chunk_key =
              ChunkSketchKey(column, lo, hi, target_type, options);
          if (std::optional<StatisticsSketch> spilled =
                  cache->LookupSketch(chunk_key)) {
            partials[i] = *std::move(spilled);
            return Status::OK();
          }
        }
        StatisticsSketch sketch(target_type, options);
        EFES_RETURN_IF_ERROR(sketch.AbsorbRange(column, lo, hi));
        if (cache != nullptr) cache->StoreSketch(chunk_key, sketch);
        partials[i] = std::move(sketch);
        return Status::OK();
      }));
      for (size_t i = 0; i < batch; ++i) {
        EFES_RETURN_IF_ERROR(accumulator.Merge(partials[i]));
      }
    }
  }

  if (accumulator.effective_mode() == ApproximationMode::kSketch) {
    sketch_degrades.Increment();
  }
  AttributeStatistics stats = accumulator.Finalize();
  compute_ms.Observe(
      static_cast<double>(Clock::Default()->NowNanos() - start_nanos) / 1e6);
  if (cache != nullptr) cache->StoreStatistics(key, stats);
  return stats;
}

Result<AttributeStatistics> ProfileColumn(const std::vector<Value>& column,
                                          DataType target_type) {
  return ProfileColumn(column, target_type, ActiveProfileOptions());
}

Result<std::vector<AttributeStatistics>> ProfileColumns(
    const std::vector<ProfileRequest>& requests,
    const ProfileOptions& options) {
  std::vector<AttributeStatistics> results(requests.size());
  EFES_RETURN_IF_ERROR(ParallelFor(requests.size(), [&](size_t i) -> Status {
    Result<AttributeStatistics> stats =
        ProfileColumn(*requests[i].column, requests[i].target_type, options);
    if (!stats.ok()) return stats.status();
    results[i] = *std::move(stats);
    return Status::OK();
  }));
  return results;
}

Result<std::vector<AttributeStatistics>> ProfileColumns(
    const std::vector<ProfileRequest>& requests) {
  return ProfileColumns(requests, ActiveProfileOptions());
}

ColumnSample::ColumnSample(const std::vector<Value>& column, size_t limit)
    : column_(&column) {
  if (limit == 0 || column.size() <= limit) return;
  sampled_ = true;
  sample_.reserve(limit);
  double stride = static_cast<double>(column.size()) /
                  static_cast<double>(limit);
  for (size_t i = 0; i < limit; ++i) {
    sample_.push_back(column[static_cast<size_t>(i * stride)]);
  }
}

Result<CsvProfile> ProfileCsvFile(const std::string& path,
                                  const CsvReadOptions& csv_options,
                                  const ProfileOptions& options) {
  CsvProfile profile;

  // Pass 1: type inference straight on the cell text (what
  // Value::CanCastTo does for text, without boxing the cell).
  {
    TraceSpan span("profiling.csv.type_infer");
    EFES_ASSIGN_OR_RETURN(
        ChunkedCsvReader reader,
        ChunkedCsvReader::Open(path, csv_options, options.chunk_rows));
    profile.header = reader.header();
    const size_t width = profile.header.size();
    std::vector<char> all_integer(width, 1);
    std::vector<char> all_real(width, 1);
    std::vector<char> saw_value(width, 0);
    CsvChunk chunk;
    while (!reader.done()) {
      EFES_RETURN_IF_ERROR(reader.ReadChunk(&chunk, &profile.issues));
      profile.row_count += chunk.rows();
      for (size_t r = 0; r < chunk.rows(); ++r) {
        for (size_t c = 0; c < width; ++c) {
          const std::string_view cell = chunk.cell(r, c);
          if (cell.empty()) continue;
          saw_value[c] = 1;
          if (!all_integer[c] && !all_real[c]) continue;
          // Text strtoll reads whole (base 10, in range) is plain decimal
          // that strtod reads whole too: one parse settles both.
          if (all_integer[c] && ParseInt64(cell).has_value()) continue;
          all_integer[c] = 0;
          if (all_real[c] && !ParseDouble(cell).has_value()) all_real[c] = 0;
        }
      }
    }
    profile.types.assign(width, DataType::kText);
    for (size_t c = 0; c < width; ++c) {
      if (!saw_value[c]) continue;
      if (all_integer[c]) {
        profile.types[c] = DataType::kInteger;
      } else if (all_real[c]) {
        profile.types[c] = DataType::kReal;
      }
    }
  }

  // Pass 2: each chunk is absorbed column-parallel into fresh partial
  // sketches, which fold into the column accumulators in chunk order;
  // per-column state evolves identically at any thread count.
  const size_t width = profile.header.size();
  std::vector<StatisticsSketch> columns;
  columns.reserve(width);
  for (size_t c = 0; c < width; ++c) {
    columns.emplace_back(profile.types[c], options);
  }
  {
    TraceSpan span("profiling.csv.absorb");
    EFES_ASSIGN_OR_RETURN(
        ChunkedCsvReader reader,
        ChunkedCsvReader::Open(path, csv_options, options.chunk_rows));
    CsvChunk chunk;
    while (!reader.done()) {
      EFES_RETURN_IF_ERROR(reader.ReadChunk(&chunk));
      if (chunk.rows() == 0) break;
      EFES_RETURN_IF_ERROR(ParallelFor(width, [&](size_t c) -> Status {
        StatisticsSketch chunk_sketch(profile.types[c], options);
        for (size_t r = 0; r < chunk.rows(); ++r) {
          const std::string_view cell = chunk.cell(r, c);
          EFES_RETURN_IF_ERROR(chunk_sketch.Absorb(
              cell.empty() ? Value::Null() : Value::Text(std::string(cell))));
        }
        return columns[c].Merge(chunk_sketch);
      }));
    }
  }

  TraceSpan span("profiling.csv.finalize");
  profile.statistics.resize(width);
  EFES_RETURN_IF_ERROR(ParallelFor(width, [&](size_t c) -> Status {
    profile.statistics[c] = columns[c].Finalize();
    return Status::OK();
  }));
  for (const StatisticsSketch& sketch : columns) {
    profile.modes.push_back(sketch.effective_mode());
  }
  return profile;
}

}  // namespace efes
