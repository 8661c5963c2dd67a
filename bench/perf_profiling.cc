// Performance benchmarks for the Section 5.1 statistics through the
// chunked, budgeted profiler (profiling/profiler.h).
//
// Two workload shapes:
//   - default: a 32-column in-memory batch through ProfileColumns, wide
//     enough that --threads scaling and the profile-cache cold/warm
//     delta show up in the JSON lines;
//   - --rows=<n>: an out-of-core sweep — 8 column streams of n rows
//     each, generated chunk-by-chunk and absorbed into budgeted
//     sketches, so the input never exists whole in memory. This is the
//     scale regime (rows=1e6/1e7) a profile over a materialized
//     column cannot reach under the same --max-memory budget.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "bench_json.h"
#include "efes/common/clock.h"
#include "efes/common/flags.h"
#include "efes/common/metrics.h"
#include "efes/common/parallel.h"
#include "efes/common/random.h"
#include "efes/profiling/profiler.h"
#include "efes/profiling/sketch.h"
#include "efes/profiling/statistics.h"

namespace efes {
namespace {

std::vector<Value> RandomTextColumn(size_t n, uint64_t seed = 99) {
  Random rng(seed);
  std::vector<Value> column;
  column.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.05)) {
      column.push_back(Value::Null());
    } else {
      column.push_back(Value::Text(rng.Word(3, 12) + " " +
                                   std::to_string(rng.UniformUint64(1000))));
    }
  }
  return column;
}

std::vector<Value> RandomNumericColumn(size_t n, uint64_t seed = 77) {
  Random rng(seed);
  std::vector<Value> column;
  column.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    column.push_back(Value::Integer(rng.UniformInt(0, 1000000)));
  }
  return column;
}

/// Sketch-mode options with a budget an exact whole-column profile of
/// the text columns could not satisfy: 1 MiB per sketch versus tens of
/// MiB of distinct values at the --rows scales below.
ProfileOptions SketchBudgetOptions() {
  ProfileOptions options;
  options.chunk_rows = 65536;
  options.max_memory_bytes = 1 << 20;
  options.mode = ApproximationMode::kSketch;
  return options;
}

void BM_TextStatistics(benchmark::State& state) {
  std::vector<Value> column =
      RandomTextColumn(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ProfileColumn(column, DataType::kText));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TextStatistics)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_NumericStatistics(benchmark::State& state) {
  std::vector<Value> column =
      RandomNumericColumn(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ProfileColumn(column, DataType::kInteger));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NumericStatistics)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_TextStatisticsSketch(benchmark::State& state) {
  std::vector<Value> column =
      RandomTextColumn(static_cast<size_t>(state.range(0)));
  const ProfileOptions options = SketchBudgetOptions();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ProfileColumn(column, DataType::kText, options));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TextStatisticsSketch)->Arg(50000)->Arg(200000);

void BM_OverallFit(benchmark::State& state) {
  AttributeStatistics a =
      ProfileColumn(RandomTextColumn(5000), DataType::kText).value();
  AttributeStatistics b =
      ProfileColumn(RandomTextColumn(5000, 123), DataType::kText).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(OverallFit(a, b));
  }
}
BENCHMARK(BM_OverallFit);

void BM_GeneralizeToPattern(benchmark::State& state) {
  std::string text = "Sweet Home Alabama 1974 (4:43)";
  for (auto _ : state) {
    benchmark::DoNotOptimize(GeneralizeToPattern(text));
  }
}
BENCHMARK(BM_GeneralizeToPattern);

void BM_ProfileColumns(benchmark::State& state) {
  std::vector<std::vector<Value>> columns;
  for (size_t i = 0; i < 32; ++i) {
    columns.push_back(i % 2 == 0 ? RandomTextColumn(5000)
                                 : RandomNumericColumn(5000));
  }
  std::vector<ProfileRequest> requests;
  for (size_t i = 0; i < columns.size(); ++i) {
    requests.push_back(ProfileRequest{
        &columns[i], i % 2 == 0 ? DataType::kText : DataType::kInteger});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ProfileColumns(requests));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(columns.size()));
}
BENCHMARK(BM_ProfileColumns);

/// The default workload's input: 32 columns of 20000 values, every
/// column with its own seed so all 32 contents (and therefore cache
/// keys) are distinct. Generated once — the timed section below
/// measures profiling, not data generation.
const std::vector<std::vector<Value>>& WorkloadColumns() {
  static const std::vector<std::vector<Value>> columns = [] {
    std::vector<std::vector<Value>> generated;
    for (size_t i = 0; i < 32; ++i) {
      generated.push_back(i % 2 == 0 ? RandomTextColumn(20000, 99 + i)
                                     : RandomNumericColumn(20000, 777 + i));
    }
    return generated;
  }();
  return columns;
}

/// Representative workload for the telemetry JSON line: a 32-column
/// batch profile (wide enough that --threads scaling shows up in
/// wall_ms) plus one pairwise fit comparison.
void JsonLineWorkload() {
  const std::vector<std::vector<Value>>& columns = WorkloadColumns();
  std::vector<ProfileRequest> requests;
  for (size_t i = 0; i < columns.size(); ++i) {
    requests.push_back(ProfileRequest{
        &columns[i], i % 2 == 0 ? DataType::kText : DataType::kInteger});
  }
  auto batch = ProfileColumns(requests);
  benchmark::DoNotOptimize(batch);
  if (batch.ok() && batch->size() >= 4) {
    benchmark::DoNotOptimize(OverallFit((*batch)[0], (*batch)[2]));
  }
}

// --- scaled out-of-core workload (--rows=<n>) ------------------------------

constexpr size_t kScaledStreams = 8;
constexpr size_t kScaledChunkRows = 65536;

/// Regenerates chunk `chunk_index` of stream `stream` into `out`. The
/// seed depends only on (stream, chunk_index), so the stream's content
/// is deterministic however the chunks are iterated — the out-of-core
/// analog of WorkloadColumns' fixed seeds.
void GenerateChunk(size_t stream, size_t chunk_index, size_t count,
                   std::vector<Value>* out) {
  out->clear();
  Random rng(0x9e3779b97f4a7c15ull * (stream + 1) + chunk_index);
  if (stream % 2 == 0) {
    for (size_t i = 0; i < count; ++i) {
      if (rng.Bernoulli(0.05)) {
        out->push_back(Value::Null());
      } else {
        out->push_back(Value::Text(
            rng.Word(3, 12) + " " + std::to_string(rng.UniformUint64(1000))));
      }
    }
  } else {
    for (size_t i = 0; i < count; ++i) {
      out->push_back(Value::Integer(rng.UniformInt(0, 1000000)));
    }
  }
}

/// Streams 8 columns of `rows` values each through budgeted sketches:
/// every chunk is generated, absorbed, and discarded, so peak memory is
/// one chunk plus one capped sketch per stream regardless of `rows`.
/// Counters and the profile-time histogram mirror ProfileColumn's
/// instrumentation so the emitted JSON line carries the same fields as
/// the default workload.
void ScaledWorkload(size_t rows) {
  static Counter& columns_profiled =
      MetricsRegistry::Global().GetCounter("profiling.statistics.columns");
  static Counter& cells_scanned =
      MetricsRegistry::Global().GetCounter("profiling.statistics.cells");
  static Counter& chunks_absorbed =
      MetricsRegistry::Global().GetCounter("profiling.statistics.chunks");
  static Histogram& compute_ms =
      MetricsRegistry::Global().GetHistogram("profiling.statistics.ms");

  const ProfileOptions options = SketchBudgetOptions();
  auto finalized = ParallelMap(kScaledStreams, [&](size_t stream) {
        const int64_t start_nanos = Clock::Default()->NowNanos();
        const DataType type =
            stream % 2 == 0 ? DataType::kText : DataType::kInteger;
        StatisticsSketch sketch(type, options);
        std::vector<Value> chunk;
        chunk.reserve(kScaledChunkRows);
        size_t chunk_index = 0;
        for (size_t absorbed = 0; absorbed < rows; ++chunk_index) {
          const size_t count = std::min(kScaledChunkRows, rows - absorbed);
          GenerateChunk(stream, chunk_index, count, &chunk);
          Status status = sketch.AbsorbRange(chunk, 0, chunk.size());
          if (!status.ok()) {
            // Unreachable in sketch mode (only exact-mode budgets fail);
            // a wrong result here would poison the trajectory file.
            std::fprintf(stderr, "perf_profiling: absorb failed: %s\n",
                         status.ToString().c_str());
            std::abort();
          }
          chunks_absorbed.Increment();
          absorbed += count;
        }
        AttributeStatistics stats = sketch.Finalize();
        columns_profiled.Increment();
        cells_scanned.Increment(rows);
        compute_ms.Observe(
            static_cast<double>(Clock::Default()->NowNanos() - start_nanos) /
            1e6);
        return stats;
  });
  if (!finalized.ok()) {
    std::fprintf(stderr, "perf_profiling: scaled workload failed: %s\n",
                 finalized.status().ToString().c_str());
    std::abort();
  }
  benchmark::DoNotOptimize(*finalized);
  if (finalized->size() >= 3) {
    benchmark::DoNotOptimize(OverallFit((*finalized)[0], (*finalized)[2]));
  }
}

/// "1e6"-style label for exact powers of ten, plain digits otherwise.
std::string RowsLabel(size_t rows) {
  size_t power = 0;
  size_t value = rows;
  while (value >= 10 && value % 10 == 0) {
    value /= 10;
    ++power;
  }
  if (value == 1 && power > 0) return "1e" + std::to_string(power);
  return std::to_string(rows);
}

}  // namespace
}  // namespace efes

int main(int argc, char** argv) {
  // --rows=<n> switches to the out-of-core workload; stripped before
  // google-benchmark (which rejects unknown flags) sees the argv.
  static size_t rows = 0;
  {
    efes::FlagSet flags;
    flags.AddUint("rows", "<n>",
                  "rows per stream for the scaled out-of-core workload",
                  &rows);
    flags.ParseArgvKeepUnknown(&argc, argv);
  }
  if (rows > 0) {
    const std::string name =
        "perf_profiling_rows" + efes::RowsLabel(rows);
    return efes::bench::BenchMain(argc, argv, name,
                                  [] { efes::ScaledWorkload(rows); });
  }
  // Generate the workload input before anything is timed, so the
  // cold/warm delta measures profiling work only.
  efes::WorkloadColumns();
  return efes::bench::BenchMain(argc, argv, "perf_profiling",
                                efes::JsonLineWorkload);
}
