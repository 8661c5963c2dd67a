// Performance benchmarks for the integration executor (the production
// side): materialization + repair throughput over scenario size.

#include <benchmark/benchmark.h>

#include "efes/execute/integration_executor.h"
#include "efes/scenario/paper_example.h"

namespace efes {
namespace {

IntegrationScenario ScaledScenario(int64_t albums) {
  PaperExampleOptions options;
  options.album_count = static_cast<size_t>(albums);
  options.multi_artist_albums = static_cast<size_t>(albums / 4);
  options.orphan_artists = static_cast<size_t>(albums / 20);
  options.song_count = static_cast<size_t>(albums * 3 / 2);
  auto scenario = MakePaperExample(options);
  return std::move(*scenario);
}

void BM_ExecuteHighQuality(benchmark::State& state) {
  IntegrationScenario scenario = ScaledScenario(state.range(0));
  IntegrationExecutor executor;
  for (auto _ : state) {
    ExecutionReport report;
    auto result = executor.Execute(scenario, &report);
    benchmark::DoNotOptimize(result->TotalRowCount());
  }
  int64_t tuples = 0;
  for (const SourceBinding& source : scenario.sources) {
    tuples += static_cast<int64_t>(source.database.TotalRowCount());
  }
  state.SetItemsProcessed(state.iterations() * tuples);
}
BENCHMARK(BM_ExecuteHighQuality)->Arg(500)->Arg(2000)->Arg(8000)
    ->Unit(benchmark::kMillisecond);

void BM_ExecuteLowEffort(benchmark::State& state) {
  IntegrationScenario scenario = ScaledScenario(state.range(0));
  IntegrationExecutor::Options options;
  options.quality = ExpectedQuality::kLowEffort;
  IntegrationExecutor executor(options);
  for (auto _ : state) {
    ExecutionReport report;
    auto result = executor.Execute(scenario, &report);
    benchmark::DoNotOptimize(result->TotalRowCount());
  }
}
BENCHMARK(BM_ExecuteLowEffort)->Arg(2000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace efes

BENCHMARK_MAIN();
