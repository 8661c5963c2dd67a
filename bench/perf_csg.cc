// Performance microbenchmarks for the CSG machinery: cardinality algebra,
// relational-to-CSG conversion, and source-path search.

#include <benchmark/benchmark.h>

#include "efes/common/random.h"
#include "efes/csg/builder.h"
#include "efes/csg/path_search.h"
#include "efes/scenario/paper_example.h"

namespace efes {
namespace {

void BM_CardinalityCompose(benchmark::State& state) {
  Cardinality a = Cardinality::Between(1, 3);
  Cardinality b = Cardinality::AtLeast(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Cardinality::Compose(a, b));
  }
}
BENCHMARK(BM_CardinalityCompose);

void BM_CardinalitySubsetCheck(benchmark::State& state) {
  Cardinality a = Cardinality::Between(1, 3);
  Cardinality b = Cardinality::Any();
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.IsSubsetOf(b));
  }
}
BENCHMARK(BM_CardinalitySubsetCheck);

/// Builds the paper-example source database scaled by `albums`.
Database ScaledSource(int64_t albums) {
  PaperExampleOptions options;
  options.album_count = static_cast<size_t>(albums);
  options.multi_artist_albums = static_cast<size_t>(albums / 4);
  options.orphan_artists = static_cast<size_t>(albums / 20);
  options.song_count = static_cast<size_t>(albums * 3 / 2);
  auto scenario = MakePaperExample(options);
  return std::move(scenario->sources[0].database);
}

void BM_BuildCsg(benchmark::State& state) {
  Database db = ScaledSource(state.range(0));
  for (auto _ : state) {
    Csg csg = BuildCsg(db);
    benchmark::DoNotOptimize(csg.graph.nodes().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(db.TotalRowCount()));
}
BENCHMARK(BM_BuildCsg)->Arg(500)->Arg(2000)->Arg(8000)->Arg(32000);

void BM_PathSearch(benchmark::State& state) {
  Database db = ScaledSource(1000);
  Csg csg = BuildCsg(db);
  NodeId start = *csg.graph.FindTableNode("albums");
  NodeId end = *csg.graph.FindAttributeNode("artist_credits", "artist");
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindBestPath(csg.graph, start, end));
  }
}
BENCHMARK(BM_PathSearch);

void BM_PathViolationCounting(benchmark::State& state) {
  Database db = ScaledSource(state.range(0));
  Csg csg = BuildCsg(db);
  NodeId start = *csg.graph.FindTableNode("albums");
  NodeId end = *csg.graph.FindAttributeNode("artist_credits", "artist");
  auto best = FindBestPath(csg.graph, start, end);
  for (auto _ : state) {
    benchmark::DoNotOptimize(csg.instance.CountPathViolations(
        csg.graph, best->path, Cardinality::Exactly(1)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PathViolationCounting)->Arg(500)->Arg(2000)->Arg(8000);

}  // namespace
}  // namespace efes

BENCHMARK_MAIN();
