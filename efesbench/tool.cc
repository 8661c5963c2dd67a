// efesbench_tool: the benchmark's own helper. It writes the seeded
// workload inputs (the program under test only ever sees those files)
// and runs the layer-attributed traced pass: it calls each layer's
// public functions in the order `efes estimate` / `efes profile` do,
// times every call, and prints one JSON object of per-layer numbers.
//
//   efesbench_tool info
//   efesbench_tool calibrate
//   efesbench_tool spawn <stdout-file> <stderr-file> <program> [args...]
//   efesbench_tool gen-paper <dir> --seed=<n>
//   efesbench_tool gen-fuzz <root> <seed>...
//   efesbench_tool gen-csv <file> --seed=<n>
//   efesbench_tool trace-estimate <dir> --out=<file> [--cache-dir=<dir>]
//                                 [--threads=<n>]
//   efesbench_tool trace-profile <csv> --out=<file> [--threads=<n>]
//
// The traced passes write the rendered report to --out, so the caller can
// check it against the CLI's output byte for byte. Timed segments of the
// estimate path are disjoint and sequential, so they add up to the traced
// wall time together with `unattributed_ms`. The CSG and profiling probes
// (`csg.*`, `profiling.columns_ms` on a scenario) run after the traced
// pass and are not part of its wall time.
//
// Exit codes: 0 success, 1 failure, 2 usage error.

#include <algorithm>
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "efes/cache/profile_cache.h"
#include "efes/common/csv.h"
#include "efes/common/file_io.h"
#include "efes/common/metrics.h"
#include "efes/common/parallel.h"
#include "efes/common/random.h"
#include "efes/core/effort_model.h"
#include "efes/core/engine.h"
#include "efes/csg/builder.h"
#include "efes/dedup/dedup_module.h"
#include "efes/experiment/default_pipeline.h"
#include "efes/mapping/mapping_module.h"
#include "efes/profiling/profiler.h"
#include "efes/profiling/sketch.h"
#include "efes/relational/value.h"
#include "efes/scenario/fuzzer.h"
#include "efes/scenario/paper_example.h"
#include "efes/scenario/scenario_io.h"
#include "efes/structure/structure_module.h"
#include "efes/values/value_module.h"

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// Workload sizes. The generators report the rows they wrote, so the
// driver (run.py) reads the sizes from their output.
constexpr size_t kPaperAlbums = 32000;
constexpr uint64_t kCsvRows = 250000;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Named numbers in insertion order, printed as one JSON object.
class Record {
 public:
  void Set(const std::string& name, double value) {
    for (auto& [key, existing] : values_) {
      if (key == name) {
        existing = value;
        return;
      }
    }
    values_.emplace_back(name, value);
  }
  void Add(const std::string& name, double delta) {
    Set(name, Get(name) + delta);
  }
  double Get(const std::string& name) const {
    for (const auto& [key, value] : values_) {
      if (key == name) return value;
    }
    return 0.0;
  }
  void Print() const {
    std::string out = "{";
    for (size_t i = 0; i < values_.size(); ++i) {
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), "%.17g", values_[i].second);
      if (i > 0) out += ", ";
      out += "\"" + values_[i].first + "\": " + buffer;
    }
    std::printf("%s}\n", out.c_str());
  }

 private:
  std::vector<std::pair<std::string, double>> values_;
};

/// A sequential, timed segment of the traced pass: adds its duration to
/// `name` and to the pass's attributed total.
class Segments {
 public:
  explicit Segments(Record* record) : record_(record) {}

  template <typename Fn>
  auto Time(const std::string& name, Fn&& fn) {
    Clock::time_point start = Clock::now();
    auto result = fn();
    double ms = MsSince(start);
    record_->Add(name, ms);
    attributed_ms_ += ms;
    return result;
  }

  double attributed_ms() const { return attributed_ms_; }

 private:
  Record* record_;
  double attributed_ms_ = 0.0;
};

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  efesbench_tool info\n"
               "  efesbench_tool calibrate\n"
               "  efesbench_tool spawn <stdout-file> <stderr-file> "
               "<program> [args...]\n"
               "  efesbench_tool gen-paper <dir> --seed=<n>\n"
               "  efesbench_tool gen-fuzz <root> <seed>...\n"
               "  efesbench_tool gen-csv <file> --seed=<n>\n"
               "  efesbench_tool trace-estimate <dir> --out=<file> "
               "[--cache-dir=<dir>] [--threads=<n>]\n"
               "  efesbench_tool trace-profile <csv> --out=<file> "
               "[--threads=<n>]\n");
  return 2;
}

int Fail(const efes::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Positional arguments and --key=value flags.
struct Args {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;

  std::string Flag(const std::string& name,
                   const std::string& fallback = "") const {
    for (const auto& [key, value] : flags) {
      if (key == name) return value;
    }
    return fallback;
  }
  uint64_t Uint(const std::string& name, uint64_t fallback) const {
    std::string value = Flag(name);
    return value.empty() ? fallback : std::stoull(value);
  }
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      size_t eq = arg.find('=');
      args.flags.emplace_back(arg.substr(2, eq == std::string::npos
                                                ? std::string::npos
                                                : eq - 2),
                              eq == std::string::npos ? ""
                                                      : arg.substr(eq + 1));
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

void ApplyThreads(const Args& args) {
  uint64_t threads = args.Uint("threads", 0);
  if (threads > 0) efes::SetThreadCountOverride(threads);
}

uint64_t DirectoryBytes(const std::string& directory) {
  uint64_t bytes = 0;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(directory)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

// ------------------------------------------------------------- info

int RunInfo() {
  const char* sanitizer = "none";
#if defined(__SANITIZE_ADDRESS__)
  sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  sanitizer = "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  sanitizer = "address";
#elif __has_feature(thread_sanitizer)
  sanitizer = "thread";
#endif
#endif
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::printf(
      "{\"build_type\": \"%s\", \"compiler\": \"%s\", \"optimized\": %s, "
      "\"sanitizer\": \"%s\"}\n",
      EFESBENCH_BUILD_TYPE, EFESBENCH_COMPILER, optimized ? "true" : "false",
      sanitizer);
  return 0;
}

// ------------------------------------------------------------- spawn

/// Runs one operation with stdout and stderr redirected to files, and
/// prints its exit code, wall time and rusage. Linux counts the resident
/// set of the process that spawns a child into the child's ru_maxrss at
/// exec, so spawning from this small process, not from the benchmark's
/// interpreter, keeps the caller's memory out of the child's peak RSS.
int RunSpawn(int argc, char** argv) {
  if (argc < 5) return Usage();
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, argv[2],
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, 2, argv[3],
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  const Clock::time_point start = Clock::now();
  pid_t pid = 0;
  const int error =
      posix_spawn(&pid, argv[4], &actions, nullptr, argv + 4, environ);
  posix_spawn_file_actions_destroy(&actions);
  if (error != 0) {
    std::fprintf(stderr, "error: cannot run %s: %s\n", argv[4],
                 std::strerror(error));
    return 1;
  }
  int status = 0;
  struct rusage usage {};
  if (wait4(pid, &status, 0, &usage) != pid) {
    std::fprintf(stderr, "error: wait4: %s\n", std::strerror(errno));
    return 1;
  }
  const double wall_ms = MsSince(start);
  Record record;
  record.Set("code", WIFEXITED(status) ? WEXITSTATUS(status)
                                       : 128 + WTERMSIG(status));
  record.Set("ms", wall_ms);
  record.Set("cpu_ms", (usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1e3 +
                           (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
                               1e3);
  record.Set("rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0);
  record.Print();
  return 0;
}

// -------------------------------------------------------- calibration

/// A fixed CPU and memory kernel that uses no EFES code: string hashing
/// into an unordered_map, then a sort. Its time tracks the speed of the
/// machine at the moment, so the caller can scale its timings to a fixed
/// machine speed.
int RunCalibrate() {
  const Clock::time_point start = Clock::now();
  uint64_t x = 88172645463325252ull;
  std::unordered_map<std::string, uint64_t> counts;
  std::vector<uint64_t> values;
  values.reserve(300000);
  for (uint64_t i = 0; i < 300000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    counts["k" + std::to_string(x % 100000)] += i;
    values.push_back(x);
  }
  std::sort(values.begin(), values.end());
  uint64_t checksum = values[values.size() / 2];
  for (const auto& [key, count] : counts) checksum += count + key.size();
  Record record;
  record.Set("calibration_ms", MsSince(start));
  record.Set("checksum", static_cast<double>(checksum % 1000003));
  record.Print();
  return 0;
}

// -------------------------------------------------------- generators

int RunGenPaper(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  efes::PaperExampleOptions options;
  options.seed = args.Uint("seed", 42);
  options.album_count = kPaperAlbums;
  options.multi_artist_albums = kPaperAlbums / 4;
  options.orphan_artists = kPaperAlbums / 20;
  options.song_count = kPaperAlbums * 3 / 2;
  auto scenario = efes::MakePaperExample(options);
  if (!scenario.ok()) return Fail(scenario.status());
  efes::Status saved = efes::SaveScenario(*scenario, args.positional[0]);
  if (!saved.ok()) return Fail(saved);
  size_t source_rows = 0;
  for (const efes::SourceBinding& source : scenario->sources) {
    source_rows += source.database.TotalRowCount();
  }
  Record record;
  record.Set("source_rows", static_cast<double>(source_rows));
  record.Set("multi_artist_albums",
             static_cast<double>(options.multi_artist_albums));
  record.Set("orphan_artists", static_cast<double>(options.orphan_artists));
  record.Set("bytes",
             static_cast<double>(DirectoryBytes(args.positional[0])));
  record.Print();
  return 0;
}

/// Writes each fuzz seed's scenario to <root>/fz<seed> and prints the
/// seed's source rows and injected-cluster recall (from an in-process
/// engine run against the generator's ground truth).
int RunGenFuzz(const Args& args) {
  if (args.positional.size() < 2) return Usage();
  const fs::path root(args.positional[0]);
  efes::EfesEngine engine = efes::MakeDefaultEngine();
  for (size_t i = 1; i < args.positional.size(); ++i) {
    const uint64_t seed = std::stoull(args.positional[i]);
    auto fuzzed = efes::FuzzScenario(seed);
    if (!fuzzed.ok()) return Fail(fuzzed.status());
    const std::string directory =
        (root / ("fz" + std::to_string(seed))).string();
    efes::Status saved = efes::SaveScenario(fuzzed->scenario, directory);
    if (!saved.ok()) return Fail(saved);
    auto result = engine.Run(fuzzed->scenario);
    if (!result.ok()) return Fail(result.status());
    double recall = 1.0;
    for (const efes::ModuleRun& run : result->module_runs) {
      const auto* report =
          dynamic_cast<const efes::DedupComplexityReport*>(run.report.get());
      if (report != nullptr) {
        recall = efes::InjectedClusterRecall(*fuzzed, *report);
      }
    }
    size_t rows = 0;
    for (const efes::SourceBinding& source : fuzzed->scenario.sources) {
      rows += source.database.TotalRowCount();
    }
    Record record;
    record.Set("seed", static_cast<double>(seed));
    record.Set("source_rows", static_cast<double>(rows));
    record.Set("recall", recall);
    record.Set("injected_clusters",
               static_cast<double>(fuzzed->injected_clusters.size()));
    record.Print();
  }
  return 0;
}

/// One CSV of kCsvRows rows and eight mixed columns: an integer key, Zipf-ish
/// names, years, decimals, a low-cardinality category with empties, codes,
/// a sparse note and a small int. No cell needs quoting.
int RunGenCsv(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  const uint64_t rows = kCsvRows;
  efes::Random rng(args.Uint("seed", 1));
  static const char* kSyllables[] = {"ka", "lo", "mi", "ren", "to",  "sa",
                                     "vi", "del", "an", "or",  "bel", "us"};
  static const char* kCategories[] = {"rock", "jazz", "pop",  "folk",
                                      "soul", "punk", "blues"};
  static const char* kNotes[] = {"remaster", "live", "bonus", "mono",
                                 "demo",     "edit"};
  std::string vocabulary_seed = std::to_string(rng.NextUint64() % 1000);
  const uint64_t key_base = 1 + rng.UniformUint64(1000000);
  std::string out = "id,name,year,price,category,code,note,qty\n";
  out.reserve(rows * 52);
  char buffer[160];
  for (uint64_t r = 0; r < rows; ++r) {
    // Zipf-ish: cubing a uniform draw skews toward the low ranks.
    const double u = rng.UniformDouble();
    const uint64_t rank = static_cast<uint64_t>(u * u * u * 20000.0);
    std::string name;
    for (uint64_t x = rank + 7, n = 0; n < 3; x /= 12, ++n) {
      name += kSyllables[x % 12];
    }
    name += vocabulary_seed.substr(0, 1) + std::to_string(rank);
    const int64_t year = rng.UniformInt(1950, 2024);
    const int64_t cents = rng.UniformInt(99, 99999);
    const uint64_t category = rng.UniformUint64(9);
    const uint64_t code = rng.UniformUint64(60000);
    const bool has_note = rng.UniformUint64(20) == 0;
    const int64_t qty = rng.UniformInt(0, 20);
    std::snprintf(buffer, sizeof(buffer),
                  "%llu,%s,%lld,%lld.%02lld,%s,%c%c-%05llu,%s,%lld\n",
                  static_cast<unsigned long long>(key_base + r), name.c_str(),
                  static_cast<long long>(year),
                  static_cast<long long>(cents / 100),
                  static_cast<long long>(cents % 100),
                  category < 7 ? kCategories[category] : "",
                  static_cast<char>('A' + code % 26),
                  static_cast<char>('A' + (code / 26) % 26),
                  static_cast<unsigned long long>(code),
                  has_note ? kNotes[code % 6] : "",
                  static_cast<long long>(qty));
    out += buffer;
  }
  efes::Status written = efes::WriteFileAtomic(args.positional[0], out);
  if (!written.ok()) return Fail(written);
  Record record;
  record.Set("rows", static_cast<double>(rows));
  record.Set("columns", 8);
  record.Set("bytes", static_cast<double>(out.size()));
  record.Print();
  return 0;
}

// ------------------------------------------------------ traced passes

/// Product counters of the traced pass, read from the global registry.
/// Ratios are left to the caller, which sums the parts over operations.
void RecordProductCounters(const efes::MetricsSnapshot& snapshot,
                           Record* record) {
  double busy = 0.0;
  double idle = 0.0;
  double items = 0.0;
  for (const auto& histogram : snapshot.histograms) {
    if (histogram.name == "parallel.pool.worker_busy_ms") busy = histogram.sum;
    if (histogram.name == "parallel.pool.worker_idle_ms") idle = histogram.sum;
    // An item count: the registry stores it in a latency-style histogram.
    if (histogram.name == "parallel.pool.worker_items") items = histogram.sum;
  }
  record->Set("parallel.busy_ms", busy);
  record->Set("parallel.idle_ms", idle);
  record->Set("parallel.active_ms", busy + idle);
  record->Set("parallel.batches",
              static_cast<double>(snapshot.CounterValue("parallel.batches")));
  record->Set("parallel.worker_items", items);
  const double hits = static_cast<double>(snapshot.CounterValue("cache.hits"));
  const double misses =
      static_cast<double>(snapshot.CounterValue("cache.misses"));
  record->Set("cache.hits", hits);
  record->Set("cache.lookups", hits + misses);
  record->Set("cache.stores",
              static_cast<double>(snapshot.CounterValue("cache.stores")));
  record->Set("file_io.retries",
              static_cast<double>(snapshot.CounterValue("file_io.retries")));
}

int RunTraceEstimate(const Args& args) {
  if (args.positional.size() != 1 || args.Flag("out").empty()) return Usage();
  ApplyThreads(args);
  const std::string directory = args.positional[0];
  const std::string cache_dir = args.Flag("cache-dir");
  Record record;
  Segments segments(&record);
  const Clock::time_point start = Clock::now();

  // Same order as `efes estimate`: cache snapshot, scenario, engine run,
  // rendering, cache snapshot save.
  efes::ProfileCache cache;
  const std::string snapshot_path =
      cache_dir.empty() ? ""
                        : efes::ProfileCache::FilePathInDirectory(cache_dir);
  record.Set("cache.load_ms", 0.0);
  if (!cache_dir.empty()) {
    efes::Status loaded =
        segments.Time("cache.load_ms",
                      [&] { return cache.LoadFromFile(snapshot_path); });
    if (!loaded.ok()) return Fail(loaded);
  }
  efes::ScopedProfileCache scoped_cache(&cache);
  efes::ScopedProfileOptions scoped_profile(efes::ProfileOptions{});

  auto scenario =
      segments.Time("scenario.load_ms",
                    [&] { return efes::LoadScenario(directory); });
  if (!scenario.ok()) return Fail(scenario.status());

  std::vector<std::unique_ptr<efes::EstimationModule>> modules;
  const efes::EffortModel model = efes::EffortModel::PaperDefault();
  const efes::ExecutionSettings settings;
  efes::Status valid = segments.Time("core.validate_ms", [&] {
    modules.push_back(std::make_unique<efes::MappingModule>());
    modules.push_back(std::make_unique<efes::StructureModule>());
    modules.push_back(std::make_unique<efes::ValueModule>());
    modules.push_back(std::make_unique<efes::DedupModule>());
    return scenario->Validate();
  });
  if (!valid.ok()) return Fail(valid);

  efes::EstimationResult result;
  double failures = 0.0;
  double conflicts = 0.0;
  for (const auto& module : modules) {
    efes::ModuleRun run;
    run.module = module->name();
    auto report = segments.Time(module->name() + ".assess_ms", [&] {
      return module->AssessComplexity(*scenario);
    });
    if (!report.ok()) {
      run.status = report.status();
      result.degraded = true;
      failures += 1.0;
      result.module_runs.push_back(std::move(run));
      continue;
    }
    run.report = std::move(*report);
    if (const auto* structure =
            dynamic_cast<const efes::StructureComplexityReport*>(
                run.report.get())) {
      for (const auto& source : structure->sources()) {
        conflicts += static_cast<double>(source.conflicts.size());
      }
    }
    auto tasks = segments.Time(module->name() + ".plan_ms", [&] {
      return module->PlanTasks(*run.report, efes::ExpectedQuality::kHighQuality,
                               settings);
    });
    if (!tasks.ok()) {
      run.status = tasks.status();
      result.degraded = true;
      failures += 1.0;
      result.module_runs.push_back(std::move(run));
      continue;
    }
    segments.Time("core.price_ms", [&] {
      for (efes::Task& task : *tasks) {
        const double minutes = model.Explain(task, settings).minutes;
        run.tasks.push_back(efes::TaskEstimate{std::move(task), minutes});
      }
      return 0;
    });
    result.estimate.tasks.insert(result.estimate.tasks.end(), run.tasks.begin(),
                                 run.tasks.end());
    result.module_runs.push_back(std::move(run));
  }

  efes::Status written = segments.Time("core.render_ms", [&] {
    return efes::WriteFileAtomic(args.Flag("out"), result.ToText());
  });
  if (!written.ok()) return Fail(written);
  record.Set("cache.save_ms", 0.0);
  record.Set("cache.snapshot_bytes", 0.0);
  if (!cache_dir.empty()) {
    efes::Status saved =
        segments.Time("cache.save_ms",
                      [&] { return cache.SaveToFile(snapshot_path); });
    if (!saved.ok()) return Fail(saved);
    record.Set("cache.snapshot_bytes",
               static_cast<double>(fs::file_size(snapshot_path)));
  }
  const double wall_ms = MsSince(start);
  const efes::MetricsSnapshot snapshot =
      efes::MetricsRegistry::Global().Snapshot();

  record.Set("trace.wall_ms", wall_ms);
  record.Set("unattributed_ms", wall_ms - segments.attributed_ms());
  record.Set("scenario.bytes", static_cast<double>(DirectoryBytes(directory)));
  record.Set("structure.conflicts", conflicts);
  record.Set("core.tasks", static_cast<double>(result.estimate.tasks.size()));
  record.Set("engine.module.failures", failures);
  RecordProductCounters(snapshot, &record);

  // Probe 1, outside the traced wall time: BuildCsg for every source
  // database, the instance build structure.assess performs internally.
  double elements = 0.0;
  double links = 0.0;
  Clock::time_point build_start = Clock::now();
  for (const efes::SourceBinding& source : scenario->sources) {
    efes::Csg csg = efes::BuildCsg(source.database);
    for (size_t node = 0; node < csg.graph.nodes().size(); ++node) {
      elements += static_cast<double>(csg.instance.ElementCount(node));
    }
    for (size_t rel = 0; rel < csg.graph.relationships().size(); ++rel) {
      links += static_cast<double>(csg.instance.LinkCount(rel));
    }
  }
  const double build_ms = MsSince(build_start);
  record.Set("csg.build_ms", build_ms);
  record.Set("csg.elements", elements);
  record.Set("csg.links", links);
  record.Set("structure.search_ms",
             std::max(0.0, record.Get("structure.assess_ms") - build_ms));

  // Probe 2: ProfileColumns over every source column into an empty cache.
  efes::ProfileCache empty_cache;
  efes::ScopedProfileCache scoped_empty(&empty_cache);
  std::vector<efes::ProfileRequest> requests;
  double cells = 0.0;
  for (const efes::SourceBinding& source : scenario->sources) {
    for (const efes::Table& table : source.database.tables()) {
      const auto& attributes = table.def().attributes();
      for (size_t c = 0; c < table.column_count(); ++c) {
        requests.push_back({&table.column(c), attributes[c].type});
        cells += static_cast<double>(table.column(c).size());
      }
    }
  }
  Clock::time_point profile_start = Clock::now();
  auto profiled = efes::ProfileColumns(requests);
  if (!profiled.ok()) return Fail(profiled.status());
  const double columns_ms = MsSince(profile_start);
  record.Set("profiling.columns_ms", columns_ms);
  record.Set("profiling.cells", cells);
  record.Print();
  return 0;
}

/// The two streaming passes of `efes profile`, timed per layer.
int RunTraceProfile(const Args& args) {
  if (args.positional.size() != 1 || args.Flag("out").empty()) return Usage();
  ApplyThreads(args);
  const std::string path = args.positional[0];
  const efes::ProfileOptions options;
  const efes::CsvReadOptions csv_options;
  Record record;
  Segments segments(&record);
  const Clock::time_point start = Clock::now();

  auto reader = segments.Time("csv.read_ms", [&] {
    return efes::ChunkedCsvReader::Open(path, csv_options, options.chunk_rows);
  });
  if (!reader.ok()) return Fail(reader.status());
  const std::vector<std::string> header = reader->header();
  std::vector<char> all_integer(header.size(), 1);
  std::vector<char> all_real(header.size(), 1);
  std::vector<char> saw_value(header.size(), 0);
  size_t row_count = 0;
  while (!reader->done()) {
    auto chunk =
        segments.Time("csv.read_ms", [&] { return reader->NextChunk(); });
    if (!chunk.ok()) return Fail(chunk.status());
    segments.Time("profiling.type_infer_ms", [&] {
      row_count += chunk->size();
      for (const std::vector<std::string>& row : *chunk) {
        for (size_t c = 0; c < row.size(); ++c) {
          const std::string& cell = row[c];
          if (cell.empty()) continue;
          saw_value[c] = 1;
          if (!all_integer[c] && !all_real[c]) continue;
          efes::Value value = efes::Value::Text(cell);
          if (all_integer[c] && !value.CanCastTo(efes::DataType::kInteger)) {
            all_integer[c] = 0;
          }
          if (all_real[c] && !value.CanCastTo(efes::DataType::kReal)) {
            all_real[c] = 0;
          }
        }
      }
      return 0;
    });
  }
  std::vector<efes::DataType> types(header.size(), efes::DataType::kText);
  for (size_t c = 0; c < header.size(); ++c) {
    if (!saw_value[c]) continue;
    if (all_integer[c]) {
      types[c] = efes::DataType::kInteger;
    } else if (all_real[c]) {
      types[c] = efes::DataType::kReal;
    }
  }

  auto again = segments.Time("csv.read_ms", [&] {
    return efes::ChunkedCsvReader::Open(path, csv_options, options.chunk_rows);
  });
  if (!again.ok()) return Fail(again.status());
  std::vector<efes::StatisticsSketch> columns;
  columns.reserve(header.size());
  for (size_t c = 0; c < header.size(); ++c) {
    columns.emplace_back(types[c], options);
  }
  while (!again->done()) {
    auto chunk =
        segments.Time("csv.read_ms", [&] { return again->NextChunk(); });
    if (!chunk.ok()) return Fail(chunk.status());
    if (chunk->empty()) break;
    efes::Status absorbed = segments.Time("profiling.absorb_ms", [&] {
      return efes::ParallelFor(header.size(), [&](size_t c) -> efes::Status {
        efes::StatisticsSketch chunk_sketch(types[c], options);
        for (const std::vector<std::string>& row : *chunk) {
          const std::string& cell = row[c];
          EFES_RETURN_IF_ERROR(chunk_sketch.Absorb(
              cell.empty() ? efes::Value::Null() : efes::Value::Text(cell)));
        }
        return columns[c].Merge(chunk_sketch);
      });
    });
    if (!absorbed.ok()) return Fail(absorbed);
  }
  double sketch_bytes = 0.0;
  for (const efes::StatisticsSketch& sketch : columns) {
    sketch_bytes += static_cast<double>(sketch.MemoryBytes());
  }
  auto stats = segments.Time("profiling.finalize_ms", [&] {
    std::vector<efes::AttributeStatistics> finalized;
    for (const efes::StatisticsSketch& sketch : columns) {
      finalized.push_back(sketch.Finalize());
    }
    return finalized;
  });
  efes::Status written = segments.Time("core.render_ms", [&] {
    std::string text = "# " + path + ": " + std::to_string(row_count) +
                       " rows, " + std::to_string(header.size()) +
                       " columns\n";
    for (size_t c = 0; c < header.size(); ++c) {
      text += "=== column " + header[c] + " (" +
              std::string(efes::DataTypeToString(types[c])) +
              (columns[c].effective_mode() == efes::ApproximationMode::kSketch
                   ? ", sketch"
                   : "") +
              ") ===\n" + stats[c].ToString() + "\n";
    }
    return efes::WriteFileAtomic(args.Flag("out"), text);
  });
  if (!written.ok()) return Fail(written);
  const double wall_ms = MsSince(start);
  const efes::MetricsSnapshot snapshot =
      efes::MetricsRegistry::Global().Snapshot();

  const double cells = static_cast<double>(row_count * header.size());
  const double profiling_ms =
      record.Get("profiling.absorb_ms") + record.Get("profiling.finalize_ms");
  record.Set("trace.wall_ms", wall_ms);
  record.Set("unattributed_ms", wall_ms - segments.attributed_ms());
  record.Set("profiling.sketch_bytes", sketch_bytes);
  record.Set("profiling.columns_ms", profiling_ms);
  record.Set("profiling.cells", cells);
  record.Set("engine.module.failures", 0.0);
  RecordProductCounters(snapshot, &record);
  record.Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Args args = ParseArgs(argc, argv);
  try {
    if (command == "info") return RunInfo();
    if (command == "calibrate") return RunCalibrate();
    if (command == "spawn") return RunSpawn(argc, argv);
    if (command == "gen-paper") return RunGenPaper(args);
    if (command == "gen-fuzz") return RunGenFuzz(args);
    if (command == "gen-csv") return RunGenCsv(args);
    if (command == "trace-estimate") return RunTraceEstimate(args);
    if (command == "trace-profile") return RunTraceProfile(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return Usage();
}
