// Content-addressed profile cache — incremental re-estimation.
//
// The paper pitches EFES as a tool an analyst runs repeatedly: tweak the
// expected quality, swap one source of a scenario, re-read the effort
// breakdown (Section 3.3). Phase-1 profiling (the nine Section 5.1
// statistics per column, the mined unique/not-null/FD/IND constraints per
// source) depends only on the *data*, not on quality or execution
// settings, so across such runs it is pure recomputation. This cache
// keys every profile by a deterministic content fingerprint
// (cache/fingerprint.h) and lets the profiling paths skip phase-1 work
// whenever the underlying bytes did not change — including across
// processes, via an on-disk snapshot.
//
// Invariants:
//   * Bit-identical results. A cache hit returns exactly the object the
//     cold computation produced (doubles persist as hexfloat, so a disk
//     roundtrip is bit-exact). Cached and uncached runs of the same
//     scenario render byte-identical reports at any thread count.
//   * Corruption is a miss, never an error. A missing, truncated,
//     version-mismatched, or mangled cache file (or a single bad entry)
//     degrades to recomputation; LoadFromFile only fails on injected
//     faults being disarmed — i.e. it doesn't. Fault points `cache.load`
//     and `cache.save` make the degraded paths testable.
//   * Thread safety. Lookup/store are mutex-protected; profiling fans
//     out over the shared pool and all workers may consult the cache.
//
// On-disk format (version bumps on any encoding change — old files are
// then ignored wholesale; version 2 added `K` partial-sketch entries
// and re-keyed statistics computed through the sketch path):
//
//   EFESCACHE 2
//   S <16-hex-key> <statistics tokens>
//   C <16-hex-key> <constraint tokens>
//   K <16-hex-key> <sketch-state tokens>
//
// Telemetry: `cache.hits`, `cache.misses`, `cache.stores`,
// `cache.bytes`, `cache.load.corrupt_entries`.

#ifndef EFES_CACHE_PROFILE_CACHE_H_
#define EFES_CACHE_PROFILE_CACHE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "efes/common/result.h"
#include "efes/common/thread_annotations.h"
#include "efes/profiling/constraint_discovery.h"
#include "efes/profiling/sketch.h"
#include "efes/profiling/statistics.h"

namespace efes {

/// Current on-disk format version (the number of the header line).
inline constexpr int kProfileCacheFormatVersion = 2;

class ProfileCache {
 public:
  ProfileCache() = default;

  // Not copyable: the active-cache registration and the entry maps are
  // identity-bound.
  ProfileCache(const ProfileCache&) = delete;
  ProfileCache& operator=(const ProfileCache&) = delete;

  /// Cached statistics for a column fingerprint, or nullopt (miss).
  std::optional<AttributeStatistics> LookupStatistics(uint64_t key) const;
  void StoreStatistics(uint64_t key, const AttributeStatistics& stats);

  /// Cached discovery result for a database fingerprint, or nullopt.
  std::optional<std::vector<DiscoveredConstraint>> LookupConstraints(
      uint64_t key) const;
  void StoreConstraints(uint64_t key,
                        const std::vector<DiscoveredConstraint>& constraints);

  /// Cached partial sketch for a chunk fingerprint, or nullopt — the
  /// spill-to-cache path of ProfileColumn (profiling/profiler.h): warm
  /// runs re-load absorbed chunks instead of recomputing them.
  std::optional<StatisticsSketch> LookupSketch(uint64_t key) const;
  void StoreSketch(uint64_t key, const StatisticsSketch& sketch);

  size_t entry_count() const;
  void Clear();

  /// Loads a snapshot written by SaveToFile. Missing, unreadable,
  /// version-mismatched, or corrupt content is treated as cache misses
  /// (bad entries are skipped, counted in `cache.load.corrupt_entries`);
  /// the returned status is non-OK only for injected `cache.load` faults.
  Status LoadFromFile(const std::string& path);

  /// Atomically persists the cache (WriteFileAtomic; parent directories
  /// are created). Fault point: `cache.save`.
  Status SaveToFile(const std::string& path) const;

  /// Conventional snapshot file inside a --cache-dir directory.
  static std::string FilePathInDirectory(const std::string& directory);

  /// The process-wide active cache consulted by the profiling paths
  /// (ProfileColumn, DiscoverConstraints), or nullptr (compute
  /// everything). Installed via ScopedProfileCache, typically by
  /// EfesEngine::Run from RunOptions::cache.
  static ProfileCache* Active();

 private:
  friend class ScopedProfileCache;

  mutable std::mutex mutex_;
  // Ordered maps so SaveToFile emits entries in deterministic key order.
  std::map<uint64_t, AttributeStatistics> statistics_
      EFES_GUARDED_BY(mutex_);
  std::map<uint64_t, std::vector<DiscoveredConstraint>> constraints_
      EFES_GUARDED_BY(mutex_);
  std::map<uint64_t, StatisticsSketch> sketches_ EFES_GUARDED_BY(mutex_);
};

/// RAII activation: installs `cache` as ProfileCache::Active() for the
/// current scope and restores the previous handle on destruction.
/// Installing nullptr disables caching for the scope.
class ScopedProfileCache {
 public:
  explicit ScopedProfileCache(ProfileCache* cache);
  ~ScopedProfileCache();

  ScopedProfileCache(const ScopedProfileCache&) = delete;
  ScopedProfileCache& operator=(const ScopedProfileCache&) = delete;

 private:
  ProfileCache* previous_;
};

// --- Serialization (exposed for tests and tooling) ------------------------
// One line of space-separated tokens per entry; strings are
// percent-escaped, doubles render as hexfloat for bit-exact roundtrips.

std::string SerializeStatistics(const AttributeStatistics& stats);
Result<AttributeStatistics> ParseStatistics(std::string_view line);

std::string SerializeConstraints(
    const std::vector<DiscoveredConstraint>& constraints);
Result<std::vector<DiscoveredConstraint>> ParseConstraints(
    std::string_view line);

/// Sketch-state roundtrip (format version 2). Serialization is
/// canonical — equal sketch states produce byte-identical lines — and
/// parsing re-validates the sampling invariant via
/// StatisticsSketch::FromState, so tampered entries degrade to misses.
std::string SerializeSketch(const StatisticsSketch& sketch);
Result<StatisticsSketch> ParseSketch(std::string_view line);

}  // namespace efes

#endif  // EFES_CACHE_PROFILE_CACHE_H_
