// Thread-safe registry of named counters, gauges, and fixed-bucket
// latency histograms.
//
// Metric names follow the `module.phase.metric` scheme, e.g.
// `profiling.statistics.cells` or `engine.assess.ms`. Instrumented code
// resolves a metric once (typically into a function-local static
// reference) and then updates it with a single relaxed atomic operation,
// so instrumentation stays correct and cheap when parallelism lands.
// Reset() zeroes values in place without invalidating references.
//
// Lives in common/ (not telemetry/) so that the lowest layer (parallel
// pool, fault registry, file IO) can report counters without a back-edge
// into the telemetry layer; telemetry re-exports the header for its own
// reporting surface.

#ifndef EFES_COMMON_METRICS_H_
#define EFES_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "efes/common/thread_annotations.h"

namespace efes {

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written scalar (e.g. a size observed at a point in time).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }

  double Value() const { return value_.load(std::memory_order_relaxed); }

  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// What a histogram's observations measure. Reports print the symbol
/// after every value, and exports carry it.
enum class MetricUnit {
  kMilliseconds,
  kCount,
};

/// "ms", "count".
std::string_view MetricUnitSymbol(MetricUnit unit);

/// Fixed-bucket histogram. Bucket i counts observations <= bounds[i];
/// one implicit overflow bucket counts the rest. Observe() is lock-free.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds,
                     MetricUnit unit = MetricUnit::kMilliseconds);

  /// Default bucket bounds for millisecond latencies: 0.01ms .. 10s,
  /// roughly geometric.
  static const std::vector<double>& DefaultLatencyBoundsMs();

  void Observe(double value);

  uint64_t TotalCount() const;
  double Sum() const;
  /// Smallest/largest observed value; 0 when nothing was observed.
  double Min() const;
  double Max() const;
  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  std::vector<uint64_t> BucketCounts() const;
  MetricUnit unit() const { return unit_; }

  void Reset();

 private:
  std::vector<double> upper_bounds_;
  MetricUnit unit_;
  /// One count per bound plus the overflow bucket.
  std::vector<std::atomic<uint64_t>> bucket_counts_;
  std::atomic<uint64_t> count_{0};
  /// Sum accumulated via compare-exchange (portable double add); min/max
  /// maintained the same way.
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Point-in-time copy of every registered metric, sorted by name.
struct MetricsSnapshot {
  struct CounterSample {
    std::string name;
    uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    double value = 0.0;
  };
  struct HistogramSample {
    std::string name;
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::vector<double> upper_bounds;
    std::vector<uint64_t> bucket_counts;
    MetricUnit unit = MetricUnit::kMilliseconds;

    double Mean() const {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }

    /// Bucket-interpolated quantile estimate for q in [0, 1] (p50 =
    /// Quantile(0.5)), clamped to the exact [min, max] envelope. An
    /// estimate: the resolution is the bucket width.
    double Quantile(double q) const;
  };

  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Counter value by exact name; 0 when absent.
  uint64_t CounterValue(std::string_view name) const;
};

/// Owner of all metrics. Get*() registers on first use and returns a
/// reference that stays valid (and keeps counting across Reset()) for the
/// registry's lifetime. The Global() registry lives for the process.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  /// `upper_bounds` and `unit` are consulted only on first registration
  /// of `name`.
  Histogram& GetHistogram(
      std::string_view name,
      const std::vector<double>& upper_bounds =
          Histogram::DefaultLatencyBoundsMs(),
      MetricUnit unit = MetricUnit::kMilliseconds);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every metric in place; references stay valid.
  void Reset();

  static MetricsRegistry& Global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      EFES_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      EFES_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      EFES_GUARDED_BY(mutex_);
};

}  // namespace efes

#endif  // EFES_COMMON_METRICS_H_
