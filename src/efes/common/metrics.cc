#include "efes/common/metrics.h"

#include <algorithm>

namespace efes {

std::string_view MetricUnitSymbol(MetricUnit unit) {
  switch (unit) {
    case MetricUnit::kMilliseconds:
      return "ms";
    case MetricUnit::kCount:
      return "count";
  }
  return "unknown";
}

Histogram::Histogram(std::vector<double> upper_bounds, MetricUnit unit)
    : upper_bounds_(std::move(upper_bounds)),
      unit_(unit),
      bucket_counts_(upper_bounds_.size() + 1) {
  for (auto& bucket : bucket_counts_) {
    bucket.store(0, std::memory_order_relaxed);
  }
}

const std::vector<double>& Histogram::DefaultLatencyBoundsMs() {
  // EFES_LINT_ALLOW(banned-function): paper-constant histogram bounds, leaked on purpose
  static const std::vector<double>* bounds = new std::vector<double>{
      0.01, 0.025, 0.05, 0.1,  0.25,  0.5,   1.0,    2.5,
      5.0,  10.0,  25.0, 50.0, 100.0, 250.0, 1000.0, 10000.0};
  return *bounds;
}

void Histogram::Observe(double value) {
  // Inclusive upper bounds: the first bound >= value owns the observation.
  size_t bucket = std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(),
                                   value) -
                  upper_bounds_.begin();
  bucket_counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  // The first observation seeds min/max; count_ orders after them only
  // loosely, so a concurrent reader may briefly see a stale envelope —
  // fine for telemetry.
  if (count_.fetch_add(1, std::memory_order_relaxed) == 0) {
    min_.store(value, std::memory_order_relaxed);
    max_.store(value, std::memory_order_relaxed);
  } else {
    double min = min_.load(std::memory_order_relaxed);
    while (value < min && !min_.compare_exchange_weak(
                              min, value, std::memory_order_relaxed)) {
    }
    double max = max_.load(std::memory_order_relaxed);
    while (value > max && !max_.compare_exchange_weak(
                              max, value, std::memory_order_relaxed)) {
    }
  }
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + value,
                                     std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::TotalCount() const {
  return count_.load(std::memory_order_relaxed);
}

double Histogram::Sum() const { return sum_.load(std::memory_order_relaxed); }

double Histogram::Min() const {
  return count_.load(std::memory_order_relaxed) == 0
             ? 0.0
             : min_.load(std::memory_order_relaxed);
}

double Histogram::Max() const {
  return count_.load(std::memory_order_relaxed) == 0
             ? 0.0
             : max_.load(std::memory_order_relaxed);
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> counts;
  counts.reserve(bucket_counts_.size());
  for (const auto& bucket : bucket_counts_) {
    counts.push_back(bucket.load(std::memory_order_relaxed));
  }
  return counts;
}

void Histogram::Reset() {
  for (auto& bucket : bucket_counts_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

double MetricsSnapshot::HistogramSample::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Walk the cumulative counts to the bucket holding the q-th
  // observation, then interpolate linearly inside it.
  double rank = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < bucket_counts.size(); ++i) {
    if (bucket_counts[i] == 0) continue;
    double lower = i == 0 ? min : upper_bounds[i - 1];
    double upper = i < upper_bounds.size() ? upper_bounds[i] : max;
    double position =
        (rank - static_cast<double>(cumulative)) /
        static_cast<double>(bucket_counts[i]);
    cumulative += bucket_counts[i];
    if (static_cast<double>(cumulative) >= rank) {
      double estimate = lower + std::clamp(position, 0.0, 1.0) *
                                    (upper - lower);
      // The exact envelope beats the bucket bounds.
      return std::clamp(estimate, min, max);
    }
  }
  return max;
}

uint64_t MetricsSnapshot::CounterValue(std::string_view name) const {
  for (const CounterSample& sample : counters) {
    if (sample.name == name) return sample.value;
  }
  return 0;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(
    std::string_view name, const std::vector<double>& upper_bounds,
    MetricUnit unit) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(upper_bounds, unit))
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.push_back({name, counter->Value()});
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.push_back({name, gauge->Value()});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms.push_back({name, histogram->TotalCount(),
                                   histogram->Sum(), histogram->Min(),
                                   histogram->Max(),
                                   histogram->upper_bounds(),
                                   histogram->BucketCounts(),
                                   histogram->unit()});
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) counter->Reset();
  for (const auto& [name, gauge] : gauges_) gauge->Reset();
  for (const auto& [name, histogram] : histograms_) histogram->Reset();
}

MetricsRegistry& MetricsRegistry::Global() {
  // EFES_LINT_ALLOW(banned-function): process-lifetime metrics registry, leaked on purpose
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace efes
