// Human- and machine-readable renderings of a MetricsSnapshot: the
// `--metrics` text table and the `telemetry` JSON section of exported
// estimates.

#ifndef EFES_TELEMETRY_REPORT_H_
#define EFES_TELEMETRY_REPORT_H_

#include <string>

#include "efes/common/metrics.h"

namespace efes {

class JsonWriter;

/// Renders the snapshot as a text table (one row per metric; histograms
/// show count, mean, p50/p95 estimates, min/max, and total). Returns ""
/// for an empty snapshot.
std::string RenderMetricsReport(const MetricsSnapshot& snapshot);

/// Writes the snapshot as one JSON object value:
/// {"counters": {name: int, ...}, "gauges": {name: num, ...},
///  "histograms": {name: {"count", "sum", "mean", "p50", "p95", "min",
///  "max"}, ...}}.
/// The caller has positioned `json` where a value is expected.
void WriteMetricsJson(const MetricsSnapshot& snapshot, JsonWriter& json);

}  // namespace efes

#endif  // EFES_TELEMETRY_REPORT_H_
