// Loading and saving integration scenarios as a directory tree — the
// file-based substitute for the original prototype's PostgreSQL input.
//
// Layout:
//
//   <dir>/
//     target/
//       schema.sql            -- DDL (see relational/schema_text.h)
//       data/<table>.csv      -- optional instance, one CSV per table
//     sources/<name>/
//       schema.sql
//       data/<table>.csv
//       correspondences.txt   -- one correspondence per line:
//                                "albums -> records" (relation level)
//                                "albums.name -> records.title" (attribute)
//
// Everything is plain text; a scenario exported with SaveScenario loads
// back identically (schemas, constraints, data, correspondences). Saving
// is atomic per file (temp + rename, common/file_io.h).
//
// Loading runs in one of two modes (LoadOptions::Mode):
//   * kStrict (default): the historical behavior — the first malformed
//     row, unreadable file, or bogus correspondence aborts the load.
//   * kRecover: defects are skipped or repaired and recorded as
//     DataIssue diagnostics in the caller's ScenarioLoadReport; the load
//     succeeds with whatever could be salvaged (the target schema itself
//     remains mandatory). This is how a service estimates effort *over*
//     dirty inputs instead of refusing them.

#ifndef EFES_SCENARIO_SCENARIO_IO_H_
#define EFES_SCENARIO_SCENARIO_IO_H_

#include <string>
#include <vector>

#include "efes/common/csv.h"
#include "efes/common/data_issue.h"
#include "efes/common/result.h"
#include "efes/core/integration_scenario.h"

namespace efes {

/// Rows per chunk when a table file streams into its Table: bounds the
/// CSV strings held at once, whatever the file size.
inline constexpr size_t kLoadChunkRows = 4096;

/// How to load a scenario directory.
struct LoadOptions {
  enum class Mode { kStrict, kRecover };

  Mode mode = Mode::kStrict;
  /// Resource guards forwarded to the CSV reader.
  size_t max_field_bytes = CsvReadOptions{}.max_field_bytes;
  size_t max_rows = CsvReadOptions{}.max_rows;
};

/// What a lenient load survived. `degraded` is true when any input was
/// skipped or repaired; the issues list the individual defects.
struct ScenarioLoadReport {
  std::vector<DataIssue> issues;
  bool degraded = false;
};

/// Parses one correspondence line ("a.b -> c.d" or "a -> c"). Tolerates
/// whitespace around the arrow, the dot, and the names; rejects empty
/// relation or attribute names.
Result<Correspondence> ParseCorrespondenceLine(std::string_view line);

/// Parses a whole correspondences document (one per line; '#' comments).
Result<CorrespondenceSet> ParseCorrespondences(std::string_view text);

/// Lenient variant: malformed lines are skipped and recorded in
/// `issues` (recover mode) instead of failing the parse.
Result<CorrespondenceSet> ParseCorrespondences(
    std::string_view text, const LoadOptions& options,
    std::vector<DataIssue>* issues);

/// Renders a correspondence set in the line format.
std::string WriteCorrespondences(const CorrespondenceSet& correspondences);

/// Writes the scenario into `directory` (created if missing, existing
/// files overwritten atomically).
Status SaveScenario(const IntegrationScenario& scenario,
                    const std::string& directory);

/// Loads a scenario from `directory`. The scenario name is the directory
/// base name; sources load in lexicographic order. Fault point:
/// `scenario.load`.
Result<IntegrationScenario> LoadScenario(const std::string& directory);

/// Loads with explicit options; `report` (may be null) receives the
/// DataIssue diagnostics and the degraded flag in recover mode.
Result<IntegrationScenario> LoadScenario(const std::string& directory,
                                         const LoadOptions& options,
                                         ScenarioLoadReport* report);

}  // namespace efes

#endif  // EFES_SCENARIO_SCENARIO_IO_H_
