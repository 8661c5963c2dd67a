// efes_lint: project-invariant static analysis for the EFES tree
// (DESIGN.md §10).
//
// The guarantees the runtime establishes — bit-identical parallel
// output, contained module failures, atomic file writes, cancellable
// estimation — are easy to regress silently at the source level: an
// ignored Status, an unordered_map iterated straight into a report, a
// raw ofstream that bypasses WriteFileAtomic, a guarded member read
// without its lock. The linter encodes those invariants as machine-
// checked rules over the token stream (see token.h), runs as a tier-1
// ctest, and fails the build on any unsuppressed finding.
//
// One run reads and tokenizes each file once and feeds two tiers.
//
// Per-file checks (every path given):
//
//   discarded-status    A call to a function returning Status/Result<T>
//                       whose result is discarded without `(void)`.
//                       Function names are collected in an index pass
//                       over all files (declarations and definitions).
//   nondeterminism      rand/srand/std::random_device/time()/argless
//                       system_clock::now outside the seeded-random and
//                       telemetry-clock allowlists.
//   unordered-iteration Range-for over a std::unordered_map/set variable
//                       inside report/export/text-rendering files, where
//                       iteration order would leak into output bytes.
//   raw-file-write      std::ofstream/fopen/std::filesystem::rename
//                       outside common/file_io (everything else must go
//                       through WriteFileAtomic).
//   header-hygiene      A header without #pragma once or an
//                       #ifndef/#define guard, or `using namespace` in a
//                       header.
//   banned-function     strcpy/sprintf/atoi, naked new/delete, and the
//                       removed mutable_effort_model() accessor
//                       (leaked singletons carry suppressions).
//   unbounded-wait      A blocking primitive with no cancellation path:
//                       this_thread::sleep_for/sleep_until, or a .wait()
//                       call without a predicate argument, outside the
//                       allowlisted common/ implementation files. Server
//                       code must block via predicate/deadline overloads
//                       (wait_for with predicate, CancelToken) so drain
//                       and watchdog cancellation can always make
//                       progress.
//   metric-name         A complete string-literal name passed to
//                       GetCounter/GetGauge/GetHistogram/TraceSpan that
//                       does not follow the dotted lowercase
//                       `module.phase.metric` scheme (two or more
//                       [a-z0-9_]+ segments).
//
// Whole-program checks (every path outside
// LintConfig::per_file_only_paths; catalog in analyze.h):
// lock-discipline, cancellation, layering, and registry (the last only
// with manifests, see Linter::SetRegistry).
//
// And for both tiers:
//
//   bad-suppression     An EFES_LINT_ALLOW comment with an unknown check
//                       id or without a reason.
//
// Suppressions: `// EFES_LINT_ALLOW(<check-id>): <reason>` silences
// findings of that check, of either tier, on the same line and the line
// below. The reason is mandatory; a reasonless or unknown-check
// suppression is itself a finding (bad-suppression), so the escape
// hatch stays auditable.

#ifndef EFES_LINT_LINT_H_
#define EFES_LINT_LINT_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "efes/lint/registry.h"
#include "efes/lint/summary.h"

namespace efes::lint {

/// One rule violation (or suppressed would-be violation).
struct Finding {
  std::string file;
  int line = 0;
  /// Check id, e.g. "discarded-status".
  std::string check;
  std::string message;
  /// True when an EFES_LINT_ALLOW comment covers this finding. Suppressed
  /// findings are reported (for --show-suppressed style tooling) but do
  /// not fail the run.
  bool suppressed = false;
};

/// One directory-substring → layer-rank rule. Includes may point to the
/// same or a lower rank; an edge to a strictly higher rank is a
/// back-edge finding.
struct LayerRule {
  std::string dir;
  int rank = 0;
};

/// Where each class of construct is legitimate. Path entries are
/// forward-slash substrings matched against the linted file's path.
struct LintConfig {
  // ---- per-file tier ----------------------------------------------------
  /// Files allowed to touch raw entropy/time sources.
  std::vector<std::string> nondeterminism_allowlist = {"common/random",
                                                       "common/clock"};
  /// Files allowed to open files for writing / rename directly.
  std::vector<std::string> raw_file_write_allowlist = {"common/file_io"};
  /// Files allowed naked new/delete without a suppression comment.
  std::vector<std::string> banned_function_allowlist = {};
  /// Files allowed raw sleeps / predicate-less waits: the common/
  /// concurrency and I/O primitives everything else is supposed to
  /// block through.
  std::vector<std::string> unbounded_wait_allowlist = {"common/"};
  /// Output-rendering paths where unordered iteration order would become
  /// observable bytes; the unordered-iteration check only runs here.
  std::vector<std::string> ordered_output_paths = {
      "telemetry/report",       "experiment/json_export",
      "experiment/visualization", "common/text_table",
      "common/json_writer",     "csg/render_dot",
      "core/engine"};

  // ---- whole-program tier -----------------------------------------------
  /// Paths only the per-file tier checks: test fakes are not estimation
  /// roots, and test-only literals do not belong in the registry.
  std::vector<std::string> per_file_only_paths = {"tests/", "bench/"};
  /// Observability call sites and lock types the summaries record.
  SummaryConfig summary;
  /// The declared layer order. Same-rank directories may include each
  /// other (cache<->profiling, core<->dedup are deliberate pairs; the
  /// include-cycle check still rejects header cycles inside them).
  std::vector<LayerRule> layers = {
      {"efes/common/", 0},
      {"efes/lint/", 1},       {"efes/telemetry/", 1},
      {"efes/relational/", 2}, {"efes/provenance/", 2},
      {"efes/cache/", 3},      {"efes/profiling/", 3},
      {"efes/matching/", 4},   {"efes/csg/", 4},
      {"efes/core/", 5},       {"efes/dedup/", 5},
      {"efes/mapping/", 5},    {"efes/structure/", 5},
      {"efes/values/", 5},     {"efes/baseline/", 5},
      {"efes/execute/", 6},    {"efes/scenario/", 6},
      {"efes/experiment/", 7},
      {"efes/serve/", 8},
  };
  /// Path substrings sitting above every layer (may include anything).
  std::vector<std::string> top_paths = {"tools/", "tests/", "bench/"};
  /// Function names that are cancellation roots when defined under
  /// `checkpoint_dirs`.
  std::vector<std::string> checkpoint_roots = {"AssessComplexity", "Run"};
  /// Directories whose roots (and ParallelFor/ParallelMap callers) must
  /// reach the checkpoint.
  std::vector<std::string> checkpoint_dirs = {
      "efes/core/",   "efes/serve/",     "efes/execute/",
      "efes/mapping/", "efes/structure/", "efes/values/",
      "efes/dedup/",  "efes/baseline/"};
  std::string checkpoint_function = "CheckCancellation";
  /// Calling one of these also makes a function a root: a fan-out point
  /// must stay cancellable (today they are, via ParallelFor's own entry
  /// checkpoint — this is the regression guard for exactly that).
  std::vector<std::string> parallel_primitives = {"ParallelFor",
                                                  "ParallelMap"};
};

/// Names of all checks, per-file tier first, then the whole-program
/// tier, then bad-suppression (for --list-checks and validation).
const std::vector<std::string>& AllCheckIds();

/// True for dotted lowercase metric/span names: two or more [a-z0-9_]+
/// segments joined by single dots (`module.phase.metric`). The
/// metric-name check enforces it; the registry check collects exactly
/// these literals.
bool IsDottedMetricName(std::string_view name);

/// Runs both tiers over a set of in-memory files. Run is a pure function
/// of its inputs, so output is deterministic for a fixed file set.
class Linter {
 public:
  Linter() : Linter(LintConfig()) {}
  explicit Linter(LintConfig config);

  /// Installs the registry manifests and enables the registry check
  /// (without them the check is skipped — the CLI notes it on stderr).
  void SetRegistry(RegistryManifests manifests);

  /// Tokenizes each {path, content} pair once; indexes the Status/
  /// Result-returning function names, runs the per-file checks, then
  /// summarizes the files outside per_file_only_paths for the whole-
  /// program checks. All findings come back sorted by (file, line,
  /// check, message), with EFES_LINT_ALLOW applied.
  std::vector<Finding> Run(
      const std::vector<std::pair<std::string, std::string>>& files) const;

 private:
  LintConfig config_;
  std::optional<RegistryManifests> registry_;
};

/// Renders findings one per line: "file:line: [check] message". Appends a
/// trailing summary line. Suppressed findings are omitted unless
/// `show_suppressed`.
std::string RenderText(const std::vector<Finding>& findings,
                       bool show_suppressed = false);

/// Renders the machine-readable report:
/// {"findings":[...],"total":N,"unsuppressed":N}.
std::string RenderJson(const std::vector<Finding>& findings);

/// Number of findings that are not suppressed (the CLI's exit criterion).
size_t CountUnsuppressed(const std::vector<Finding>& findings);

}  // namespace efes::lint

#endif  // EFES_LINT_LINT_H_
