// efes_lint: project-invariant static analysis for the EFES tree.
//
// The guarantees PRs 1-3 established at runtime — bit-identical parallel
// output, contained module failures, atomic file writes — are easy to
// regress silently at the source level: an ignored Status, an
// unordered_map iterated straight into a report, a raw ofstream that
// bypasses WriteFileAtomic. This linter encodes those invariants as
// machine-checked rules over the token stream (see token.h), runs as a
// tier-1 ctest, and fails the build on any unsuppressed finding.
//
// Check catalog (ids as they appear in findings and suppressions):
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
//   bad-suppression     An EFES_LINT_ALLOW comment with an unknown check
//                       id or without a reason.
//
// Suppressions: `// EFES_LINT_ALLOW(<check-id>): <reason>` silences
// findings of that check on the same line and the line below. The reason
// is mandatory; a reasonless or unknown-check suppression is itself a
// finding (bad-suppression), so the escape hatch stays auditable.

#ifndef EFES_LINT_LINT_H_
#define EFES_LINT_LINT_H_

#include <set>
#include <string>
#include <string_view>
#include <vector>

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

/// Where each class of construct is legitimate. Entries are
/// forward-slash path substrings matched against the linted file's path.
struct LintConfig {
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
};

/// Names of all checks, for --list-checks and validation.
const std::vector<std::string>& AllCheckIds();

/// True for dotted lowercase metric/span names: two or more [a-z0-9_]+
/// segments joined by single dots (`module.phase.metric`). Shared with
/// efes_analyze, whose registry check collects exactly these literals.
bool IsDottedMetricName(std::string_view name);

/// Two-pass linter. Feed every file to IndexFile first (collects the
/// names of Status/Result-returning functions tree-wide), then run
/// CheckFile per file. Both passes are pure functions of their inputs,
/// so output is deterministic for a fixed file set and order.
class Linter {
 public:
  Linter() : Linter(LintConfig()) {}
  explicit Linter(LintConfig config);

  /// Pass 1: records functions declared/defined as returning Status or
  /// Result<T> in `content`.
  void IndexFile(std::string_view path, std::string_view content);

  /// Pass 2: runs every check on `content`, appending to `findings`.
  void CheckFile(std::string_view path, std::string_view content,
                 std::vector<Finding>* findings) const;

  /// Convenience: index-then-check over in-memory files (used by tests).
  /// Each element is a {path, content} pair.
  std::vector<Finding> Run(
      const std::vector<std::pair<std::string, std::string>>& files) const;

  /// The function-name index built by IndexFile (exposed for tests).
  const std::set<std::string, std::less<>>& status_functions() const {
    return status_functions_;
  }

 private:
  LintConfig config_;
  std::set<std::string, std::less<>> status_functions_;
  /// Names also declared with a non-Status return type somewhere in the
  /// indexed tree; discarded-status skips these (ambiguous by name).
  std::set<std::string, std::less<>> non_status_functions_;
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
