// The whole-program tier of efes_lint (DESIGN.md §10).
//
// The per-file checks in lint.h see one token stream at a time; the
// guarantees the server stack leans on are cross-file: a member
// guarded in one header is accessed from a .cc, a module's Assess body
// reaches CheckCancellation through two helper calls, an include edge
// quietly inverts the layer order, a metric name is registered in code
// but missing from the documented registry. CheckProgram merges the
// per-file summaries (summary.h) into one index and runs four checks
// over it:
//
//   lock-discipline  An EFES_GUARDED_BY(mutex)-annotated member is
//                    accessed in a method body outside a lexical
//                    std::lock_guard/unique_lock/scoped_lock region of
//                    that mutex (constructors, destructors, and
//                    *Locked caller-holds-the-lock helpers exempt).
//                    Also the inference direction: a member whose every
//                    access is under the same mutex must carry the
//                    annotation, so deleting one is itself a finding
//                    rather than a silent relaxation.
//   cancellation     An estimation root — a function named
//                    AssessComplexity/Run in core/serve/module code, or
//                    any function there fanning out via ParallelFor/
//                    ParallelMap — never reaches CheckCancellation
//                    through the name-based call graph. New modules
//                    cannot silently become un-cancellable.
//   layering         An `#include "efes/..."` edge points from a lower
//                    layer to a higher one (LintConfig::layers), a
//                    directory is missing from the declared order, or
//                    headers form an include cycle.
//   registry         An observability name (metric/span, fault point,
//                    CLI flag) appears at a call site but not in the
//                    checked-in docs/registry/ manifest, or a manifest
//                    entry has no call site left (stale). Names built
//                    at runtime are excluded by the complete-dotted-
//                    literal rule and declared `(dynamic)` in the
//                    manifests. Stale-entry findings anchor in the
//                    manifest .md files, where no suppression can reach
//                    them — fix the manifest.

#ifndef EFES_LINT_ANALYZE_H_
#define EFES_LINT_ANALYZE_H_

#include <string>
#include <string_view>
#include <vector>

#include "efes/lint/lint.h"
#include "efes/lint/registry.h"
#include "efes/lint/summary.h"

namespace efes::lint {

/// True when `path` contains any of the forward-slash substrings.
bool PathMatchesAny(std::string_view path,
                    const std::vector<std::string>& patterns);

/// Runs the four whole-program checks over `summaries`, appending to
/// `findings`. The registry check runs only when `registry` is set.
void CheckProgram(const std::vector<FileSummary>& summaries,
                  const LintConfig& config,
                  const RegistryManifests* registry,
                  std::vector<Finding>* findings);

}  // namespace efes::lint

#endif  // EFES_LINT_ANALYZE_H_
