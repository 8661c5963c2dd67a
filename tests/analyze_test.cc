// Tests for efes_lint's whole-program tier: every whole-program check
// gets a positive case (the violation is found), a negative case
// (idiomatic code stays clean), and a suppression case. Fixture sources
// live in raw strings so linting this file itself stays clean. The
// lint_tree ctest runs both tiers, with the checked-in registry
// manifests, over the real tree.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "efes/lint/lint.h"
#include "efes/lint/registry.h"
#include "efes/lint/sarif.h"

namespace efes::lint {
namespace {

using File = std::pair<std::string, std::string>;

std::vector<Finding> Analyze(const std::vector<File>& files) {
  Linter linter;
  return linter.Run(files);
}

/// Analyze with the registry check enabled.
std::vector<Finding> AnalyzeWithRegistry(const std::vector<File>& files,
                                         RegistryManifests manifests) {
  Linter linter;
  linter.SetRegistry(std::move(manifests));
  return linter.Run(files);
}

/// Unsuppressed findings of one check id.
std::vector<Finding> FindingsOf(const std::vector<Finding>& all,
                                const std::string& check) {
  std::vector<Finding> out;
  for (const Finding& f : all) {
    if (f.check == check && !f.suppressed) out.push_back(f);
  }
  return out;
}

// ------------------------------------------------------- lock-discipline

// A guarded member, one locked accessor, one unlocked accessor. The
// annotation lives in the header and the violation in the .cc — the
// check only works across the merged index.
constexpr char kGuardedHeader[] = R"(
#pragma once
class Counter {
 public:
  void Add(int n);
  int Total() const;
 private:
  mutable std::mutex mutex_;
  int total_ EFES_GUARDED_BY(mutex_) = 0;
};
)";

TEST(LockDisciplineTest, FlagsUnlockedAccessAcrossFiles) {
  auto findings =
      Analyze({{"src/efes/x/counter.h", kGuardedHeader},
               {"src/efes/x/counter.cc",
                "void Counter::Add(int n) {\n"
                "  std::lock_guard<std::mutex> lock(mutex_);\n"
                "  total_ += n;\n"
                "}\n"
                "int Counter::Total() const {\n"
                "  return total_;\n"
                "}\n"}});
  auto hits = FindingsOf(findings, "lock-discipline");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].file, "src/efes/x/counter.cc");
  EXPECT_EQ(hits[0].line, 6);
  EXPECT_NE(hits[0].message.find("Counter::total_"), std::string::npos);
}

TEST(LockDisciplineTest, LockedAccessesAreClean) {
  auto findings =
      Analyze({{"src/efes/x/counter.h", kGuardedHeader},
               {"src/efes/x/counter.cc",
                "void Counter::Add(int n) {\n"
                "  std::lock_guard<std::mutex> lock(mutex_);\n"
                "  total_ += n;\n"
                "}\n"
                "int Counter::Total() const {\n"
                "  std::unique_lock<std::mutex> lock(mutex_);\n"
                "  return total_;\n"
                "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "lock-discipline").empty());
}

TEST(LockDisciplineTest, ConstructorsAndLockedHelpersAreExempt) {
  auto findings =
      Analyze({{"src/efes/x/counter.h", kGuardedHeader},
               {"src/efes/x/counter.cc",
                "Counter::Counter() {\n"
                "  total_ = 0;\n"
                "}\n"
                "void Counter::AddLocked(int n) {\n"
                "  total_ += n;\n"
                "}\n"
                "void Counter::Add(int n) {\n"
                "  std::lock_guard<std::mutex> lock(mutex_);\n"
                "  total_ += n;\n"
                "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "lock-discipline").empty());
}

TEST(LockDisciplineTest, ManualUnlockSuspendsTheRegion) {
  auto findings =
      Analyze({{"src/efes/x/counter.h", kGuardedHeader},
               {"src/efes/x/counter.cc",
                "void Counter::Add(int n) {\n"
                "  std::unique_lock<std::mutex> lock(mutex_);\n"
                "  total_ += n;\n"
                "  lock.unlock();\n"
                "  total_ += n;\n"
                "}\n"}});
  auto hits = FindingsOf(findings, "lock-discipline");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 5);
}

TEST(LockDisciplineTest, DeletedAnnotationIsInferredBack) {
  // Same class without the annotation: every access still happens under
  // mutex_, so the analyzer demands the annotation be restored.
  auto findings =
      Analyze({{"src/efes/x/counter.h",
                "#pragma once\n"
                "class Counter {\n"
                " public:\n"
                "  void Add(int n);\n"
                "  int Total() const;\n"
                " private:\n"
                "  mutable std::mutex mutex_;\n"
                "  int total_ = 0;\n"
                "};\n"},
               {"src/efes/x/counter.cc",
                "void Counter::Add(int n) {\n"
                "  std::lock_guard<std::mutex> lock(mutex_);\n"
                "  total_ += n;\n"
                "}\n"
                "int Counter::Total() const {\n"
                "  std::lock_guard<std::mutex> lock(mutex_);\n"
                "  return total_;\n"
                "}\n"}});
  auto hits = FindingsOf(findings, "lock-discipline");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("not annotated"), std::string::npos);
}

TEST(LockDisciplineTest, MixedLockedAndUnlockedMemberIsNotInferred) {
  // An unannotated member read outside any lock somewhere is not
  // "consistently locked" — no inference finding (that pattern needs a
  // human, not a lint rule).
  auto findings =
      Analyze({{"src/efes/x/counter.cc",
                "void Counter::Add(int n) {\n"
                "  std::lock_guard<std::mutex> lock(mutex_);\n"
                "  total_ += n;\n"
                "}\n"
                "int Counter::Total() const {\n"
                "  return total_;\n"
                "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "lock-discipline").empty());
}

TEST(LockDisciplineTest, SuppressionWithReasonSilences) {
  auto findings =
      Analyze({{"src/efes/x/counter.h", kGuardedHeader},
               {"src/efes/x/counter.cc",
                "int Counter::Total() const {\n"
                "  // EFES_LINT_ALLOW(lock-discipline): racy read is "
                "a documented estimate\n"
                "  return total_;\n"
                "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "lock-discipline").empty());
  // Still reported, as suppressed.
  bool saw_suppressed = false;
  for (const Finding& f : findings) {
    if (f.check == "lock-discipline") {
      EXPECT_TRUE(f.suppressed);
      saw_suppressed = true;
    }
  }
  EXPECT_TRUE(saw_suppressed);
}

// ---------------------------------------------------------- cancellation

TEST(CancellationTest, FlagsRootThatNeverReachesCheckpoint) {
  auto findings = Analyze(
      {{"src/efes/mapping/m.cc",
        "Result<int> MappingModule::AssessComplexity(const Scenario& s) "
        "const {\n"
        "  return Walk(s);\n"
        "}\n"
        "Result<int> Walk(const Scenario& s) {\n"
        "  return 1;\n"
        "}\n"}});
  auto hits = FindingsOf(findings, "cancellation");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 1);
  EXPECT_NE(hits[0].message.find("AssessComplexity"), std::string::npos);
}

TEST(CancellationTest, CheckpointThroughCalleeIsClean) {
  // The root reaches CheckCancellation two hops away, across files.
  auto findings = Analyze(
      {{"src/efes/mapping/m.cc",
        "Result<int> MappingModule::AssessComplexity(const Scenario& s) "
        "const {\n"
        "  return Walk(s);\n"
        "}\n"},
       {"src/efes/mapping/walk.cc",
        "Result<int> Walk(const Scenario& s) {\n"
        "  EFES_RETURN_IF_ERROR(CheckCancellation());\n"
        "  return 1;\n"
        "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "cancellation").empty());
}

TEST(CancellationTest, ParallelFanOutIsARoot) {
  auto findings = Analyze(
      {{"src/efes/core/fan.cc",
        "Status FanOut(std::vector<int>& items) {\n"
        "  return ParallelFor(items, [](int i) { return Use(i); });\n"
        "}\n"}});
  auto hits = FindingsOf(findings, "cancellation");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("FanOut"), std::string::npos);
}

TEST(CancellationTest, RootsOutsideCheckpointDirsAreClean) {
  // Run() in a directory outside the checkpoint set is not a root.
  auto findings = Analyze(
      {{"src/efes/matching/m.cc",
        "Status Matcher::Run() {\n"
        "  return Status::Ok();\n"
        "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "cancellation").empty());
}

TEST(CancellationTest, SuppressionWithReasonSilences) {
  auto findings = Analyze(
      {{"src/efes/mapping/m.cc",
        "// EFES_LINT_ALLOW(cancellation): trivially O(1) body\n"
        "Result<int> MappingModule::AssessComplexity(const Scenario& s) "
        "const {\n"
        "  return 1;\n"
        "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "cancellation").empty());
}

// -------------------------------------------------------------- layering

TEST(LayeringTest, FlagsBackEdge) {
  auto findings = Analyze(
      {{"src/efes/common/helper.h",
        "#pragma once\n"
        "#include \"efes/serve/server.h\"\n"},
       {"src/efes/serve/server.h", "#pragma once\n"}});
  auto hits = FindingsOf(findings, "layering");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].file, "src/efes/common/helper.h");
  EXPECT_EQ(hits[0].line, 2);
}

TEST(LayeringTest, DownwardAndSameRankEdgesAreClean) {
  auto findings = Analyze(
      {{"src/efes/serve/server.h",
        "#pragma once\n"
        "#include \"efes/common/status.h\"\n"},
       {"src/efes/cache/cache.h",
        "#pragma once\n"
        "#include \"efes/profiling/stats.h\"\n"},
       {"src/efes/common/status.h", "#pragma once\n"},
       {"src/efes/profiling/stats.h", "#pragma once\n"}});
  EXPECT_TRUE(FindingsOf(findings, "layering").empty());
}

TEST(LayeringTest, FlagsIncludeCycle) {
  auto findings = Analyze(
      {{"src/efes/core/a.h",
        "#pragma once\n#include \"efes/core/b.h\"\n"},
       {"src/efes/core/b.h",
        "#pragma once\n#include \"efes/core/a.h\"\n"}});
  auto hits = FindingsOf(findings, "layering");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("cycle"), std::string::npos);
}

TEST(LayeringTest, FlagsDirectoryMissingFromDeclaredOrder) {
  auto findings =
      Analyze({{"src/efes/mystery/new_thing.h", "#pragma once\n"}});
  auto hits = FindingsOf(findings, "layering");
  ASSERT_EQ(hits.size(), 1u);
}

TEST(LayeringTest, ToolsAndTestsMayIncludeAnything) {
  auto findings = Analyze(
      {{"tools/efes_cli.cc", "#include \"efes/serve/server.h\"\n"},
       {"src/efes/serve/server.h", "#pragma once\n"}});
  EXPECT_TRUE(FindingsOf(findings, "layering").empty());
}

// -------------------------------------------------------------- registry

RegistryManifests TestManifests() {
  RegistryManifests m;
  m.metrics_path = "docs/registry/metrics.md";
  m.faults_path = "docs/registry/faults.md";
  m.flags_path = "docs/registry/flags.md";
  m.metrics = {{"core.run.tuples", 1}};
  m.faults = {{"io.read", 1}};
  m.flags = {{"threads", 1}};
  return m;
}

/// Uses every registered name of TestManifests (so nothing is stale)
/// plus the unregistered metric core.run.unknown on line 2.
constexpr char kUnlistedMetricSource[] =
    "Status F(MetricsRegistry& m, FlagSet& flags) {\n"
    "  m.GetCounter(\"core.run.unknown\").Increment(1);\n"
    "  m.GetCounter(\"core.run.tuples\").Increment(1);\n"
    "  EFES_RETURN_IF_ERROR(CheckFaultPoint(\"io.read\"));\n"
    "  flags.AddUint(\"threads\", \"N\", \"workers\", &n);\n"
    "  return Status::Ok();\n"
    "}\n";

TEST(RegistryTest, UnlistedCallSiteIsAFinding) {
  // The same literal under tests/ or bench/ is no finding: only the
  // per-file tier sees those paths.
  auto hits = FindingsOf(
      AnalyzeWithRegistry({{"src/efes/core/x.cc", kUnlistedMetricSource},
                           {"tests/x_test.cc", kUnlistedMetricSource},
                           {"bench/perf_x.cc", kUnlistedMetricSource}},
                          TestManifests()),
      "registry");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].file, "src/efes/core/x.cc");
  EXPECT_EQ(hits[0].line, 2);
  EXPECT_NE(hits[0].message.find("core.run.unknown"), std::string::npos);
}

TEST(RegistryTest, StaleManifestEntryIsAFinding) {
  RegistryManifests manifests = TestManifests();
  manifests.metrics.push_back({"core.run.ghost", 7});
  auto hits = FindingsOf(
      AnalyzeWithRegistry({{"src/efes/core/x.cc",
                            "void F(MetricsRegistry& m) {\n"
                            "  m.GetCounter(\"core.run.tuples\")"
                            ".Increment(1);\n"
                            "}\n"}},
                          std::move(manifests)),
      "registry");
  ASSERT_EQ(hits.size(), 3u);  // ghost metric + unused fault + flag
  EXPECT_EQ(hits[0].file, "docs/registry/faults.md");
  EXPECT_EQ(hits[1].file, "docs/registry/flags.md");
  EXPECT_EQ(hits[2].file, "docs/registry/metrics.md");
  EXPECT_EQ(hits[2].line, 7);
}

TEST(RegistryTest, ListedNamesInAllThreeKindsAreClean) {
  auto findings = AnalyzeWithRegistry(
      {{"src/efes/core/x.cc",
        "Status F(MetricsRegistry& m, FlagSet& flags) {\n"
        "  m.GetCounter(\"core.run.tuples\").Increment(1);\n"
        "  EFES_RETURN_IF_ERROR(CheckFaultPoint(\"io.read\"));\n"
        "  flags.AddUint(\"threads\", \"N\", \"workers\", &n);\n"
        "  return Status::Ok();\n"
        "}\n"}},
      TestManifests());
  EXPECT_TRUE(FindingsOf(findings, "registry").empty());
}

TEST(RegistryTest, ConcatenatedNamesAreSkipped) {
  // Runtime-built families never match the complete-dotted-literal rule
  // and are documented as (dynamic) manifest lines instead.
  // Empty manifests: the concatenation fragments must not register as
  // unlisted call sites.
  auto findings = AnalyzeWithRegistry(
      {{"src/efes/core/x.cc",
        "void F(MetricsRegistry& m, std::string p) {\n"
        "  m.GetCounter(\"fault.\" + p + \".hits\").Increment(1);\n"
        "}\n"}},
      RegistryManifests());
  EXPECT_TRUE(FindingsOf(findings, "registry").empty());
}

TEST(RegistryTest, WithoutManifestsTheCheckIsSkipped) {
  auto findings =
      Analyze({{"src/efes/core/x.cc",
                "void F(MetricsRegistry& m) {\n"
                "  m.GetCounter(\"core.run.unknown\").Increment(1);\n"
                "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "registry").empty());
}

// -------------------------------------------------------- manifest parser

TEST(ManifestParserTest, ParsesBacktickedListLines) {
  auto entries = ParseManifest(
      "# Registry\n"
      "\n"
      "Prose about `inline.code` is not an entry.\n"
      "- `core.run.tuples` — tuples integrated\n"
      "  - `serve.request.ms` — indented is fine\n"
      "- `fault.<point>.hits` (dynamic) — excluded family\n"
      "- not backticked\n");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "core.run.tuples");
  EXPECT_EQ(entries[0].line, 4);
  EXPECT_EQ(entries[1].name, "serve.request.ms");
  EXPECT_EQ(entries[1].line, 5);
}

TEST(ManifestParserTest, MissingManifestFileIsAnError) {
  auto result = LoadRegistryDir("does/not/exist");
  EXPECT_FALSE(result.ok());
}

// ------------------------------------------------------- bad-suppression

TEST(BadSuppressionTest, MissingReasonIsAFinding) {
  auto findings =
      Analyze({{"src/efes/x/counter.h", kGuardedHeader},
               {"src/efes/x/counter.cc",
                "int Counter::Total() const {\n"
                "  // EFES_LINT_ALLOW(lock-discipline)\n"
                "  return total_;\n"
                "}\n"}});
  // The reasonless suppression does not silence, and is itself flagged.
  EXPECT_EQ(FindingsOf(findings, "lock-discipline").size(), 1u);
  EXPECT_EQ(FindingsOf(findings, "bad-suppression").size(), 1u);
}

TEST(BadSuppressionTest, UnknownCheckIsAFinding) {
  // One scanner reads the marker for both tiers: an unknown id is one
  // finding, not one per tier.
  auto findings = Analyze(
      {{"src/efes/core/x.cc",
        "// EFES_LINT_ALLOW(made-up): whatever\nvoid F();\n"}});
  auto hits = FindingsOf(findings, "bad-suppression");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("'made-up'"), std::string::npos);
  EXPECT_EQ(findings.size(), 1u);
}

// ------------------------------------------------------------- rendering

TEST(RenderTest, TextCarriesFindingsAndSummary) {
  auto findings =
      Analyze({{"src/efes/common/h.h",
                "#pragma once\n#include \"efes/serve/s.h\"\n"},
               {"src/efes/serve/s.h", "#pragma once\n"}});
  ASSERT_EQ(findings.size(), 1u);
  std::string text = RenderText(findings);
  EXPECT_NE(text.find("src/efes/common/h.h:2:"), std::string::npos);
  EXPECT_NE(text.find("[layering]"), std::string::npos);
  EXPECT_NE(text.find("efes_lint: 1 unsuppressed"), std::string::npos);
}

TEST(RenderTest, CheckCatalogIsStable) {
  // The whole-program ids share the one catalog (and the one
  // suppression marker) with the per-file checks.
  const auto& ids = AllCheckIds();
  for (const char* id : {"lock-discipline", "cancellation", "layering",
                         "registry", "bad-suppression"}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), id), ids.end()) << id;
  }
}

TEST(SarifTest, RendersValidMinimalDocument) {
  auto findings =
      Analyze({{"src/efes/common/h.h",
                "#pragma once\n#include \"efes/serve/s.h\"\n"},
               {"src/efes/serve/s.h", "#pragma once\n"}});
  ASSERT_EQ(findings.size(), 1u);
  std::string sarif = RenderSarif(findings);
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\":\"efes_lint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\":\"layering\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\":2"), std::string::npos);
  EXPECT_EQ(sarif.find("\"suppressions\""), std::string::npos);
}

TEST(SarifTest, SuppressedFindingsAreMarkedInSource) {
  std::vector<Finding> findings = {
      {"a.cc", 3, "layering", "msg", true}};
  std::string sarif = RenderSarif(findings);
  EXPECT_NE(sarif.find("\"level\":\"note\""), std::string::npos);
  EXPECT_NE(sarif.find("\"kind\":\"inSource\""), std::string::npos);
}

}  // namespace
}  // namespace efes::lint
