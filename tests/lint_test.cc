// Tests for efes_lint's per-file tier: every check gets a positive case
// (the violation is found), a negative case (idiomatic code stays
// clean), and a suppression case (EFES_LINT_ALLOW with a reason
// silences it, without one it doesn't). Fixture sources live in raw
// strings, so linting this file itself stays clean. The whole-program
// tier is tested in analyze_test.cc; the lint_tree ctest runs both over
// the real tree.

#include "efes/lint/lint.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "efes/lint/token.h"

namespace efes::lint {
namespace {

using File = std::pair<std::string, std::string>;

std::vector<Finding> Lint(const std::vector<File>& files) {
  Linter linter;
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

// ---------------------------------------------------------------- lexer

TEST(TokenizerTest, SkipsCommentsAndStrings) {
  auto tokens = Tokenize(R"cpp(
// rand() in a line comment
/* rand() in a block
   comment */
const char* s = "rand()";
const char* r = R"x(rand())x";
int n = 42;
)cpp");
  int identifiers = 0;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kIdentifier) {
      EXPECT_NE(t.text, "rand");
      ++identifiers;
    }
  }
  // const, char, s, const, char, r, int, n
  EXPECT_EQ(identifiers, 8);
}

TEST(TokenizerTest, TracksLineNumbers) {
  auto tokens = Tokenize("a\nbb\n\ncc dd\n");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[1].line, 2);
  EXPECT_EQ(tokens[2].line, 4);
  EXPECT_EQ(tokens[3].line, 4);
}

TEST(TokenizerTest, MultiCharPunctuatorsAreSingleTokens) {
  auto tokens = Tokenize("a::b->c >> d");
  ASSERT_EQ(tokens.size(), 7u);
  EXPECT_EQ(tokens[1].text, "::");
  EXPECT_EQ(tokens[3].text, "->");
  EXPECT_EQ(tokens[5].text, ">>");
}

TEST(TokenizerTest, SurvivesUnterminatedLiterals) {
  EXPECT_FALSE(Tokenize("const char* s = \"never closed").empty());
  EXPECT_FALSE(Tokenize("/* never closed").empty());
  EXPECT_FALSE(Tokenize("R\"tag(never closed").empty());
}

// ------------------------------------------------------ discarded-status

constexpr char kStatusDecls[] = R"(
#pragma once
Status Save(int x);
Result<int> Load(int x);
)";

TEST(DiscardedStatusTest, FlagsBareStatementCall) {
  auto findings = Lint({{"a/decl.h", kStatusDecls},
                        {"a/use.cc", "void F() {\n  Save(1);\n}\n"}});
  auto hits = FindingsOf(findings, "discarded-status");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].file, "a/use.cc");
  EXPECT_EQ(hits[0].line, 2);
}

TEST(DiscardedStatusTest, FlagsResultAndMemberCalls) {
  auto findings =
      Lint({{"a/decl.h", kStatusDecls},
            {"a/use.cc", "void F(Db& db) {\n  Load(2);\n  db.Save(3);\n}\n"}});
  EXPECT_EQ(FindingsOf(findings, "discarded-status").size(), 2u);
}

TEST(DiscardedStatusTest, ConsumedResultsAreClean) {
  auto findings = Lint(
      {{"a/decl.h", kStatusDecls},
       {"a/use.cc",
        "Status G();\n"
        "Status F() {\n"
        "  Status s = Save(1);\n"
        "  if (!Save(2).ok()) return G();\n"
        "  EFES_RETURN_IF_ERROR(Save(3));\n"
        "  (void)Save(4);\n"
        "  return Save(5);\n"
        "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "discarded-status").empty());
}

TEST(DiscardedStatusTest, NameOverloadedWithOtherReturnTypeIsSkipped) {
  // A second declaration `void Save(...)` makes the name ambiguous; the
  // check backs off and leaves it to the compiler's [[nodiscard]].
  auto findings = Lint({{"a/decl.h", kStatusDecls},
                        {"a/other.h", "#pragma once\nvoid Save(double x);\n"},
                        {"a/use.cc", "void F() {\n  Save(1);\n}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "discarded-status").empty());
}

TEST(DiscardedStatusTest, SuppressionWithReasonSilences) {
  auto findings = Lint(
      {{"a/decl.h", kStatusDecls},
       {"a/use.cc",
        "void F() {\n"
        "  // EFES_LINT_ALLOW(discarded-status): best-effort cleanup\n"
        "  Save(1);\n"
        "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "discarded-status").empty());
  ASSERT_EQ(findings.size(), 1u);  // still reported, as suppressed
  EXPECT_TRUE(findings[0].suppressed);
}

// -------------------------------------------------------- nondeterminism

TEST(NondeterminismTest, FlagsEntropyAndWallClock) {
  auto findings = Lint({{"src/efes/core/x.cc",
                         "void F() {\n"
                         "  int a = rand();\n"
                         "  srand(7);\n"
                         "  std::random_device rd;\n"
                         "  auto t = time(nullptr);\n"
                         "  auto n = std::chrono::system_clock::now();\n"
                         "}\n"}});
  EXPECT_EQ(FindingsOf(findings, "nondeterminism").size(), 5u);
}

TEST(NondeterminismTest, AllowlistedPathsAreClean) {
  const std::string body = "void F() {\n  std::random_device rd;\n}\n";
  EXPECT_TRUE(FindingsOf(Lint({{"src/efes/common/random.cc", body}}),
                         "nondeterminism")
                  .empty());
  EXPECT_TRUE(FindingsOf(Lint({{"src/efes/common/clock.cc", body}}),
                         "nondeterminism")
                  .empty());
}

TEST(NondeterminismTest, MemberNamedTimeIsClean) {
  auto findings =
      Lint({{"src/efes/core/x.cc", "void F(Span s) {\n  s.time(1);\n}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "nondeterminism").empty());
}

TEST(NondeterminismTest, SuppressionWithReasonSilences) {
  auto findings = Lint(
      {{"src/efes/core/x.cc",
        "void F() {\n"
        "  srand(7);  // EFES_LINT_ALLOW(nondeterminism): seeding a demo\n"
        "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "nondeterminism").empty());
}

// --------------------------------------------------- unordered-iteration

constexpr char kUnorderedLoop[] =
    "void Render() {\n"
    "  std::unordered_map<std::string, int> counts;\n"
    "  for (const auto& [key, value] : counts) {\n"
    "  }\n"
    "}\n";

TEST(UnorderedIterationTest, FlagsRangeForInReportPath) {
  auto findings = Lint({{"src/efes/telemetry/report.cc", kUnorderedLoop}});
  auto hits = FindingsOf(findings, "unordered-iteration");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 3);
}

TEST(UnorderedIterationTest, NonOutputPathsAreClean) {
  auto findings = Lint({{"src/efes/profiling/stats.cc", kUnorderedLoop}});
  EXPECT_TRUE(FindingsOf(findings, "unordered-iteration").empty());
}

TEST(UnorderedIterationTest, IteratingSortedCopyIsClean) {
  auto findings = Lint(
      {{"src/efes/telemetry/report.cc",
        "void Render() {\n"
        "  std::unordered_map<std::string, int> counts;\n"
        "  std::map<std::string, int> sorted(counts.begin(), counts.end());\n"
        "  for (const auto& [key, value] : sorted) {\n"
        "  }\n"
        "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "unordered-iteration").empty());
}

TEST(UnorderedIterationTest, SuppressionWithReasonSilences) {
  std::string body = kUnorderedLoop;
  body.insert(body.find("  for"),
              "  // EFES_LINT_ALLOW(unordered-iteration): keys re-sorted "
              "downstream\n");
  auto findings = Lint({{"src/efes/telemetry/report.cc", body}});
  EXPECT_TRUE(FindingsOf(findings, "unordered-iteration").empty());
}

// -------------------------------------------------------- raw-file-write

TEST(RawFileWriteTest, FlagsOfstreamFopenRename) {
  auto findings = Lint({{"src/efes/core/x.cc",
                         "void F() {\n"
                         "  std::ofstream out(\"f\");\n"
                         "  FILE* fp = fopen(\"f\", \"w\");\n"
                         "  std::filesystem::rename(\"a\", \"b\");\n"
                         "}\n"}});
  EXPECT_EQ(FindingsOf(findings, "raw-file-write").size(), 3u);
}

TEST(RawFileWriteTest, FileIoAndReadsAreClean) {
  EXPECT_TRUE(
      FindingsOf(Lint({{"src/efes/common/file_io.cc",
                        "void F() {\n  std::ofstream out(\"f\");\n}\n"}}),
                 "raw-file-write")
          .empty());
  EXPECT_TRUE(
      FindingsOf(Lint({{"src/efes/core/x.cc",
                        "void F() {\n  std::ifstream in(\"f\");\n}\n"}}),
                 "raw-file-write")
          .empty());
}

TEST(RawFileWriteTest, SuppressionWithReasonSilences) {
  auto findings = Lint(
      {{"src/efes/core/x.cc",
        "void F() {\n"
        "  // EFES_LINT_ALLOW(raw-file-write): corrupting a fixture file\n"
        "  std::ofstream out(\"f\");\n"
        "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "raw-file-write").empty());
}

// -------------------------------------------------------- header-hygiene

TEST(HeaderHygieneTest, FlagsMissingGuardAndUsingNamespace) {
  auto findings = Lint({{"src/efes/core/bad.h",
                         "using namespace std;\n"
                         "int F();\n"}});
  auto hits = FindingsOf(findings, "header-hygiene");
  EXPECT_EQ(hits.size(), 2u);
}

TEST(HeaderHygieneTest, GuardedHeadersAreClean) {
  EXPECT_TRUE(FindingsOf(Lint({{"a/p.h", "#pragma once\nint F();\n"}}),
                         "header-hygiene")
                  .empty());
  EXPECT_TRUE(FindingsOf(Lint({{"a/g.h",
                                "#ifndef A_G_H_\n#define A_G_H_\n"
                                "int F();\n#endif\n"}}),
                         "header-hygiene")
                  .empty());
}

TEST(HeaderHygieneTest, SourceFilesNeedNoGuard) {
  EXPECT_TRUE(
      FindingsOf(Lint({{"a/x.cc", "int F() { return 1; }\n"}}),
                 "header-hygiene")
          .empty());
}

TEST(HeaderHygieneTest, SuppressionWithReasonSilences) {
  auto findings = Lint(
      {{"a/bad.h",
        "// EFES_LINT_ALLOW(header-hygiene): generated shim, guard upstream\n"
        "int F();\n"}});
  EXPECT_TRUE(FindingsOf(findings, "header-hygiene").empty());
}

// ------------------------------------------------------- banned-function

TEST(BannedFunctionTest, FlagsCFootgunsAndNakedNewDelete) {
  auto findings = Lint({{"src/efes/core/x.cc",
                         "void F(char* d, const char* s, Thing* t) {\n"
                         "  strcpy(d, s);\n"
                         "  sprintf(d, \"%d\", 1);\n"
                         "  int n = atoi(s);\n"
                         "  Thing* u = new Thing();\n"
                         "  delete t;\n"
                         "}\n"}});
  EXPECT_EQ(FindingsOf(findings, "banned-function").size(), 5u);
}

TEST(BannedFunctionTest, FlagsRemovedMutableEffortModelAccessor) {
  auto findings = Lint({{"src/efes/core/x.cc",
                         "void F(EfesEngine& engine) {\n"
                         "  engine.mutable_effort_model().set_global_scale("
                         "2.0);\n"
                         "}\n"}});
  EXPECT_EQ(FindingsOf(findings, "banned-function").size(), 1u);
}

TEST(BannedFunctionTest, MentionInStringLiteralIsClean) {
  auto findings = Lint({{"src/efes/core/x.cc",
                         "const char* kHint =\n"
                         "    \"mutable_effort_model was replaced by "
                         "set_effort_model\";\n"}});
  EXPECT_TRUE(FindingsOf(findings, "banned-function").empty());
}

TEST(BannedFunctionTest, DeletedFunctionsAndOperatorsAreClean) {
  auto findings = Lint({{"src/efes/core/x.h",
                         "#pragma once\n"
                         "struct S {\n"
                         "  S(const S&) = delete;\n"
                         "  S& operator=(const S&) = delete;\n"
                         "};\n"}});
  EXPECT_TRUE(FindingsOf(findings, "banned-function").empty());
}

TEST(BannedFunctionTest, SuppressionWithReasonSilences) {
  auto findings = Lint(
      {{"src/efes/core/x.cc",
        "Thing* F() {\n"
        "  // EFES_LINT_ALLOW(banned-function): leaked singleton\n"
        "  return new Thing();\n"
        "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "banned-function").empty());
}

// -------------------------------------------------------- unbounded-wait

TEST(UnboundedWaitTest, FlagsSleepsAndPredicatelessWaits) {
  auto findings = Lint({{"src/efes/serve/x.cc",
                         "void F(std::condition_variable& cv,\n"
                         "       std::unique_lock<std::mutex>& lock,\n"
                         "       std::future<int>& f) {\n"
                         "  std::this_thread::sleep_for(\n"
                         "      std::chrono::milliseconds(10));\n"
                         "  cv.wait(lock);\n"
                         "  f.wait();\n"
                         "}\n"}});
  EXPECT_EQ(FindingsOf(findings, "unbounded-wait").size(), 3u);
}

TEST(UnboundedWaitTest, PredicateAndDeadlineOverloadsAreClean) {
  auto findings = Lint({{"src/efes/serve/x.cc",
                         "void F(std::condition_variable& cv,\n"
                         "       std::unique_lock<std::mutex>& lock) {\n"
                         "  cv.wait(lock, [&] { return done(); });\n"
                         "  cv.wait_for(lock, std::chrono::seconds(1));\n"
                         "  cv.wait_until(lock, deadline);\n"
                         "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "unbounded-wait").empty());
}

TEST(UnboundedWaitTest, CommonImplementationFilesAreAllowlisted) {
  auto findings = Lint({{"src/efes/common/file_io.cc",
                         "void F() {\n"
                         "  std::this_thread::sleep_for(\n"
                         "      std::chrono::milliseconds(10));\n"
                         "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "unbounded-wait").empty());
}

TEST(UnboundedWaitTest, SuppressionWithReasonSilences) {
  auto findings = Lint(
      {{"src/efes/serve/x.cc",
        "void F(std::future<int>& f) {\n"
        "  // EFES_LINT_ALLOW(unbounded-wait): result is already ready\n"
        "  f.wait();\n"
        "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "unbounded-wait").empty());
}

// ----------------------------------------------------------- metric-name

TEST(MetricNameTest, FlagsUndottedAndUppercaseNames) {
  auto findings = Lint(
      {{"src/efes/core/x.cc",
        "void F(MetricsRegistry& m, TraceRecorder* r) {\n"
        "  m.GetCounter(\"tuples\").Increment(1);\n"
        "  m.GetGauge(\"Core.Size\").Set(2.0);\n"
        "  m.GetHistogram(\"core..ms\").Observe(3.0);\n"
        "  TraceSpan span(\"run\", r);\n"
        "}\n"}});
  EXPECT_EQ(FindingsOf(findings, "metric-name").size(), 4u);
}

TEST(MetricNameTest, DottedLowercaseNamesAreClean) {
  auto findings = Lint(
      {{"src/efes/core/x.cc",
        "void F(MetricsRegistry& m, TraceRecorder* r) {\n"
        "  m.GetCounter(\"core.run.tuples\").Increment(1);\n"
        "  m.GetHistogram(\"values.assess.ms\").Observe(3.0);\n"
        "  TraceSpan span(\"execute.run\", r);\n"
        "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "metric-name").empty());
}

TEST(MetricNameTest, ConcatenatedOrComputedNamesAreSkipped) {
  // Only complete single-literal names are checkable; adjacent-literal
  // concatenation and runtime-built names are out of scope.
  auto findings = Lint(
      {{"src/efes/core/x.cc",
        "void F(MetricsRegistry& m, std::string n) {\n"
        "  m.GetCounter(\"core\" \".tuples\").Increment(1);\n"
        "  m.GetCounter(n).Increment(1);\n"
        "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "metric-name").empty());
}

TEST(MetricNameTest, SuppressionWithReasonSilences) {
  auto findings = Lint(
      {{"src/efes/core/x.cc",
        "void F(MetricsRegistry& m) {\n"
        "  // EFES_LINT_ALLOW(metric-name): exercises escape rendering\n"
        "  m.GetGauge(\"g\\\"quoted\\\"\").Set(0.5);\n"
        "}\n"}});
  EXPECT_TRUE(FindingsOf(findings, "metric-name").empty());
}

// ------------------------------------------------------- bad-suppression

TEST(BadSuppressionTest, MissingReasonIsAFinding) {
  auto findings = Lint(
      {{"src/efes/core/x.cc",
        "void F() {\n"
        "  srand(7);  // EFES_LINT_ALLOW(nondeterminism)\n"
        "}\n"}});
  // The reasonless suppression does not silence, and is itself flagged.
  EXPECT_EQ(FindingsOf(findings, "nondeterminism").size(), 1u);
  EXPECT_EQ(FindingsOf(findings, "bad-suppression").size(), 1u);
}

TEST(BadSuppressionTest, UnknownCheckIsAFinding) {
  auto findings = Lint(
      {{"src/efes/core/x.cc",
        "// EFES_LINT_ALLOW(made-up-check): whatever\nvoid F();\n"}});
  EXPECT_EQ(FindingsOf(findings, "bad-suppression").size(), 1u);
}

TEST(BadSuppressionTest, ProseMentionIsIgnored) {
  auto findings = Lint(
      {{"src/efes/core/x.cc",
        "// Write EFES_LINT_ALLOW(<check-id>): <reason> to suppress.\n"
        "void F();\n"}});
  EXPECT_TRUE(findings.empty());
}

// ------------------------------------------------------------- rendering

TEST(RenderTest, TextAndJsonCarryFindings) {
  auto findings = Lint({{"src/efes/core/x.cc", "void F() {\n  srand(7);\n}\n"}});
  ASSERT_EQ(findings.size(), 1u);
  std::string text = RenderText(findings);
  EXPECT_NE(text.find("src/efes/core/x.cc:2:"), std::string::npos);
  EXPECT_NE(text.find("[nondeterminism]"), std::string::npos);
  EXPECT_NE(text.find("1 unsuppressed"), std::string::npos);
  std::string json = RenderJson(findings);
  EXPECT_NE(json.find("\"check\":\"nondeterminism\""), std::string::npos);
  EXPECT_NE(json.find("\"unsuppressed\":1"), std::string::npos);
  EXPECT_EQ(CountUnsuppressed(findings), 1u);
}

TEST(RenderTest, CheckCatalogIsStable) {
  // What --list-checks prints: the 8 per-file ids, the 4 whole-program
  // ids, and bad-suppression exactly once.
  const std::vector<std::string> expected = {
      "discarded-status", "nondeterminism",  "unordered-iteration",
      "raw-file-write",   "header-hygiene",  "banned-function",
      "unbounded-wait",   "metric-name",     "lock-discipline",
      "cancellation",     "layering",        "registry",
      "bad-suppression"};
  EXPECT_EQ(AllCheckIds(), expected);
}

}  // namespace
}  // namespace efes::lint
