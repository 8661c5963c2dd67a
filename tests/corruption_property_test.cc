// Corruption property test: every text parser in the ingestion path must
// survive arbitrarily mangled input — truncated mid-token, bytes flipped,
// garbage spliced in — by returning a clean non-OK Status. No parser may
// crash, throw, or hang, whatever the bytes. That holds end to end too:
// a mangled table file of a scenario directory, loaded into typed columns
// by LoadScenario, is a clean error in strict mode and a degraded load in
// recover mode. The mutations are drawn from
// the repo's seeded PRNG, so a failure reproduces exactly from the seed
// logged by SCOPED_TRACE.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "efes/common/csv.h"
#include "efes/common/file_io.h"
#include "efes/common/random.h"
#include "efes/relational/schema_text.h"
#include "efes/scenario/paper_example.h"
#include "efes/scenario/scenario_io.h"
#include "test_paths.h"

namespace efes {
namespace {

constexpr char kValidCsv[] =
    "id,title,artist,notes\n"
    "1,\"Abbey Road\",\"The Beatles\",\"quoted, with comma\"\n"
    "2,Kind of Blue,Miles Davis,\n"
    "3,\"multi\nline\",\"doubled \"\"quotes\"\"\",plain\n";

constexpr char kValidCorrespondences[] =
    "# curated\n"
    "albums -> records\n"
    "albums.name -> records.title\n"
    "songs.length -> tracks.duration\n";

constexpr char kValidDdl[] =
    "CREATE TABLE records (\n"
    "  id INTEGER PRIMARY KEY,\n"
    "  title TEXT NOT NULL,\n"
    "  genre TEXT\n"
    ");\n"
    "CREATE TABLE tracks (\n"
    "  record INTEGER NOT NULL REFERENCES records(id),\n"
    "  title TEXT NOT NULL\n"
    ");\n";

/// Applies one seeded corruption to `text`: a truncation, a byte
/// mutation, an insertion of hostile bytes, or a combination. The result
/// intentionally includes NUL bytes, stray quotes, lone separators, and
/// cut-off tokens.
std::string Corrupt(std::string text, Random& rng) {
  const size_t edits = 1 + rng.UniformUint64(4);
  for (size_t e = 0; e < edits; ++e) {
    if (text.empty()) break;
    switch (rng.UniformUint64(4)) {
      case 0:  // truncate at an arbitrary byte
        text.resize(rng.UniformUint64(text.size() + 1));
        break;
      case 1: {  // flip one byte to an arbitrary value
        size_t at = rng.UniformUint64(text.size());
        text[at] = static_cast<char>(rng.UniformUint64(256));
        break;
      }
      case 2: {  // splice in a hostile fragment
        static const char* kFragments[] = {
            "\"",   ",,,,",      "\r",          "\n\"unterminated",
            "\t",   "->",        ".",           "CREATE TABLE",
            "(",    "REFERENCES", "\xff\xfe",   "--",
        };
        size_t at = rng.UniformUint64(text.size() + 1);
        text.insert(at, kFragments[rng.UniformUint64(
                            sizeof(kFragments) / sizeof(kFragments[0]))]);
        break;
      }
      default: {  // duplicate a random slice (repeated headers/rows)
        size_t from = rng.UniformUint64(text.size());
        size_t len = rng.UniformUint64(text.size() - from + 1);
        text.insert(rng.UniformUint64(text.size() + 1),
                    text.substr(from, len));
        break;
      }
    }
  }
  return text;
}

/// A parse outcome is acceptable when it is OK or a non-OK status with a
/// message — anything else (a throw reaching here fails the test via
/// gtest's unhandled-exception handling).
template <typename ResultType>
void ExpectCleanOutcome(const ResultType& result) {
  if (!result.ok()) {
    EXPECT_FALSE(result.status().message().empty());
  }
}

TEST(CorruptionPropertyTest, ParseCsvSurvivesMangledBytes) {
  Random rng(20260805);
  for (int iteration = 0; iteration < 400; ++iteration) {
    SCOPED_TRACE("iteration " + std::to_string(iteration));
    std::string corrupted = Corrupt(kValidCsv, rng);
    ExpectCleanOutcome(ParseCsv(corrupted));

    // Recover mode must also never throw, and any repairs it makes are
    // described as issues.
    CsvReadOptions options;
    options.mode = CsvReadOptions::Mode::kRecover;
    std::vector<DataIssue> issues;
    auto recovered = ParseCsv(corrupted, options, &issues);
    ExpectCleanOutcome(recovered);
    for (const DataIssue& issue : issues) {
      EXPECT_FALSE(issue.message.empty());
    }
  }
}

TEST(CorruptionPropertyTest, ParseCorrespondencesSurvivesMangledBytes) {
  Random rng(7041776);
  for (int iteration = 0; iteration < 400; ++iteration) {
    SCOPED_TRACE("iteration " + std::to_string(iteration));
    std::string corrupted = Corrupt(kValidCorrespondences, rng);
    ExpectCleanOutcome(ParseCorrespondences(corrupted));

    LoadOptions lenient;
    lenient.mode = LoadOptions::Mode::kRecover;
    std::vector<DataIssue> issues;
    ExpectCleanOutcome(ParseCorrespondences(corrupted, lenient, &issues));
  }
}

TEST(CorruptionPropertyTest, ParseSchemaTextSurvivesMangledBytes) {
  Random rng(1812);
  for (int iteration = 0; iteration < 400; ++iteration) {
    SCOPED_TRACE("iteration " + std::to_string(iteration));
    ExpectCleanOutcome(ParseSchemaText(Corrupt(kValidDdl, rng), "target"));
  }
}

TEST(CorruptionPropertyTest, LoadScenarioSurvivesMangledTableFiles) {
  const std::string directory = TestScratchPath("efes_corrupt_scenario");
  std::filesystem::remove_all(directory);
  PaperExampleOptions example;
  example.album_count = 12;
  example.song_count = 20;
  auto scenario = MakePaperExample(example);
  ASSERT_TRUE(scenario.ok());
  ASSERT_TRUE(SaveScenario(*scenario, directory).ok());
  // Every table file, with its clean bytes.
  std::vector<std::pair<std::string, std::string>> tables;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(directory)) {
    if (entry.path().extension() != ".csv") continue;
    auto bytes = ReadFileToString(entry.path().string());
    ASSERT_TRUE(bytes.ok());
    tables.emplace_back(entry.path().string(), *bytes);
  }
  std::sort(tables.begin(), tables.end());
  ASSERT_FALSE(tables.empty());

  LoadOptions recover;
  recover.mode = LoadOptions::Mode::kRecover;
  Random rng(20150324);
  for (int iteration = 0; iteration < 150; ++iteration) {
    const auto& [path, clean] = tables[rng.UniformUint64(tables.size())];
    const std::string corrupted = Corrupt(clean, rng);
    SCOPED_TRACE("iteration " + std::to_string(iteration) + " " + path);
    ASSERT_TRUE(WriteFileAtomic(path, corrupted).ok());

    auto strict = LoadScenario(directory);
    ExpectCleanOutcome(strict);
    // Recover mode keeps every source whose schema loads: damaged data
    // becomes issues, never a failed load.
    ScenarioLoadReport report;
    auto lenient = LoadScenario(directory, recover, &report);
    ASSERT_TRUE(lenient.ok()) << lenient.status().ToString();
    EXPECT_EQ(lenient->sources.size(), scenario->sources.size());
    if (!strict.ok()) {
      EXPECT_TRUE(report.degraded);
    }
    for (const DataIssue& issue : report.issues) {
      EXPECT_FALSE(issue.message.empty());
    }
    ASSERT_TRUE(WriteFileAtomic(path, clean).ok());
  }
  std::filesystem::remove_all(directory);
}

TEST(CorruptionPropertyTest, PureGarbageNeverCrashesAnyParser) {
  Random rng(424242);
  for (int iteration = 0; iteration < 200; ++iteration) {
    SCOPED_TRACE("iteration " + std::to_string(iteration));
    std::string garbage(rng.UniformUint64(512), '\0');
    for (char& byte : garbage) {
      byte = static_cast<char>(rng.UniformUint64(256));
    }
    ExpectCleanOutcome(ParseCsv(garbage));
    ExpectCleanOutcome(ParseCorrespondences(garbage));
    ExpectCleanOutcome(ParseSchemaText(garbage, "garbage"));
  }
}

}  // namespace
}  // namespace efes
