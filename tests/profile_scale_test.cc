// Tier-1 port of the `--profile-scale` gate (tools/check_build.sh): a
// generated CSV with a high-distinct uid column is profiled in-process
// through ProfileCsvFile, the function behind `efes profile`, under a
// --max-memory budget the exact profile cannot meet. The sketch report
// must be byte-identical across thread counts and chunk sizes, auto mode
// must degrade to the same bytes, and exact mode must refuse the budget.
// The full-size (200k-row) gate stays in the script.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include <unistd.h>

#include "efes/common/file_io.h"
#include "efes/common/parallel.h"
#include "efes/common/random.h"
#include "efes/profiling/profiler.h"

namespace efes {
namespace {

constexpr size_t kRows = 20000;
constexpr size_t kBudget = 65536;

/// Writes a CSV whose uid column has one distinct value per row, next to
/// typed, low-cardinality, sparse and mixed columns.
std::string WriteScaleCsv() {
  // One file per process: ctest runs the tests of this suite in parallel.
  const std::string path = ::testing::TempDir() + "profile_scale_test_" +
                           std::to_string(::getpid()) + ".csv";
  std::ostringstream out;
  out << "uid,name,year,price,category,qty,note,mixed\n";
  Random rng(20260);
  const char* const kCategories[] = {"rock", "jazz", "folk", "pop", "blues"};
  for (size_t row = 0; row < kRows; ++row) {
    out << 'u' << row << '_' << rng.UniformUint64(97) << ','
        << rng.Word(3, 9) << ',' << 1950 + rng.UniformUint64(70) << ','
        << rng.UniformUint64(100000) / 100.0 << ','
        << kCategories[rng.UniformUint64(5)] << ',';
    if (!rng.Bernoulli(0.1)) out << rng.UniformUint64(40);
    out << ',';
    if (rng.Bernoulli(0.05)) out << "\"note, " << row % 13 << '"';
    out << ',';
    out << (rng.Bernoulli(0.5) ? std::to_string(rng.UniformUint64(500))
                               : " x" + std::to_string(row % 31))
        << '\n';
  }
  EXPECT_TRUE(WriteFileAtomic(path, out.str()).ok());
  return path;
}

/// The report `efes profile` prints for `profile`.
std::string Render(const std::string& path, const CsvProfile& profile) {
  std::string text = "# " + path + ": " + std::to_string(profile.row_count) +
                     " rows, " + std::to_string(profile.header.size()) +
                     " columns\n";
  for (size_t c = 0; c < profile.header.size(); ++c) {
    text += "=== column " + profile.header[c] + " (" +
            std::string(DataTypeToString(profile.types[c])) +
            (profile.modes[c] == ApproximationMode::kSketch ? ", sketch"
                                                            : "") +
            ") ===\n" + profile.statistics[c].ToString() + "\n";
  }
  return text;
}

Result<std::string> Profile(const std::string& path, ApproximationMode mode,
                            size_t chunk_rows, size_t threads) {
  ProfileOptions options;
  options.chunk_rows = chunk_rows;
  options.max_memory_bytes = kBudget;
  options.mode = mode;
  SetThreadCountOverride(threads);
  Result<CsvProfile> profile =
      ProfileCsvFile(path, CsvReadOptions{}, options);
  SetThreadCountOverride(0);
  if (!profile.ok()) return profile.status();
  return Render(path, *profile);
}

class ProfileScaleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { path_ = WriteScaleCsv(); }
  static void TearDownTestSuite() { std::remove(path_.c_str()); }
  static inline std::string path_;
};

TEST_F(ProfileScaleTest, SketchReportIsIdenticalAcrossThreadsAndChunking) {
  Result<std::string> reference =
      Profile(path_, ApproximationMode::kSketch, 4096, 1);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_NE(reference->find(": 20000 rows, 8 columns"), std::string::npos);
  EXPECT_NE(reference->find("=== column uid (text, sketch) ==="),
            std::string::npos)
      << "the budget did not force the uid column to sample";
  EXPECT_NE(reference->find("=== column year (integer) ==="),
            std::string::npos);
  EXPECT_NE(reference->find("=== column price (real"), std::string::npos);
  EXPECT_NE(reference->find("=== column mixed (text"), std::string::npos);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (size_t chunk_rows : {size_t{4096}, size_t{0}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " chunk_rows=" + std::to_string(chunk_rows));
      Result<std::string> report =
          Profile(path_, ApproximationMode::kSketch, chunk_rows, threads);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_EQ(*report, *reference);
    }
  }
}

TEST_F(ProfileScaleTest, AutoDegradesToTheSketchReport) {
  Result<std::string> sketch =
      Profile(path_, ApproximationMode::kSketch, 4096, 1);
  Result<std::string> automatic =
      Profile(path_, ApproximationMode::kAuto, 4096, 4);
  ASSERT_TRUE(sketch.ok()) << sketch.status().ToString();
  ASSERT_TRUE(automatic.ok()) << automatic.status().ToString();
  EXPECT_EQ(*automatic, *sketch);
}

TEST_F(ProfileScaleTest, ExactRefusesABudgetItCannotMeet) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    Result<std::string> exact =
        Profile(path_, ApproximationMode::kExact, 4096, threads);
    ASSERT_FALSE(exact.ok());
    EXPECT_EQ(exact.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(exact.status().message().find("approx=sketch"),
              std::string::npos)
        << exact.status().ToString();
  }
}

TEST_F(ProfileScaleTest, UnbudgetedExactProfileCountsEveryUid) {
  ProfileOptions options;
  options.chunk_rows = 4096;
  Result<CsvProfile> profile =
      ProfileCsvFile(path_, CsvReadOptions{}, options);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  ASSERT_EQ(profile->header.size(), 8u);
  EXPECT_EQ(profile->row_count, kRows);
  EXPECT_EQ(profile->statistics[0].constancy.distinct_count, kRows);
  EXPECT_EQ(profile->modes[0], ApproximationMode::kExact);
  EXPECT_EQ(profile->types[2], DataType::kInteger);
  EXPECT_EQ(profile->types[3], DataType::kReal);
  EXPECT_EQ(profile->types[5], DataType::kInteger);
  EXPECT_GT(profile->statistics[5].fill_status.null_count, 0u);
  EXPECT_EQ(profile->types[7], DataType::kText);
}

// `efes profile --lenient` repairs what `efes estimate --lenient` does,
// and says so: the issues come from the first pass only, so a repair is
// listed once although both passes read the row.
TEST(ProfileCsvLenientTest, RecoverModeListsEachRepairOnce) {
  const std::string stem = ::testing::TempDir() + "profile_lenient_test_" +
                           std::to_string(::getpid());
  const std::string malformed = stem + "_short.csv";
  const std::string padded = stem + "_padded.csv";
  ASSERT_TRUE(WriteFileAtomic(malformed, "a,b\n1,2\n3\n").ok());
  ASSERT_TRUE(WriteFileAtomic(padded, "a,b\n1,2\n3,\n").ok());
  CsvReadOptions recover;
  recover.mode = CsvReadOptions::Mode::kRecover;
  ProfileOptions options;
  options.chunk_rows = 1;  // the short row sits in a chunk of its own

  Result<CsvProfile> repaired = ProfileCsvFile(malformed, recover, options);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  ASSERT_EQ(repaired->issues.size(), 1u);
  EXPECT_NE(repaired->issues[0].message.find("short row padded"),
            std::string::npos)
      << repaired->issues[0].ToString();

  // The profile itself is the one of the padded file, byte for byte.
  Result<CsvProfile> reference =
      ProfileCsvFile(padded, CsvReadOptions{}, options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_TRUE(reference->issues.empty());
  EXPECT_EQ(Render("in.csv", *repaired), Render("in.csv", *reference));

  // Strict mode still refuses the short row.
  EXPECT_FALSE(ProfileCsvFile(malformed, CsvReadOptions{}, options).ok());
  std::remove(malformed.c_str());
  std::remove(padded.c_str());
}

}  // namespace
}  // namespace efes
