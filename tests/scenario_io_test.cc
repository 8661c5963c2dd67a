// Tests for scenario directory persistence.

#include "efes/scenario/scenario_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "efes/common/file_io.h"
#include "efes/experiment/default_pipeline.h"
#include "efes/scenario/paper_example.h"

#include "test_paths.h"

namespace efes {
namespace {

TEST(CorrespondenceLineTest, ParsesBothGranularities) {
  auto relation = ParseCorrespondenceLine("albums -> records");
  ASSERT_TRUE(relation.ok());
  EXPECT_TRUE(relation->is_relation_level());
  EXPECT_EQ(relation->source_relation, "albums");
  EXPECT_EQ(relation->target_relation, "records");

  auto attribute = ParseCorrespondenceLine("albums.name -> records.title");
  ASSERT_TRUE(attribute.ok());
  EXPECT_TRUE(attribute->is_attribute_level());
  EXPECT_EQ(attribute->source_attribute, "name");
  EXPECT_EQ(attribute->target_attribute, "title");
}

TEST(CorrespondenceLineTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseCorrespondenceLine("no arrow here").ok());
  EXPECT_FALSE(ParseCorrespondenceLine(" -> records").ok());
  EXPECT_FALSE(ParseCorrespondenceLine("albums -> ").ok());
  EXPECT_FALSE(ParseCorrespondenceLine("albums.name -> records").ok());
}

TEST(CorrespondenceLineTest, ToleratesWhitespaceEverywhere) {
  auto packed = ParseCorrespondenceLine("albums.name->records.title");
  ASSERT_TRUE(packed.ok());
  EXPECT_EQ(packed->source_attribute, "name");

  auto spread =
      ParseCorrespondenceLine("  albums .  name  ->  records . title  ");
  ASSERT_TRUE(spread.ok()) << spread.status().ToString();
  EXPECT_EQ(spread->source_relation, "albums");
  EXPECT_EQ(spread->source_attribute, "name");
  EXPECT_EQ(spread->target_relation, "records");
  EXPECT_EQ(spread->target_attribute, "title");

  auto relation = ParseCorrespondenceLine("\talbums\t->\trecords\t");
  ASSERT_TRUE(relation.ok());
  EXPECT_TRUE(relation->is_relation_level());
}

TEST(CorrespondenceLineTest, RejectsEmptyNames) {
  auto no_relation = ParseCorrespondenceLine(".name -> records.title");
  ASSERT_FALSE(no_relation.ok());
  EXPECT_NE(no_relation.status().message().find("empty relation name"),
            std::string::npos);

  auto no_attribute = ParseCorrespondenceLine("albums. -> records.title");
  ASSERT_FALSE(no_attribute.ok());
  EXPECT_NE(no_attribute.status().message().find("empty attribute name"),
            std::string::npos);

  EXPECT_FALSE(ParseCorrespondenceLine("albums.name -> .title").ok());
  EXPECT_FALSE(ParseCorrespondenceLine("albums.name -> records.").ok());
  EXPECT_FALSE(ParseCorrespondenceLine(" . -> . ").ok());
}

TEST(CorrespondencesDocTest, RoundTrip) {
  CorrespondenceSet set;
  set.AddRelation("albums", "records");
  set.AddAttribute("albums", "name", "records", "title");
  set.AddAttribute("songs", "length", "tracks", "duration");
  auto reparsed = ParseCorrespondences(WriteCorrespondences(set));
  ASSERT_TRUE(reparsed.ok());
  ASSERT_EQ(reparsed->size(), 3u);
  EXPECT_EQ(reparsed->all()[0].ToString(), "albums -> records");
  EXPECT_EQ(reparsed->all()[2].ToString(),
            "songs.length -> tracks.duration");
}

TEST(CorrespondencesDocTest, CommentsAndBlanksIgnored) {
  auto set = ParseCorrespondences(R"(
# curated by hand
albums -> records

albums.name -> records.title   # the title feed
)");
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->size(), 2u);
}

class ScenarioIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    directory_ = TestScratchPath("efes_scenario_io_test");
    std::filesystem::remove_all(directory_);
  }
  void TearDown() override { std::filesystem::remove_all(directory_); }

  std::string directory_;
};

TEST_F(ScenarioIoTest, SaveLoadRoundTripPreservesEverything) {
  PaperExampleOptions options;
  options.album_count = 120;
  options.multi_artist_albums = 30;
  options.orphan_artists = 10;
  options.song_count = 150;
  auto original = MakePaperExample(options);
  ASSERT_TRUE(original.ok());

  ASSERT_TRUE(SaveScenario(*original, directory_).ok());
  auto loaded = LoadScenario(directory_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Schemas.
  EXPECT_EQ(loaded->target.schema().relations().size(),
            original->target.schema().relations().size());
  EXPECT_EQ(loaded->target.schema().constraints().size(),
            original->target.schema().constraints().size());
  ASSERT_EQ(loaded->sources.size(), 1u);
  EXPECT_EQ(loaded->sources[0].correspondences.size(),
            original->sources[0].correspondences.size());

  // Data, cell by cell for one table.
  const Table* original_albums = *original->sources[0].database.table(
      "albums");
  const Table* loaded_albums = *loaded->sources[0].database.table("albums");
  ASSERT_EQ(loaded_albums->row_count(), original_albums->row_count());
  for (size_t r = 0; r < original_albums->row_count(); ++r) {
    for (size_t c = 0; c < original_albums->column_count(); ++c) {
      EXPECT_EQ(loaded_albums->at(r, c), original_albums->at(r, c));
    }
  }
}

TEST_F(ScenarioIoTest, LoadedScenarioEstimatesIdentically) {
  PaperExampleOptions options;
  options.album_count = 150;
  options.multi_artist_albums = 40;
  options.orphan_artists = 12;
  options.song_count = 200;
  auto original = MakePaperExample(options);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(SaveScenario(*original, directory_).ok());
  auto loaded = LoadScenario(directory_);
  ASSERT_TRUE(loaded.ok());

  EfesEngine engine = MakeDefaultEngine();
  auto original_estimate =
      engine.Run(*original);
  auto loaded_estimate =
      engine.Run(*loaded);
  ASSERT_TRUE(original_estimate.ok());
  ASSERT_TRUE(loaded_estimate.ok());
  EXPECT_DOUBLE_EQ(loaded_estimate->estimate.TotalMinutes(),
                   original_estimate->estimate.TotalMinutes());
}

TEST_F(ScenarioIoTest, LoadMissingDirectoryFails) {
  auto loaded = LoadScenario(directory_ + "/does_not_exist");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

/// Lenient loads of damaged scenario directories: strict keeps the
/// historical fail-fast contract, recover salvages what it can and
/// reports the rest as DataIssues.
class LenientLoadTest : public ScenarioIoTest {
 protected:
  void SetUp() override {
    ScenarioIoTest::SetUp();
    PaperExampleOptions options;
    options.album_count = 30;
    options.song_count = 40;
    auto scenario = MakePaperExample(options);
    ASSERT_TRUE(scenario.ok());
    ASSERT_TRUE(SaveScenario(*scenario, directory_).ok());
    // The scenario has exactly one source; find its directory.
    for (const auto& entry : std::filesystem::directory_iterator(
             directory_ + "/sources")) {
      source_dir_ = entry.path().string();
    }
    ASSERT_FALSE(source_dir_.empty());
  }

  static void Append(const std::string& path, const std::string& text) {
    // EFES_LINT_ALLOW(raw-file-write): deliberately corrupts a file in place to exercise recovery
    std::ofstream out(path, std::ios::app);
    out << text;
  }

  static LoadOptions Recover() {
    LoadOptions options;
    options.mode = LoadOptions::Mode::kRecover;
    return options;
  }

  /// Replaces the source's albums table (id INTEGER, name TEXT,
  /// artist_list INTEGER) with `body` under the given header line.
  std::string WriteAlbums(const std::string& header, const std::string& body) {
    const std::string path = source_dir_ + "/data/albums.csv";
    EXPECT_TRUE(WriteFileAtomic(path, header + "\n" + body).ok());
    return path;
  }

  static std::vector<std::string> Rendered(
      const std::vector<DataIssue>& issues) {
    std::vector<std::string> rendered;
    for (const DataIssue& issue : issues) rendered.push_back(issue.ToString());
    return rendered;
  }

  static size_t AlbumRows(const IntegrationScenario& scenario) {
    return (*scenario.sources[0].database.table("albums"))->row_count();
  }

  std::string source_dir_;
};

TEST_F(LenientLoadTest, RecoversFromCorruptCorrespondences) {
  Append(source_dir_ + "/correspondences.txt",
         "no arrow here\nghost_rel -> no_such_target\n");

  // Strict: the unparseable line aborts the load.
  EXPECT_FALSE(LoadScenario(directory_).ok());

  ScenarioLoadReport report;
  auto loaded = LoadScenario(directory_, Recover(), &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(report.degraded);
  ASSERT_GE(report.issues.size(), 2u);
  EXPECT_EQ(loaded->sources.size(), 1u);
  // The salvaged scenario still validates and estimates.
  EXPECT_TRUE(loaded->Validate().ok());
  bool saw_skipped = false;
  bool saw_dropped = false;
  for (const DataIssue& issue : report.issues) {
    if (issue.message.find("line skipped") != std::string::npos) {
      saw_skipped = true;
    }
    if (issue.message.find("correspondence dropped") != std::string::npos) {
      saw_dropped = true;
    }
  }
  EXPECT_TRUE(saw_skipped);
  EXPECT_TRUE(saw_dropped);
}

TEST_F(LenientLoadTest, SkipsSourceWithBrokenSchema) {
  ASSERT_TRUE(
      WriteFileAtomic(source_dir_ + "/schema.sql", "NOT DDL AT ALL(((")
          .ok());

  EXPECT_FALSE(LoadScenario(directory_).ok());

  ScenarioLoadReport report;
  auto loaded = LoadScenario(directory_, Recover(), &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(report.degraded);
  EXPECT_TRUE(loaded->sources.empty());
  bool saw_source_skipped = false;
  for (const DataIssue& issue : report.issues) {
    if (issue.message.find("source skipped") != std::string::npos) {
      saw_source_skipped = true;
    }
  }
  EXPECT_TRUE(saw_source_skipped);
}

TEST_F(LenientLoadTest, RepairsMalformedTableCsv) {
  // A trailing short row: strict rejects the arity mismatch, recover
  // pads it and reports what happened.
  Append(source_dir_ + "/data/albums.csv", "zz\n");

  EXPECT_FALSE(LoadScenario(directory_).ok());

  ScenarioLoadReport report;
  auto loaded = LoadScenario(directory_, Recover(), &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(report.degraded);
  EXPECT_FALSE(report.issues.empty());
}

TEST_F(LenientLoadTest, RepairBeforeCastErrorKeepsEarlierRows) {
  const std::string albums = WriteAlbums("id,name,artist_list",
                                         "1,First,1\n"
                                         "2,Short\n"
                                         "3,Third,1\n"
                                         "x,Bad,1\n"
                                         "5,After,1\n");

  auto strict = LoadScenario(directory_);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().ToString(),
            "parse error: CSV row 2 has 2 cells, expected 3 (" + albums + ")");

  ScenarioLoadReport report;
  auto loaded = LoadScenario(directory_, Recover(), &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(Rendered(report.issues),
            (std::vector<std::string>{
                "csv (row 2): short row padded from 2 to 3 cells",
                "data (" + albums +
                    "): table partially loaded: type mismatch: cannot cast "
                    "x (text) to integer"}));
  EXPECT_EQ(AlbumRows(*loaded), 3u);
}

TEST_F(LenientLoadTest, RowLimitAfterCastErrorSkipsTable) {
  // Every other table of the fixture stays under the limit, so only the
  // albums file trips it.
  auto clean = LoadScenario(directory_);
  ASSERT_TRUE(clean.ok());
  for (const Table& table : clean->sources[0].database.tables()) {
    ASSERT_LT(table.row_count(), 600u) << table.name();
  }
  for (const Table& table : clean->target.tables()) {
    ASSERT_LT(table.row_count(), 600u) << table.name();
  }
  std::string body = "1,A,1\n2,B,1\nx,Bad,1\n";
  for (int id = 4; id <= 1000; ++id) {
    body += std::to_string(id) + ",N,1\n";
  }
  const std::string albums = WriteAlbums("id,name,artist_list", body);

  LoadOptions options = Recover();
  options.max_rows = 800;
  ScenarioLoadReport report;
  auto loaded = LoadScenario(directory_, options, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(Rendered(report.issues),
            (std::vector<std::string>{
                "data (" + albums +
                "): table skipped: resource exhausted: CSV input exceeds the "
                "row limit of 800 (" +
                albums + ")"}));
  EXPECT_EQ(AlbumRows(*loaded), 0u);
}

TEST_F(LenientLoadTest, ShapeErrorWinsOverHeaderMismatch) {
  const std::string albums =
      WriteAlbums("id,title,artist_list", "1,A,1\n2,B\n3,C,1\n");

  auto strict = LoadScenario(directory_);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().ToString(),
            "parse error: CSV row 2 has 2 cells, expected 3 (" + albums + ")");

  ScenarioLoadReport report;
  auto loaded = LoadScenario(directory_, Recover(), &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(Rendered(report.issues),
            (std::vector<std::string>{
                "csv (row 2): short row padded from 2 to 3 cells",
                "data (" + albums +
                    "): table partially loaded: invalid argument: CSV header "
                    "column 'title' does not match attribute 'name'"}));
  EXPECT_EQ(AlbumRows(*loaded), 0u);
}

TEST_F(LenientLoadTest, MultiChunkFileReportsErrorsInStreamOrder) {
  // A file larger than one chunk (and one read block): the short row in
  // the first chunk is seen before the unterminated quote, which only
  // shows at end of file.
  std::string body = "1,A,1\n2,Short\n";
  const int last_id = static_cast<int>(2 * kLoadChunkRows);
  for (int id = 3; id < last_id; ++id) {
    body += std::to_string(id) + ",Album number " + std::to_string(id) +
            ",1\n";
  }
  body += std::to_string(last_id) + ",Last,\"1";
  ASSERT_GT(body.size(), size_t{1} << 16);
  const std::string albums = WriteAlbums("id,name,artist_list", body);

  auto strict = LoadScenario(directory_);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().ToString(),
            "parse error: CSV row 2 has 2 cells, expected 3 (" + albums + ")");

  ScenarioLoadReport report;
  auto loaded = LoadScenario(directory_, Recover(), &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(Rendered(report.issues),
            (std::vector<std::string>{
                "csv (row 2): short row padded from 2 to 3 cells",
                "csv (end of input): unterminated quoted field closed at end "
                "of input"}));
  EXPECT_EQ(AlbumRows(*loaded), 2 * kLoadChunkRows);
}

TEST_F(LenientLoadTest, CleanDirectoryIsNotDegraded) {
  ScenarioLoadReport report;
  auto loaded = LoadScenario(directory_, Recover(), &report);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(report.degraded);
  EXPECT_TRUE(report.issues.empty());

  // Recover mode on a clean directory loads the same scenario as strict.
  auto strict = LoadScenario(directory_);
  ASSERT_TRUE(strict.ok());
  EXPECT_EQ(loaded->sources.size(), strict->sources.size());
  EXPECT_EQ(loaded->sources[0].correspondences.size(),
            strict->sources[0].correspondences.size());
  EXPECT_EQ(loaded->sources[0].database.TotalRowCount(),
            strict->sources[0].database.TotalRowCount());
}

TEST_F(ScenarioIoTest, RoundTripLoadsTablesLargerThanOneChunk) {
  Schema target_schema("t");
  (void)target_schema.AddRelation(
      RelationDef("t", {{"a", DataType::kText}}));
  Schema source_schema("s");
  (void)source_schema.AddRelation(
      RelationDef("s", {{"id", DataType::kInteger},
                        {"name", DataType::kText},
                        {"score", DataType::kReal}}));
  auto source = Database::Create(std::move(source_schema));
  ASSERT_TRUE(source.ok());
  Table* table = *source->mutable_table("s");
  const size_t rows = 2 * kLoadChunkRows + 7;
  for (size_t r = 0; r < rows; ++r) {
    const int64_t id = static_cast<int64_t>(r);
    ASSERT_TRUE(table
                    ->AppendRow({Value::Integer(id),
                                 r % 5 == 0 ? Value::Null()
                                            : Value::Text("n, \"" +
                                                          std::to_string(r) +
                                                          "\"\nline"),
                                 Value::Real(static_cast<double>(r) / 4)})
                    .ok());
  }
  IntegrationScenario scenario(
      "big", std::move(*Database::Create(std::move(target_schema))));
  CorrespondenceSet correspondences;
  correspondences.AddRelation("s", "t");
  scenario.AddSource(std::move(*source), std::move(correspondences));
  ASSERT_TRUE(SaveScenario(scenario, directory_).ok());

  auto loaded = LoadScenario(directory_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Table* original = *scenario.sources[0].database.table("s");
  const Table* reloaded = *loaded->sources[0].database.table("s");
  ASSERT_EQ(reloaded->row_count(), rows);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < original->column_count(); ++c) {
      ASSERT_EQ(reloaded->at(r, c), original->at(r, c)) << r << "," << c;
      ASSERT_EQ(reloaded->at(r, c).type(), original->at(r, c).type());
    }
  }
}

TEST_F(ScenarioIoTest, EmptyTablesNeedNoCsvFiles) {
  // A scenario whose source tables are empty saves without data files and
  // loads back.
  Schema target_schema("t");
  (void)target_schema.AddRelation(
      RelationDef("t", {{"a", DataType::kText}}));
  Schema source_schema("s");
  (void)source_schema.AddRelation(
      RelationDef("s", {{"a", DataType::kText}}));
  IntegrationScenario scenario(
      "empty", std::move(*Database::Create(std::move(target_schema))));
  scenario.AddSource(std::move(*Database::Create(std::move(source_schema))),
                     CorrespondenceSet());
  ASSERT_TRUE(SaveScenario(scenario, directory_).ok());
  auto loaded = LoadScenario(directory_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->sources[0].database.TotalRowCount(), 0u);
}

}  // namespace
}  // namespace efes
