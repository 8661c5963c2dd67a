// Inputs shared by several test binaries: the random parent/child
// databases of the CSG property tests and the seed list of the
// checked-in fuzz corpus (data/fuzz_corpus.txt).

#ifndef EFES_TESTS_TEST_INPUTS_H_
#define EFES_TESTS_TEST_INPUTS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "efes/common/file_io.h"
#include "efes/common/random.h"
#include "efes/common/string_util.h"
#include "efes/relational/database.h"

namespace efes {

/// Builds a random two-relation database (parent with unique ids, child
/// with an optionally dangling FK and nullable payload).
inline Database RandomParentChildDatabase(Random& rng) {
  Schema schema("random");
  (void)schema.AddRelation(RelationDef(
      "parent", {{"id", DataType::kInteger}, {"name", DataType::kText}}));
  (void)schema.AddRelation(RelationDef(
      "child", {{"pid", DataType::kInteger}, {"note", DataType::kText}}));
  schema.AddConstraint(Constraint::PrimaryKey("parent", {"id"}));
  schema.AddConstraint(
      Constraint::ForeignKey("child", {"pid"}, "parent", {"id"}));
  auto db = Database::Create(std::move(schema));
  size_t parents = 3 + rng.UniformUint64(8);
  Table* parent = *db->mutable_table("parent");
  for (size_t i = 0; i < parents; ++i) {
    EXPECT_TRUE(parent
                    ->AppendRow({Value::Integer(static_cast<int64_t>(i)),
                                 Value::Text(rng.Word(3, 6))})
                    .ok());
  }
  Table* child = *db->mutable_table("child");
  size_t children = rng.UniformUint64(20);
  for (size_t i = 0; i < children; ++i) {
    // 15% dangling references, 20% null notes.
    int64_t pid = rng.Bernoulli(0.15)
                      ? static_cast<int64_t>(parents + 100)
                      : static_cast<int64_t>(rng.UniformUint64(parents));
    EXPECT_TRUE(child
                    ->AppendRow({Value::Integer(pid),
                                 rng.Bernoulli(0.2)
                                     ? Value::Null()
                                     : Value::Text(rng.Word(3, 6))})
                    .ok());
  }
  return std::move(*db);
}

/// The seeds listed in the corpus manifest at `path`: one decimal seed
/// per line, `#` starts a comment.
inline std::vector<uint64_t> LoadCorpusSeeds(const std::string& path) {
  auto text = ReadFileToString(path);
  EXPECT_TRUE(text.ok()) << text.status();
  std::vector<uint64_t> seeds;
  if (!text.ok()) return seeds;
  for (const std::string& raw_line : Split(*text, '\n')) {
    std::string_view line = Trim(raw_line);
    size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = Trim(line.substr(0, hash));
    if (line.empty()) continue;
    uint64_t seed = 0;
    for (char c : line) {
      EXPECT_TRUE(c >= '0' && c <= '9') << "bad corpus line: " << raw_line;
      seed = seed * 10 + static_cast<uint64_t>(c - '0');
    }
    seeds.push_back(seed);
  }
  return seeds;
}

}  // namespace efes

#endif  // EFES_TESTS_TEST_INPUTS_H_
