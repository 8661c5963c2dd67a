// Differential test of the dictionary-encoded CSG instance against a
// naive oracle that works straight from the Table columns with
// std::set<Value>: per-node element counts, per-relationship link counts,
// the out-degree of every element of every directed relationship, and the
// path degrees (and reachable values) of every FindBestPath result between
// correspondence-mapped nodes. Inputs: every seed of the checked-in fuzz
// corpus, the random parent/child databases of the CSG property tests,
// random low-cardinality databases (where paths need deduplication) and
// the paper example at 2000 albums.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "efes/csg/builder.h"
#include "efes/csg/path_search.h"
#include "efes/scenario/fuzzer.h"
#include "efes/scenario/paper_example.h"
#include "test_inputs.h"

#ifndef EFES_SOURCE_DIR
#error "csg_oracle_test requires EFES_SOURCE_DIR (see tests/CMakeLists.txt)"
#endif

namespace efes {
namespace {

/// The oracle's instance: element sets per node (table elements are
/// Value::Integer(row)) and, per directed relationship, the linked
/// elements of each from-element.
struct Oracle {
  std::vector<std::set<Value>> elements;
  std::vector<std::map<Value, std::vector<Value>>> links;

  size_t LinkCount(RelationshipId rel) const {
    size_t count = 0;
    for (const auto& [element, targets] : links[rel]) count += targets.size();
    return count;
  }

  size_t Degree(RelationshipId rel, const Value& element) const {
    auto it = links[rel].find(element);
    return it == links[rel].end() ? 0 : it->second.size();
  }

  std::set<Value> Reachable(const std::vector<RelationshipId>& path,
                            const Value& start) const {
    std::set<Value> frontier = {start};
    for (RelationshipId rel : path) {
      std::set<Value> next;
      for (const Value& element : frontier) {
        auto it = links[rel].find(element);
        if (it != links[rel].end()) {
          next.insert(it->second.begin(), it->second.end());
        }
      }
      frontier = std::move(next);
    }
    return frontier;
  }
};

/// The relationship of `kind` leaving `from` towards `to`.
RelationshipId FindRelationship(const CsgGraph& graph, NodeId from,
                                NodeId to, CsgEdgeKind kind) {
  for (RelationshipId rel : graph.OutgoingOf(from)) {
    if (graph.relationship(rel).to == to &&
        graph.relationship(rel).kind == kind) {
      return rel;
    }
  }
  ADD_FAILURE() << "no relationship " << from << " -> " << to;
  return 0;
}

Oracle BuildOracle(const Database& database, const CsgGraph& graph) {
  Oracle oracle;
  oracle.elements.resize(graph.nodes().size());
  oracle.links.resize(graph.relationships().size());
  for (const Table& table : database.tables()) {
    NodeId table_node = *graph.FindTableNode(table.name());
    for (size_t r = 0; r < table.row_count(); ++r) {
      oracle.elements[table_node].insert(
          Value::Integer(static_cast<int64_t>(r)));
    }
    for (size_t c = 0; c < table.column_count(); ++c) {
      NodeId attribute = *graph.FindAttributeNode(
          table.name(), table.def().attributes()[c].name);
      RelationshipId forward = FindRelationship(graph, table_node, attribute,
                                                CsgEdgeKind::kAttribute);
      RelationshipId inverse = graph.relationship(forward).inverse;
      for (size_t r = 0; r < table.row_count(); ++r) {
        const Value& cell = table.at(r, c);
        if (cell.is_null()) continue;
        Value tuple = Value::Integer(static_cast<int64_t>(r));
        oracle.elements[attribute].insert(cell);
        oracle.links[forward][tuple].push_back(cell);
        oracle.links[inverse][cell].push_back(tuple);
      }
    }
  }
  // Equality pairs: the forward (child ==> parent) half has the lower id.
  for (const CsgRelationship& rel : graph.relationships()) {
    if (rel.kind != CsgEdgeKind::kEquality || rel.inverse < rel.id) continue;
    for (const Value& value : oracle.elements[rel.from]) {
      auto parent = oracle.elements[rel.to].find(value);
      if (parent == oracle.elements[rel.to].end()) continue;
      oracle.links[rel.id][value].push_back(*parent);
      oracle.links[rel.inverse][*parent].push_back(value);
    }
  }
  return oracle;
}

/// Checks that element `code` of every node decodes to exactly the
/// oracle's element set, and that counts and every relationship's
/// per-element out-degree agree.
void ExpectInstanceMatches(const Csg& csg, const Oracle& oracle,
                           const std::string& label) {
  for (const CsgNode& node : csg.graph.nodes()) {
    ASSERT_EQ(csg.instance.ElementCount(node.id),
              oracle.elements[node.id].size())
        << label << " node " << node.QualifiedName();
    std::set<Value> decoded;
    for (size_t code = 0; code < csg.instance.ElementCount(node.id); ++code) {
      decoded.insert(csg.instance.ElementValue(
          node.id, static_cast<CsgInstance::Code>(code)));
    }
    EXPECT_EQ(decoded, oracle.elements[node.id])
        << label << " node " << node.QualifiedName();
  }
  for (const CsgRelationship& rel : csg.graph.relationships()) {
    std::string where = label + " " + csg.graph.DescribeRelationship(rel.id);
    EXPECT_EQ(csg.instance.LinkCount(rel.id), oracle.LinkCount(rel.id))
        << where;
    std::vector<CsgInstance::Code> degrees =
        csg.instance.OutDegrees(csg.graph, rel.id);
    ASSERT_EQ(degrees.size(), oracle.elements[rel.from].size()) << where;
    for (size_t code = 0; code < degrees.size(); ++code) {
      Value element = csg.instance.ElementValue(
          rel.from, static_cast<CsgInstance::Code>(code));
      EXPECT_EQ(degrees[code], oracle.Degree(rel.id, element))
          << where << " element " << element;
    }
  }
}

/// Checks the path degree of every start element, and for table starts
/// the reachable values the integration executor reads.
void ExpectPathMatches(const Csg& csg, const Oracle& oracle,
                       const std::vector<RelationshipId>& path,
                       const std::string& label) {
  std::string where = label + " " + DescribePath(csg.graph, path);
  NodeId start = csg.graph.relationship(path.front()).from;
  bool table_start = csg.graph.node(start).kind == CsgNodeKind::kTable;
  std::vector<CsgInstance::Code> degrees =
      csg.instance.PathOutDegrees(csg.graph, path);
  ASSERT_EQ(degrees.size(), oracle.elements[start].size()) << where;
  for (size_t code = 0; code < degrees.size(); ++code) {
    auto element = static_cast<CsgInstance::Code>(code);
    std::set<Value> reachable =
        oracle.Reachable(path, csg.instance.ElementValue(start, element));
    ASSERT_EQ(degrees[code], reachable.size()) << where << " code " << code;
    if (table_start) {
      EXPECT_EQ(csg.instance.ReachableViaPath(csg.graph, path, element),
                std::vector<Value>(reachable.begin(), reachable.end()))
          << where << " row " << code;
    }
  }
}

/// The source node a target node maps to through the correspondences,
/// as the structure detector maps them; false when unmapped.
bool MapNode(const CsgNode& target_node, const SourceBinding& source,
             const CsgGraph& source_graph, NodeId* mapped) {
  const CorrespondenceSet& correspondences = source.correspondences;
  Result<NodeId> node = Status::NotFound("unmapped");
  if (target_node.kind == CsgNodeKind::kTable) {
    auto relation =
        correspondences.RelationCorrespondenceFor(target_node.relation);
    std::vector<Correspondence> attributes =
        correspondences.AttributesInto(target_node.relation);
    if (relation.ok()) {
      node = source_graph.FindTableNode(relation->source_relation);
    } else if (!attributes.empty()) {
      node = source_graph.FindTableNode(attributes.front().source_relation);
    }
  } else {
    std::vector<Correspondence> attributes = correspondences.AttributesInto(
        target_node.relation, target_node.attribute);
    if (!attributes.empty()) {
      node = source_graph.FindAttributeNode(
          attributes.front().source_relation,
          attributes.front().source_attribute);
    }
  }
  if (!node.ok()) return false;
  *mapped = *node;
  return true;
}

/// Compares every source database (and the target) of `scenario`, plus
/// the best source path of every target relationship with mapped ends.
void ExpectScenarioMatches(const IntegrationScenario& scenario,
                           const std::string& label, size_t* paths) {
  Csg target = BuildCsg(scenario.target);
  ExpectInstanceMatches(target, BuildOracle(scenario.target, target.graph),
                        label + " target");
  for (const SourceBinding& source : scenario.sources) {
    std::string source_label = label + " " + source.database.name();
    Csg csg = BuildCsg(source.database);
    Oracle oracle = BuildOracle(source.database, csg.graph);
    ExpectInstanceMatches(csg, oracle, source_label);
    std::set<std::pair<NodeId, NodeId>> ends;
    for (const CsgRelationship& rel : target.graph.relationships()) {
      NodeId from = 0;
      NodeId to = 0;
      if (MapNode(target.graph.node(rel.from), source, csg.graph, &from) &&
          MapNode(target.graph.node(rel.to), source, csg.graph, &to)) {
        ends.insert({from, to});
      }
    }
    for (const auto& [from, to] : ends) {
      std::optional<PathMatch> best = FindBestPath(csg.graph, from, to);
      if (!best.has_value()) continue;
      ExpectPathMatches(csg, oracle, best->path, source_label);
      ++*paths;
    }
  }
}

/// A random database over tiny value domains: many tuples share each
/// value, so multi-hop paths reach the same element along several routes
/// and the path degrees depend on deduplicating every hop.
Database RandomLowCardinalityDatabase(Random& rng) {
  Schema schema("dense");
  (void)schema.AddRelation(RelationDef(
      "dim", {{"id", DataType::kInteger}, {"label", DataType::kText}}));
  (void)schema.AddRelation(RelationDef("fact", {{"dim", DataType::kInteger},
                                                {"kind", DataType::kText},
                                                {"amount", DataType::kReal}}));
  schema.AddConstraint(Constraint::PrimaryKey("dim", {"id"}));
  schema.AddConstraint(Constraint::ForeignKey("fact", {"dim"}, "dim", {"id"}));
  auto db = Database::Create(std::move(schema));
  Table* dim = *db->mutable_table("dim");
  for (int64_t id = 0; id < 5; ++id) {
    EXPECT_TRUE(dim->AppendRow({Value::Integer(id),
                                Value::Text(rng.Bernoulli(0.5) ? "x" : "y")})
                    .ok());
  }
  Table* fact = *db->mutable_table("fact");
  size_t rows = 10 + rng.UniformUint64(30);
  for (size_t i = 0; i < rows; ++i) {
    // Ids 5 and 6 dangle; NULLs leave tuples without a value.
    Value kind = rng.Bernoulli(0.2)
                     ? Value::Null()
                     : Value::Text(rng.Bernoulli(0.5) ? "p" : "q");
    Value amount = rng.Bernoulli(0.2)
                       ? Value::Null()
                       : Value::Real(0.5 * static_cast<double>(
                                               rng.UniformUint64(4)));
    EXPECT_TRUE(fact->AppendRow({Value::Integer(static_cast<int64_t>(
                                     rng.UniformUint64(7))),
                                 kind, amount})
                    .ok());
  }
  return std::move(*db);
}

/// Compares `db` and the best path between every ordered pair of nodes.
void ExpectAllPairsMatch(const Database& db, const std::string& label) {
  Csg csg = BuildCsg(db);
  Oracle oracle = BuildOracle(db, csg.graph);
  ExpectInstanceMatches(csg, oracle, label);
  for (const CsgNode& from : csg.graph.nodes()) {
    for (const CsgNode& to : csg.graph.nodes()) {
      std::optional<PathMatch> best = FindBestPath(csg.graph, from.id, to.id);
      if (best.has_value()) {
        ExpectPathMatches(csg, oracle, best->path, label);
      }
    }
  }
}

TEST(CsgOracleTest, EveryFuzzCorpusSeedMatchesTheOracle) {
  std::vector<uint64_t> seeds = LoadCorpusSeeds(
      std::string(EFES_SOURCE_DIR) + "/data/fuzz_corpus.txt");
  ASSERT_FALSE(seeds.empty());
  size_t paths = 0;
  for (uint64_t seed : seeds) {
    auto fuzzed = FuzzScenario(seed);
    ASSERT_TRUE(fuzzed.ok()) << "seed " << seed << ": " << fuzzed.status();
    ExpectScenarioMatches(fuzzed->scenario, "seed " + std::to_string(seed),
                          &paths);
  }
  EXPECT_GT(paths, seeds.size());  // the mapped paths were exercised
}

TEST(CsgOracleTest, RandomParentChildDatabasesMatchTheOracle) {
  // The seeds of CsgPropertyTest and the offsets its three tests use.
  for (uint64_t seed : {101u, 202u, 303u}) {
    for (uint64_t offset : {0u, 50u, 100u}) {
      Random rng(seed + offset);
      for (int round = 0; round < 10; ++round) {
        // No correspondences here: every ordered pair of nodes.
        ExpectAllPairsMatch(RandomParentChildDatabase(rng),
                            "seed " + std::to_string(seed + offset) +
                                " round " + std::to_string(round));
      }
    }
  }
}

TEST(CsgOracleTest, RandomLowCardinalityDatabasesMatchTheOracle) {
  Random rng(404);
  for (int round = 0; round < 20; ++round) {
    ExpectAllPairsMatch(RandomLowCardinalityDatabase(rng),
                        "dense round " + std::to_string(round));
  }
}

TEST(CsgOracleTest, PaperExampleAt2000AlbumsMatchesTheOracle) {
  PaperExampleOptions options;
  options.album_count = 2000;
  options.multi_artist_albums = 500;
  options.orphan_artists = 100;
  options.song_count = 3000;
  auto scenario = MakePaperExample(options);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  size_t paths = 0;
  ExpectScenarioMatches(*scenario, "paper", &paths);
  EXPECT_GT(paths, 0u);
}

}  // namespace
}  // namespace efes
