// Tests for CSG graphs and instances.

#include "efes/csg/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "efes/csg/builder.h"

namespace efes {
namespace {

/// A tiny CSG: one table node with one attribute node,
/// κ(table→attr) = 1, κ(attr→table) = 1..*.
struct TinyCsg {
  CsgGraph graph;
  NodeId table;
  NodeId attribute;
  RelationshipId forward;  // table -> attribute

  TinyCsg() {
    table = graph.AddTableNode("records");
    attribute = graph.AddAttributeNode("records", "artist", DataType::kText);
    forward = graph.AddRelationshipPair(
        table, attribute, CsgEdgeKind::kAttribute, Cardinality::Exactly(1),
        Cardinality::AtLeast(1));
  }
};

TEST(CsgGraphTest, NodesAndQualifiedNames) {
  TinyCsg csg;
  EXPECT_EQ(csg.graph.nodes().size(), 2u);
  EXPECT_EQ(csg.graph.node(csg.table).QualifiedName(), "records");
  EXPECT_EQ(csg.graph.node(csg.attribute).QualifiedName(), "records.artist");
  EXPECT_EQ(csg.graph.node(csg.attribute).kind, CsgNodeKind::kAttribute);
}

TEST(CsgGraphTest, RelationshipPairIsMutuallyInverse) {
  TinyCsg csg;
  const CsgRelationship& forward = csg.graph.relationship(csg.forward);
  const CsgRelationship& backward =
      csg.graph.relationship(forward.inverse);
  EXPECT_EQ(backward.inverse, forward.id);
  EXPECT_EQ(forward.from, csg.table);
  EXPECT_EQ(forward.to, csg.attribute);
  EXPECT_EQ(backward.from, csg.attribute);
  EXPECT_EQ(backward.to, csg.table);
  EXPECT_EQ(forward.prescribed, Cardinality::Exactly(1));
  EXPECT_EQ(backward.prescribed, Cardinality::AtLeast(1));
}

TEST(CsgGraphTest, AdjacencyListsBothDirections) {
  TinyCsg csg;
  ASSERT_EQ(csg.graph.OutgoingOf(csg.table).size(), 1u);
  ASSERT_EQ(csg.graph.OutgoingOf(csg.attribute).size(), 1u);
  EXPECT_EQ(csg.graph.OutgoingOf(csg.table)[0], csg.forward);
}

TEST(CsgGraphTest, FindNodes) {
  TinyCsg csg;
  EXPECT_EQ(*csg.graph.FindTableNode("records"), csg.table);
  EXPECT_FALSE(csg.graph.FindTableNode("ghost").ok());
  EXPECT_EQ(*csg.graph.FindAttributeNode("records", "artist"),
            csg.attribute);
  EXPECT_FALSE(csg.graph.FindAttributeNode("records", "ghost").ok());
}

TEST(CsgGraphTest, SetPrescribedReplacesCardinality) {
  TinyCsg csg;
  csg.graph.SetPrescribed(csg.forward, Cardinality::Optional());
  EXPECT_EQ(csg.graph.relationship(csg.forward).prescribed,
            Cardinality::Optional());
}

TEST(CsgGraphTest, DescribeAndToText) {
  TinyCsg csg;
  EXPECT_EQ(csg.graph.DescribeRelationship(csg.forward),
            "records -> records.artist [1]");
  std::string text = csg.graph.ToText();
  EXPECT_NE(text.find("[table] records"), std::string::npos);
  EXPECT_NE(text.find("(attr)  records.artist : text"), std::string::npos);
}

using Code = CsgInstance::Code;

/// One hand-made link of a forward relationship, by element codes.
struct Link {
  RelationshipId forward;
  Code from;
  Code to;
};

/// Assembles an instance from element counts per node and links of
/// forward relationships, mirrored onto their inverses: the CSR layout
/// BuildCsg produces, for instances no relational database yields (a
/// tuple with two values of one attribute).
CsgInstance MakeInstance(const CsgGraph& graph,
                         const std::vector<Code>& counts,
                         const std::vector<Link>& links) {
  std::vector<CsgInstance::NodeElements> nodes(graph.nodes().size());
  for (size_t n = 0; n < counts.size(); ++n) nodes[n].count = counts[n];
  std::vector<std::vector<std::pair<Code, Code>>> pairs(
      graph.relationships().size());
  for (const Link& link : links) {
    pairs[link.forward].push_back({link.from, link.to});
    pairs[graph.relationship(link.forward).inverse].push_back(
        {link.to, link.from});
  }
  std::vector<CsgInstance::Adjacency> adjacency(graph.relationships().size());
  for (const CsgRelationship& rel : graph.relationships()) {
    std::vector<std::pair<Code, Code>>& list = pairs[rel.id];
    std::stable_sort(list.begin(), list.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    CsgInstance::Adjacency& csr = adjacency[rel.id];
    csr.offsets.assign(nodes[rel.from].count + size_t{1}, 0);
    for (const auto& [from, to] : list) {
      ++csr.offsets[from + 1];
      csr.targets.push_back(to);
    }
    for (size_t e = 0; e + 1 < csr.offsets.size(); ++e) {
      csr.offsets[e + 1] += csr.offsets[e];
    }
  }
  return CsgInstance(graph, std::move(nodes), std::move(adjacency));
}

/// A one-column `records(artist)` database holding `artists`.
Database ArtistDatabase(const std::vector<Value>& artists) {
  Schema schema("db");
  (void)schema.AddRelation(
      RelationDef("records", {{"artist", DataType::kText}}));
  auto db = Database::Create(std::move(schema));
  EXPECT_TRUE(db.ok());
  Table* records = *db->mutable_table("records");
  for (const Value& artist : artists) {
    EXPECT_TRUE(records->AppendRow({artist}).ok());
  }
  return std::move(*db);
}

TEST(CsgInstanceTest, ElementsDeduplicate) {
  Database db = ArtistDatabase(
      {Value::Text("x"), Value::Text("x"), Value::Text("y")});
  Csg csg = BuildCsg(db);
  NodeId attribute = *csg.graph.FindAttributeNode("records", "artist");
  EXPECT_EQ(csg.instance.ElementCount(attribute), 2u);
  // Codes follow first occurrence and decode back to the values.
  EXPECT_EQ(csg.instance.ElementValue(attribute, 0), Value::Text("x"));
  EXPECT_EQ(csg.instance.ElementValue(attribute, 1), Value::Text("y"));
  NodeId table = *csg.graph.FindTableNode("records");
  EXPECT_EQ(csg.instance.ElementValue(table, 2), Value::Integer(2));
}

TEST(CsgInstanceTest, LinksMirrorOnInverse) {
  Database db = ArtistDatabase({Value::Text("x")});
  Csg csg = BuildCsg(db);
  NodeId table = *csg.graph.FindTableNode("records");
  RelationshipId forward = csg.graph.OutgoingOf(table)[0];
  EXPECT_EQ(csg.instance.LinkCount(forward), 1u);
  RelationshipId inverse = csg.graph.relationship(forward).inverse;
  EXPECT_EQ(csg.instance.LinkCount(inverse), 1u);
}

TEST(CsgInstanceTest, OutDegreesIncludeZeroDegreeElements) {
  TinyCsg csg;
  CsgInstance instance =
      MakeInstance(csg.graph, {2, 1}, {{csg.forward, 0, 0}});
  std::vector<Code> degrees = instance.OutDegrees(csg.graph, csg.forward);
  ASSERT_EQ(degrees.size(), 2u);
  EXPECT_EQ(degrees[0], 1u);
  EXPECT_EQ(degrees[1], 0u);  // tuple without value
}

TEST(CsgInstanceTest, NullCellsAreZeroDegreeTuples) {
  Database db = ArtistDatabase({Value::Text("x"), Value::Null()});
  Csg csg = BuildCsg(db);
  NodeId table = *csg.graph.FindTableNode("records");
  std::vector<Code> degrees =
      csg.instance.OutDegrees(csg.graph, csg.graph.OutgoingOf(table)[0]);
  EXPECT_EQ(degrees, (std::vector<Code>{1, 0}));
}

TEST(CsgInstanceTest, ActualCardinalityAndViolations) {
  TinyCsg csg;
  // Tuple 0 has two artist values ("a" = 0, "b" = 1), tuple 1 has one,
  // tuple 2 none.
  CsgInstance instance = MakeInstance(
      csg.graph, {3, 2},
      {{csg.forward, 0, 0}, {csg.forward, 0, 1}, {csg.forward, 1, 0}});

  EXPECT_EQ(instance.ActualCardinality(csg.graph, csg.forward),
            Cardinality::Between(0, 2));
  // κ = 1 -> tuples 0 (two values) and 2 (none) violate.
  EXPECT_EQ(
      instance.CountViolations(csg.graph, csg.forward,
                               Cardinality::Exactly(1)),
      2u);
  EXPECT_EQ(instance.CountViolations(csg.graph, csg.forward,
                                     Cardinality::Any()),
            0u);
}

TEST(CsgInstanceTest, EmptyNodeActualCardinalityIsZero) {
  TinyCsg csg;
  CsgInstance instance = MakeInstance(csg.graph, {}, {});
  EXPECT_EQ(instance.ActualCardinality(csg.graph, csg.forward),
            Cardinality::Exactly(0));
}

/// A three-hop chain A -> B -> C to exercise path walks.
struct ChainCsg {
  CsgGraph graph;
  NodeId a, b, c;
  RelationshipId ab, bc;

  ChainCsg() {
    a = graph.AddTableNode("a");
    b = graph.AddAttributeNode("a", "x", DataType::kText);
    c = graph.AddAttributeNode("p", "y", DataType::kText);
    ab = graph.AddRelationshipPair(a, b, CsgEdgeKind::kAttribute,
                                   Cardinality::Exactly(1),
                                   Cardinality::AtLeast(1));
    bc = graph.AddRelationshipPair(b, c, CsgEdgeKind::kEquality,
                                   Cardinality::Exactly(1),
                                   Cardinality::Optional());
  }
};

TEST(CsgInstanceTest, PathOutDegreesDeduplicateTargets) {
  ChainCsg csg;
  // Elements: a = {0}, b = {b1 = 0, b2 = 1}, c = {c1 = 0}. Tuple 0
  // reaches c1 via both b1 and b2: its degree must still be 1.
  CsgInstance instance = MakeInstance(
      csg.graph, {1, 2, 1},
      {{csg.ab, 0, 0}, {csg.ab, 0, 1}, {csg.bc, 0, 0}, {csg.bc, 1, 0}});

  std::vector<Code> degrees =
      instance.PathOutDegrees(csg.graph, {csg.ab, csg.bc});
  ASSERT_EQ(degrees.size(), 1u);
  EXPECT_EQ(degrees[0], 1u);
  EXPECT_EQ(instance.ActualPathCardinality(csg.graph, {csg.ab, csg.bc}),
            Cardinality::Exactly(1));
  EXPECT_EQ(instance.CountPathViolations(csg.graph, {csg.ab, csg.bc},
                                         Cardinality::Exactly(1)),
            0u);
  EXPECT_EQ(instance.ReachableViaPath(csg.graph, {csg.ab, csg.bc}, 0),
            (std::vector<Value>{Value::Integer(0)}));
}

TEST(CsgInstanceTest, PathViolationsCountBrokenChains) {
  ChainCsg csg;
  CsgInstance instance = MakeInstance(csg.graph, {2, 1, 1},
                                      {{csg.ab, 0, 0}, {csg.bc, 0, 0}});
  // Tuple 1 has no b link at all -> path degree 0.
  EXPECT_EQ(instance.CountPathViolations(csg.graph, {csg.ab, csg.bc},
                                         Cardinality::Exactly(1)),
            1u);
  CsgInstance::Defects defects = instance.CountPathDefects(
      csg.graph, {csg.ab, csg.bc}, Cardinality::Exactly(1));
  EXPECT_EQ(defects.too_few, 1u);
  EXPECT_EQ(defects.too_many, 0u);
  EXPECT_TRUE(instance.ReachableViaPath(csg.graph, {csg.ab, csg.bc}, 1)
                  .empty());
}

}  // namespace
}  // namespace efes
