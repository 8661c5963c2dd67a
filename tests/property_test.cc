// Randomized property tests over the core invariants:
//   * cardinality algebra laws on random intervals;
//   * CSG construction vs. direct recounting on random databases;
//   * repair-planner termination and virtual-instance validity on random
//     conflict sets;
//   * statistics vs. naive reference implementations on random columns.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <unordered_set>

#include "efes/common/random.h"
#include "efes/csg/builder.h"
#include "efes/csg/cardinality.h"
#include "efes/profiling/profiler.h"
#include "efes/profiling/statistics.h"
#include "efes/structure/repair_planner.h"
#include "test_inputs.h"

namespace efes {
namespace {

Cardinality RandomCardinality(Random& rng) {
  uint64_t lo = rng.UniformUint64(4);
  if (rng.Bernoulli(0.3)) return Cardinality::AtLeast(lo);
  uint64_t hi = lo + rng.UniformUint64(4);
  return Cardinality::Between(lo, hi);
}

class AlgebraPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AlgebraPropertyTest, IntersectIsSubsetOfBoth) {
  Random rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Cardinality a = RandomCardinality(rng);
    Cardinality b = RandomCardinality(rng);
    Cardinality intersection = a.Intersect(b);
    EXPECT_TRUE(intersection.IsSubsetOf(a));
    EXPECT_TRUE(intersection.IsSubsetOf(b));
    // Hull contains both.
    Cardinality hull = a.Hull(b);
    EXPECT_TRUE(a.IsSubsetOf(hull));
    EXPECT_TRUE(b.IsSubsetOf(hull));
  }
}

TEST_P(AlgebraPropertyTest, SubsetIsPartialOrder) {
  Random rng(GetParam() + 1);
  for (int i = 0; i < 200; ++i) {
    Cardinality a = RandomCardinality(rng);
    Cardinality b = RandomCardinality(rng);
    Cardinality c = RandomCardinality(rng);
    EXPECT_TRUE(a.IsSubsetOf(a));  // reflexive
    if (a.IsSubsetOf(b) && b.IsSubsetOf(a)) {
      EXPECT_EQ(a, b);  // antisymmetric
    }
    if (a.IsSubsetOf(b) && b.IsSubsetOf(c)) {
      EXPECT_TRUE(a.IsSubsetOf(c));  // transitive
    }
  }
}

TEST_P(AlgebraPropertyTest, ComposeIsMonotone) {
  // Tighter inputs never widen the composition.
  Random rng(GetParam() + 2);
  for (int i = 0; i < 200; ++i) {
    Cardinality a = RandomCardinality(rng);
    Cardinality b = RandomCardinality(rng);
    Cardinality a_sub = a.Intersect(RandomCardinality(rng));
    if (a_sub.is_empty()) continue;
    EXPECT_TRUE(Cardinality::Compose(a_sub, b)
                    .IsSubsetOf(Cardinality::Compose(a, b)))
        << a.ToString() << " " << a_sub.ToString() << " " << b.ToString();
  }
}

TEST_P(AlgebraPropertyTest, ComposeWithExactlyOneIsIdentity) {
  Random rng(GetParam() + 3);
  for (int i = 0; i < 100; ++i) {
    Cardinality a = RandomCardinality(rng);
    EXPECT_EQ(Cardinality::Compose(Cardinality::Exactly(1), a), a);
  }
}

TEST_P(AlgebraPropertyTest, UnionBoundsAreSound) {
  Random rng(GetParam() + 4);
  for (int i = 0; i < 200; ++i) {
    Cardinality a = RandomCardinality(rng);
    Cardinality b = RandomCardinality(rng);
    // Sample x ∈ a and y ∈ b; then x + y must lie in the disjoint-
    // codomain union and max(x,y)..x+y within the overlapping union.
    uint64_t x = a.min() + rng.UniformUint64(3);
    if (!a.Contains(x)) x = a.min();
    uint64_t y = b.min() + rng.UniformUint64(3);
    if (!b.Contains(y)) y = b.min();
    EXPECT_TRUE(Cardinality::UnionDisjointCodomains(a, b).Contains(x + y));
    Cardinality overlapping = Cardinality::UnionOverlapping(a, b);
    EXPECT_TRUE(overlapping.Contains(std::max(x, y)));
    EXPECT_TRUE(overlapping.Contains(x + y));
    EXPECT_TRUE(Cardinality::UnionDisjointDomains(a, b).Contains(x));
    EXPECT_TRUE(Cardinality::UnionDisjointDomains(a, b).Contains(y));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgebraPropertyTest,
                         ::testing::Values(11, 22, 33, 44));

// --- CSG construction vs direct recounting ---------------------------------

class CsgPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsgPropertyTest, EqualityViolationsMatchDanglingFkCount) {
  Random rng(GetParam());
  for (int round = 0; round < 10; ++round) {
    Database db = RandomParentChildDatabase(rng);
    Csg csg = BuildCsg(db);

    // Count dangling child pids directly.
    const Table* child = *db.table("child");
    const Table* parent = *db.table("parent");
    std::unordered_set<Value, ValueHash> parent_ids;
    for (const Value& v : parent->column(0)) parent_ids.insert(v);
    std::set<std::string> dangling;
    for (const Value& v : child->column(0)) {
      if (!v.is_null() && parent_ids.count(v) == 0) {
        dangling.insert(v.ToString());
      }
    }

    // Find the equality relationship child.pid ==> parent.id.
    NodeId pid_node = *csg.graph.FindAttributeNode("child", "pid");
    size_t violations = 0;
    for (RelationshipId rel_id : csg.graph.OutgoingOf(pid_node)) {
      const CsgRelationship& rel = csg.graph.relationship(rel_id);
      if (rel.kind == CsgEdgeKind::kEquality) {
        violations = csg.instance.CountViolations(csg.graph, rel_id,
                                                  Cardinality::Exactly(1));
      }
    }
    EXPECT_EQ(violations, dangling.size());
  }
}

TEST_P(CsgPropertyTest, TableToAttributeDegreesNeverExceedOne) {
  // Relational conformity: each tuple has at most one value per attribute
  // — must hold for every converted database by construction.
  Random rng(GetParam() + 50);
  Database db = RandomParentChildDatabase(rng);
  Csg csg = BuildCsg(db);
  for (const CsgRelationship& rel : csg.graph.relationships()) {
    if (rel.kind != CsgEdgeKind::kAttribute) continue;
    if (csg.graph.node(rel.from).kind != CsgNodeKind::kTable) continue;
    for (CsgInstance::Code degree :
         csg.instance.OutDegrees(csg.graph, rel.id)) {
      EXPECT_LE(degree, 1u);
    }
  }
}

TEST_P(CsgPropertyTest, AttributeToTableDegreesAtLeastOne) {
  // Every attribute value is contained in a tuple.
  Random rng(GetParam() + 100);
  Database db = RandomParentChildDatabase(rng);
  Csg csg = BuildCsg(db);
  for (const CsgRelationship& rel : csg.graph.relationships()) {
    if (rel.kind != CsgEdgeKind::kAttribute) continue;
    if (csg.graph.node(rel.from).kind != CsgNodeKind::kAttribute) continue;
    for (CsgInstance::Code degree :
         csg.instance.OutDegrees(csg.graph, rel.id)) {
      EXPECT_GE(degree, 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsgPropertyTest,
                         ::testing::Values(101, 202, 303));

// --- Repair planner termination ------------------------------------------------

class PlannerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlannerPropertyTest, RandomConflictSetsAlwaysConvergeOrFailCleanly) {
  Random rng(GetParam());
  // A star schema: one table, several attributes with random constraints.
  for (int round = 0; round < 20; ++round) {
    CsgGraph graph;
    NodeId table = graph.AddTableNode("t");
    size_t attribute_count = 2 + rng.UniformUint64(5);
    std::vector<RelationshipId> forwards;
    for (size_t a = 0; a < attribute_count; ++a) {
      NodeId attr = graph.AddAttributeNode("t", "a" + std::to_string(a),
                                           DataType::kText);
      Cardinality forward = rng.Bernoulli(0.5) ? Cardinality::Exactly(1)
                                               : Cardinality::Optional();
      Cardinality backward = rng.Bernoulli(0.3)
                                 ? Cardinality::Exactly(1)
                                 : Cardinality::AtLeast(1);
      forwards.push_back(graph.AddRelationshipPair(
          table, attr, CsgEdgeKind::kAttribute, forward, backward));
    }
    std::vector<StructureConflict> conflicts;
    size_t conflict_count = rng.UniformUint64(4);
    for (size_t c = 0; c < conflict_count; ++c) {
      RelationshipId forward =
          forwards[rng.UniformUint64(forwards.size())];
      bool inverse_side = rng.Bernoulli(0.5);
      RelationshipId rel =
          inverse_side ? graph.relationship(forward).inverse : forward;
      bool excess = rng.Bernoulli(0.5);
      const Cardinality& prescribed = graph.relationship(rel).prescribed;
      // Only create satisfiable defect descriptions.
      if (excess && prescribed.is_unbounded()) continue;
      if (!excess && prescribed.min() == 0) continue;
      StructureConflict conflict;
      conflict.target_relationship = rel;
      conflict.kind =
          ClassifyConflict(graph, graph.relationship(rel), excess);
      conflict.excess = excess;
      conflict.prescribed = prescribed;
      conflict.inferred = Cardinality::Any();
      conflict.violation_count = 1 + rng.UniformUint64(50);
      conflicts.push_back(std::move(conflict));
    }
    for (ExpectedQuality quality :
         {ExpectedQuality::kLowEffort, ExpectedQuality::kHighQuality}) {
      auto tasks = PlanStructureRepairs(graph, conflicts, quality);
      // Default strategies never contradict: the plan must exist.
      ASSERT_TRUE(tasks.ok()) << tasks.status().ToString();
      // Every task must carry a positive repetition count.
      for (const Task& task : *tasks) {
        EXPECT_GT(task.Param(task_params::kRepetitions), 0.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerPropertyTest,
                         ::testing::Values(7, 77, 777));

// --- Statistics vs naive reference ------------------------------------------

class StatisticsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StatisticsPropertyTest, MomentsMatchNaiveComputation) {
  Random rng(GetParam());
  std::vector<Value> column;
  std::vector<double> numbers;
  size_t n = 10 + rng.UniformUint64(200);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.1)) {
      column.push_back(Value::Null());
    } else {
      double v = rng.UniformDouble(-100, 100);
      column.push_back(Value::Real(v));
      numbers.push_back(v);
    }
  }
  auto profiled = ProfileColumn(column, DataType::kReal);
  ASSERT_TRUE(profiled.ok());
  AttributeStatistics stats = *std::move(profiled);
  ASSERT_TRUE(stats.mean.has_value());
  double mean = 0.0;
  for (double v : numbers) mean += v;
  mean /= static_cast<double>(numbers.size());
  double variance = 0.0;
  for (double v : numbers) variance += (v - mean) * (v - mean);
  variance /= static_cast<double>(numbers.size());
  EXPECT_NEAR(stats.mean->mean, mean, 1e-9);
  EXPECT_NEAR(stats.mean->stddev, std::sqrt(variance), 1e-9);
  EXPECT_EQ(stats.fill_status.null_count, n - numbers.size());
  double lo = *std::min_element(numbers.begin(), numbers.end());
  double hi = *std::max_element(numbers.begin(), numbers.end());
  EXPECT_DOUBLE_EQ(stats.value_range->min, lo);
  EXPECT_DOUBLE_EQ(stats.value_range->max, hi);
}

TEST_P(StatisticsPropertyTest, TopKFrequenciesSumToCoverage) {
  Random rng(GetParam() + 9);
  std::vector<Value> column;
  size_t n = 20 + rng.UniformUint64(200);
  for (size_t i = 0; i < n; ++i) {
    column.push_back(
        Value::Integer(static_cast<int64_t>(rng.Zipf(30, 1.1))));
  }
  auto profiled = ProfileColumn(column, DataType::kInteger);
  ASSERT_TRUE(profiled.ok());
  AttributeStatistics stats = *std::move(profiled);
  double sum = 0.0;
  double previous = 1.0;
  for (const auto& [value, freq] : stats.top_k.top_values) {
    EXPECT_LE(freq, previous + 1e-12);  // descending
    previous = freq;
    sum += freq;
  }
  EXPECT_NEAR(sum, stats.top_k.coverage, 1e-9);
  EXPECT_LE(stats.top_k.coverage, 1.0 + 1e-12);
}

TEST_P(StatisticsPropertyTest, SelfFitIsAlwaysPerfect) {
  Random rng(GetParam() + 21);
  std::vector<Value> column;
  size_t n = 20 + rng.UniformUint64(100);
  for (size_t i = 0; i < n; ++i) {
    column.push_back(Value::Text(rng.Word(2, 10)));
  }
  auto profiled = ProfileColumn(column, DataType::kText);
  ASSERT_TRUE(profiled.ok());
  AttributeStatistics stats = *std::move(profiled);
  EXPECT_NEAR(OverallFit(stats, stats), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatisticsPropertyTest,
                         ::testing::Values(5, 55, 555, 5555));

}  // namespace
}  // namespace efes
