// Tests for functional-dependency support across the stack: constraint
// model, instance checking, DDL round trip, profiling discovery,
// structure-conflict detection, repair planning, and execution.

#include <gtest/gtest.h>

#include "efes/execute/integration_executor.h"
#include "efes/profiling/constraint_discovery.h"
#include "efes/relational/schema_text.h"
#include "efes/structure/repair_planner.h"
#include "efes/structure/structure_module.h"

namespace efes {
namespace {

TEST(FdConstraintTest, FactoryAndToString) {
  Constraint fd = Constraint::FunctionalDependency(
      "cities", {"zip"}, {"city", "state"});
  EXPECT_EQ(fd.kind, ConstraintKind::kFunctionalDependency);
  EXPECT_EQ(fd.ToString(),
            "FUNCTIONAL DEPENDENCY cities(zip) DETERMINES (city, state)");
}

TEST(FdConstraintTest, ValidateChecksBothSides) {
  Schema schema("s");
  (void)schema.AddRelation(RelationDef(
      "cities", {{"zip", DataType::kText}, {"city", DataType::kText}}));
  schema.AddConstraint(
      Constraint::FunctionalDependency("cities", {"zip"}, {"city"}));
  EXPECT_TRUE(schema.Validate().ok());

  Schema bad("b");
  (void)bad.AddRelation(RelationDef("cities", {{"zip", DataType::kText}}));
  bad.AddConstraint(
      Constraint::FunctionalDependency("cities", {"zip"}, {"ghost"}));
  EXPECT_FALSE(bad.Validate().ok());
}

Database MakeCitiesDatabase(bool with_violation) {
  Schema schema("db");
  (void)schema.AddRelation(RelationDef(
      "cities", {{"zip", DataType::kText}, {"city", DataType::kText}}));
  schema.AddConstraint(
      Constraint::FunctionalDependency("cities", {"zip"}, {"city"}));
  auto db = Database::Create(std::move(schema));
  Table* cities = *db->mutable_table("cities");
  EXPECT_TRUE(
      cities->AppendRow({Value::Text("10115"), Value::Text("Berlin")}).ok());
  EXPECT_TRUE(
      cities->AppendRow({Value::Text("10115"), Value::Text("Berlin")}).ok());
  EXPECT_TRUE(
      cities->AppendRow({Value::Text("80331"), Value::Text("Munich")}).ok());
  if (with_violation) {
    EXPECT_TRUE(
        cities->AppendRow({Value::Text("10115"), Value::Text("Brelin")})
            .ok());
  }
  return std::move(*db);
}

TEST(FdInstanceTest, ViolationCounting) {
  EXPECT_TRUE(MakeCitiesDatabase(false).SatisfiesConstraints());
  Database db = MakeCitiesDatabase(true);
  auto violations = db.FindConstraintViolations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].constraint.kind,
            ConstraintKind::kFunctionalDependency);
  // All three rows of the 10115 group are in a violating group.
  EXPECT_EQ(violations[0].violating_rows, 3u);
}

/// A relation r(a, b, c, d) with FD (a, b) -> (c, d) whose text values
/// contain the unit separator '\x1f', so that concatenating renderings
/// with that separator confuses ("x\x1f", "y") with ("x", "\x1fy").
Database MakeSeparatorDatabase(
    const std::vector<std::vector<std::string>>& rows) {
  Schema schema("db");
  (void)schema.AddRelation(RelationDef("r", {{"a", DataType::kText},
                                             {"b", DataType::kText},
                                             {"c", DataType::kText},
                                             {"d", DataType::kText}}));
  schema.AddConstraint(
      Constraint::FunctionalDependency("r", {"a", "b"}, {"c", "d"}));
  auto db = Database::Create(std::move(schema));
  Table* table = *db->mutable_table("r");
  for (const std::vector<std::string>& row : rows) {
    std::vector<Value> values;
    for (const std::string& cell : row) values.push_back(Value::Text(cell));
    EXPECT_TRUE(table->AppendRow(std::move(values)).ok());
  }
  return std::move(*db);
}

TEST(FdInstanceTest, DeterminantsContainingSeparatorStayDistinct) {
  // Two different determinants, each with one dependent: no violation.
  Database db = MakeSeparatorDatabase(
      {{"x\x1f", "y", "1", "1"}, {"x", "\x1fy", "2", "2"}});
  EXPECT_TRUE(db.FindConstraintViolations().empty());
}

TEST(FdInstanceTest, DependentsContainingSeparatorStayDistinct) {
  // One determinant with two different dependents: both rows violate.
  Database db = MakeSeparatorDatabase(
      {{"k", "k", "p\x1f", "q"}, {"k", "k", "p", "\x1fq"}});
  auto violations = db.FindConstraintViolations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].violating_rows, 2u);
}

TEST(FdDdlTest, RoundTrip) {
  auto schema = ParseSchemaText(R"(
CREATE TABLE cities (
  zip TEXT NOT NULL,
  city TEXT,
  state TEXT,
  FUNCTIONAL DEPENDENCY (zip) DETERMINES (city, state)
);
)",
                                "s");
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  ASSERT_EQ(schema->constraints().size(), 2u);
  const Constraint& fd = schema->constraints()[1];
  EXPECT_EQ(fd.kind, ConstraintKind::kFunctionalDependency);
  EXPECT_EQ(fd.attributes, (std::vector<std::string>{"zip"}));
  EXPECT_EQ(fd.referenced_attributes,
            (std::vector<std::string>{"city", "state"}));

  auto reparsed = ParseSchemaText(WriteSchemaText(*schema), "s");
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->constraints().size(), schema->constraints().size());
  EXPECT_EQ(reparsed->constraints()[1], fd);
}

TEST(FdDiscoveryTest, MinesExactUnaryFds) {
  Schema schema("raw");
  (void)schema.AddRelation(RelationDef(
      "orders", {{"zip", DataType::kText},
                 {"city", DataType::kText},
                 {"amount", DataType::kInteger}}));
  auto db = Database::Create(std::move(schema));
  Table* orders = *db->mutable_table("orders");
  const char* kZips[] = {"10115", "80331", "50667", "20095"};
  const char* kCities[] = {"Berlin", "Munich", "Cologne", "Hamburg"};
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(orders
                    ->AppendRow({Value::Text(kZips[i % 4]),
                                 Value::Text(kCities[i % 4]),
                                 Value::Integer(i)})
                    .ok());
  }
  auto discovered = DiscoverConstraints(*db);
  bool zip_to_city = false;
  bool city_to_amount = false;
  for (const DiscoveredConstraint& d : discovered) {
    if (d.constraint.kind != ConstraintKind::kFunctionalDependency) {
      continue;
    }
    if (d.constraint.attributes == std::vector<std::string>{"zip"} &&
        d.constraint.referenced_attributes ==
            std::vector<std::string>{"city"}) {
      zip_to_city = true;
    }
    if (d.constraint.attributes == std::vector<std::string>{"city"} &&
        d.constraint.referenced_attributes ==
            std::vector<std::string>{"amount"}) {
      city_to_amount = true;  // must NOT hold: amounts vary per city
    }
  }
  EXPECT_TRUE(zip_to_city);
  EXPECT_FALSE(city_to_amount);
}

TEST(FdDiscoveryTest, CanBeDisabled) {
  Database db = MakeCitiesDatabase(false);
  DiscoveryOptions options;
  options.min_row_count = 2;
  options.discover_functional_dependencies = false;
  for (const DiscoveredConstraint& d : DiscoverConstraints(db, options)) {
    EXPECT_NE(d.constraint.kind, ConstraintKind::kFunctionalDependency);
  }
}

/// Target declares zip -> city; the source's data disagrees for some
/// zips.
IntegrationScenario MakeFdScenario(size_t conflicting_groups) {
  Schema target_schema("t");
  (void)target_schema.AddRelation(RelationDef(
      "addresses", {{"zip", DataType::kText}, {"city", DataType::kText}}));
  target_schema.AddConstraint(
      Constraint::FunctionalDependency("addresses", {"zip"}, {"city"}));

  Schema source_schema("s");
  (void)source_schema.AddRelation(RelationDef(
      "contacts", {{"postcode", DataType::kText},
                   {"town", DataType::kText}}));
  auto source = Database::Create(std::move(source_schema));
  Table* contacts = *source->mutable_table("contacts");
  for (size_t i = 0; i < 30; ++i) {
    std::string zip = "Z" + std::to_string(i % 10);
    // The first `conflicting_groups` zips get inconsistent town spellings.
    std::string town = (i % 10) < conflicting_groups && i >= 10
                           ? "Town" + std::to_string(i % 10) + "-variant"
                           : "Town" + std::to_string(i % 10);
    EXPECT_TRUE(
        contacts->AppendRow({Value::Text(zip), Value::Text(town)}).ok());
  }

  CorrespondenceSet correspondences;
  correspondences.AddRelation("contacts", "addresses");
  correspondences.AddAttribute("contacts", "postcode", "addresses", "zip");
  correspondences.AddAttribute("contacts", "town", "addresses", "city");

  IntegrationScenario scenario(
      "fd", std::move(*Database::Create(std::move(target_schema))));
  scenario.AddSource(std::move(*source), std::move(correspondences));
  return scenario;
}

TEST(FdDetectorTest, CountsDisagreeingDeterminantGroups) {
  IntegrationScenario scenario = MakeFdScenario(3);
  CsgGraph graph;
  auto assessments = DetectStructureConflicts(scenario, &graph);
  ASSERT_TRUE(assessments.ok());
  bool found = false;
  for (const StructureConflict& conflict : (*assessments)[0].conflicts) {
    if (conflict.target_constraint.find("FUNCTIONAL DEPENDENCY") !=
        std::string::npos) {
      found = true;
      EXPECT_EQ(conflict.kind,
                StructuralConflictKind::kMultipleAttributeValues);
      // 3 zips x 3 rows each are in disagreeing groups.
      EXPECT_EQ(conflict.violation_count, 9u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(FdDetectorTest, CleanDataNoConflict) {
  IntegrationScenario scenario = MakeFdScenario(0);
  CsgGraph graph;
  auto assessments = DetectStructureConflicts(scenario, &graph);
  ASSERT_TRUE(assessments.ok());
  for (const StructureConflict& conflict : (*assessments)[0].conflicts) {
    EXPECT_EQ(conflict.target_constraint.find("FUNCTIONAL DEPENDENCY"),
              std::string::npos);
  }
}

TEST(FdDetectorTest, SourceFdShortCircuits) {
  IntegrationScenario scenario = MakeFdScenario(3);
  // Declaring the FD on the source makes the conflict statically
  // impossible — even though the data would disagree, the detector must
  // trust the declared constraint and skip the scan (the paper's
  // assumption: instances are valid wrt. their schemas).
  Schema patched = scenario.sources[0].database.schema();
  patched.AddConstraint(Constraint::FunctionalDependency(
      "contacts", {"postcode"}, {"town"}));
  // Rebuild the source database under the patched schema.
  auto rebuilt = Database::Create(patched);
  ASSERT_TRUE(rebuilt.ok());
  const Table* contacts = *scenario.sources[0].database.table("contacts");
  Table* destination = *rebuilt->mutable_table("contacts");
  for (size_t r = 0; r < contacts->row_count(); ++r) {
    ASSERT_TRUE(destination->AppendRow(contacts->Row(r)).ok());
  }
  scenario.sources[0].database = std::move(*rebuilt);

  CsgGraph graph;
  auto assessments = DetectStructureConflicts(scenario, &graph);
  ASSERT_TRUE(assessments.ok());
  for (const StructureConflict& conflict : (*assessments)[0].conflicts) {
    EXPECT_EQ(conflict.target_constraint.find("FUNCTIONAL DEPENDENCY"),
              std::string::npos);
  }
}

TEST(FdDetectorTest, DeterminantsContainingSeparatorStayDistinct) {
  // Target FD (a, b) -> (c, d) fed one-to-one from a source without it:
  // the two source determinants differ, so there is nothing to detect.
  Database source = MakeSeparatorDatabase(
      {{"x\x1f", "y", "1", "1"}, {"x", "\x1fy", "2", "2"}});
  Schema source_schema("s");
  (void)source_schema.AddRelation(**source.schema().relation("r"));
  auto unconstrained = Database::Create(std::move(source_schema));
  ASSERT_TRUE(unconstrained.ok());
  const Table* rows = *source.table("r");
  Table* destination = *unconstrained->mutable_table("r");
  for (size_t r = 0; r < rows->row_count(); ++r) {
    ASSERT_TRUE(destination->AppendRow(rows->Row(r)).ok());
  }
  CorrespondenceSet correspondences;
  correspondences.AddRelation("r", "r");
  for (const char* attribute : {"a", "b", "c", "d"}) {
    correspondences.AddAttribute("r", attribute, "r", attribute);
  }
  IntegrationScenario scenario(
      "separator", MakeSeparatorDatabase({}));
  scenario.AddSource(std::move(*unconstrained), std::move(correspondences));

  CsgGraph graph;
  auto assessments = DetectStructureConflicts(scenario, &graph);
  ASSERT_TRUE(assessments.ok());
  for (const StructureConflict& conflict : (*assessments)[0].conflicts) {
    EXPECT_EQ(conflict.target_constraint.find("FUNCTIONAL DEPENDENCY"),
              std::string::npos);
  }
}

TEST(FdPlannerTest, PlansMergeValuesForFdConflicts) {
  IntegrationScenario scenario = MakeFdScenario(3);
  StructureModule module;
  auto report = module.AssessComplexity(scenario);
  ASSERT_TRUE(report.ok());
  auto tasks =
      module.PlanTasks(**report, ExpectedQuality::kHighQuality, {});
  ASSERT_TRUE(tasks.ok());
  bool merge = false;
  for (const Task& task : *tasks) {
    if (task.type == TaskType::kMergeValues &&
        task.subject == "addresses.city") {
      merge = true;
      EXPECT_DOUBLE_EQ(task.Param(task_params::kRepetitions), 9.0);
    }
  }
  EXPECT_TRUE(merge);
}

TEST(FdExecutorTest, RepairReconcilesDependents) {
  IntegrationScenario scenario = MakeFdScenario(3);
  for (ExpectedQuality quality :
       {ExpectedQuality::kLowEffort, ExpectedQuality::kHighQuality}) {
    IntegrationExecutor::Options options;
    options.quality = quality;
    IntegrationExecutor executor(options);
    ExecutionReport report;
    auto result = executor.Execute(scenario, &report);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->SatisfiesConstraints());
    if (quality == ExpectedQuality::kHighQuality) {
      EXPECT_GT(report.values_merged, 0u);
    } else {
      EXPECT_GT(report.tuples_rejected, 0u);
    }
  }
}

}  // namespace
}  // namespace efes
