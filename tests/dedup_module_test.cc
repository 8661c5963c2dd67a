// Unit tests of the deduplication estimation module: blocking-key
// selection, cluster formation and pair math, task pricing, config
// validation, provenance linkage, and fault containment.

#include "efes/dedup/dedup_module.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "efes/common/fault.h"
#include "efes/core/effort_config.h"
#include "efes/core/effort_model.h"
#include "efes/experiment/default_pipeline.h"
#include "efes/provenance/provenance.h"

namespace efes {
namespace {

Database MustCreate(Schema schema) {
  auto database = Database::Create(std::move(schema));
  EXPECT_TRUE(database.ok()) << database.status();
  return std::move(*database);
}

void MustAppend(Database& database, std::string_view relation,
                std::vector<Value> row) {
  auto table = database.mutable_table(relation);
  ASSERT_TRUE(table.ok()) << table.status();
  Status appended = (*table)->AppendRow(std::move(row));
  ASSERT_TRUE(appended.ok()) << appended;
}

Schema PersonSchema(const std::string& name, const std::string& relation) {
  Schema schema(name);
  Status added = schema.AddRelation(
      RelationDef(relation, {{"id", DataType::kInteger},
                             {"name", DataType::kText},
                             {"city", DataType::kText}}));
  EXPECT_TRUE(added.ok()) << added;
  schema.AddConstraint(Constraint::PrimaryKey(relation, {"id"}));
  return schema;
}

CorrespondenceSet PersonCorrespondences(const std::string& relation) {
  CorrespondenceSet correspondences;
  correspondences.AddAttribute(relation, "id", "person", "id");
  correspondences.AddAttribute(relation, "name", "person", "name");
  correspondences.AddAttribute(relation, "city", "person", "city");
  return correspondences;
}

/// Two sources sharing two entities ("Ada Lovelace", "Alan Turing", the
/// names dirtied in source 2) plus unique filler rows. The surrogate ids
/// collide across sources on purpose — the blocking key must skip them.
IntegrationScenario MakeTwoSourceScenario() {
  IntegrationScenario scenario("dedup_unit",
                               MustCreate(PersonSchema("target", "person")));

  Database s1 = MustCreate(PersonSchema("s1", "people_a"));
  MustAppend(s1, "people_a",
             {Value::Integer(1), Value::Text("Ada Lovelace"),
              Value::Text("london")});
  MustAppend(s1, "people_a",
             {Value::Integer(2), Value::Text("Alan Turing"),
              Value::Text("london")});
  MustAppend(s1, "people_a",
             {Value::Integer(3), Value::Text("Grace Hopper"),
              Value::Text("new york")});
  scenario.AddSource(std::move(s1), PersonCorrespondences("people_a"));

  Database s2 = MustCreate(PersonSchema("s2", "people_b"));
  MustAppend(s2, "people_b",
             {Value::Integer(1), Value::Text("  ADA  Lovelace "),
              Value::Text("london")});
  MustAppend(s2, "people_b",
             {Value::Integer(2), Value::Text("alan turing"),
              Value::Text("london")});
  MustAppend(s2, "people_b",
             {Value::Integer(3), Value::Text("Edsger Dijkstra"),
              Value::Text("austin")});
  scenario.AddSource(std::move(s2), PersonCorrespondences("people_b"));
  return scenario;
}

const DedupComplexityReport& AsDedupReport(const ComplexityReport& report) {
  const auto* dedup = dynamic_cast<const DedupComplexityReport*>(&report);
  EXPECT_NE(dedup, nullptr);
  return *dedup;
}

TEST(NormalizeEntityKeyTest, LowercasesTrimsAndCollapsesWhitespace) {
  EXPECT_EQ(NormalizeEntityKey("  Alpha  CORP "), "alpha corp");
  EXPECT_EQ(NormalizeEntityKey("alpha corp"), "alpha corp");
  EXPECT_EQ(NormalizeEntityKey("\tA\n B\t"), "a b");
  EXPECT_EQ(NormalizeEntityKey("   "), "");
  EXPECT_EQ(NormalizeEntityKey(""), "");
}

TEST(DedupModuleTest, DetectsCrossSourceClustersViaTheNaturalKey) {
  IntegrationScenario scenario = MakeTwoSourceScenario();
  DedupModule module;
  auto report = module.AssessComplexity(scenario);
  ASSERT_TRUE(report.ok()) << report.status();
  const DedupComplexityReport& dedup = AsDedupReport(**report);
  ASSERT_EQ(dedup.findings().size(), 1u);
  const DuplicateClusterFinding& finding = dedup.findings()[0];
  EXPECT_EQ(finding.target_relation, "person");
  // The colliding surrogate ids (1, 2, 3 in both sources) are target-PK
  // attributes and must not be chosen as the blocking key.
  EXPECT_EQ(finding.blocking_key, "name");
  EXPECT_EQ(finding.cluster_count, 2u);
  EXPECT_EQ(finding.duplicate_records, 2u);   // one extra record per pair
  EXPECT_EQ(finding.verification_pairs, 2u);  // C(2,2) per cluster
  EXPECT_EQ(finding.max_cluster_size, 2u);
  ASSERT_EQ(finding.feeds.size(), 2u);
  EXPECT_EQ(finding.feeds[0], "s1:people_a");
  EXPECT_EQ(finding.feeds[1], "s2:people_b");
  // The normalized keys of the dirtied names.
  ASSERT_EQ(finding.clusters.size(), 2u);
  EXPECT_EQ(finding.clusters[0].key, "ada lovelace");
  EXPECT_EQ(finding.clusters[0].size, 2u);
  EXPECT_EQ(finding.clusters[0].pair_count, 1u);
  EXPECT_EQ(finding.clusters[1].key, "alan turing");
}

TEST(DedupModuleTest, SingleSourceScenarioHasNoFindings) {
  IntegrationScenario scenario("single",
                               MustCreate(PersonSchema("target", "person")));
  Database s1 = MustCreate(PersonSchema("s1", "people_a"));
  MustAppend(s1, "people_a",
             {Value::Integer(1), Value::Text("Ada Lovelace"),
              Value::Text("london")});
  MustAppend(s1, "people_a",
             {Value::Integer(2), Value::Text("Ada Lovelace"),
              Value::Text("london")});
  scenario.AddSource(std::move(s1), PersonCorrespondences("people_a"));
  DedupModule module;
  auto report = module.AssessComplexity(scenario);
  ASSERT_TRUE(report.ok()) << report.status();
  // Duplicates within one feed are that source's own UNIQUE problem, not
  // cross-source deduplication work.
  EXPECT_EQ(AsDedupReport(**report).findings().size(), 0u);
  EXPECT_EQ((*report)->ProblemCount(), 0u);
}

TEST(DedupModuleTest, OversizeBlocksAreSkippedNotPriced) {
  IntegrationScenario scenario = MakeTwoSourceScenario();
  DedupOptions options;
  options.max_block_size = 1;  // every cross-feed block (size 2) is over
  DedupModule module(options);
  auto report = module.AssessComplexity(scenario);
  ASSERT_TRUE(report.ok()) << report.status();
  // All candidate blocks oversize -> no clusters -> no finding at all.
  EXPECT_EQ(AsDedupReport(**report).findings().size(), 0u);
}

TEST(DedupModuleTest, InvalidOptionsAreRejectedNotClamped) {
  IntegrationScenario scenario = MakeTwoSourceScenario();
  DedupOptions negative_cost;
  negative_cost.pair_review_minutes = -0.5;
  auto rejected = DedupModule(negative_cost).AssessComplexity(scenario);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  DedupOptions zero_block;
  zero_block.max_block_size = 0;
  rejected = DedupModule(zero_block).AssessComplexity(scenario);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  DedupOptions bad_fraction;
  bad_fraction.min_key_fill = 1.5;
  rejected = DedupModule(bad_fraction).AssessComplexity(scenario);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST(DedupModuleTest, HighQualityPlansResolutionPricedPerClusterAndPair) {
  IntegrationScenario scenario = MakeTwoSourceScenario();
  DedupModule module;
  auto report = module.AssessComplexity(scenario);
  ASSERT_TRUE(report.ok()) << report.status();
  auto tasks = module.PlanTasks(**report, ExpectedQuality::kHighQuality,
                                ExecutionSettings{});
  ASSERT_TRUE(tasks.ok()) << tasks.status();
  ASSERT_EQ(tasks->size(), 1u);
  const Task& task = (*tasks)[0];
  EXPECT_EQ(task.type, TaskType::kResolveDuplicateClusters);
  EXPECT_EQ(task.category, TaskCategory::kDeduplication);
  EXPECT_EQ(task.subject, "person via name");
  EXPECT_EQ(task.Param(task_params::kClusters), 2.0);
  EXPECT_EQ(task.Param(task_params::kPairs), 2.0);
  // Table 9 extension default: 2 * #clusters + 0.5 * #pairs.
  EffortExplanation explained =
      EffortModel::PaperDefault().Explain(task, ExecutionSettings{});
  EXPECT_DOUBLE_EQ(explained.minutes, 2.0 * 2.0 + 0.5 * 2.0);
}

TEST(DedupModuleTest, LowEffortPlansOneDropScript) {
  IntegrationScenario scenario = MakeTwoSourceScenario();
  DedupModule module;
  auto report = module.AssessComplexity(scenario);
  ASSERT_TRUE(report.ok()) << report.status();
  auto tasks = module.PlanTasks(**report, ExpectedQuality::kLowEffort,
                                ExecutionSettings{});
  ASSERT_TRUE(tasks.ok()) << tasks.status();
  ASSERT_EQ(tasks->size(), 1u);
  EXPECT_EQ((*tasks)[0].type, TaskType::kDropDuplicateRecords);
  EffortExplanation explained =
      EffortModel::PaperDefault().Explain((*tasks)[0], ExecutionSettings{});
  EXPECT_DOUBLE_EQ(explained.minutes, 8.0);
}

TEST(DedupModuleTest, ForeignReportIsRejected) {
  class OtherReport : public ComplexityReport {
   public:
    std::string module_name() const override { return "other"; }
    std::string ToText() const override { return ""; }
    size_t ProblemCount() const override { return 0; }
  };
  OtherReport foreign;
  DedupModule module;
  auto tasks = module.PlanTasks(foreign, ExpectedQuality::kHighQuality,
                                ExecutionSettings{});
  ASSERT_FALSE(tasks.ok());
  EXPECT_EQ(tasks.status().code(), StatusCode::kInvalidArgument);
}

TEST(DedupModuleTest, ConfigSectionRepricesTheResolutionFunction) {
  auto config = ParseEffortConfig(
      "[dedup]\n"
      "pair_review_minutes = 1\n"
      "cluster_resolution_minutes = 4\n"
      "drop_script_minutes = 5\n");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_DOUBLE_EQ(config->dedup.pair_review_minutes, 1.0);
  Task resolve;
  resolve.type = TaskType::kResolveDuplicateClusters;
  resolve.parameters[task_params::kClusters] = 2.0;
  resolve.parameters[task_params::kPairs] = 10.0;
  EXPECT_DOUBLE_EQ(
      config->model.Explain(resolve, ExecutionSettings{}).minutes,
      4.0 * 2.0 + 1.0 * 10.0);
  Task drop;
  drop.type = TaskType::kDropDuplicateRecords;
  EXPECT_DOUBLE_EQ(config->model.Explain(drop, ExecutionSettings{}).minutes,
                   5.0);
}

TEST(DedupModuleTest, ConfigRejectsInvalidValuesWithInvalidArgument) {
  auto negative = ParseEffortConfig("[dedup]\npair_review_minutes = -1\n");
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);

  auto zero_block = ParseEffortConfig("[dedup]\nmax_block_size = 0\n");
  ASSERT_FALSE(zero_block.ok());
  EXPECT_EQ(zero_block.status().code(), StatusCode::kInvalidArgument);

  auto malformed = ParseEffortConfig("[dedup]\nmax_block_size = many\n");
  ASSERT_FALSE(malformed.ok());
  EXPECT_EQ(malformed.status().code(), StatusCode::kParseError);

  auto unknown = ParseEffortConfig("[dedup]\nno_such_knob = 1\n");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kParseError);
}

TEST(DedupModuleTest, AssessmentRecordsFindingProvenance) {
  IntegrationScenario scenario = MakeTwoSourceScenario();
  ProvenanceRecorder recorder;
  ScopedProvenanceRecorder scoped(&recorder);
  DedupModule module;
  auto report = module.AssessComplexity(scenario);
  ASSERT_TRUE(report.ok()) << report.status();
  const DedupComplexityReport& dedup = AsDedupReport(**report);
  EXPECT_NE((*report)->provenance_node(), 0u);
  ASSERT_EQ(dedup.findings().size(), 1u);
  EXPECT_NE(dedup.findings()[0].provenance, 0u);
  auto tasks = module.PlanTasks(**report, ExpectedQuality::kHighQuality,
                                ExecutionSettings{});
  ASSERT_TRUE(tasks.ok()) << tasks.status();
  ASSERT_EQ(tasks->size(), 1u);
  ASSERT_EQ((*tasks)[0].provenance.size(), 1u);
  EXPECT_EQ((*tasks)[0].provenance[0], dedup.findings()[0].provenance);
}

TEST(DedupModuleTest, DetectFaultIsContainedByTheEngine) {
  IntegrationScenario scenario = MakeTwoSourceScenario();
  ASSERT_TRUE(
      FaultRegistry::Global().ArmFromString("dedup.detect:once").ok());
  EfesEngine engine = MakeDefaultEngine();
  auto result = engine.Run(scenario);
  FaultRegistry::Global().DisarmAll();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->degraded);
  ASSERT_EQ(result->module_runs.size(), 4u);
  bool saw_dedup = false;
  for (const ModuleRun& run : result->module_runs) {
    if (run.module == "dedup") {
      saw_dedup = true;
      EXPECT_FALSE(run.status.ok());
      EXPECT_TRUE(run.tasks.empty());
    } else {
      EXPECT_TRUE(run.status.ok()) << run.module << ": " << run.status;
    }
  }
  EXPECT_TRUE(saw_dedup);
}

}  // namespace
}  // namespace efes
