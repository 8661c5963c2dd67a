// End-to-end tests: the full EFES pipeline on the paper's running example
// must reproduce the numbers of Tables 2, 3, 5, and Example 3.8.

#include <gtest/gtest.h>
#include <memory>

#include "efes/experiment/default_pipeline.h"
#include "efes/scenario/paper_example.h"

namespace efes {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto scenario = MakePaperExample();
    ASSERT_TRUE(scenario.ok());
    scenario_ = std::make_unique<IntegrationScenario>(std::move(*scenario));
    EfesEngine engine = MakeDefaultEngine();
    auto high = engine.Run(*scenario_);
    ASSERT_TRUE(high.ok());
    high_ = std::make_unique<EstimationResult>(std::move(*high));
    auto low = engine.Run(*scenario_, {.quality = ExpectedQuality::kLowEffort});
    ASSERT_TRUE(low.ok());
    low_ = std::make_unique<EstimationResult>(std::move(*low));
  }
  static void TearDownTestSuite() {
    high_.reset();
    low_.reset();
    scenario_.reset();
  }

  static std::unique_ptr<IntegrationScenario> scenario_;
  static std::unique_ptr<EstimationResult> high_;
  static std::unique_ptr<EstimationResult> low_;
};

std::unique_ptr<IntegrationScenario> PipelineTest::scenario_;
std::unique_ptr<EstimationResult> PipelineTest::high_;
std::unique_ptr<EstimationResult> PipelineTest::low_;

TEST_F(PipelineTest, FourModuleReports) {
  ASSERT_EQ(high_->module_runs.size(), 4u);
  EXPECT_EQ(high_->module_runs[0].module, "mapping");
  EXPECT_EQ(high_->module_runs[1].module, "structure");
  EXPECT_EQ(high_->module_runs[2].module, "values");
  EXPECT_EQ(high_->module_runs[3].module, "dedup");
}

TEST_F(PipelineTest, Example38MappingIs25Minutes) {
  EXPECT_DOUBLE_EQ(high_->estimate.CategoryMinutes(TaskCategory::kMapping),
                   25.0);
  // Mapping effort is quality-independent.
  EXPECT_DOUBLE_EQ(low_->estimate.CategoryMinutes(TaskCategory::kMapping),
                   25.0);
}

TEST_F(PipelineTest, Table5StructureCleaningIs224Minutes) {
  // Add tuples (5) + Add missing values title (204) + Merge values (15).
  EXPECT_DOUBLE_EQ(
      high_->estimate.CategoryMinutes(TaskCategory::kCleaningStructure),
      224.0);
}

TEST_F(PipelineTest, Table5TaskListShape) {
  std::vector<std::pair<std::string, double>> structure_tasks;
  for (const TaskEstimate& estimate : high_->estimate.tasks) {
    if (estimate.task.category == TaskCategory::kCleaningStructure) {
      structure_tasks.emplace_back(
          std::string(TaskTypeToString(estimate.task.type)),
          estimate.minutes);
    }
  }
  ASSERT_EQ(structure_tasks.size(), 3u);
  std::map<std::string, double> by_name(structure_tasks.begin(),
                                        structure_tasks.end());
  EXPECT_DOUBLE_EQ(by_name["Add tuples"], 5.0);
  EXPECT_DOUBLE_EQ(by_name["Add missing values"], 204.0);
  EXPECT_DOUBLE_EQ(by_name["Merge values"], 15.0);
}

TEST_F(PipelineTest, LowEffortIsCheaperThanHighQuality) {
  EXPECT_LT(low_->estimate.TotalMinutes(), high_->estimate.TotalMinutes());
}

TEST_F(PipelineTest, LowEffortStructurePlanUsesRemovals) {
  for (const TaskEstimate& estimate : low_->estimate.tasks) {
    if (estimate.task.category != TaskCategory::kCleaningStructure) {
      continue;
    }
    EXPECT_TRUE(estimate.task.type == TaskType::kKeepAnyValue ||
                estimate.task.type == TaskType::kDropDetachedValues ||
                estimate.task.type == TaskType::kRejectTuples ||
                estimate.task.type == TaskType::kSetValuesToNull ||
                estimate.task.type == TaskType::kDeleteDanglingValues)
        << TaskTypeToString(estimate.task.type);
    EXPECT_EQ(estimate.task.quality, ExpectedQuality::kLowEffort);
  }
}

TEST_F(PipelineTest, ValueCleaningPresentOnlyAtHighQuality) {
  EXPECT_GT(
      high_->estimate.CategoryMinutes(TaskCategory::kCleaningValues), 0.0);
  EXPECT_DOUBLE_EQ(
      low_->estimate.CategoryMinutes(TaskCategory::kCleaningValues), 0.0);
}

TEST_F(PipelineTest, ReportTextContainsPaperCounts) {
  std::string text = high_->ToText();
  EXPECT_NE(text.find("503"), std::string::npos);
  EXPECT_NE(text.find("102"), std::string::npos);
  EXPECT_NE(text.find("records"), std::string::npos);
}

TEST_F(PipelineTest, ComplexityAssessmentAloneWorks) {
  EfesEngine engine = MakeDefaultEngine();
  auto reports = engine.AssessComplexity(*scenario_);
  ASSERT_TRUE(reports.ok());
  ASSERT_EQ(reports->size(), 4u);
  // Source selection application: the problem counts summarize fit.
  EXPECT_EQ((*reports)[0]->ProblemCount(), 2u);  // two connections
  EXPECT_GT((*reports)[1]->ProblemCount(), 0u);  // structural conflicts
  EXPECT_EQ((*reports)[2]->ProblemCount(), 1u);  // length -> duration
}

TEST_F(PipelineTest, ExecutionSettingsScaleTheEstimate) {
  EfesEngine engine = MakeDefaultEngine();
  ExecutionSettings stressed;
  stressed.criticality = 2.0;
  auto result =
      engine.Run(*scenario_, {.settings = stressed});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->estimate.TotalMinutes(),
              2.0 * high_->estimate.TotalMinutes(), 1e-6);
}

}  // namespace
}  // namespace efes
