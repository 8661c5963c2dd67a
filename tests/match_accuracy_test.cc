// Tests for the Melnik-style match quality measures and the cost-benefit
// analysis.

#include "efes/matching/match_accuracy.h"

#include <limits>

#include <gtest/gtest.h>

#include "efes/experiment/cost_benefit.h"
#include "efes/experiment/default_pipeline.h"
#include "efes/scenario/paper_example.h"

namespace efes {
namespace {

CorrespondenceSet MakeIntended() {
  CorrespondenceSet set;
  set.AddRelation("albums", "records");
  set.AddAttribute("albums", "name", "records", "title");
  set.AddAttribute("songs", "length", "tracks", "duration");
  set.AddAttribute("songs", "name", "tracks", "title");
  return set;
}

TEST(MatchQualityTest, PerfectProposal) {
  MatchQuality quality = EvaluateMatch(MakeIntended(), MakeIntended());
  EXPECT_DOUBLE_EQ(quality.Precision(), 1.0);
  EXPECT_DOUBLE_EQ(quality.Recall(), 1.0);
  EXPECT_DOUBLE_EQ(quality.F1(), 1.0);
  EXPECT_DOUBLE_EQ(quality.Accuracy(), 1.0);
}

TEST(MatchQualityTest, PartialProposal) {
  CorrespondenceSet proposed;
  proposed.AddRelation("albums", "records");            // correct
  proposed.AddAttribute("albums", "name", "records", "title");  // correct
  proposed.AddAttribute("albums", "id", "records", "genre");    // wrong
  MatchQuality quality = EvaluateMatch(proposed, MakeIntended());
  EXPECT_EQ(quality.correct_count, 2u);
  EXPECT_DOUBLE_EQ(quality.Precision(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(quality.Recall(), 0.5);
  // Melnik: 1 - (1 deletion + 2 additions) / 4 intended = 0.25.
  EXPECT_DOUBLE_EQ(quality.Accuracy(), 0.25);
  std::string text = quality.ToString();
  EXPECT_NE(text.find("2 to add"), std::string::npos);
  EXPECT_NE(text.find("1 to delete"), std::string::npos);
}

TEST(MatchQualityTest, AccuracyCanGoNegative) {
  // All proposals wrong: fixing costs more than starting over.
  CorrespondenceSet proposed;
  proposed.AddAttribute("x", "a", "y", "b");
  proposed.AddAttribute("x", "c", "y", "d");
  CorrespondenceSet intended;
  intended.AddAttribute("p", "q", "r", "s");
  MatchQuality quality = EvaluateMatch(proposed, intended);
  EXPECT_LT(quality.Accuracy(), 0.0);
}

TEST(MatchQualityTest, EmptySets) {
  CorrespondenceSet empty;
  MatchQuality both_empty = EvaluateMatch(empty, empty);
  EXPECT_DOUBLE_EQ(both_empty.Precision(), 1.0);
  EXPECT_DOUBLE_EQ(both_empty.Recall(), 1.0);
  EXPECT_DOUBLE_EQ(both_empty.Accuracy(), 1.0);

  MatchQuality nothing_proposed = EvaluateMatch(empty, MakeIntended());
  EXPECT_DOUBLE_EQ(nothing_proposed.Recall(), 0.0);
  EXPECT_DOUBLE_EQ(nothing_proposed.Accuracy(), 0.0);
}

// --- Cost-benefit ------------------------------------------------------------

TEST(CostBenefitTest, MappingFirstThenDensestCleaning) {
  EffortEstimate estimate;
  auto add = [&](TaskType type, TaskCategory category, double repetitions,
                 double minutes) {
    Task task;
    task.type = type;
    task.category = category;
    task.parameters[task_params::kRepetitions] = repetitions;
    estimate.tasks.push_back(TaskEstimate{std::move(task), minutes});
  };
  add(TaskType::kMergeValues, TaskCategory::kCleaningStructure, 500, 15);
  add(TaskType::kWriteMapping, TaskCategory::kMapping, 0, 25);
  add(TaskType::kAddMissingValues, TaskCategory::kCleaningStructure, 100,
      200);
  add(TaskType::kDropDetachedValues, TaskCategory::kCleaningStructure, 10,
      0);

  CostBenefitCurve curve = AnalyzeCostBenefit(estimate);
  ASSERT_EQ(curve.points.size(), 4u);
  // Mapping first even though it resolves no problems.
  EXPECT_NE(curve.points[0].task.find("Write mapping"), std::string::npos);
  EXPECT_DOUBLE_EQ(curve.points[0].cumulative_quality, 0.0);
  // Free cleaning next, then the densest paid cleaning (500/15 > 100/200).
  EXPECT_NE(curve.points[1].task.find("Delete detached values"),
            std::string::npos);
  EXPECT_NE(curve.points[2].task.find("Merge values"), std::string::npos);
  EXPECT_NE(curve.points[3].task.find("Add missing values"),
            std::string::npos);
  // Totals.
  EXPECT_DOUBLE_EQ(curve.total_minutes, 240.0);
  EXPECT_DOUBLE_EQ(curve.total_problems, 610.0);
  EXPECT_DOUBLE_EQ(curve.points.back().cumulative_quality, 1.0);
}

TEST(CostBenefitTest, MinutesToReach) {
  EffortEstimate estimate;
  Task cheap;
  cheap.type = TaskType::kMergeValues;
  cheap.category = TaskCategory::kCleaningStructure;
  cheap.parameters[task_params::kRepetitions] = 90;
  estimate.tasks.push_back(TaskEstimate{cheap, 10});
  Task expensive;
  expensive.type = TaskType::kAddMissingValues;
  expensive.category = TaskCategory::kCleaningStructure;
  expensive.parameters[task_params::kRepetitions] = 10;
  estimate.tasks.push_back(TaskEstimate{expensive, 100});

  CostBenefitCurve curve = AnalyzeCostBenefit(estimate);
  // 90% of problems after 10 minutes; 100% needs all 110.
  EXPECT_DOUBLE_EQ(curve.MinutesToReach(0.9), 10.0);
  EXPECT_DOUBLE_EQ(curve.MinutesToReach(0.95), 110.0);
  EXPECT_DOUBLE_EQ(curve.MinutesToReach(2.0), 110.0);  // unreachable
}

TEST(CostBenefitTest, EmptyEstimate) {
  CostBenefitCurve curve = AnalyzeCostBenefit(EffortEstimate{});
  EXPECT_TRUE(curve.points.empty());
  EXPECT_DOUBLE_EQ(curve.total_minutes, 0.0);
}

TEST(CostBenefitTest, PaperExampleCurveIsMonotone) {
  auto scenario = MakePaperExample();
  ASSERT_TRUE(scenario.ok());
  EfesEngine engine = MakeDefaultEngine();
  auto result = engine.Run(*scenario);
  ASSERT_TRUE(result.ok());
  CostBenefitCurve curve = AnalyzeCostBenefit(result->estimate);
  ASSERT_FALSE(curve.points.empty());
  double minutes = -1.0;
  double quality = -1.0;
  double density = std::numeric_limits<double>::infinity();
  bool past_mapping = false;
  for (const CostBenefitPoint& point : curve.points) {
    EXPECT_GE(point.cumulative_minutes, minutes);
    EXPECT_GE(point.cumulative_quality, quality);
    minutes = point.cumulative_minutes;
    quality = point.cumulative_quality;
    if (point.problems_resolved > 0.0 && point.task_minutes > 0.0) {
      double d = point.problems_resolved / point.task_minutes;
      if (past_mapping) {
        EXPECT_LE(d, density + 1e-9);
      }
      density = d;
      past_mapping = true;
    }
  }
  EXPECT_NEAR(curve.points.back().cumulative_quality, 1.0, 1e-9);
  EXPECT_NE(curve.ToText().find("Quality"), std::string::npos);
}

}  // namespace
}  // namespace efes
