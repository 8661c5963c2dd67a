// Extension: estimation-vs-execution validation — both sides of the
// paper's Figure 1 in one binary. The estimation side predicts task
// repetition counts without integrating; the production side (the
// integration executor) then actually performs the integration and
// counts the work it did. The two columns must agree.

#include <cstdio>

#include "efes/execute/integration_executor.h"
#include "efes/experiment/default_pipeline.h"
#include "efes/common/text_table.h"
#include "efes/scenario/bibliographic.h"
#include "efes/scenario/paper_example.h"

namespace {

double PlannedRepetitions(const efes::EstimationResult& result,
                          efes::TaskType type) {
  double total = 0.0;
  for (const efes::TaskEstimate& task : result.estimate.tasks) {
    if (task.task.type == type) {
      total += task.task.Param(efes::task_params::kRepetitions, 0.0);
    }
  }
  return total;
}

int Validate(const efes::IntegrationScenario& scenario) {
  efes::EfesEngine engine = efes::MakeDefaultEngine();
  auto estimation =
      engine.Run(scenario);
  if (!estimation.ok()) {
    std::fprintf(stderr, "estimation: %s\n",
                 estimation.status().ToString().c_str());
    return 1;
  }
  efes::IntegrationExecutor executor;
  efes::ExecutionReport report;
  auto integrated = executor.Execute(scenario, &report);
  if (!integrated.ok()) {
    std::fprintf(stderr, "execution: %s\n",
                 integrated.status().ToString().c_str());
    return 1;
  }

  std::printf("--- %s ---\n", scenario.name.c_str());
  efes::TextTable table;
  table.SetHeader({"Work item", "Estimated (phase 2 plan)",
                   "Executed (production side)"});
  table.AddRow({"Values merged",
                std::to_string(static_cast<long long>(PlannedRepetitions(
                    *estimation, efes::TaskType::kMergeValues))),
                std::to_string(report.values_merged)});
  table.AddRow({"Enclosing tuples created",
                std::to_string(static_cast<long long>(PlannedRepetitions(
                    *estimation, efes::TaskType::kAddTuples))),
                std::to_string(report.tuples_added)});
  table.AddRow({"Mandatory values filled",
                std::to_string(static_cast<long long>(PlannedRepetitions(
                    *estimation, efes::TaskType::kAddMissingValues))),
                std::to_string(report.values_added)});
  std::printf("%s", table.ToString().c_str());
  std::printf("Integrated instance valid: %s\n\n",
              integrated->SatisfiesConstraints() ? "yes" : "NO");
  return 0;
}

}  // namespace

int main() {
  std::printf(
      "Extension: executing the integration to validate the estimate\n"
      "(Figure 1's estimation side vs. production side)\n\n");
  auto example = efes::MakePaperExample();
  if (!example.ok()) return 1;
  if (int rc = Validate(*example); rc != 0) return rc;

  efes::BiblioOptions options;
  options.publication_count = 300;
  auto biblio = efes::MakeBiblioScenario(efes::BiblioSchemaId::kS1,
                                         efes::BiblioSchemaId::kS2,
                                         options);
  if (!biblio.ok()) return 1;
  int rc = Validate(*biblio);
  std::printf(
      "Note on s1-s2: the executor populates entity tables with the\n"
      "INSERT-DISTINCT idiom (deduplicate while inserting, skip entities\n"
      "with no value), so the planner's per-violation repairs for the\n"
      "venues table never arise at execution time. Both are valid\n"
      "strategies; the planner prices the repair-based one. On the\n"
      "running example, where the strategy is forced, estimate and\n"
      "execution agree exactly.\n");
  return rc;
}
