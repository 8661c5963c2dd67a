// Extension (Section 7 future work): the cost-benefit curve of an
// integration — "the more effort, the better the quality of the result".
// For the running example and one case-study scenario, prints the order
// in which a practitioner should execute the planned tasks to maximize
// result quality per minute, and the quality level reached over time.

#include <cstdio>

#include "efes/experiment/cost_benefit.h"
#include "efes/experiment/default_pipeline.h"
#include "efes/scenario/bibliographic.h"
#include "efes/scenario/paper_example.h"

namespace {

int PrintCurve(const efes::IntegrationScenario& scenario) {
  efes::EfesEngine engine = efes::MakeDefaultEngine();
  auto result =
      engine.Run(scenario);
  if (!result.ok()) {
    std::fprintf(stderr, "estimation failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  efes::CostBenefitCurve curve =
      efes::AnalyzeCostBenefit(result->estimate);
  std::printf("--- %s ---\n%s", scenario.name.c_str(),
              curve.ToText().c_str());
  std::printf(
      "Reaching 50%% quality takes %.0f min, 90%% takes %.0f min, 100%% "
      "takes %.0f min.\n\n",
      curve.MinutesToReach(0.5), curve.MinutesToReach(0.9),
      curve.total_minutes);
  return 0;
}

}  // namespace

int main() {
  std::printf(
      "Extension: cost-benefit curves (Section 7 future work)\n\n");
  auto example = efes::MakePaperExample();
  if (!example.ok()) return 1;
  if (int rc = PrintCurve(*example); rc != 0) return rc;

  auto biblio = efes::MakeBiblioScenario(efes::BiblioSchemaId::kS1,
                                         efes::BiblioSchemaId::kS2, {});
  if (!biblio.ok()) return 1;
  return PrintCurve(*biblio);
}
