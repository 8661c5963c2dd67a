// Extensibility (Section 3.2): "users must be able to extend the range of
// problems covered by the framework" — EFES accepts a dedicated
// estimation module per integration challenge.
//
// This example adds a *duplicate-detection* module, a problem class the
// built-in modules do not cover (the paper cites CrowdER [25] for the
// effort model: the number of pairwise comparisons a human must perform).
// The module plugs into the engine next to the stock modules; its tasks
// get priced by a custom effort function registered on the effort model.

#include <cstdio>
#include <memory>

#include "efes/core/engine.h"
#include "efes/experiment/default_pipeline.h"
#include "efes/scenario/paper_example.h"

namespace {

/// Complexity report: per target table, the number of candidate duplicate
/// pairs after blocking on a cheap key (here: equal first token of the
/// title-like attribute).
class DuplicationReport : public efes::ComplexityReport {
 public:
  struct Entry {
    std::string target_table;
    size_t candidate_pairs = 0;
  };

  explicit DuplicationReport(std::vector<Entry> entries)
      : entries_(std::move(entries)) {}

  const std::vector<Entry>& entries() const { return entries_; }

  std::string module_name() const override { return "duplicates"; }

  std::string ToText() const override {
    std::string out;
    for (const Entry& entry : entries_) {
      out += entry.target_table + ": " +
             std::to_string(entry.candidate_pairs) +
             " candidate duplicate pairs\n";
    }
    return out.empty() ? "(no duplicate candidates)\n" : out;
  }

  size_t ProblemCount() const override {
    size_t problems = 0;
    for (const Entry& entry : entries_) {
      problems += entry.candidate_pairs;
    }
    return problems;
  }

 private:
  std::vector<Entry> entries_;
};

/// "All sources might be free of duplicates, but there still might be
/// target duplicates when they are combined" (Section 3.1): the detector
/// counts cross-source/target candidate pairs per corresponding text
/// attribute via token blocking.
class DuplicationModule : public efes::EstimationModule {
 public:
  std::string name() const override { return "duplicates"; }

  efes::Result<std::unique_ptr<efes::ComplexityReport>> AssessComplexity(
      const efes::IntegrationScenario& scenario) const override {
    std::vector<DuplicationReport::Entry> entries;
    for (const efes::SourceBinding& source : scenario.sources) {
      for (const efes::Correspondence& corr :
           source.correspondences.all()) {
        if (!corr.is_attribute_level()) continue;
        EFES_ASSIGN_OR_RETURN(const efes::Table* source_table,
                              source.database.table(corr.source_relation));
        EFES_ASSIGN_OR_RETURN(const efes::Table* target_table,
                              scenario.target.table(corr.target_relation));
        EFES_ASSIGN_OR_RETURN(
            const std::vector<efes::Value>* source_column,
            source_table->ColumnByName(corr.source_attribute));
        EFES_ASSIGN_OR_RETURN(
            const std::vector<efes::Value>* target_column,
            target_table->ColumnByName(corr.target_attribute));

        // Blocking: bucket by first token; candidate pairs = cross
        // product within each bucket.
        std::map<std::string, std::pair<size_t, size_t>> blocks;
        auto first_token = [](const efes::Value& value) -> std::string {
          if (value.type() != efes::DataType::kText) return "";
          const std::string& text = value.AsText();
          return text.substr(0, text.find(' '));
        };
        for (const efes::Value& value : *source_column) {
          std::string token = first_token(value);
          if (!token.empty()) ++blocks[token].first;
        }
        for (const efes::Value& value : *target_column) {
          std::string token = first_token(value);
          if (!token.empty()) ++blocks[token].second;
        }
        size_t pairs = 0;
        for (const auto& [token, counts] : blocks) {
          pairs += counts.first * counts.second;
        }
        if (pairs > 0) {
          entries.push_back({corr.target_relation, pairs});
        }
      }
    }
    return std::unique_ptr<efes::ComplexityReport>(
        std::make_unique<DuplicationReport>(std::move(entries)));
  }

  efes::Result<std::vector<efes::Task>> PlanTasks(
      const efes::ComplexityReport& report, efes::ExpectedQuality quality,
      const efes::ExecutionSettings&) const override {
    const auto* duplication_report =
        dynamic_cast<const DuplicationReport*>(&report);
    if (duplication_report == nullptr) {
      return efes::Status::InvalidArgument("foreign report");
    }
    std::vector<efes::Task> tasks;
    // Low effort: accept duplicates (no work). High quality: review the
    // candidate pairs.
    if (quality == efes::ExpectedQuality::kHighQuality) {
      for (const DuplicationReport::Entry& entry :
           duplication_report->entries()) {
        efes::Task task;
        // Reuse the aggregate-tuples vocabulary: merging confirmed
        // duplicates is a tuple aggregation.
        task.type = efes::TaskType::kAggregateTuples;
        task.category = efes::TaskCategory::kOther;
        task.quality = quality;
        task.subject = "dedup " + entry.target_table;
        task.parameters["pairs"] =
            static_cast<double>(entry.candidate_pairs);
        tasks.push_back(std::move(task));
      }
    }
    return tasks;
  }
};

}  // namespace

int main() {
  auto scenario = efes::MakePaperExample();
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }

  // Register a custom effort function for the dedup review: following
  // CrowdER's back-of-the-envelope model, reviewing one candidate pair
  // takes ~5 seconds when pairs are grouped sensibly.
  efes::EffortModel model = efes::EffortModel::PaperDefault();
  model.SetFunction(efes::TaskType::kAggregateTuples,
                    [](const efes::Task& task,
                       const efes::ExecutionSettings&) {
                      double pairs = task.Param("pairs");
                      if (pairs > 0.0) return pairs * 5.0 / 60.0;
                      return 5.0;  // stock behavior for structural merges
                    });

  efes::EfesEngine engine = efes::MakeDefaultEngine(std::move(model));
  engine.AddModule(std::make_unique<DuplicationModule>());

  auto result = engine.Run(*scenario);
  if (!result.ok()) {
    std::fprintf(stderr, "estimation: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("EFES with a custom duplicate-detection module:\n\n%s\n",
              result->ToText().c_str());
  return 0;
}
