// Capacity planning with the ClusterDesigner: the whole-paper roll-up.
//
// For one model, compare decode-serving instances built from every Table-1
// GPU on performance, manufacturing cost, network cost, power, reliability,
// and the bottom line ($/Mtok and J/token) -- the "performance per $-cost"
// analysis Section 4 calls the primary metric for cloud operators.

#include <cstdio>

#include "src/core/runner.h"
#include "src/core/scenario.h"
#include "src/util/format.h"

using namespace litegpu;

int main() {
  // One declarative scenario covers all three case-study models (the empty
  // model list defaults to them); the Runner produces a Table-1 comparison
  // per model.
  Scenario scenario;
  scenario.name = "capacity-planner";
  scenario.study = StudyKind::kDesign;
  RunReport report = Runner().Run(scenario);
  const auto& design = std::get<DesignStudyReport>(report.payload);

  for (const auto& per_model : design.per_model) {
    const auto& reports = per_model.clusters;
    std::printf("=== %s decode serving: Table-1 GPU comparison ===\n",
                per_model.model.c_str());
    std::printf("%s\n", ClusterComparisonToText(reports).c_str());

    // Headline ratios vs H100.
    const ClusterDesignReport* h100 = nullptr;
    for (const auto& r : reports) {
      if (r.gpu_name == "H100" && r.feasible) {
        h100 = &r;
      }
    }
    if (h100 != nullptr) {
      for (const auto& r : reports) {
        if (!r.feasible || r.gpu_name == "H100") {
          continue;
        }
        std::printf("  %-18s perf/SM %.2fx, $/Mtok %.2fx, J/token %.2fx vs H100\n",
                    r.gpu_name.c_str(),
                    r.tokens_per_s_per_sm / h100->tokens_per_s_per_sm,
                    r.usd_per_mtok / h100->usd_per_mtok,
                    r.joules_per_token / h100->joules_per_token);
      }
    }
    std::printf("\n");
  }

  std::printf("Note: dollar figures are manufacturing-derived with a uniform market\n"
              "multiplier; treat the RATIOS as the result, per DESIGN.md. The paper\n"
              "defers absolute TCO and so do we.\n");
  return 0;
}
