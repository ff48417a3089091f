// Scenario batch: the declarative front door end to end.
//
//   1. build Scenarios as values (or load them from examples/scenarios/*.json)
//   2. fan the batch out with RunScenarios (bit-identical at any thread count)
//   3. consume the uniform RunReports as text or JSON
//
// This is the same pipeline `litegpu run <scenario.json> --json` drives.

#include <cstdio>
#include <vector>

#include "src/core/runner.h"
#include "src/core/scenario.h"

using namespace litegpu;

int main() {
  // A miniature study suite: the paper's two perf figures plus the silicon
  // economics, declared as data.
  std::vector<Scenario> batch(3);
  batch[0].name = "fig3a";
  batch[0].study = StudyKind::kFig3a;
  batch[1].name = "fig3b";
  batch[1].study = StudyKind::kFig3b;
  batch[2].name = "yield";
  batch[2].study = StudyKind::kYield;

  // Validation catches unrunnable scenarios before anything runs.
  Scenario bad;
  bad.study = StudyKind::kSearch;
  bad.models = {"Llama5-9000B"};
  std::string error = bad.Validate();
  std::printf("validation demo: %s -> %s\n\n", error.empty() ? "built" : "rejected",
              error.c_str());

  ExecPolicy exec;  // 0 = all cores; scenarios' inner sweeps run serial
  std::vector<RunReport> reports = RunScenarios(batch, exec);

  for (const RunReport& report : reports) {
    std::printf("%s\n", report.ToText().c_str());
  }

  // Structured output: every report renders to JSON for downstream tooling.
  std::printf("yield report as JSON:\n%s\n", reports.back().ToJson().Dump().c_str());
  return 0;
}
