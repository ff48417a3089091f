// Quickstart: model an LLM inference deployment on a Lite-GPU cluster in
// ~40 lines. Shows the three core API layers:
//   1. pick hardware (catalog or DeriveLite)
//   2. pick a model and a tensor-parallel plan
//   3. evaluate (roofline) directly, or declare a Scenario and let the
//      Runner search for the best config under SLOs

#include <cstdio>

#include "src/core/runner.h"
#include "src/core/scenario.h"
#include "src/hw/catalog.h"
#include "src/util/format.h"

int main() {
  using namespace litegpu;

  // 1. Hardware: the paper's Table-1 Lite-GPU (a quarter-scale H100).
  GpuSpec gpu = LiteMemBw();
  std::printf("GPU: %s  (%s, %s HBM, %s net)\n", gpu.name.c_str(),
              HumanFlops(gpu.flops).c_str(), HumanBandwidth(gpu.mem_bw_bytes_per_s).c_str(),
              HumanBandwidth(gpu.net_bw_bytes_per_s).c_str());

  // 2. Model + plan: Llama3-70B across 16 Lite-GPUs.
  TransformerSpec model = Llama3_70B();
  TpPlan plan = MakeTpPlan(model, 16).value();
  std::printf("Model: %s (%.1fB params), plan %s\n", model.name.c_str(),
              static_cast<double>(model.ParamCount()) / 1e9, plan.ToString().c_str());

  // 3a. Direct evaluation: one decode step for a batch of 64 at full context.
  WorkloadParams workload;
  EngineParams engine;
  DecodeResult step = EvaluateDecode(model, gpu, plan, 64, workload, engine);
  std::printf("\nDecode step, batch 64: TBT %s (%s-bound), %.0f tokens/s, "
              "%.2f tokens/s/SM, %s HBM/GPU\n",
              HumanTime(step.tbt_s).c_str(),
              ToString(step.timing.DominantBound()).c_str(), step.tokens_per_s,
              step.tokens_per_s_per_sm, HumanBytes(step.memory_needed_bytes).c_str());

  // 3b. Search via the Scenario API: declare WHAT to run, let the Runner
  // drive the engines. The same Scenario could be loaded from a JSON file
  // (see examples/scenarios/) or executed by `litegpu run`.
  Scenario scenario;
  scenario.name = "quickstart";
  scenario.study = StudyKind::kSearch;
  scenario.models = {model.name};
  scenario.gpus = {gpu.name};
  scenario.workload.ttft_slo_s = 1.0;
  scenario.workload.tbt_slo_s = 0.050;
  RunReport report = Runner().Run(scenario);
  const auto& pair = std::get<SearchStudyReport>(report.payload).pairs.front();
  if (pair.decode.found) {
    std::printf("\nBest decode config under TBT<=50ms: TP=%d, batch=%d -> "
                "%.2f tokens/s/SM (TBT %s)\n",
                pair.decode.best.tp_degree, pair.decode.best.batch,
                pair.decode.best.result.tokens_per_s_per_sm,
                HumanTime(pair.decode.best.result.tbt_s).c_str());
  }
  if (pair.prefill.found) {
    std::printf("Best prefill config under TTFT<=1s:   TP=%d, batch=%d -> "
                "%.2f tokens/s/SM (TTFT %s)\n",
                pair.prefill.best.tp_degree, pair.prefill.best.batch,
                pair.prefill.best.result.tokens_per_s_per_sm,
                HumanTime(pair.prefill.best.result.ttft_s).c_str());
  }
  return 0;
}
