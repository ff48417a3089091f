// Validation V1: the analytic Figure-3 capacities vs the discrete-event
// serving simulator. We take the search's best decode/prefill configurations
// for H100 and Lite+MemBW, build a phase-split cluster from them through a
// PerfModel-built StepTimeTable (the same path the `serve` study uses), drive
// it with a Poisson workload at increasing fractions of the predicted
// capacity, and check that (a) measured throughput tracks the analytic
// number and (b) latency SLOs hold below capacity and collapse above it.

#include <cmath>
#include <cstdio>

#include "src/core/search.h"
#include "src/hw/catalog.h"
#include "src/perf/model.h"
#include "src/perf/step_table.h"
#include "src/serve/simulator.h"
#include "src/serve/workload.h"
#include "src/util/format.h"
#include "src/util/table.h"

int main() {
  using namespace litegpu;

  std::printf("=== Validation: analytic search vs discrete-event serving ===\n\n");

  TransformerSpec model = Llama3_70B();
  SearchOptions options;

  for (const GpuSpec& gpu : {H100(), LiteMemBw()}) {
    DecodeSearchResult decode = SearchDecode(model, gpu, options);
    PrefillSearchResult prefill = SearchPrefill(model, gpu, options);
    if (!decode.found || !prefill.found) {
      std::printf("%s: no feasible configuration\n", gpu.name.c_str());
      continue;
    }
    TpPlan decode_plan = MakeTpPlan(model, decode.best.tp_degree).value();
    TpPlan prefill_plan = MakeTpPlan(model, prefill.best.tp_degree).value();

    // Analytic per-instance capacities.
    double decode_cap = decode.best.result.tokens_per_s;
    double prefill_cap = prefill.best.result.tokens_per_s;
    std::printf("--- %s: decode TP=%d batch<=%d (%.0f tok/s), prefill TP=%d batch<=%d "
                "(%.0f tok/s) ---\n",
                gpu.name.c_str(), decode.best.tp_degree, decode.best.batch, decode_cap,
                prefill.best.tp_degree, prefill.best.batch, prefill_cap);

    PerfModel prefill_model(model, gpu, prefill_plan, options.workload, options.engine);
    PerfModel decode_model(model, gpu, decode_plan, options.workload, options.engine);
    // Dense per-batch step times copied out of the models once, then a
    // flat array load per simulated step.
    StepTimeTable step_table = StepTimeTable::Build(prefill_model, decode_model,
                                                    prefill.best.batch, decode.best.batch);

    // Request rate that saturates decode: capacity / output tokens.
    WorkloadSpec base;
    base.median_output_tokens = 256;
    double saturating_rate = decode_cap / base.median_output_tokens;

    Table table({"Load", "Req/s", "TTFT p50", "TTFT p99", "TBT p99", "Decode tok/s",
                 "Analytic tok/s", "Ratio", "Mean batch"});
    for (double load : {0.5, 0.8, 0.95}) {
      WorkloadSpec spec = base;
      spec.arrival_rate_per_s = load * saturating_rate;
      spec.duration_s = 120.0;
      auto requests = GenerateWorkload(spec);

      ServeClusterConfig cluster;
      // Size the prefill pool for its own token demand (rate * prompt),
      // with headroom so decode stays the bottleneck under test.
      double prefill_demand = spec.arrival_rate_per_s * spec.median_prompt_tokens;
      cluster.prefill_instances =
          std::max(1, static_cast<int>(std::ceil(1.25 * prefill_demand / prefill_cap)));
      cluster.decode_instances = 1;
      ServeMetrics metrics = RunServeSimulation(requests, cluster, step_table);

      double expected = load * decode_cap;
      table.AddRow({HumanPercent(load, 0), FormatDouble(spec.arrival_rate_per_s, 1),
                    HumanTime(metrics.ttft_s.Median()), HumanTime(metrics.ttft_s.P99()),
                    HumanTime(metrics.tbt_s.P99()),
                    FormatDouble(metrics.decode_tokens_per_s, 0), FormatDouble(expected, 0),
                    FormatDouble(metrics.decode_tokens_per_s / expected, 3),
                    FormatDouble(metrics.mean_decode_batch, 0)});
    }
    std::printf("%s\n", table.ToText().c_str());
  }

  PerfCacheStats cache = GlobalPerfCacheStats();
  std::printf("Expectation: ratio ~1.0 at every load below saturation (the simulator\n"
              "reproduces the analytic capacity), TBT p99 <= 50 ms, and TTFT well under\n"
              "1 s until the prefill pool saturates.\n");
  std::printf("PerfModel cache: %llu hits / %llu misses (%.1f%% hit rate) — the\n"
              "step-time table build prices each distinct batch with one roofline\n"
              "evaluation; the simulator then reads flat arrays, never the models.\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses), 100.0 * cache.HitRate());
  return 0;
}
