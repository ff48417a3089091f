// Engine micro-benchmarks (google-benchmark): how fast the modeling library
// itself is. A full Figure-3 study runs thousands of roofline evaluations;
// these benchmarks keep the cost of one evaluation and one search visible,
// the PerfModel pair quantifies what its memoization buys on the hot
// path, and the RepeatedSum pair measures where the serve core's exact
// repeated-sum kernel overtakes the per-step loop.
//
// `bench_micro_engine --json` skips the harness and emits one JSON object
// with the PerfModel cache counters observed while running the searches the
// studies run; it exits nonzero when the hot path stops hitting the cache
// (CI's cache-effectiveness smoke check).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

#include "src/core/search.h"
#include "src/hw/catalog.h"
#include "src/llm/stages.h"
#include "src/perf/model.h"
#include "src/roofline/engine.h"
#include "src/roofline/inference.h"
#include "src/util/repeated_sum.h"

namespace {

using namespace litegpu;

void BM_BuildModelWork(benchmark::State& state) {
  TransformerSpec model = Llama3_405B();
  TpPlan plan = MakeTpPlan(model, 8).value();
  PassShape shape{64, 1, 1755};
  for (auto _ : state) {
    ModelWork work = BuildModelWork(model, plan, Phase::kDecode, shape);
    benchmark::DoNotOptimize(work.TotalFlops());
  }
}
BENCHMARK(BM_BuildModelWork);

void BM_EvaluatePassDecode(benchmark::State& state) {
  TransformerSpec model = Llama3_405B();
  TpPlan plan = MakeTpPlan(model, 8).value();
  ModelWork work = BuildModelWork(model, plan, Phase::kDecode, {64, 1, 1755});
  EngineParams params;
  GpuSpec gpu = H100();
  for (auto _ : state) {
    PassTiming timing = EvaluatePass(work, gpu, plan.degree, params);
    benchmark::DoNotOptimize(timing.total_s);
  }
}
BENCHMARK(BM_EvaluatePassDecode);

void BM_EvaluateDecodeEndToEnd(benchmark::State& state) {
  TransformerSpec model = Llama3_70B();
  TpPlan plan = MakeTpPlan(model, 8).value();
  WorkloadParams workload;
  EngineParams engine;
  GpuSpec gpu = H100();
  for (auto _ : state) {
    DecodeResult r = EvaluateDecode(model, gpu, plan, 128, workload, engine);
    benchmark::DoNotOptimize(r.tokens_per_s_per_sm);
  }
}
BENCHMARK(BM_EvaluateDecodeEndToEnd);

void BM_SearchDecode(benchmark::State& state) {
  TransformerSpec model = CaseStudyModels()[state.range(0)];
  SearchOptions options;
  GpuSpec gpu = Lite();
  for (auto _ : state) {
    DecodeSearchResult r = SearchDecode(model, gpu, options);
    benchmark::DoNotOptimize(r.found);
  }
}
BENCHMARK(BM_SearchDecode)->DenseRange(0, 2);

void BM_SearchPrefill(benchmark::State& state) {
  TransformerSpec model = CaseStudyModels()[state.range(0)];
  SearchOptions options;
  GpuSpec gpu = Lite();
  for (auto _ : state) {
    PrefillSearchResult r = SearchPrefill(model, gpu, options);
    benchmark::DoNotOptimize(r.found);
  }
}
BENCHMARK(BM_SearchPrefill)->DenseRange(0, 2);

// The memoization pair: a cold PerfModel pays the full roofline evaluation,
// a warm one answers the same decode query from its cache. The ratio is the
// hot-path speedup the serve simulator and the search's final re-evaluation
// see on repeated (batch, context) queries.
void BM_PerfModelDecodeCold(benchmark::State& state) {
  TransformerSpec model = Llama3_70B();
  TpPlan plan = MakeTpPlan(model, 8).value();
  WorkloadParams workload;
  GpuSpec gpu = H100();
  for (auto _ : state) {
    PerfModel perf(model, gpu, plan, workload);
    DecodeResult r = perf.Decode(128);
    benchmark::DoNotOptimize(r.tokens_per_s_per_sm);
  }
}
BENCHMARK(BM_PerfModelDecodeCold);

void BM_PerfModelDecodeWarm(benchmark::State& state) {
  TransformerSpec model = Llama3_70B();
  TpPlan plan = MakeTpPlan(model, 8).value();
  WorkloadParams workload;
  GpuSpec gpu = H100();
  PerfModel perf(model, gpu, plan, workload);
  benchmark::DoNotOptimize(perf.Decode(128).tokens_per_s_per_sm);  // populate
  for (auto _ : state) {
    DecodeResult r = perf.Decode(128);
    benchmark::DoNotOptimize(r.tokens_per_s_per_sm);
  }
}
BENCHMARK(BM_PerfModelDecodeWarm);

// RepeatedSum against the `s += d` loop it replaces, on an engine-like
// clock (s = 100 s, a 17.3 ms decode step) at run lengths k. Below
// kRepeatedSumMinSteps the kernel is the loop itself, so the crossover that
// sets that constant is read from a build with the constant at 1.
void BM_RepeatedSum(benchmark::State& state) {
  const uint64_t k = static_cast<uint64_t>(state.range(0));
  double s = 100.0;
  double d = 0.0173;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s);
    benchmark::DoNotOptimize(d);
    benchmark::DoNotOptimize(RepeatedSum(s, d, k));
  }
}
BENCHMARK(BM_RepeatedSum)->Arg(1)->Arg(8)->Arg(32)->Arg(64)->Arg(1024);

void BM_RepeatedSumLoop(benchmark::State& state) {
  const uint64_t k = static_cast<uint64_t>(state.range(0));
  double s = 100.0;
  double d = 0.0173;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s);
    benchmark::DoNotOptimize(d);
    double sum = s;
    for (uint64_t j = 0; j < k; ++j) {
      sum += d;
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_RepeatedSumLoop)->Arg(1)->Arg(8)->Arg(32)->Arg(64)->Arg(1024);

// --json: cache-effectiveness smoke check (no gbench harness). Runs the
// same searches the studies run and reports the process-wide PerfModel
// cache counters; exit 1 when nothing hits the cache.
int CacheSmokeJson() {
  ResetGlobalPerfCacheStats();
  SearchOptions options;
  for (const TransformerSpec& model : CaseStudyModels()) {
    benchmark::DoNotOptimize(SearchDecode(model, Lite(), options).found);
    benchmark::DoNotOptimize(SearchPrefill(model, Lite(), options).found);
  }
  PerfCacheStats stats = GlobalPerfCacheStats();
  std::printf("{\n"
              "  \"evaluations\": %llu,\n"
              "  \"cache_hits\": %llu,\n"
              "  \"cache_misses\": %llu,\n"
              "  \"cache_hit_rate\": %.6f\n"
              "}\n",
              static_cast<unsigned long long>(stats.hits + stats.misses),
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses), stats.HitRate());
  return stats.HitRate() > 0.0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      return CacheSmokeJson();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
