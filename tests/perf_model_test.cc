#include <gtest/gtest.h>

#include "src/hw/catalog.h"
#include "src/perf/model.h"
#include "src/perf/step_table.h"
#include "src/sched/pools.h"

namespace litegpu {
namespace {

PerfModel MakeModel(const TransformerSpec& model = Llama3_70B(),
                    const GpuSpec& gpu = H100(), int degree = 4) {
  TpPlan plan = MakeTpPlan(model, degree).value();
  return PerfModel(model, gpu, plan, WorkloadParams{});
}

TEST(PerfModel, PrefillBitIdenticalToDirectEvaluation) {
  TransformerSpec model = Llama3_70B();
  GpuSpec gpu = H100();
  TpPlan plan = MakeTpPlan(model, 4).value();
  WorkloadParams workload;
  EngineParams engine;
  PerfModel perf(model, gpu, plan, workload, engine);
  for (int batch : {1, 2, 7, 32, 128}) {
    PrefillResult direct = EvaluatePrefill(model, gpu, plan, batch, workload, engine);
    PrefillResult cached = perf.Prefill(batch);
    EXPECT_EQ(cached.feasible, direct.feasible) << batch;
    EXPECT_EQ(cached.meets_slo, direct.meets_slo) << batch;
    // Bitwise equality, not NEAR: the PerfModel runs the same code path.
    EXPECT_EQ(cached.ttft_s, direct.ttft_s) << batch;
    EXPECT_EQ(cached.tokens_per_s, direct.tokens_per_s) << batch;
    EXPECT_EQ(cached.tokens_per_s_per_sm, direct.tokens_per_s_per_sm) << batch;
    EXPECT_EQ(cached.memory_needed_bytes, direct.memory_needed_bytes) << batch;
  }
}

TEST(PerfModel, DecodeBitIdenticalToDirectEvaluation) {
  TransformerSpec model = Llama3_70B();
  GpuSpec gpu = LiteMemBw();
  TpPlan plan = MakeTpPlan(model, 16).value();
  WorkloadParams workload;
  EngineParams engine;
  PerfModel perf(model, gpu, plan, workload, engine);
  for (int batch : {1, 3, 64, 256}) {
    DecodeResult direct = EvaluateDecode(model, gpu, plan, batch, workload, engine);
    DecodeResult cached = perf.Decode(batch);
    EXPECT_EQ(cached.feasible, direct.feasible) << batch;
    EXPECT_EQ(cached.tbt_s, direct.tbt_s) << batch;
    EXPECT_EQ(cached.tokens_per_s, direct.tokens_per_s) << batch;
    EXPECT_EQ(cached.tokens_per_s_per_sm, direct.tokens_per_s_per_sm) << batch;
    EXPECT_EQ(cached.memory_needed_bytes, direct.memory_needed_bytes) << batch;
  }
}

TEST(PerfModel, CacheHitReturnsIdenticalResultAndCounts) {
  PerfModel perf = MakeModel();
  ResetGlobalPerfCacheStats();

  DecodeResult first = perf.Decode(64);
  DecodeResult again = perf.Decode(64);
  EXPECT_EQ(first.tbt_s, again.tbt_s);
  EXPECT_EQ(first.tokens_per_s_per_sm, again.tokens_per_s_per_sm);

  PerfCacheStats after = GlobalPerfCacheStats();
  EXPECT_EQ(after.misses, 1u);
  EXPECT_EQ(after.hits, 1u);
  EXPECT_DOUBLE_EQ(after.HitRate(), 0.5);

  // Prefill entries are cached apart from decode ones.
  EXPECT_EQ(perf.Prefill(4).ttft_s, perf.Prefill(4).ttft_s);
  after = GlobalPerfCacheStats();
  EXPECT_EQ(after.misses, 2u);
  EXPECT_EQ(after.hits, 2u);
}

TEST(PerfModel, GlobalStatsAggregateAcrossInstances) {
  ResetGlobalPerfCacheStats();
  PerfModel a = MakeModel(Llama3_70B(), H100(), 4);
  PerfModel b = MakeModel(Llama3_70B(), H100(), 8);
  a.Decode(16);
  a.Decode(16);
  b.Decode(16);
  PerfCacheStats global = GlobalPerfCacheStats();
  EXPECT_EQ(global.misses, 2u);  // one per instance
  EXPECT_EQ(global.hits, 1u);
  EXPECT_GT(global.HitRate(), 0.0);
}

TEST(StepTimeTable, BitIdenticalToTheMemoizedModels) {
  TransformerSpec model = Llama3_70B();
  GpuSpec gpu = H100();
  WorkloadParams workload;
  PerfModel prefill(model, gpu, MakeTpPlan(model, 2).value(), workload);
  PerfModel decode(model, gpu, MakeTpPlan(model, 4).value(), workload);
  StepTimeTable table = StepTimeTable::Build(prefill, decode, 8, 64);
  EXPECT_FALSE(table.empty());
  EXPECT_EQ(table.max_prefill_batch(), 8);
  EXPECT_EQ(table.max_decode_batch(), 64);
  for (int batch = 1; batch <= 8; ++batch) {
    // Bitwise equality: the table is a copy of the same memoized values.
    EXPECT_EQ(table.PrefillTime(batch), prefill.Prefill(batch).ttft_s) << batch;
  }
  for (int batch = 1; batch <= 64; ++batch) {
    EXPECT_EQ(table.DecodeStepTime(batch), decode.Decode(batch).tbt_s) << batch;
  }
}

TEST(StepTimeTable, OutOfRangeBatchesClampToTheCaps) {
  StepTimeTable table({0.1, 0.2}, {0.01, 0.02, 0.03});
  EXPECT_DOUBLE_EQ(table.PrefillTime(0), 0.1);   // below 1 clamps to batch 1
  EXPECT_DOUBLE_EQ(table.PrefillTime(99), 0.2);  // above the cap clamps to it
  EXPECT_DOUBLE_EQ(table.DecodeStepTime(2), 0.02);
  EXPECT_DOUBLE_EQ(table.DecodeStepTime(1000), 0.03);
  EXPECT_TRUE(StepTimeTable().empty());
}

TEST(PerfModel, PoolCapacityDerivesFromTheModels) {
  TransformerSpec model = Llama3_70B();
  GpuSpec gpu = H100();
  WorkloadParams workload;
  PerfModel prefill(model, gpu, MakeTpPlan(model, 2).value(), workload);
  PerfModel decode(model, gpu, MakeTpPlan(model, 4).value(), workload);
  InstanceCapacity capacity = CapacityFromPerfModels(prefill, 8, decode, 128);
  EXPECT_EQ(capacity.prefill_gpus, 2);
  EXPECT_EQ(capacity.decode_gpus, 4);
  EXPECT_EQ(capacity.prefill_tokens_per_s, prefill.Prefill(8).tokens_per_s);
  EXPECT_EQ(capacity.decode_tokens_per_s, decode.Decode(128).tokens_per_s);
}

}  // namespace
}  // namespace litegpu
