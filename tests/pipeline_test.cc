#include <gtest/gtest.h>

#include "src/core/search.h"
#include "src/hw/catalog.h"
#include "src/roofline/pipeline.h"
#include "src/util/units.h"

namespace litegpu {
namespace {

WorkloadParams Workload() { return WorkloadParams{}; }
EngineParams Engine() { return EngineParams{}; }

TEST(PipelinePlan, Validation) {
  TransformerSpec model = Llama3_70B();
  EXPECT_TRUE(MakePipelinePlan(model, 4, 2).has_value());
  EXPECT_FALSE(MakePipelinePlan(model, 3, 2).has_value());   // bad TP
  EXPECT_FALSE(MakePipelinePlan(model, 4, 0).has_value());   // bad PP
  EXPECT_FALSE(MakePipelinePlan(model, 4, 81).has_value());  // > layers
  EXPECT_EQ(MakePipelinePlan(model, 4, 2)->TotalGpus(), 8);
}

TEST(PipelineFootprint, WeightsShrinkWithStages) {
  TransformerSpec model = Llama3_405B();
  auto tp8pp1 = MakePipelinePlan(model, 8, 1).value();
  auto tp8pp4 = MakePipelinePlan(model, 8, 4).value();
  double w1 = PipelineWeightBytesPerGpu(model, tp8pp1);
  double w4 = PipelineWeightBytesPerGpu(model, tp8pp4);
  EXPECT_LT(w4, w1 / 3.0);  // ~1/4 plus the unsharded embedding share
  EXPECT_GT(w4, w1 / 5.0);
}

TEST(PipelineFootprint, Pp1MatchesTpFootprintUpToHead) {
  // pp=1 holds all layers plus (here) one embedding-sized shard; the plain
  // TP footprint charges two (embedding + LM head).
  TransformerSpec model = Llama3_70B();
  auto plan = MakePipelinePlan(model, 8, 1).value();
  double pipeline = PipelineWeightBytesPerGpu(model, plan);
  double plain = WeightBytesPerGpu(model, plan.tp);
  double embed = EmbeddingWeightBytesPerGpu(model, plan.tp);
  EXPECT_NEAR(pipeline + embed, plain, 1e-6 * plain);
}

TEST(PipelineFootprint, KvShardsAcrossStages) {
  TransformerSpec model = Llama3_70B();
  auto pp1 = MakePipelinePlan(model, 8, 1).value();
  auto pp4 = MakePipelinePlan(model, 8, 4).value();
  EXPECT_NEAR(PipelineKvBytesPerTokenPerGpu(model, pp4),
              PipelineKvBytesPerTokenPerGpu(model, pp1) / 4.0, 1e-9);
}

TEST(PipelineDecode, Pp1MatchesPlainDecode) {
  TransformerSpec model = Llama3_70B();
  GpuSpec gpu = H100();
  auto plan = MakePipelinePlan(model, 8, 1).value();
  PipelineDecodeResult a =
      EvaluatePipelineDecode(model, gpu, *(&plan), 64, Workload(), Engine());
  DecodeResult b = EvaluateDecode(model, gpu, plan.tp, 64, Workload(), Engine());
  ASSERT_TRUE(a.feasible && b.feasible);
  EXPECT_NEAR(a.tbt_s, b.tbt_s, 0.02 * b.tbt_s);  // embedding omitted in stage
}

TEST(PipelineDecode, Enables405BOnFewerLiteGpusPerStage) {
  // 405B weights do not fit 16 Lite GPUs at TP=16, but TP=8 x PP=4 fits.
  TransformerSpec model = Llama3_405B();
  GpuSpec gpu = Lite();
  auto plan = MakePipelinePlan(model, 8, 4).value();
  PipelineDecodeResult r = EvaluatePipelineDecode(model, gpu, plan, 16, Workload(), Engine());
  EXPECT_TRUE(r.feasible);
}

TEST(PipelineDecode, TbtScalesWithStages) {
  TransformerSpec model = Llama3_70B();
  GpuSpec gpu = H100();
  WorkloadParams workload = Workload();
  workload.enforce_memory_capacity = false;
  auto pp2 = MakePipelinePlan(model, 4, 2).value();
  auto pp4 = MakePipelinePlan(model, 4, 4).value();
  // Same batch: fewer layers per stage but more hops; the rotation time
  // (pp * stage) stays roughly constant, never shrinks.
  PipelineDecodeResult a = EvaluatePipelineDecode(model, gpu, pp2, 64, workload, Engine());
  PipelineDecodeResult b = EvaluatePipelineDecode(model, gpu, pp4, 64, workload, Engine());
  ASSERT_TRUE(a.feasible && b.feasible);
  EXPECT_GT(b.tbt_s, 0.8 * a.tbt_s);
}

TEST(PipelineDecode, ThroughputCountsAllGpus) {
  TransformerSpec model = Llama3_70B();
  GpuSpec gpu = H100();
  auto plan = MakePipelinePlan(model, 2, 4).value();
  PipelineDecodeResult r = EvaluatePipelineDecode(model, gpu, plan, 64, Workload(), Engine());
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.tokens_per_s_per_sm, r.tokens_per_s / (8.0 * gpu.sm_count), 1e-9);
}

TEST(PipelineSearch, FindsConfigForAllCaseStudyModels) {
  WorkloadParams workload = Workload();
  for (const auto& model : CaseStudyModels()) {
    PipelineSearchResult r = SearchPipelineDecode(model, Lite(), workload, Engine());
    EXPECT_TRUE(r.found) << model.name;
    EXPECT_TRUE(r.result.meets_slo) << model.name;
    EXPECT_LE(r.plan.TotalGpus(), Lite().max_gpus) << model.name;
  }
}

TEST(PipelineSearch, NeverWorseThanPureTp) {
  WorkloadParams workload = Workload();
  SearchOptions options;
  for (const auto& model : CaseStudyModels()) {
    DecodeSearchResult tp_only = SearchDecode(model, Lite(), options);
    PipelineSearchResult grid = SearchPipelineDecode(model, Lite(), workload, Engine());
    ASSERT_TRUE(grid.found) << model.name;
    if (tp_only.found) {
      // pp=1 rows subsume pure TP (up to the embedding-stage simplification),
      // so the grid optimum must be at least ~as good.
      EXPECT_GE(grid.result.tokens_per_s_per_sm,
                0.95 * tp_only.best.result.tokens_per_s_per_sm)
          << model.name;
    }
  }
}

TEST(PipelineSearch, PipeliningHelps405BOnLite) {
  // The headline of ablation A6: the TP=32-only 405B point improves once
  // the grid may pipeline.
  TransformerSpec model = Llama3_405B();
  SearchOptions options;
  DecodeSearchResult tp_only = SearchDecode(model, Lite(), options);
  PipelineSearchResult grid =
      SearchPipelineDecode(model, Lite(), Workload(), Engine());
  ASSERT_TRUE(tp_only.found);
  ASSERT_TRUE(grid.found);
  EXPECT_GT(grid.result.tokens_per_s_per_sm, tp_only.best.result.tokens_per_s_per_sm);
  EXPECT_GT(grid.plan.pp_degree, 1);
}

}  // namespace
}  // namespace litegpu
