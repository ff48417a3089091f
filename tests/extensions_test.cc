// Tests for the extension features: hierarchical collectives, chunked
// prefill (SARATHI-style piggybacking), and the roofline report.

#include <gtest/gtest.h>

#include "src/collectives/hierarchical.h"
#include "src/hw/catalog.h"
#include "src/roofline/chunked_prefill.h"
#include "src/roofline/report.h"
#include "src/util/units.h"

namespace litegpu {
namespace {

// --- hierarchical collectives ---

HierarchicalFabric LiteGroups() {
  HierarchicalFabric fabric;
  fabric.group_size = 4;
  fabric.local_link = {300.0 * kGBps, 0.3e-6};   // in-group full mesh
  fabric.global_link = {112.5 * kGBps, 1.5e-6};  // scale-out network
  return fabric;
}

TEST(Hierarchical, SingleGroupUsesLocalLinksOnly) {
  HierarchicalFabric fabric = LiteGroups();
  double hier = HierarchicalAllReduceTime(8.0 * kMB, 4, fabric);
  double local_only = AllReduceTime(8.0 * kMB, 4, fabric.local_link);
  EXPECT_DOUBLE_EQ(hier, local_only);
}

TEST(Hierarchical, BeatsFlatForLargePayloads) {
  // Large payloads: phase-2 traffic shrinks by the group size, so the slow
  // global link carries 4x less data.
  HierarchicalFabric fabric = LiteGroups();
  double payload = 64.0 * kMB;
  double flat = AllReduceTime(payload, 32, fabric.global_link);
  double hier = HierarchicalAllReduceTime(payload, 32, fabric);
  EXPECT_LT(hier, flat);
}

TEST(Hierarchical, NonMultipleFallsBackToFlat) {
  HierarchicalFabric fabric = LiteGroups();
  double hier = HierarchicalAllReduceTime(8.0 * kMB, 30, fabric);  // 30 % 4 != 0
  double flat = AllReduceTime(8.0 * kMB, 30, fabric.global_link);
  EXPECT_DOUBLE_EQ(hier, flat);
}

TEST(Hierarchical, ZeroForTrivialInputs) {
  HierarchicalFabric fabric = LiteGroups();
  EXPECT_DOUBLE_EQ(HierarchicalAllReduceTime(0.0, 32, fabric), 0.0);
  EXPECT_DOUBLE_EQ(HierarchicalAllReduceTime(1e6, 1, fabric), 0.0);
}

// --- chunked prefill ---

struct ChunkSetup {
  TransformerSpec model = Llama3_70B();
  GpuSpec gpu = LiteMemBw();
  TpPlan plan = MakeTpPlan(Llama3_70B(), 8).value();
  WorkloadParams workload;
  EngineParams engine;
};

TEST(ChunkedPrefill, FusedStepSlowerThanDecodeAlone) {
  ChunkSetup s;
  ChunkedPrefillConfig config;
  config.chunk_tokens = 512;
  config.decode_batch = 64;
  FusedStepResult r =
      EvaluateFusedStep(s.model, s.gpu, s.plan, config, 0, s.workload, s.engine);
  EXPECT_GT(r.step_s, r.decode_only_s);
  EXPECT_GT(r.tbt_inflation, 1.0);
  EXPECT_GT(r.prefill_tokens_per_s, 0.0);
}

TEST(ChunkedPrefill, StepTimeMonotoneInChunk) {
  ChunkSetup s;
  double prev = 0.0;
  for (int chunk : {64, 256, 1024}) {
    ChunkedPrefillConfig config;
    config.chunk_tokens = chunk;
    config.decode_batch = 64;
    FusedStepResult r =
        EvaluateFusedStep(s.model, s.gpu, s.plan, config, 0, s.workload, s.engine);
    EXPECT_GT(r.step_s, prev) << chunk;
    prev = r.step_s;
  }
}

TEST(ChunkedPrefill, MaxChunkRespectsSlo) {
  ChunkSetup s;
  int chunk = MaxChunkForSlo(s.model, s.gpu, s.plan, 64, s.workload, s.engine);
  ASSERT_GT(chunk, 0);
  ChunkedPrefillConfig at_max;
  at_max.chunk_tokens = chunk;
  at_max.decode_batch = 64;
  FusedStepResult ok = EvaluateFusedStep(s.model, s.gpu, s.plan, at_max,
                                         s.workload.prompt_tokens, s.workload, s.engine);
  EXPECT_LE(ok.step_s, s.workload.tbt_slo_s + 1e-9);
  if (chunk < s.workload.prompt_tokens) {
    ChunkedPrefillConfig over = at_max;
    over.chunk_tokens = chunk + 1;
    FusedStepResult bad = EvaluateFusedStep(s.model, s.gpu, s.plan, over,
                                            s.workload.prompt_tokens, s.workload, s.engine);
    EXPECT_GT(bad.step_s, s.workload.tbt_slo_s);
  }
}

TEST(ChunkedPrefill, SmallerDecodeBatchAllowsBiggerChunks) {
  ChunkSetup s;
  int with_big_batch = MaxChunkForSlo(s.model, s.gpu, s.plan, 128, s.workload, s.engine);
  int with_small_batch = MaxChunkForSlo(s.model, s.gpu, s.plan, 16, s.workload, s.engine);
  EXPECT_GE(with_small_batch, with_big_batch);
}

TEST(ChunkedPrefill, WholePromptLatencyBounded) {
  ChunkSetup s;
  double latency = ChunkedPrefillLatency(s.model, s.gpu, s.plan, 64, s.workload, s.engine);
  ASSERT_GT(latency, 0.0);
  // Chunked prefill under a 50 ms TBT SLO is slower than a dedicated
  // prefill pass but must stay within a small multiple of it.
  PassShape shape{1, s.workload.prompt_tokens, 0};
  ModelWork dedicated = BuildModelWork(s.model, s.plan, Phase::kPrefill, shape);
  double dedicated_s = EvaluatePass(dedicated, s.gpu, s.plan.degree, s.engine).total_s;
  EXPECT_GT(latency, dedicated_s);
  EXPECT_LT(latency, 50.0 * dedicated_s);
}

TEST(ChunkedPrefill, ImpossibleSloReturnsSentinel) {
  ChunkSetup s;
  s.workload.tbt_slo_s = 1e-7;
  EXPECT_EQ(MaxChunkForSlo(s.model, s.gpu, s.plan, 64, s.workload, s.engine), 0);
  EXPECT_LT(ChunkedPrefillLatency(s.model, s.gpu, s.plan, 64, s.workload, s.engine), 0.0);
}

// --- roofline report ---

TEST(RooflineReport, RidgeIntensityMatchesSpecs) {
  EngineParams params;
  // H100: 2000 TFLOPS / 3352 GB/s ~ 597 FLOP/B.
  EXPECT_NEAR(RidgeIntensity(H100(), params), 2000e12 / 3352e9, 1e-6);
}

TEST(RooflineReport, DecodeStagesBelowRidgePrefillAbove) {
  TransformerSpec model = Llama3_70B();
  TpPlan plan = MakeTpPlan(model, 8).value();
  EngineParams params;
  double ridge = RidgeIntensity(H100(), params);

  ModelWork decode = BuildModelWork(model, plan, Phase::kDecode, {64, 1, 1755});
  for (const auto& p : AnalyzePass(decode, H100(), 8, params)) {
    if (p.stage == "attention" || p.stage == "mlp") {
      EXPECT_LT(p.operational_intensity, ridge) << p.stage;
    }
  }
  ModelWork prefill = BuildModelWork(model, plan, Phase::kPrefill, {8, 1500, 0});
  for (const auto& p : AnalyzePass(prefill, H100(), 8, params)) {
    if (p.stage == "mlp" || p.stage == "qkv_proj") {
      EXPECT_GT(p.operational_intensity, ridge) << p.stage;
    }
  }
}

TEST(RooflineReport, AchievedNeverExceedsAttainable) {
  TransformerSpec model = Gpt3_175B();
  TpPlan plan = MakeTpPlan(model, 8).value();
  EngineParams params;
  ModelWork work = BuildModelWork(model, plan, Phase::kDecode, {32, 1, 1755});
  for (const auto& p : AnalyzePass(work, H100(), 8, params)) {
    EXPECT_LE(p.achieved_flops, p.attainable_flops * 1.0001) << p.stage;
    EXPECT_GE(p.time_share, 0.0);
    EXPECT_LE(p.time_share, 1.0 + 1e-9);
  }
}

TEST(RooflineReport, TimeSharesSumToOne) {
  TransformerSpec model = Llama3_70B();
  TpPlan plan = MakeTpPlan(model, 4).value();
  EngineParams params;
  ModelWork work = BuildModelWork(model, plan, Phase::kDecode, {64, 1, 1755});
  double total = 0.0;
  for (const auto& p : AnalyzePass(work, H100(), 4, params)) {
    total += p.time_share;
  }
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST(RooflineReport, TextRendersStagesAndRidge) {
  TransformerSpec model = Llama3_70B();
  TpPlan plan = MakeTpPlan(model, 8).value();
  EngineParams params;
  ModelWork work = BuildModelWork(model, plan, Phase::kDecode, {64, 1, 1755});
  auto points = AnalyzePass(work, H100(), 8, params);
  std::string text = RooflineReportToText(points, H100(), params);
  EXPECT_NE(text.find("attention"), std::string::npos);
  EXPECT_NE(text.find("ridge"), std::string::npos);
  EXPECT_NE(text.find("^"), std::string::npos);
}

}  // namespace
}  // namespace litegpu
