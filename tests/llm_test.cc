#include <gtest/gtest.h>

#include "src/llm/footprint.h"
#include "src/llm/model.h"
#include "src/llm/parallel.h"
#include "src/llm/stages.h"
#include "src/util/units.h"

namespace litegpu {
namespace {

// --- model catalog ---

TEST(Model, AllValidate) {
  for (const auto& m : {Llama3_8B(), Llama3_70B(), Gpt3_175B(), Llama3_405B()}) {
    EXPECT_EQ(m.Validate(), "") << m.name;
  }
}

TEST(Model, ParamCountsNearNominal) {
  // Within 15% of the marketing number (we omit norms/biases).
  EXPECT_NEAR(static_cast<double>(Llama3_8B().ParamCount()), 8e9, 0.15 * 8e9);
  EXPECT_NEAR(static_cast<double>(Llama3_70B().ParamCount()), 70e9, 0.15 * 70e9);
  EXPECT_NEAR(static_cast<double>(Gpt3_175B().ParamCount()), 175e9, 0.15 * 175e9);
  EXPECT_NEAR(static_cast<double>(Llama3_405B().ParamCount()), 405e9, 0.15 * 405e9);
}

TEST(Model, CaseStudyOrder) {
  auto models = CaseStudyModels();
  ASSERT_EQ(models.size(), 3u);
  EXPECT_EQ(models[0].name, "Llama3-70B");
  EXPECT_EQ(models[1].name, "GPT3-175B");
  EXPECT_EQ(models[2].name, "Llama3-405B");
}

TEST(Model, Gpt3IsMhaLlamaIsGqa) {
  EXPECT_EQ(Gpt3_175B().num_kv_heads, Gpt3_175B().num_heads);
  EXPECT_LT(Llama3_70B().num_kv_heads, Llama3_70B().num_heads);
}

TEST(Model, KvBytesPerTokenGpt3MuchLargerThanLlama) {
  // The paper attributes GPT3's worse decode degradation to its KV heads.
  double gpt3 = KvBytesPerTokenPerGpu(Gpt3_175B(), MakeTpPlan(Gpt3_175B(), 1).value());
  double llama70 = KvBytesPerTokenPerGpu(Llama3_70B(), MakeTpPlan(Llama3_70B(), 1).value());
  EXPECT_GT(gpt3 / llama70, 10.0);
}

TEST(Model, ValidateCatchesInconsistencies) {
  TransformerSpec m = Llama3_70B();
  m.d_head = 64;  // heads*d_head != d_model now
  EXPECT_NE(m.Validate(), "");
  m = Llama3_70B();
  m.num_kv_heads = 7;
  EXPECT_NE(m.Validate(), "");
  m = Llama3_70B();
  m.ffn_matrices = 4;
  EXPECT_NE(m.Validate(), "");
}

TEST(Model, FindModel) {
  EXPECT_TRUE(FindModel("Llama3-405B").has_value());
  EXPECT_FALSE(FindModel("Llama4").has_value());
}

// --- tensor parallel plans ---

TEST(TpPlan, EvenShardingBelowKvHeads) {
  auto plan = MakeTpPlan(Llama3_70B(), 4);
  ASSERT_TRUE(plan.has_value());
  EXPECT_DOUBLE_EQ(plan->q_heads_per_gpu, 16.0);
  EXPECT_DOUBLE_EQ(plan->kv_heads_per_gpu, 2.0);
  EXPECT_EQ(plan->kv_replication, 1);
}

TEST(TpPlan, ReplicationAboveKvHeads) {
  auto plan = MakeTpPlan(Llama3_70B(), 32);  // 8 KV heads < 32 shards
  ASSERT_TRUE(plan.has_value());
  EXPECT_DOUBLE_EQ(plan->kv_heads_per_gpu, 1.0);
  EXPECT_EQ(plan->kv_replication, 4);
}

TEST(TpPlan, IdealShardKeepsScaling) {
  auto plan = MakeTpPlan(Llama3_70B(), 32, KvShardPolicy::kIdealShard);
  ASSERT_TRUE(plan.has_value());
  EXPECT_DOUBLE_EQ(plan->kv_heads_per_gpu, 0.25);
  EXPECT_EQ(plan->kv_replication, 1);
}

TEST(TpPlan, RejectsNonDivisorDegrees) {
  EXPECT_FALSE(MakeTpPlan(Llama3_70B(), 3).has_value());   // 64 % 3 != 0
  EXPECT_FALSE(MakeTpPlan(Llama3_70B(), 0).has_value());
  EXPECT_FALSE(MakeTpPlan(Llama3_70B(), -2).has_value());
}

TEST(TpPlan, Gpt3AllowsDegree96) {
  auto plan = MakeTpPlan(Gpt3_175B(), 96);
  ASSERT_TRUE(plan.has_value());
  EXPECT_DOUBLE_EQ(plan->kv_heads_per_gpu, 1.0);
  EXPECT_EQ(plan->kv_replication, 1);
}

TEST(TpPlan, FeasibleDegreesWithinMax) {
  auto degrees = FeasibleTpDegrees(Llama3_70B(), 32);
  // Divisors of 64 up to 32: 1 2 4 8 16 32.
  EXPECT_EQ(degrees, (std::vector<int>{1, 2, 4, 8, 16, 32}));
  auto degrees_gpt3 = FeasibleTpDegrees(Gpt3_175B(), 8);
  EXPECT_EQ(degrees_gpt3, (std::vector<int>{1, 2, 3, 4, 6, 8}));
}

// --- stage accounting ---

TEST(Stages, LayerHasFourStagesWithTwoAllReduces) {
  auto plan = MakeTpPlan(Llama3_70B(), 8).value();
  PassShape shape{8, 1500, 0};
  auto stages = LayerStages(Llama3_70B(), plan, Phase::kPrefill, shape);
  ASSERT_EQ(stages.size(), 4u);
  EXPECT_EQ(stages[0].name, "qkv_proj");
  EXPECT_EQ(stages[1].name, "attention");
  EXPECT_EQ(stages[2].name, "out_proj");
  EXPECT_EQ(stages[3].name, "mlp");
  int allreduces = 0;
  for (const auto& s : stages) {
    if (s.allreduce_bytes > 0.0) {
      ++allreduces;
    }
  }
  EXPECT_EQ(allreduces, 2);  // Megatron: one after attention, one after MLP
}

TEST(Stages, PrefillFlopsMatchTwoPdTimesTokens) {
  // Total cluster linear-layer FLOPs for a pass should be ~2 * params *
  // tokens (the standard estimate), ignoring attention quadratic terms.
  TransformerSpec model = Llama3_70B();
  auto plan = MakeTpPlan(model, 1).value();
  PassShape shape{1, 512, 0};
  ModelWork work = BuildModelWork(model, plan, Phase::kPrefill, shape);
  double linear_flops = 0.0;
  for (const auto& s : work.layer_stages) {
    if (s.name != "attention") {
      linear_flops += s.flops * work.num_layers;
    }
  }
  linear_flops += work.lm_head.flops;
  double expected = 2.0 * static_cast<double>(model.ParamCount()) * 512.0;
  // LM head only runs for the last token, so we are slightly below 2*P*N.
  EXPECT_NEAR(linear_flops, expected, 0.05 * expected);
}

TEST(Stages, DecodeAttentionReadsWholeKvCache) {
  TransformerSpec model = Llama3_70B();
  auto plan = MakeTpPlan(model, 8).value();
  PassShape shape{4, 1, 1749};
  auto stages = LayerStages(model, plan, Phase::kDecode, shape);
  const StageWork& attn = stages[1];
  // 4 seqs * 1750 tokens * 1 kv head * 128 * 2 * 1 byte.
  EXPECT_NEAR(attn.kv_bytes, 4.0 * 1750.0 * 1.0 * 128.0 * 2.0, 1.0);
}

TEST(Stages, ReplicationKeepsPerGpuKvConstantPastKvHeads) {
  TransformerSpec model = Llama3_70B();
  PassShape shape{4, 1, 999};
  auto at8 = LayerStages(model, MakeTpPlan(model, 8).value(), Phase::kDecode, shape);
  auto at32 = LayerStages(model, MakeTpPlan(model, 32).value(), Phase::kDecode, shape);
  EXPECT_DOUBLE_EQ(at8[1].kv_bytes, at32[1].kv_bytes);  // floor at 1 head
  auto ideal32 = LayerStages(model, MakeTpPlan(model, 32, KvShardPolicy::kIdealShard).value(),
                             Phase::kDecode, shape);
  EXPECT_NEAR(ideal32[1].kv_bytes, at8[1].kv_bytes / 4.0, 1e-6);
}

TEST(Stages, WorkScalesLinearlyWithBatch) {
  TransformerSpec model = Gpt3_175B();
  auto plan = MakeTpPlan(model, 8).value();
  PassShape b1{1, 1, 499};
  PassShape b16{16, 1, 499};
  auto s1 = LayerStages(model, plan, Phase::kDecode, b1);
  auto s16 = LayerStages(model, plan, Phase::kDecode, b16);
  for (size_t i = 0; i < s1.size(); ++i) {
    EXPECT_NEAR(s16[i].flops, 16.0 * s1[i].flops, 1e-6 * s16[i].flops) << s1[i].name;
    // Weights are read once regardless of batch.
    EXPECT_DOUBLE_EQ(s16[i].weight_bytes, s1[i].weight_bytes) << s1[i].name;
  }
}

TEST(Stages, WeightBytesShardWithDegree) {
  TransformerSpec model = Gpt3_175B();
  PassShape shape{1, 128, 0};
  auto t1 = LayerStages(model, MakeTpPlan(model, 1).value(), Phase::kPrefill, shape);
  auto t8 = LayerStages(model, MakeTpPlan(model, 8).value(), Phase::kPrefill, shape);
  for (size_t i = 0; i < t1.size(); ++i) {
    if (t1[i].weight_bytes > 0.0) {
      EXPECT_NEAR(t8[i].weight_bytes, t1[i].weight_bytes / 8.0,
                  1e-9 * t1[i].weight_bytes)
          << t1[i].name;
    }
  }
}

TEST(Stages, OperationalIntensityHigherForPrefill) {
  TransformerSpec model = Llama3_70B();
  auto plan = MakeTpPlan(model, 8).value();
  ModelWork prefill = BuildModelWork(model, plan, Phase::kPrefill, {1, 1500, 0});
  ModelWork decode = BuildModelWork(model, plan, Phase::kDecode, {1, 1, 1499});
  auto hbm_bytes = [](const ModelWork& work) {
    double total = work.embedding.HbmBytes() + work.lm_head.HbmBytes();
    for (const auto& s : work.layer_stages) {
      total += s.HbmBytes() * work.num_layers;
    }
    return total;
  };
  double oi_prefill = prefill.TotalFlops() / hbm_bytes(prefill);
  double oi_decode = decode.TotalFlops() / hbm_bytes(decode);
  EXPECT_GT(oi_prefill, 50.0 * oi_decode);
}

TEST(Stages, AllReduceCountMatchesLayers) {
  TransformerSpec model = Llama3_405B();
  auto plan = MakeTpPlan(model, 8).value();
  ModelWork work = BuildModelWork(model, plan, Phase::kDecode, {1, 1, 99});
  // Two all-reduces per layer (attention and MLP outputs), none outside.
  int per_layer = 0;
  for (const auto& s : work.layer_stages) {
    per_layer += s.allreduce_bytes > 0.0 ? 1 : 0;
  }
  EXPECT_EQ(per_layer, 2);
  EXPECT_EQ(work.num_layers, model.num_layers);
  EXPECT_EQ(work.embedding.allreduce_bytes, 0.0);
  EXPECT_EQ(work.lm_head.allreduce_bytes, 0.0);
}

// --- footprint ---

TEST(Footprint, WeightBytesMatchModelAtDegreeOne) {
  for (const auto& model : CaseStudyModels()) {
    auto plan = MakeTpPlan(model, 1).value();
    double weight_bytes = static_cast<double>(model.ParamCount()) * model.bytes_per_weight;
    EXPECT_NEAR(WeightBytesPerGpu(model, plan), weight_bytes, 1e-6 * weight_bytes)
        << model.name;
  }
}

TEST(Footprint, WeightsShardInverselyUntilKvFloor) {
  TransformerSpec model = Llama3_70B();
  double w1 = WeightBytesPerGpu(model, MakeTpPlan(model, 1).value());
  double w8 = WeightBytesPerGpu(model, MakeTpPlan(model, 8).value());
  // KV projection weights are a small fraction; within 5% of perfect 1/8.
  EXPECT_NEAR(w8, w1 / 8.0, 0.05 * w1 / 8.0);
}

TEST(Footprint, KvPerTokenFloorsUnderReplication) {
  TransformerSpec model = Llama3_70B();
  double at8 = KvBytesPerTokenPerGpu(model, MakeTpPlan(model, 8).value());
  double at16 = KvBytesPerTokenPerGpu(model, MakeTpPlan(model, 16).value());
  double at32 = KvBytesPerTokenPerGpu(model, MakeTpPlan(model, 32).value());
  EXPECT_DOUBLE_EQ(at8, at16);
  EXPECT_DOUBLE_EQ(at16, at32);
  double total_per_token = KvBytesPerTokenPerGpu(model, MakeTpPlan(model, 1).value());
  EXPECT_NEAR(at8, total_per_token / 8.0, 1e-9);
}

TEST(Footprint, MaxBatchZeroWhenWeightsDontFit) {
  // Llama3-405B at TP=16 needs >25 GB of weights per GPU; Lite has 20 GB.
  TransformerSpec model = Llama3_405B();
  auto plan = MakeTpPlan(model, 16).value();
  EXPECT_EQ(MaxBatchForCapacity(model, plan, 1, 1756, 20.0 * kGB), 0);
}

TEST(Footprint, MaxBatchPositiveOnH100) {
  TransformerSpec model = Llama3_70B();
  auto plan = MakeTpPlan(model, 8).value();
  int max_batch = MaxBatchForCapacity(model, plan, 1, 1756, 80.0 * kGB);
  EXPECT_GT(max_batch, 500);
  EXPECT_LT(max_batch, 4000);
}

TEST(Footprint, MaxBatchIsExactBoundary) {
  TransformerSpec model = Llama3_70B();
  auto plan = MakeTpPlan(model, 8).value();
  double cap = 80.0 * kGB;
  int b = MaxBatchForCapacity(model, plan, 1, 1756, cap);
  FootprintParams params;
  EXPECT_LE(MemoryNeededPerGpu(model, plan, b, 1, 1756), cap * params.usable_fraction);
  EXPECT_GT(MemoryNeededPerGpu(model, plan, b + 1, 1, 1756), cap * params.usable_fraction);
}

TEST(Footprint, MemoryAffineInBatch) {
  TransformerSpec model = Gpt3_175B();
  auto plan = MakeTpPlan(model, 8).value();
  double m1 = MemoryNeededPerGpu(model, plan, 1, 1, 1000);
  double m2 = MemoryNeededPerGpu(model, plan, 2, 1, 1000);
  double m3 = MemoryNeededPerGpu(model, plan, 3, 1, 1000);
  EXPECT_NEAR(m3 - m2, m2 - m1, 1e-6 * m2);
}

}  // namespace
}  // namespace litegpu
