// Property-based suites: invariances and scaling laws the whole model stack
// must satisfy, swept over the case-study models and Table-1 GPUs with
// parameterized gtest.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "src/core/search.h"
#include "src/hw/catalog.h"
#include "src/llm/footprint.h"
#include "src/llm/stages.h"
#include "src/roofline/engine.h"
#include "src/roofline/inference.h"

namespace litegpu {
namespace {

std::string SanitizeName(std::string s) {
  for (char& c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// Homogeneous-scaling invariance: scaling FLOPS, memory BW, net BW, SMs, and
// capacity of a GPU by k scales throughput by ~k and leaves tokens/s/SM
// unchanged (modulo fixed launch overheads and network latency, which we
// zero for the law to be exact).
// ---------------------------------------------------------------------------

class ScalingLaw : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(ScalingLaw, ThroughputHomogeneous) {
  auto [model_name, k] = GetParam();
  TransformerSpec model = FindModel(model_name).value();
  GpuSpec base = H100();
  GpuSpec scaled = base;
  scaled.flops *= k;
  scaled.mem_bw_bytes_per_s *= k;
  scaled.net_bw_bytes_per_s *= k;
  scaled.mem_capacity_bytes *= 1.0;  // capacity unscaled: same batch below
  EngineParams engine;
  engine.stage_overhead_s = 0.0;
  engine.network_latency_s = 0.0;
  WorkloadParams workload;
  auto plan = MakeTpPlan(model, 8).value();

  DecodeResult a = EvaluateDecode(model, base, plan, 32, workload, engine);
  DecodeResult b = EvaluateDecode(model, scaled, plan, 32, workload, engine);
  ASSERT_TRUE(a.feasible && b.feasible);
  EXPECT_NEAR(b.tokens_per_s, k * a.tokens_per_s, 1e-6 * b.tokens_per_s);

  PrefillResult c = EvaluatePrefill(model, base, plan, 2, workload, engine);
  PrefillResult d = EvaluatePrefill(model, scaled, plan, 2, workload, engine);
  ASSERT_TRUE(c.feasible && d.feasible);
  EXPECT_NEAR(d.ttft_s, c.ttft_s / k, 1e-6 * c.ttft_s);
}

INSTANTIATE_TEST_SUITE_P(
    Models, ScalingLaw,
    ::testing::Combine(::testing::Values("Llama3-70B", "GPT3-175B", "Llama3-405B"),
                       ::testing::Values(0.5, 2.0, 4.0)),
    [](const auto& param_info) {
      return SanitizeName(std::get<0>(param_info.param)) + "_k" +
             std::to_string(static_cast<int>(std::get<1>(param_info.param) * 10));
    });

// ---------------------------------------------------------------------------
// Work conservation: cluster-total FLOPs and all-reduce payload are
// invariant under the TP degree (per-GPU work times degree is constant);
// HBM traffic only grows with degree via KV replication and never shrinks
// below the degree-1 total.
// ---------------------------------------------------------------------------

class TpInvariance : public ::testing::TestWithParam<std::string> {};

TEST_P(TpInvariance, ClusterFlopsInvariant) {
  TransformerSpec model = FindModel(GetParam()).value();
  PassShape shape{4, 1, 1499};
  double reference = -1.0;
  for (int degree : FeasibleTpDegrees(model, 32)) {
    auto plan = MakeTpPlan(model, degree).value();
    ModelWork work = BuildModelWork(model, plan, Phase::kDecode, shape);
    double cluster_flops = work.TotalFlops() * degree;
    if (reference < 0.0) {
      reference = cluster_flops;
    }
    // KV-projection FLOPs replicate past the KV-head count; allow 8% (Llama3-70B at tp=32 replicates 4x: +5.6%).
    EXPECT_NEAR(cluster_flops, reference, 0.08 * reference) << "tp" << degree;
  }
}

TEST_P(TpInvariance, WeightsPlusKvNeverBelowDegreeOneTotal) {
  TransformerSpec model = FindModel(GetParam()).value();
  auto base_plan = MakeTpPlan(model, 1).value();
  double base_total = WeightBytesPerGpu(model, base_plan) +
                      1000.0 * KvBytesPerTokenPerGpu(model, base_plan);
  for (int degree : FeasibleTpDegrees(model, 32)) {
    auto plan = MakeTpPlan(model, degree).value();
    double total = degree * (WeightBytesPerGpu(model, plan) +
                             1000.0 * KvBytesPerTokenPerGpu(model, plan));
    EXPECT_GE(total, base_total * (1.0 - 1e-9)) << "tp" << degree;
  }
}

TEST_P(TpInvariance, AllReducePayloadPerGpuInvariant) {
  // Megatron all-reduce payload is batch*tokens*d_model per stage regardless
  // of the degree (each GPU owns the full activation after the reduce).
  TransformerSpec model = FindModel(GetParam()).value();
  PassShape shape{8, 1, 999};
  double reference = -1.0;
  for (int degree : FeasibleTpDegrees(model, 32)) {
    if (degree == 1) {
      continue;
    }
    auto plan = MakeTpPlan(model, degree).value();
    ModelWork work = BuildModelWork(model, plan, Phase::kDecode, shape);
    double payload = work.embedding.allreduce_bytes + work.lm_head.allreduce_bytes;
    for (const auto& s : work.layer_stages) {
      payload += s.allreduce_bytes * work.num_layers;
    }
    if (reference < 0.0) {
      reference = payload;
    }
    EXPECT_DOUBLE_EQ(payload, reference) << "tp" << degree;
  }
}

INSTANTIATE_TEST_SUITE_P(Models, TpInvariance,
                         ::testing::Values("Llama3-70B", "GPT3-175B", "Llama3-405B"),
                         [](const auto& param_info) { return SanitizeName(param_info.param); });

// ---------------------------------------------------------------------------
// Search dominance: strictly better hardware can never produce a worse
// search optimum.
// ---------------------------------------------------------------------------

struct DominancePair {
  const char* better;
  const char* worse;
};

class SearchDominance : public ::testing::TestWithParam<DominancePair> {};

TEST_P(SearchDominance, DecodeOptimumMonotone) {
  auto [better_name, worse_name] = GetParam();
  GpuSpec better = FindGpu(better_name).value();
  GpuSpec worse = FindGpu(worse_name).value();
  SearchOptions options;
  for (const auto& model : CaseStudyModels()) {
    DecodeSearchResult a = SearchDecode(model, better, options);
    DecodeSearchResult b = SearchDecode(model, worse, options);
    if (b.found) {
      ASSERT_TRUE(a.found) << model.name;
      EXPECT_GE(a.best.result.tokens_per_s_per_sm,
                b.best.result.tokens_per_s_per_sm * (1.0 - 1e-9))
          << model.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, SearchDominance,
    ::testing::Values(DominancePair{"Lite+MemBW", "Lite"},
                      DominancePair{"Lite+MemBW+NetBW", "Lite+MemBW"},
                      DominancePair{"Lite+NetBW", "Lite"}),
    [](const auto& param_info) {
      return SanitizeName(std::string(param_info.param.better) + "_over_" + param_info.param.worse);
    });

// ---------------------------------------------------------------------------
// SLO monotonicity: loosening an SLO can only improve the optimum.
// ---------------------------------------------------------------------------

class SloMonotone : public ::testing::TestWithParam<double> {};

TEST_P(SloMonotone, LooserTbtNeverWorse) {
  double tighter = GetParam();
  TransformerSpec model = Llama3_70B();
  SearchOptions tight;
  tight.workload.tbt_slo_s = tighter;
  SearchOptions loose;
  loose.workload.tbt_slo_s = tighter * 2.0;
  DecodeSearchResult a = SearchDecode(model, Lite(), tight);
  DecodeSearchResult b = SearchDecode(model, Lite(), loose);
  if (a.found) {
    ASSERT_TRUE(b.found);
    EXPECT_GE(b.best.result.tokens_per_s_per_sm,
              a.best.result.tokens_per_s_per_sm * (1.0 - 1e-9));
  }
}

INSTANTIATE_TEST_SUITE_P(TbtGrid, SloMonotone, ::testing::Values(0.01, 0.025, 0.05));

// ---------------------------------------------------------------------------
// Engine sanity under parameter sweeps.
// ---------------------------------------------------------------------------

class EfficiencySweep : public ::testing::TestWithParam<double> {};

TEST_P(EfficiencySweep, LowerEfficiencyNeverFaster) {
  double eff = GetParam();
  TransformerSpec model = Gpt3_175B();
  auto plan = MakeTpPlan(model, 8).value();
  ModelWork work = BuildModelWork(model, plan, Phase::kDecode, {32, 1, 1499});
  EngineParams ideal;
  EngineParams derated;
  derated.compute_efficiency = eff;
  derated.memory_efficiency = eff;
  double t_ideal = EvaluatePass(work, H100(), 8, ideal).total_s;
  double t_derated = EvaluatePass(work, H100(), 8, derated).total_s;
  EXPECT_GE(t_derated, t_ideal);
  // Memory-bound pass: time scales ~1/eff.
  EXPECT_NEAR(t_derated, t_ideal / eff, 0.12 * t_derated);
}

INSTANTIATE_TEST_SUITE_P(Efficiencies, EfficiencySweep,
                         ::testing::Values(0.5, 0.7, 0.9),
                         [](const auto& param_info) {
                           return "eff" + std::to_string(static_cast<int>(param_info.param * 100));
                         });

}  // namespace
}  // namespace litegpu
