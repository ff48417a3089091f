#include <gtest/gtest.h>

#include "src/core/search.h"
#include "src/hw/catalog.h"
#include "src/util/units.h"

namespace litegpu {
namespace {

SearchOptions FastOptions() {
  SearchOptions options;
  options.max_batch = 8192;
  return options;
}

TEST(Search, PrefillFindsConfigForAllCaseStudyModelsOnH100) {
  for (const auto& model : CaseStudyModels()) {
    PrefillSearchResult r = SearchPrefill(model, H100(), FastOptions());
    EXPECT_TRUE(r.found) << model.name;
    EXPECT_GE(r.best.tp_degree, 1);
    EXPECT_LE(r.best.tp_degree, H100().max_gpus);
    EXPECT_TRUE(r.best.result.meets_slo);
  }
}

TEST(Search, DecodeFindsConfigForAllCaseStudyModelsOnH100) {
  for (const auto& model : CaseStudyModels()) {
    DecodeSearchResult r = SearchDecode(model, H100(), FastOptions());
    EXPECT_TRUE(r.found) << model.name;
    EXPECT_TRUE(r.best.result.meets_slo) << model.name;
    EXPECT_LE(r.best.result.tbt_s, 0.050) << model.name;
  }
}

// The search caps a batch with MaxBatchForCapacity's closed form and the
// SLO; one past the best batch must fail the direct evaluation in each phase.
TEST(Search, BestBatchIsSloOrCapacityBoundary) {
  TransformerSpec model = Llama3_70B();
  SearchOptions options = FastOptions();
  DecodeSearchResult r = SearchDecode(model, H100(), options);
  ASSERT_TRUE(r.found);
  // One more sequence must violate either the TBT SLO or the memory capacity.
  auto plan = MakeTpPlan(model, r.best.tp_degree).value();
  DecodeResult next = EvaluateDecode(model, H100(), plan, r.best.batch + 1, options.workload,
                                     options.engine);
  EXPECT_TRUE(!next.feasible || !next.meets_slo);
  // One more prompt must violate either the TTFT SLO or the memory capacity.
  PrefillSearchResult prefill = SearchPrefill(model, H100(), options);
  ASSERT_TRUE(prefill.found);
  ASSERT_LT(prefill.best.batch, options.max_batch);
  auto prefill_plan = MakeTpPlan(model, prefill.best.tp_degree).value();
  PrefillResult next_prefill = EvaluatePrefill(model, H100(), prefill_plan,
                                               prefill.best.batch + 1, options.workload,
                                               options.engine);
  EXPECT_TRUE(!next_prefill.feasible || !next_prefill.meets_slo)
      << "tp " << prefill.best.tp_degree << " batch " << prefill.best.batch;
}

TEST(Search, MatchesBruteForceSmallGrid) {
  // Shrink the problem so brute force is cheap: Llama3-8B with tight SLOs.
  TransformerSpec model = Llama3_8B();
  SearchOptions options;
  options.workload.tbt_slo_s = 0.004;  // forces a small batch
  options.max_batch = 256;
  DecodeSearchResult fast = SearchDecode(model, H100(), options);
  auto brute = BruteForceDecodeBest(model, H100(), options, 256);
  ASSERT_TRUE(fast.found);
  ASSERT_TRUE(brute.has_value());
  EXPECT_EQ(fast.best.tp_degree, brute->tp_degree);
  EXPECT_EQ(fast.best.batch, brute->batch);
  EXPECT_DOUBLE_EQ(fast.best.result.tokens_per_s_per_sm,
                   brute->result.tokens_per_s_per_sm);
}

TEST(Search, PrefillMatchesBruteForceSmallGrid) {
  TransformerSpec model = Llama3_8B();
  SearchOptions options;
  options.workload.ttft_slo_s = 0.1;
  options.max_batch = 64;
  PrefillSearchResult fast = SearchPrefill(model, H100(), options);
  auto brute = BruteForcePrefillBest(model, H100(), options, 64);
  ASSERT_TRUE(fast.found);
  ASSERT_TRUE(brute.has_value());
  EXPECT_EQ(fast.best.tp_degree, brute->tp_degree);
  EXPECT_EQ(fast.best.batch, brute->batch);
}

TEST(Search, InfeasibleWhenSloImpossiblyTight) {
  TransformerSpec model = Llama3_405B();
  SearchOptions options;
  options.workload.tbt_slo_s = 1e-6;
  DecodeSearchResult r = SearchDecode(model, H100(), options);
  EXPECT_FALSE(r.found);
}

TEST(Search, PerDegreeResultsCoverFeasibleDegrees) {
  TransformerSpec model = Llama3_70B();
  DecodeSearchResult r = SearchDecode(model, H100(), FastOptions());
  // H100 max 8: degrees 1,2,4,8 all fit Llama3-70B weights except degree 1
  // (70 GB weights + KV > 76 GB usable): at least 2,4,8 appear.
  EXPECT_GE(r.per_degree.size(), 3u);
  for (const auto& p : r.per_degree) {
    EXPECT_TRUE(p.result.meets_slo);
    EXPECT_GT(p.batch, 0);
  }
}

TEST(Search, LiteUsesMoreGpusThanH100For405B) {
  TransformerSpec model = Llama3_405B();
  DecodeSearchResult h100 = SearchDecode(model, H100(), FastOptions());
  DecodeSearchResult lite = SearchDecode(model, Lite(), FastOptions());
  ASSERT_TRUE(h100.found);
  ASSERT_TRUE(lite.found);
  // 405B weights only fit 32 Lite GPUs (20 GB each).
  EXPECT_EQ(lite.best.tp_degree, 32);
  EXPECT_LE(h100.best.tp_degree, 8);
}

TEST(Search, IdealShardPolicyNeverWorseForDecode) {
  TransformerSpec model = Llama3_405B();
  SearchOptions replicate = FastOptions();
  SearchOptions ideal = FastOptions();
  ideal.kv_policy = KvShardPolicy::kIdealShard;
  DecodeSearchResult a = SearchDecode(model, Lite(), replicate);
  DecodeSearchResult b = SearchDecode(model, Lite(), ideal);
  ASSERT_TRUE(a.found);
  ASSERT_TRUE(b.found);
  EXPECT_GE(b.best.result.tokens_per_s_per_sm, a.best.result.tokens_per_s_per_sm);
}

TEST(Search, MultiThreadedSweepIsBitIdenticalToSerial) {
  for (const auto& model : CaseStudyModels()) {
    SearchOptions serial = FastOptions();
    serial.exec.threads = 1;
    SearchOptions parallel = FastOptions();
    parallel.exec.threads = 4;
    DecodeSearchResult a = SearchDecode(model, Lite(), serial);
    DecodeSearchResult b = SearchDecode(model, Lite(), parallel);
    ASSERT_EQ(a.found, b.found) << model.name;
    ASSERT_EQ(a.per_degree.size(), b.per_degree.size()) << model.name;
    for (size_t i = 0; i < a.per_degree.size(); ++i) {
      EXPECT_EQ(a.per_degree[i].tp_degree, b.per_degree[i].tp_degree);
      EXPECT_EQ(a.per_degree[i].batch, b.per_degree[i].batch);
      EXPECT_EQ(a.per_degree[i].result.tokens_per_s_per_sm,
                b.per_degree[i].result.tokens_per_s_per_sm);  // bitwise
    }
    EXPECT_EQ(a.best.tp_degree, b.best.tp_degree) << model.name;
    EXPECT_EQ(a.best.batch, b.best.batch) << model.name;
    EXPECT_EQ(a.best.result.tokens_per_s_per_sm, b.best.result.tokens_per_s_per_sm);

    PrefillSearchResult pa = SearchPrefill(model, Lite(), serial);
    PrefillSearchResult pb = SearchPrefill(model, Lite(), parallel);
    ASSERT_EQ(pa.found, pb.found) << model.name;
    EXPECT_EQ(pa.best.tp_degree, pb.best.tp_degree) << model.name;
    EXPECT_EQ(pa.best.batch, pb.best.batch) << model.name;
    EXPECT_EQ(pa.best.result.tokens_per_s_per_sm, pb.best.result.tokens_per_s_per_sm);
  }
}

TEST(Search, MultiThreadedBruteForceMatchesSerial) {
  TransformerSpec model = Llama3_8B();
  SearchOptions serial;
  serial.workload.tbt_slo_s = 0.004;
  serial.max_batch = 256;
  serial.exec.threads = 1;
  SearchOptions parallel = serial;
  parallel.exec.threads = 4;
  auto a = BruteForceDecodeBest(model, H100(), serial, 256);
  auto b = BruteForceDecodeBest(model, H100(), parallel, 256);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->tp_degree, b->tp_degree);
  EXPECT_EQ(a->batch, b->batch);
  EXPECT_EQ(a->result.tokens_per_s_per_sm, b->result.tokens_per_s_per_sm);
}

TEST(Search, CapacityOffAllowsLargerBatches) {
  TransformerSpec model = Llama3_70B();
  SearchOptions on = FastOptions();
  SearchOptions off = FastOptions();
  off.workload.enforce_memory_capacity = false;
  DecodeSearchResult a = SearchDecode(model, Lite(), on);
  DecodeSearchResult b = SearchDecode(model, Lite(), off);
  ASSERT_TRUE(a.found);
  ASSERT_TRUE(b.found);
  EXPECT_GE(b.best.result.tokens_per_s_per_sm, a.best.result.tokens_per_s_per_sm);
}

}  // namespace
}  // namespace litegpu
