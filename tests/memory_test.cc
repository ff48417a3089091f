#include <gtest/gtest.h>

#include "src/hw/catalog.h"
#include "src/memory/disagg.h"

namespace litegpu {
namespace {

struct DisaggSetup {
  TransformerSpec model = Llama3_70B();
  GpuSpec gpu = Lite();
  TpPlan plan = MakeTpPlan(Llama3_70B(), 8).value();
  MemoryPoolSpec pool;
  WorkloadParams workload;
  EngineParams engine;
};

TEST(Disagg, FullyLocalMatchesPlainDecode) {
  DisaggSetup s;
  DisaggPlacement local;
  local.local_fraction = 1.0;
  DisaggDecodeResult a =
      EvaluateDisaggDecode(s.model, s.gpu, s.plan, 64, s.pool, local, s.workload, s.engine);
  DecodeResult b = EvaluateDecode(s.model, s.gpu, s.plan, 64, s.workload, s.engine);
  ASSERT_TRUE(a.feasible);
  ASSERT_TRUE(b.feasible);
  EXPECT_NEAR(a.tbt_s, b.tbt_s, 1e-12);
  EXPECT_DOUBLE_EQ(a.remote_memory_s, 0.0);
}

TEST(Disagg, PoolRelievesCapacityCeiling) {
  // Batch 400 does not fit Lite's 20 GB locally at TP=8, but fits with half
  // the KV cache in the pool.
  DisaggSetup s;
  DisaggPlacement local;
  local.local_fraction = 1.0;
  DisaggDecodeResult no_pool =
      EvaluateDisaggDecode(s.model, s.gpu, s.plan, 400, s.pool, local, s.workload, s.engine);
  EXPECT_FALSE(no_pool.feasible);
  DisaggPlacement half;
  half.local_fraction = 0.5;
  DisaggDecodeResult with_pool =
      EvaluateDisaggDecode(s.model, s.gpu, s.plan, 400, s.pool, half, s.workload, s.engine);
  EXPECT_TRUE(with_pool.feasible);
}

TEST(Disagg, RemoteSliceSlowsTheStep) {
  DisaggSetup s;
  double prev = 0.0;
  for (double f : {1.0, 0.75, 0.5, 0.25}) {
    DisaggPlacement placement;
    placement.local_fraction = f;
    DisaggDecodeResult r = EvaluateDisaggDecode(s.model, s.gpu, s.plan, 128, s.pool,
                                                placement, s.workload, s.engine);
    ASSERT_TRUE(r.feasible) << f;
    EXPECT_GE(r.tbt_s, prev) << f;
    prev = r.tbt_s;
  }
}

TEST(Disagg, SharedNicSerializesDedicatedOverlaps) {
  DisaggSetup s;
  DisaggPlacement placement;
  placement.local_fraction = 0.5;
  MemoryPoolSpec dedicated = s.pool;
  dedicated.shares_nic = false;
  MemoryPoolSpec shared = s.pool;
  shared.shares_nic = true;
  DisaggDecodeResult a = EvaluateDisaggDecode(s.model, s.gpu, s.plan, 128, dedicated,
                                              placement, s.workload, s.engine);
  DisaggDecodeResult b = EvaluateDisaggDecode(s.model, s.gpu, s.plan, 128, shared, placement,
                                              s.workload, s.engine);
  ASSERT_TRUE(a.feasible && b.feasible);
  EXPECT_LT(a.tbt_s, b.tbt_s);
}

TEST(Disagg, FasterPoolShrinksRemoteTime) {
  DisaggSetup s;
  DisaggPlacement placement;
  placement.local_fraction = 0.5;
  MemoryPoolSpec slow = s.pool;
  slow.bw_bytes_per_s = 25e9;
  MemoryPoolSpec fast = s.pool;
  fast.bw_bytes_per_s = 200e9;
  DisaggDecodeResult a =
      EvaluateDisaggDecode(s.model, s.gpu, s.plan, 128, slow, placement, s.workload, s.engine);
  DisaggDecodeResult b =
      EvaluateDisaggDecode(s.model, s.gpu, s.plan, 128, fast, placement, s.workload, s.engine);
  ASSERT_TRUE(a.feasible && b.feasible);
  EXPECT_GT(a.remote_memory_s, b.remote_memory_s);
}

TEST(Disagg, MaxBatchGrowsAsKvMovesRemote) {
  DisaggSetup s;
  int max_context = s.workload.prompt_tokens + s.workload.output_tokens;
  DisaggPlacement all_local;
  all_local.local_fraction = 1.0;
  DisaggPlacement half;
  half.local_fraction = 0.5;
  int local_max = MaxBatchWithPool(s.model, s.plan, s.gpu, s.pool, all_local, max_context);
  int pooled_max = MaxBatchWithPool(s.model, s.plan, s.gpu, s.pool, half, max_context);
  EXPECT_GT(pooled_max, local_max);
  EXPECT_GT(local_max, 0);
}

TEST(Disagg, MaxBatchLimitedByPoolWhenMostlyRemote) {
  DisaggSetup s;
  MemoryPoolSpec tiny_pool = s.pool;
  tiny_pool.capacity_per_gpu_bytes = 1e9;
  DisaggPlacement mostly_remote;
  mostly_remote.local_fraction = 0.1;
  int max_context = s.workload.prompt_tokens + s.workload.output_tokens;
  int with_tiny =
      MaxBatchWithPool(s.model, s.plan, s.gpu, tiny_pool, mostly_remote, max_context);
  int with_big = MaxBatchWithPool(s.model, s.plan, s.gpu, s.pool, mostly_remote, max_context);
  EXPECT_LT(with_tiny, with_big);
}

TEST(Disagg, CapacityOffIgnoresLimits) {
  DisaggSetup s;
  s.workload.enforce_memory_capacity = false;
  DisaggPlacement local;
  local.local_fraction = 1.0;
  DisaggDecodeResult r = EvaluateDisaggDecode(s.model, s.gpu, s.plan, 100000, s.pool, local,
                                              s.workload, s.engine);
  EXPECT_TRUE(r.feasible);
}

}  // namespace
}  // namespace litegpu
