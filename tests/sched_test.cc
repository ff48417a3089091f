#include <gtest/gtest.h>

#include "src/hw/catalog.h"
#include "src/sched/allocator.h"
#include "src/sched/pools.h"
#include "src/sched/power_sched.h"
#include "src/util/rng.h"

namespace litegpu {
namespace {

// --- allocator ---

TEST(Allocator, Grants) {
  ClusterAllocator alloc(8, 1.0);
  Allocation a = alloc.Allocate({1, 2.0});
  EXPECT_TRUE(a.satisfied);
  EXPECT_EQ(a.units, 2);
  EXPECT_EQ(alloc.used_units(), 2);
}

TEST(Allocator, RejectsWhenFull) {
  ClusterAllocator alloc(4, 1.0);
  EXPECT_TRUE(alloc.Allocate({1, 3.0}).satisfied);
  EXPECT_FALSE(alloc.Allocate({2, 2.0}).satisfied);
  EXPECT_TRUE(alloc.Allocate({3, 1.0}).satisfied);
}

TEST(Allocator, FractionalDemandRoundsUpToQuantum) {
  ClusterAllocator coarse(8, 1.0);
  Allocation a = coarse.Allocate({1, 0.3});
  EXPECT_EQ(a.units, 1);  // 0.3 H100 -> 1 whole H100
  ClusterAllocator fine(32, 0.25);
  Allocation b = fine.Allocate({1, 0.3});
  EXPECT_EQ(b.units, 2);  // 0.3 H100 -> 2 quarter-GPUs (0.5)
  EXPECT_GT(fine.AllocationEfficiency(), coarse.AllocationEfficiency());
}

TEST(Allocator, EfficiencyOneForExactMultiples) {
  ClusterAllocator alloc(8, 1.0);
  alloc.Allocate({1, 3.0});
  alloc.Allocate({2, 2.0});
  EXPECT_DOUBLE_EQ(alloc.AllocationEfficiency(), 1.0);
}

TEST(Allocator, FineGranularityPacksMoreJobs) {
  // Random fractional jobs; the Lite-granularity cluster of equal capacity
  // must pack at least as many and waste less.
  Rng rng(99);
  std::vector<AllocationRequest> requests;
  for (int i = 0; i < 64; ++i) {
    requests.push_back({i, rng.Uniform(0.2, 2.5)});
  }
  GranularityComparison cmp = CompareGranularity(requests, 16, 4);
  EXPECT_GE(cmp.fine_jobs_packed, cmp.coarse_jobs_packed);
  EXPECT_GE(cmp.fine_efficiency, cmp.coarse_efficiency);
  EXPECT_GT(cmp.fine_efficiency, 0.85);
}

// --- power scheduling ---

TEST(PowerSched, TraceShape) {
  auto trace = DiurnalLoadTrace(24);
  ASSERT_EQ(trace.size(), 24u);
  double lo = 1.0;
  double hi = 0.0;
  for (double l : trace) {
    lo = std::min(lo, l);
    hi = std::max(hi, l);
    EXPECT_GE(l, 0.15);
    EXPECT_LE(l, 1.0);
  }
  EXPECT_LT(lo, 0.3);   // overnight trough
  EXPECT_GT(hi, 0.9);   // daytime peak
}

TEST(PowerSched, AllPoliciesServeTheLoad) {
  auto trace = DiurnalLoadTrace(96);
  DvfsModel dvfs;
  dvfs.nominal_power_watts = Lite().tdp_watts;
  for (PowerPolicy policy :
       {PowerPolicy::kAllDvfs, PowerPolicy::kPowerOffIdle, PowerPolicy::kHybrid}) {
    PowerScheduleResult r = RunPowerSchedule(Lite(), 32, trace, policy, dvfs);
    EXPECT_GT(r.service_level, 0.999) << ToString(policy);
    EXPECT_GT(r.average_power_watts, 0.0);
    EXPECT_GE(r.peak_power_watts, r.average_power_watts);
  }
}

TEST(PowerSched, HybridNeverWorseThanPureDvfsAtLowLoad) {
  std::vector<double> low_trace(24, 0.2);
  DvfsModel dvfs;
  dvfs.nominal_power_watts = Lite().tdp_watts;
  PowerScheduleResult dvfs_only =
      RunPowerSchedule(Lite(), 32, low_trace, PowerPolicy::kAllDvfs, dvfs);
  PowerScheduleResult hybrid =
      RunPowerSchedule(Lite(), 32, low_trace, PowerPolicy::kHybrid, dvfs);
  EXPECT_LE(hybrid.average_power_watts, dvfs_only.average_power_watts);
  EXPECT_GT(hybrid.service_level, 0.999);
}

TEST(PowerSched, FinerQuantumSavesEnergyAtLowLoad) {
  // Paper Section 3: down-clocking/powering at Lite granularity beats doing
  // it in whole-H100 steps. Equal fleet capacity, equal min-active share.
  std::vector<double> low_trace(24, 0.17);
  DvfsModel h100_dvfs;
  h100_dvfs.nominal_power_watts = H100().tdp_watts;
  DvfsModel lite_dvfs;
  lite_dvfs.nominal_power_watts = H100().tdp_watts / 4.0;  // isolate granularity
  PowerScheduleResult coarse =
      RunPowerSchedule(H100(), 8, low_trace, PowerPolicy::kPowerOffIdle, h100_dvfs, 0.125);
  PowerScheduleResult fine =
      RunPowerSchedule(Lite(), 32, low_trace, PowerPolicy::kPowerOffIdle, lite_dvfs, 0.125);
  EXPECT_LT(fine.average_power_watts, coarse.average_power_watts);
  EXPECT_GT(fine.service_level, 0.999);
}

TEST(PowerSched, PeakServingTradeoff) {
  DvfsModel dvfs;
  dvfs.nominal_power_watts = Lite().tdp_watts;
  // Small peak: overclocking beats paying static power on extra devices
  // when the extras carry networking overhead.
  PeakServingComparison small = ComparePeakServing(Lite(), 32, 1.05, dvfs, 25.0);
  EXPECT_TRUE(small.overclock_feasible);
  EXPECT_LT(small.overclock_power_watts, small.extra_devices_power_watts);
  // Beyond the DVFS ceiling, overclocking is not an option at all.
  PeakServingComparison big = ComparePeakServing(Lite(), 32, 1.5, dvfs, 25.0);
  EXPECT_FALSE(big.overclock_feasible);
  EXPECT_GT(big.extra_devices_power_watts, 0.0);
}

// --- pools ---

TEST(Pools, SizesMeetDemandWithHeadroom) {
  PoolDemand demand;
  demand.requests_per_s = 20.0;
  InstanceCapacity capacity;
  capacity.prefill_tokens_per_s = 28000.0;
  capacity.decode_tokens_per_s = 24000.0;
  capacity.prefill_gpus = 2;
  capacity.decode_gpus = 4;
  PoolPlan plan = SizePools(demand, capacity);
  EXPECT_GE(plan.prefill_instances * capacity.prefill_tokens_per_s,
            demand.requests_per_s * demand.prompt_tokens * demand.provisioning_headroom);
  EXPECT_GE(plan.decode_instances * capacity.decode_tokens_per_s,
            demand.requests_per_s * demand.output_tokens * demand.provisioning_headroom);
  EXPECT_EQ(plan.total_gpus, plan.prefill_gpus + plan.decode_gpus);
  EXPECT_GE(plan.prefill_overprovision, demand.provisioning_headroom - 1e-9);
}

TEST(Pools, SmallerInstancesReduceOverprovision) {
  PoolDemand demand;
  demand.requests_per_s = 3.0;
  InstanceCapacity big;  // H100-sized instances
  big.prefill_tokens_per_s = 28000.0;
  big.decode_tokens_per_s = 24000.0;
  big.prefill_gpus = 2;
  big.decode_gpus = 4;
  InstanceCapacity quarter = big;  // Lite-sized instances: 1/4 the quantum
  quarter.prefill_tokens_per_s /= 4.0;
  quarter.decode_tokens_per_s /= 4.0;
  PoolPlan coarse = SizePools(demand, big);
  PoolPlan fine = SizePools(demand, quarter);
  EXPECT_LE(fine.prefill_overprovision, coarse.prefill_overprovision + 1e-9);
  EXPECT_LE(fine.decode_overprovision, coarse.decode_overprovision + 1e-9);
}

TEST(Pools, InvalidCapacityGivesEmptyPlan) {
  PoolDemand demand;
  InstanceCapacity capacity;  // zero throughput
  PoolPlan plan = SizePools(demand, capacity);
  EXPECT_EQ(plan.total_gpus, 0);
}

}  // namespace
}  // namespace litegpu
