// Sharded serve points: a long single-point horizon split into independent
// sub-horizon replications, merged deterministically. Covers the merge
// algebra at the simulator level, the runner's determinism contract
// (shards <= 1 is byte-identical to serial; shards >= 2 is identical at
// any thread count), the validation fence around time-inhomogeneous
// features, and the scenario JSON round trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/core/runner.h"
#include "src/core/scenario.h"
#include "src/serve/simulator.h"
#include "src/serve/workload.h"

namespace litegpu {
namespace {

Scenario ServeScenario(const ServeKnobs& knobs, int threads = 0) {
  Scenario s;
  s.study = StudyKind::kServe;
  s.serve = knobs;
  s.exec.threads = threads;
  return s;
}

Scenario SweepScenario(const ServeSweepKnobs& knobs, int threads = 0) {
  Scenario s;
  s.study = StudyKind::kServeSweep;
  s.sweep = knobs;
  s.exec.threads = threads;
  return s;
}

StepTimeTable ConstantTable() {
  std::vector<double> prefill_s;
  for (int b = 1; b <= 8; ++b) {
    prefill_s.push_back(0.05 * b);
  }
  return StepTimeTable(std::move(prefill_s), std::vector<double>(64, 0.01));
}

ServeMetrics RunShard(double horizon_s, uint64_t seed) {
  WorkloadSpec spec;
  spec.arrival_rate_per_s = 20.0;
  spec.duration_s = horizon_s;
  spec.median_prompt_tokens = 200;
  spec.median_output_tokens = 32;
  spec.seed = seed;
  ServeClusterConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 2;
  config.horizon_s = horizon_s;
  config.stream_ttft = true;  // shard mode always streams TTFT
  return RunServeSimulation(GenerateWorkload(spec), config, ConstantTable());
}

// --- substream seeds ---

TEST(ShardSubstreamSeed, ShardZeroInheritsTheBaseSeedAndLaterShardsDiverge) {
  const uint64_t seed = 0xC0FFEE;
  EXPECT_EQ(ShardSubstreamSeed(seed, 0), seed);
  std::vector<uint64_t> seen;
  for (size_t shard = 0; shard < 16; ++shard) {
    uint64_t s = ShardSubstreamSeed(seed, shard);
    EXPECT_EQ(s, ShardSubstreamSeed(seed, shard));  // pure in (seed, shard)
    for (uint64_t prev : seen) {
      EXPECT_NE(s, prev) << "shard " << shard;
    }
    // Shard substreams must not collide with class substreams of the same
    // base seed — a sharded multi-class point uses both families at once.
    for (size_t cls = 0; cls < 8; ++cls) {
      if (shard == 0 && cls == 0) {
        continue;  // both families anchor substream 0 at the base seed
      }
      EXPECT_NE(s, ClassSubstreamSeed(seed, cls));
    }
    seen.push_back(s);
  }
}

// --- merge algebra ---

TEST(MergeServeShardMetrics, MergeOfASingleShardIsThatShard) {
  ServeMetrics shard = RunShard(10.0, 0xC0FFEE);
  ServeClusterConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 2;
  config.horizon_s = 10.0;
  config.stream_ttft = true;
  ServeMetrics merged = MergeServeShardMetrics(config, {shard});
  EXPECT_EQ(merged.completed_requests, shard.completed_requests);
  EXPECT_EQ(merged.admitted_requests, shard.admitted_requests);
  EXPECT_EQ(merged.in_flight_at_horizon, shard.in_flight_at_horizon);
  EXPECT_EQ(merged.output_tokens, shard.output_tokens);
  EXPECT_EQ(merged.makespan_s, shard.makespan_s);
  EXPECT_EQ(merged.decode_tokens_per_s, shard.decode_tokens_per_s);
  EXPECT_EQ(merged.prefill_utilization, shard.prefill_utilization);
  EXPECT_EQ(merged.decode_utilization, shard.decode_utilization);
  EXPECT_EQ(merged.mean_decode_batch, shard.mean_decode_batch);
  EXPECT_TRUE(merged.ttft_streamed);
  EXPECT_EQ(merged.ttft_hist.count(), shard.ttft_hist.count());
  EXPECT_EQ(merged.ttft_hist.Quantile(0.5), shard.ttft_hist.Quantile(0.5));
  EXPECT_EQ(merged.tbt_s.count(), shard.tbt_s.count());
  EXPECT_EQ(merged.tbt_s.Quantile(0.99), shard.tbt_s.Quantile(0.99));
}

TEST(MergeServeShardMetrics, CountsSumAndRatiosRecomputeFromSummedAggregates) {
  ServeMetrics a = RunShard(10.0, ShardSubstreamSeed(1234, 0));
  ServeMetrics b = RunShard(10.0, ShardSubstreamSeed(1234, 1));
  ServeClusterConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 2;
  config.horizon_s = 10.0;
  config.stream_ttft = true;
  ServeMetrics merged = MergeServeShardMetrics(config, {a, b});
  EXPECT_EQ(merged.completed_requests, a.completed_requests + b.completed_requests);
  EXPECT_EQ(merged.admitted_requests, a.admitted_requests + b.admitted_requests);
  EXPECT_EQ(merged.in_flight_at_horizon,
            a.in_flight_at_horizon + b.in_flight_at_horizon);
  EXPECT_DOUBLE_EQ(merged.output_tokens, a.output_tokens + b.output_tokens);
  // The live span is a per-run high-water mark: the merge keeps the widest.
  ASSERT_GT(a.peak_live_requests, 0u);
  EXPECT_EQ(merged.peak_live_requests, std::max(a.peak_live_requests, b.peak_live_requests));
  // Sub-horizons run back to back in merged time: the makespan is the sum.
  EXPECT_DOUBLE_EQ(merged.makespan_s, a.makespan_s + b.makespan_s);
  // Ratios come from summed numerators and denominators, not averaged
  // per-shard ratios.
  EXPECT_DOUBLE_EQ(merged.decode_tokens_per_s,
                   (a.output_tokens + b.output_tokens) / merged.makespan_s);
  EXPECT_DOUBLE_EQ(merged.prefill_utilization,
                   (a.prefill_busy_s + b.prefill_busy_s) /
                       (2.0 * merged.makespan_s));
  EXPECT_DOUBLE_EQ(merged.mean_decode_batch,
                   (a.decode_batch_time_product + b.decode_batch_time_product) /
                       (a.decode_busy_s + b.decode_busy_s));
  // Histograms merge bin-wise: counts add, and the merged quantile is
  // bracketed by the shard quantiles.
  EXPECT_EQ(merged.ttft_hist.count(), a.ttft_hist.count() + b.ttft_hist.count());
  EXPECT_EQ(merged.tbt_s.count(), a.tbt_s.count() + b.tbt_s.count());
  double lo = std::min(a.ttft_hist.Quantile(0.5), b.ttft_hist.Quantile(0.5));
  double hi = std::max(a.ttft_hist.Quantile(0.5), b.ttft_hist.Quantile(0.5));
  EXPECT_GE(merged.ttft_hist.Quantile(0.5), lo);
  EXPECT_LE(merged.ttft_hist.Quantile(0.5), hi);
  // Merge order is shard-index order, so the merge itself is reproducible.
  ServeMetrics again = MergeServeShardMetrics(config, {a, b});
  EXPECT_EQ(again.ttft_hist.Quantile(0.99), merged.ttft_hist.Quantile(0.99));
  EXPECT_EQ(again.decode_tokens_per_s, merged.decode_tokens_per_s);
}

// --- runner determinism contract ---

TEST(Runner, ShardsOffAndOneAreByteIdentical) {
  ServeKnobs knobs;
  knobs.horizon_s = 20.0;
  Scenario off = ServeScenario(knobs);
  knobs.shards = 1;
  Scenario one = ServeScenario(knobs);
  RunReport a = Runner().Run(off);
  RunReport b = Runner().Run(one);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(a.ToJson().Dump(), b.ToJson().Dump());
}

TEST(Runner, ShardedServePointIsIdenticalAtAnyThreadCount) {
  for (int shards : {2, 8}) {
    ServeKnobs knobs;
    knobs.horizon_s = 24.0;
    knobs.shards = shards;
    Scenario serial = ServeScenario(knobs, 1);
    Scenario parallel = serial;
    parallel.exec.threads = 0;  // hardware concurrency
    Scenario oversubscribed = serial;
    oversubscribed.exec.threads = 13;  // more threads than shards
    RunReport a = Runner().Run(serial);
    RunReport b = Runner().Run(parallel);
    RunReport c = Runner().Run(oversubscribed);
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    ASSERT_TRUE(c.ok) << c.error;
    EXPECT_EQ(a.ToJson().Dump(), b.ToJson().Dump()) << shards << " shards";
    EXPECT_EQ(a.ToJson().Dump(), c.ToJson().Dump()) << shards << " shards";
  }
}

TEST(Runner, ShardedServePointApproximatesTheSerialPoint) {
  // Shards replicate the same stationary process over shorter horizons:
  // the merged point is a statistical replica, not a bit-identical one.
  ServeKnobs knobs;
  knobs.horizon_s = 40.0;
  Scenario serial = ServeScenario(knobs);
  knobs.shards = 4;
  Scenario sharded = ServeScenario(knobs);
  RunReport a = Runner().Run(serial);
  RunReport b = Runner().Run(sharded);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  const auto& sa = std::get<ServeStudyReport>(a.payload);
  const auto& sb = std::get<ServeStudyReport>(b.payload);
  ASSERT_GT(sa.completed_requests, 0);
  ASSERT_GT(sb.completed_requests, 0);
  double ratio = static_cast<double>(sb.completed_requests) /
                 static_cast<double>(sa.completed_requests);
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.2);
  // TTFT streams into fixed bins under sharding; the median still has to
  // land in the same regime as the exact serial percentile.
  EXPECT_NEAR(sb.ttft_p50_s, sa.ttft_p50_s, std::max(0.05, sa.ttft_p50_s));
}

TEST(Runner, ShardedSweepIsIdenticalAtAnyThreadCount) {
  ServeSweepKnobs knobs;
  knobs.loads = {0.5, 0.9};
  knobs.horizon_s = 16.0;
  knobs.shards = 2;
  Scenario serial = SweepScenario(knobs, 1);
  Scenario parallel = serial;
  parallel.exec.threads = 0;
  RunReport a = Runner().Run(serial);
  RunReport b = Runner().Run(parallel);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(a.ToJson().Dump(), b.ToJson().Dump());
}

// --- validation fence ---

TEST(Scenario, ShardsRejectTimeInhomogeneousFeatures) {
  std::string error;

  ServeKnobs knobs;
  knobs.shards = 2000;
  error = ServeScenario(knobs).Validate();
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("shards must be in [0, 1024]"), std::string::npos);
  knobs.shards = -1;
  error = ServeScenario(knobs).Validate();
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("shards must be in [0, 1024]"), std::string::npos);

  knobs = ServeKnobs{};
  knobs.shards = 2;
  knobs.autoscaler.policy = AutoscalerPolicy::kReactive;
  error = ServeScenario(knobs).Validate();
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("autoscaler to be disabled"), std::string::npos);

  knobs = ServeKnobs{};
  knobs.shards = 2;
  knobs.faults.afr = 0.1;
  error = ServeScenario(knobs).Validate();
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("faults to be disabled"), std::string::npos);

  knobs = ServeKnobs{};
  knobs.shards = 2;
  knobs.arrival.kind = ArrivalKind::kDiurnal;
  knobs.arrival.multipliers = {0.5, 2.0};
  error = ServeScenario(knobs).Validate();
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("stationary arrival process"), std::string::npos);

  knobs = ServeKnobs{};
  knobs.shards = 2;
  knobs.arrival.kind = ArrivalKind::kTrace;
  knobs.arrival.times_s = {0.5, 1.0, 1.5};
  error = ServeScenario(knobs).Validate();
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("stationary arrival process"), std::string::npos);

  // The on/off burst process is stationary in distribution; shards allow it.
  knobs = ServeKnobs{};
  knobs.shards = 2;
  knobs.arrival.kind = ArrivalKind::kOnOff;
  EXPECT_EQ(ServeScenario(knobs).Validate(), "");

  // Same fence for the sweep block.
  ServeSweepKnobs sweep;
  sweep.shards = 2;
  sweep.faults.afr = 0.1;
  error = SweepScenario(sweep).Validate();
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("faults to be disabled"), std::string::npos);
}

// --- scenario JSON ---

TEST(Scenario, ShardsRoundTripThroughJsonAndDefaultSerializesToNothing) {
  ServeKnobs knobs;
  knobs.horizon_s = 12.0;
  knobs.shards = 4;
  Scenario original = ServeScenario(knobs);
  std::string error;
  auto restored = ScenarioFromJson(ScenarioToJson(original), &error);
  ASSERT_TRUE(restored.has_value()) << error;
  EXPECT_TRUE(*restored == original);
  EXPECT_EQ(restored->serve.shards, 4);

  // shards <= 1 is the serial default: it must not appear in the JSON, so
  // pre-existing scenarios and reports stay byte-identical.
  knobs.shards = 0;
  Scenario serial = ServeScenario(knobs);
  EXPECT_EQ(ScenarioToJson(serial).Dump().find("shards"), std::string::npos);
  knobs.shards = 1;
  Scenario one = ServeScenario(knobs);
  EXPECT_EQ(ScenarioToJson(one).Dump(), ScenarioToJson(serial).Dump());
}

}  // namespace
}  // namespace litegpu
