// The streamed serve core: a run fed straight from a generating
// RequestStream must equal the same run over the stream's drained records,
// bit for bit, on every metric and event log (and the reference core on
// the same requests); and a streamed run's per-request state must track
// the requests in flight, not the horizon.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/serve/simulator.h"
#include "src/serve/simulator_reference.h"
#include "src/serve/workload.h"
#include "src/util/rng.h"
#include "tests/serve_identity.h"

namespace litegpu {
namespace {

// Prefill passes cost 40 ms * sqrt(batch) up to batch 8; decode steps
// 4 ms + 0.1 ms per sequence up to batch 32.
StepTimeTable StreamTable() {
  std::vector<double> prefill, decode;
  for (int b = 1; b <= 8; ++b) {
    prefill.push_back(0.04 * std::sqrt(b));
  }
  for (int b = 1; b <= 32; ++b) {
    decode.push_back(0.004 + 1e-4 * b);
  }
  return StepTimeTable(std::move(prefill), std::move(decode));
}

// What ExpectBitIdentical leaves out: every TTFT sample in order (global
// and per class), the per-class admission counts, and the engine counters
// the two feeds must also agree on.
void ExpectStreamIdentical(const ServeMetrics& a, const ServeMetrics& b) {
  ExpectBitIdentical(a, b);
  EXPECT_EQ(a.ttft_s.samples(), b.ttft_s.samples());
  ASSERT_EQ(a.per_class.size(), b.per_class.size());
  for (size_t c = 0; c < a.per_class.size(); ++c) {
    EXPECT_EQ(a.per_class[c].admitted_requests, b.per_class[c].admitted_requests) << c;
    EXPECT_EQ(a.per_class[c].in_flight_at_horizon, b.per_class[c].in_flight_at_horizon) << c;
    EXPECT_EQ(a.per_class[c].ttft_s.samples(), b.per_class[c].ttft_s.samples()) << c;
  }
  EXPECT_EQ(a.events_popped, b.events_popped);
  EXPECT_EQ(a.peak_demand_entries, b.peak_demand_entries);
  EXPECT_EQ(a.peak_live_requests, b.peak_live_requests);
}

// One randomized configuration: 1-3 classes, one of the four arrival kinds
// (by index, so every kind recurs), and independently the reactive or
// predictive autoscaler, shedding, and faults under retry_with_budget.
// Every fifth group of four cases is long: thousands of requests overload
// one prefill instance under faults, so the live-request ring wraps and
// grows while it holds retry counts and first-token flags.
struct StreamCase {
  MultiClassWorkloadSpec workload;
  ServeClusterConfig cluster;
};

StreamCase MakeCase(int index, uint64_t seed) {
  SplitMix64 bits(seed);
  Rng rng(bits.Next());
  const bool long_case = (index / 4) % 5 == 4;
  StreamCase c;
  MultiClassWorkloadSpec& w = c.workload;
  w.seed = bits.Next();
  w.duration_s = long_case ? rng.Uniform(25.0, 35.0) : rng.Uniform(3.0, 8.0);
  int num_classes = 1 + static_cast<int>(rng.NextBelow(3));
  for (int k = 0; k < num_classes; ++k) {
    ClassWorkload cls;
    cls.arrival_rate_per_s =
        long_case ? rng.Uniform(150.0, 250.0) / num_classes : rng.Uniform(5.0, 40.0);
    cls.median_prompt_tokens = 200 + static_cast<int>(rng.NextBelow(1800));
    cls.prompt_sigma = rng.Chance(0.5) ? rng.Uniform(0.2, 0.8) : 0.0;
    cls.median_output_tokens = 4 + static_cast<int>(rng.NextBelow(60));
    cls.output_sigma = rng.Chance(0.7) ? rng.Uniform(0.2, 0.8) : 0.0;
    w.classes.push_back(cls);
  }
  ArrivalProcess& arrival = w.arrival;
  arrival.kind = static_cast<ArrivalKind>(index % 4);
  switch (arrival.kind) {
    case ArrivalKind::kPoisson:
      break;
    case ArrivalKind::kDiurnal:
      arrival.period_s = rng.Chance(0.5) ? 0.0 : rng.Uniform(1.0, 4.0);
      for (int k = 0; k < 4; ++k) {
        arrival.multipliers.push_back(rng.Uniform(0.0, 2.0));
      }
      arrival.multipliers.push_back(1.0);
      break;
    case ArrivalKind::kOnOff:
      arrival.on_mean_s = rng.Uniform(0.3, 2.0);
      arrival.off_mean_s = rng.Uniform(0.3, 2.0);
      arrival.on_multiplier = rng.Uniform(1.0, 3.0);
      arrival.off_multiplier = rng.Chance(0.3) ? 0.0 : rng.Uniform(0.1, 0.8);
      break;
    case ArrivalKind::kTrace: {
      // Ascending times with repeats, running past the horizon.
      double t = 0.0;
      while (t < w.duration_s * 1.2) {
        arrival.times_s.push_back(t);
        if (!rng.Chance(0.2)) {
          t += rng.Exponential(long_case ? 200.0 : 40.0);
        }
      }
      break;
    }
  }

  ServeClusterConfig& cfg = c.cluster;
  cfg.prefill_instances = long_case ? 1 : 1 + static_cast<int>(rng.NextBelow(3));
  cfg.decode_instances = 1 + static_cast<int>(rng.NextBelow(3));
  cfg.horizon_s = w.duration_s;
  cfg.num_classes = rng.Chance(0.5) ? num_classes : 0;
  if (rng.Chance(0.4)) {
    ServeAutoscalerConfig& a = cfg.autoscaler;
    a.enabled = true;
    a.predictive = rng.Chance(0.5);
    a.interval_s = rng.Uniform(0.3, 1.0);
    a.delay_s = rng.Uniform(0.1, 1.0);
    a.max_prefill_instances = 6;
    a.max_decode_instances = 6;
    a.forecast_window_s = rng.Uniform(1.0, 3.0);
    a.prefill_tokens_per_s = rng.Uniform(5000.0, 40000.0);
    a.decode_tokens_per_s = rng.Uniform(500.0, 4000.0);
  }
  if (!long_case && rng.Chance(0.3)) {
    if (rng.Chance(0.5)) {
      cfg.shedding.max_queue_depth = 2 + static_cast<int>(rng.NextBelow(10));
    } else {
      cfg.shedding.ttft_deadline_s = rng.Uniform(0.05, 0.5);
    }
  }
  if (long_case || rng.Chance(0.5)) {
    ServeFaultConfig& f = cfg.faults;
    f.enabled = true;
    f.prefill_failure_rate_per_s = rng.Uniform(0.1, 1.0);
    f.decode_failure_rate_per_s = rng.Uniform(0.1, 1.5);
    f.repair_s = rng.Uniform(0.2, 1.0);
    f.spare_activation_s = 0.1;
    f.prefill_spares = static_cast<int>(rng.NextBelow(2));
    f.decode_spares = static_cast<int>(rng.NextBelow(2));
    f.retry_policy = FaultRetryPolicy::kRetryWithBudget;
    f.retry_budget = 1 + static_cast<int>(rng.NextBelow(2));
    if (rng.Chance(0.3)) {
      f.domains.decode_instances_per_domain = 2;
      f.domains.failure_rate_per_s = 0.3;
      f.domains.repair_s = 0.4;
    }
    if (rng.Chance(0.3)) {
      f.degraded.prefill_rate_per_s = 0.3;
      f.degraded.decode_rate_per_s = 0.3;
      f.degraded.multiplier = 2.0;
      f.degraded.mean_duration_s = 0.4;
    }
    f.seed = FaultSubstreamSeed(bits.Next());
  }
  return c;
}

TEST(StreamedServe, StreamFedRunEqualsTheDrainedRecordsRun) {
  const StepTimeTable table = StreamTable();
  SplitMix64 seeds(0x57AEA3ULL);
  int kinds[4] = {0, 0, 0, 0};
  int classes_seen[4] = {0, 0, 0, 0};
  int reactive = 0, predictive = 0, shed = 0, retried = 0, dropped = 0, wide = 0;
  for (int i = 0; i < 240; ++i) {
    StreamCase c = MakeCase(i, seeds.Next());
    SCOPED_TRACE(::testing::Message() << "case " << i);
    std::vector<Request> records = GenerateMultiClassWorkload(c.workload);
    RequestStream stream(c.workload);
    ServeMetrics streamed = RunServeSimulation(stream, c.cluster, table);
    EXPECT_TRUE(stream.done());
    ServeMetrics materialized = RunServeSimulation(records, c.cluster, table);
    ExpectStreamIdentical(streamed, materialized);
    // Both feeds share the engine's live-request ring; the reference core
    // indexes full per-request arrays, so it checks the ring itself.
    ExpectBitIdentical(streamed, RunServeSimulationReference(records, c.cluster, table));
    // Every run drains: each admitted request completed, was dropped after
    // its retries, or was shed at the door.
    EXPECT_EQ(streamed.admitted_requests,
              streamed.completed_requests + streamed.dropped_requests + streamed.shed_requests);
    if (::testing::Test::HasFailure()) {
      return;  // one case's report is enough to debug
    }
    ++kinds[static_cast<int>(c.workload.arrival.kind)];
    ++classes_seen[c.workload.classes.size()];
    reactive += c.cluster.autoscaler.enabled && !c.cluster.autoscaler.predictive;
    predictive += c.cluster.autoscaler.enabled && c.cluster.autoscaler.predictive;
    shed += streamed.shed_requests > 0;
    retried += streamed.retried_requests > 0;
    dropped += streamed.dropped_requests > 0;
    // The ring starts at 1024 slots: ids past 2048 have wrapped it twice,
    // and a live span past 1024 made it grow, with retries in flight.
    wide += streamed.admitted_requests > 2048 && streamed.peak_live_requests > 1024 &&
            streamed.retried_requests > 0;
  }
  // The randomized set really covered every axis the ring state touches.
  for (int k = 0; k < 4; ++k) {
    EXPECT_GE(kinds[k], 50) << "arrival kind " << k;
  }
  for (int n = 1; n <= 3; ++n) {
    EXPECT_GE(classes_seen[n], 30) << n << " classes";
  }
  EXPECT_GE(reactive, 20);
  EXPECT_GE(predictive, 20);
  EXPECT_GE(shed, 20);
  EXPECT_GE(retried, 20);
  EXPECT_GE(dropped, 10) << "no run exhausted a retry budget";
  EXPECT_GE(wide, 20) << "too few runs wrapped and grew the live-request ring";
}

TEST(StreamedServe, DrainedStreamIsTheGeneratedRecords) {
  // Ids are stream positions, and a stream over records yields them in
  // order.
  MultiClassWorkloadSpec spec = MakeCase(3, 0xC0FFEE).workload;
  std::vector<Request> records = GenerateMultiClassWorkload(spec);
  ASSERT_GT(records.size(), 10u);
  RequestStream generated(spec);
  RequestStream read(records);
  EXPECT_EQ(read.ExpectedCount(), records.size());
  EXPECT_GE(generated.ExpectedCount(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_FALSE(generated.done());
    ASSERT_FALSE(read.done());
    EXPECT_EQ(generated.PeekArrival(), records[i].arrival_s);
    Request g = generated.Next();
    Request r = read.Next();
    EXPECT_EQ(g.id, static_cast<int>(i));
    EXPECT_EQ(r.id, static_cast<int>(i));
    EXPECT_EQ(records[i].id, static_cast<int>(i));
    EXPECT_EQ(g.arrival_s, r.arrival_s);
    EXPECT_EQ(g.prompt_tokens, r.prompt_tokens);
    EXPECT_EQ(g.output_tokens, r.output_tokens);
    EXPECT_EQ(g.class_id, r.class_id);
  }
  EXPECT_TRUE(generated.done());
  EXPECT_TRUE(read.done());
}

TEST(StreamedServe, LiveRequestsTrackTheWorkInFlightNotTheHorizon) {
  // A steady_poisson-shaped point: stationary single-class Poisson below
  // the pools' capacity, lognormal lengths with sigma 0.5, on fixed pools.
  // Quadrupling the horizon quadruples the admitted requests while the
  // live span, the engine's per-request state, barely moves.
  const StepTimeTable table = StreamTable();
  auto run = [&](double horizon_s) {
    MultiClassWorkloadSpec spec;
    spec.duration_s = horizon_s;
    spec.seed = 7;
    ClassWorkload cls;
    // 4 decode instances at batch 32 emit 4 * 32 / 7.2 ms tokens/s; 70% of
    // that at a mean of 32 * e^(0.5^2 / 2) output tokens per request. The
    // 10 prefill instances pass 8 prompts per 113 ms, ~700 requests/s.
    cls.arrival_rate_per_s = 0.7 * 4 * 32 / 0.0072 / (32 * std::exp(0.125));
    cls.median_prompt_tokens = 600;
    cls.prompt_sigma = 0.5;
    cls.median_output_tokens = 32;
    cls.output_sigma = 0.5;
    spec.classes.push_back(cls);
    ServeClusterConfig cfg;
    cfg.prefill_instances = 10;
    cfg.decode_instances = 4;
    cfg.horizon_s = horizon_s;
    RequestStream stream(spec);
    return RunServeSimulation(stream, cfg, table);
  };
  ServeMetrics short_run = run(20.0);
  ServeMetrics long_run = run(80.0);
  ASSERT_GT(short_run.admitted_requests, 5000);
  EXPECT_NEAR(static_cast<double>(long_run.admitted_requests) / short_run.admitted_requests,
              4.0, 0.2);
  ASSERT_GT(short_run.peak_live_requests, 0u);
  EXPECT_LT(static_cast<double>(long_run.peak_live_requests),
            1.5 * static_cast<double>(short_run.peak_live_requests));
  EXPECT_LT(long_run.peak_live_requests, static_cast<uint64_t>(long_run.admitted_requests / 20));
}

}  // namespace
}  // namespace litegpu
