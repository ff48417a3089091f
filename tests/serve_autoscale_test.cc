// Time-varying arrival processes and mid-horizon autoscaling: the
// generator-level contracts (diurnal thinning, on/off bursts, exact trace
// replay, substream stability), the scenario-level JSON round trips and
// validation, and the runner-level determinism/report guarantees.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
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

// --- generator: diurnal ---

TEST(ArrivalProcess, DiurnalCurveModulatesTheArrivalRate) {
  WorkloadSpec spec;
  spec.arrival_rate_per_s = 40.0;
  spec.duration_s = 100.0;
  spec.arrival.kind = ArrivalKind::kDiurnal;
  // Quiet first half, busy second half (period 0 = one period per horizon).
  spec.arrival.multipliers = {0.1, 0.1, 2.0, 2.0};
  auto requests = GenerateWorkload(spec);
  ASSERT_FALSE(requests.empty());
  size_t first_half = 0;
  for (const Request& r : requests) {
    EXPECT_GE(r.arrival_s, 0.0);
    EXPECT_LT(r.arrival_s, spec.duration_s);
    if (r.arrival_s < spec.duration_s / 2) {
      ++first_half;
    }
  }
  // The busy half carries a multiple of the quiet half's arrivals (the
  // interpolated curve integrates to ~2.7x between the halves).
  EXPECT_GT(requests.size() - first_half, 2 * first_half);
  EXPECT_TRUE(std::is_sorted(requests.begin(), requests.end(),
                             [](const Request& a, const Request& b) {
                               return a.arrival_s < b.arrival_s;
                             }));
}

TEST(ArrivalProcess, DiurnalMultiplierInterpolatesAndWraps) {
  ArrivalProcess process;
  process.kind = ArrivalKind::kDiurnal;
  process.period_s = 100.0;
  process.multipliers = {1.0, 3.0};
  // Control points at 0 and 50, wrapping back to 1.0 at 100.
  EXPECT_DOUBLE_EQ(ArrivalRateMultiplier(process, 500.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(ArrivalRateMultiplier(process, 500.0, 25.0), 2.0);
  EXPECT_DOUBLE_EQ(ArrivalRateMultiplier(process, 500.0, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(ArrivalRateMultiplier(process, 500.0, 75.0), 2.0);
  EXPECT_DOUBLE_EQ(ArrivalRateMultiplier(process, 500.0, 125.0), 2.0);  // wraps
  EXPECT_DOUBLE_EQ(PeakRateMultiplier(process), 3.0);
}

// --- generator: on/off bursts ---

TEST(ArrivalProcess, OnOffAlternatesBurstsAndLulls) {
  WorkloadSpec spec;
  spec.arrival_rate_per_s = 30.0;
  spec.duration_s = 120.0;
  spec.arrival.kind = ArrivalKind::kOnOff;
  spec.arrival.on_mean_s = 5.0;
  spec.arrival.off_mean_s = 5.0;
  spec.arrival.on_multiplier = 2.0;
  spec.arrival.off_multiplier = 0.0;  // silent off phases
  auto requests = GenerateWorkload(spec);
  ASSERT_FALSE(requests.empty());
  EXPECT_TRUE(std::is_sorted(requests.begin(), requests.end(),
                             [](const Request& a, const Request& b) {
                               return a.arrival_s < b.arrival_s;
                             }));
  // On half the time at 2x, off half the time at 0x: the mean offered rate
  // is about the base rate, so the count should be well under a constant
  // 2x process and well over a constant 0.25x one.
  size_t count = requests.size();
  EXPECT_GT(count, spec.duration_s * spec.arrival_rate_per_s * 0.4);
  EXPECT_LT(count, spec.duration_s * spec.arrival_rate_per_s * 1.8);
}

// --- generator: trace replay ---

TEST(ArrivalProcess, TraceReplaysExactTimesWithinTheHorizon) {
  WorkloadSpec spec;
  spec.duration_s = 5.0;
  spec.arrival_rate_per_s = 0.0;  // ignored for traces
  spec.arrival.kind = ArrivalKind::kTrace;
  spec.arrival.times_s = {0.5, 1.0, 2.5, 9.9};  // 9.9 is past the horizon
  auto requests = GenerateWorkload(spec);
  ASSERT_EQ(requests.size(), 3u);
  EXPECT_DOUBLE_EQ(requests[0].arrival_s, 0.5);
  EXPECT_DOUBLE_EQ(requests[1].arrival_s, 1.0);
  EXPECT_DOUBLE_EQ(requests[2].arrival_s, 2.5);
  for (const Request& r : requests) {
    EXPECT_EQ(r.prompt_tokens, spec.median_prompt_tokens);  // sigma 0
    EXPECT_EQ(r.output_tokens, spec.median_output_tokens);
  }
  EXPECT_DOUBLE_EQ(MeanTraceRatePerS(spec.arrival, 5.0), 3.0 / 5.0);
}

TEST(ArrivalProcess, OneClassTraceMixMatchesClasslessReplay) {
  ArrivalProcess trace;
  trace.kind = ArrivalKind::kTrace;
  trace.times_s = {0.25, 1.5, 3.0, 4.75};
  WorkloadSpec single;
  single.duration_s = 10.0;
  single.seed = 77;
  single.arrival = trace;
  MultiClassWorkloadSpec mix;
  mix.duration_s = 10.0;
  mix.seed = 77;
  mix.arrival = trace;
  mix.classes.push_back(ClassWorkload{});  // same lengths as the default spec
  auto classless = GenerateWorkload(single);
  auto one_class = GenerateMultiClassWorkload(mix);
  ASSERT_EQ(classless.size(), one_class.size());
  for (size_t i = 0; i < classless.size(); ++i) {
    EXPECT_DOUBLE_EQ(classless[i].arrival_s, one_class[i].arrival_s);
    EXPECT_EQ(classless[i].prompt_tokens, one_class[i].prompt_tokens);
    EXPECT_EQ(classless[i].output_tokens, one_class[i].output_tokens);
  }
}

// --- generator: substream stability ---

TEST(ArrivalProcess, ExplicitPoissonKindIsBitIdenticalToTheDefault) {
  WorkloadSpec legacy;
  legacy.arrival_rate_per_s = 20.0;
  legacy.duration_s = 30.0;
  legacy.prompt_sigma = 0.3;
  legacy.output_sigma = 0.2;
  WorkloadSpec explicit_kind = legacy;
  explicit_kind.arrival.kind = ArrivalKind::kPoisson;
  // Unused per-kind fields must not leak into the Poisson path.
  explicit_kind.arrival.multipliers = {9.0};
  explicit_kind.arrival.on_mean_s = 0.001;
  auto a = GenerateWorkload(legacy);
  auto b = GenerateWorkload(explicit_kind);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].arrival_s, b[i].arrival_s);
    EXPECT_EQ(a[i].prompt_tokens, b[i].prompt_tokens);
    EXPECT_EQ(a[i].output_tokens, b[i].output_tokens);
  }
}

// Appending a class must not perturb existing classes' substreams for the
// independent-substream kinds (trace is excluded by design: its rate-share
// split couples classes — see MultiClassWorkloadSpec::arrival).
void ExpectAppendStability(const ArrivalProcess& arrival) {
  MultiClassWorkloadSpec spec;
  spec.duration_s = 40.0;
  spec.seed = 1234;
  spec.arrival = arrival;
  ClassWorkload chat;
  chat.arrival_rate_per_s = 8.0;
  ClassWorkload batch;
  batch.arrival_rate_per_s = 3.0;
  batch.median_output_tokens = 900;
  spec.classes = {chat, batch};
  auto before = GenerateMultiClassWorkload(spec);
  ClassWorkload extra;
  extra.arrival_rate_per_s = 5.0;
  spec.classes.push_back(extra);
  auto after = GenerateMultiClassWorkload(spec);
  for (int cls : {0, 1}) {
    std::vector<Request> lhs, rhs;
    for (const Request& r : before) {
      if (r.class_id == cls) lhs.push_back(r);
    }
    for (const Request& r : after) {
      if (r.class_id == cls) rhs.push_back(r);
    }
    ASSERT_EQ(lhs.size(), rhs.size()) << "class " << cls;
    ASSERT_FALSE(lhs.empty()) << "class " << cls;
    for (size_t i = 0; i < lhs.size(); ++i) {
      EXPECT_DOUBLE_EQ(lhs[i].arrival_s, rhs[i].arrival_s) << "class " << cls;
      EXPECT_EQ(lhs[i].prompt_tokens, rhs[i].prompt_tokens) << "class " << cls;
      EXPECT_EQ(lhs[i].output_tokens, rhs[i].output_tokens) << "class " << cls;
    }
  }
}

TEST(ArrivalProcess, AppendingAClassKeepsDiurnalSubstreamsStable) {
  ArrivalProcess arrival;
  arrival.kind = ArrivalKind::kDiurnal;
  arrival.multipliers = {0.5, 1.5, 1.0};
  ExpectAppendStability(arrival);
}

TEST(ArrivalProcess, AppendingAClassKeepsOnOffSubstreamsStable) {
  ArrivalProcess arrival;
  arrival.kind = ArrivalKind::kOnOff;
  arrival.on_mean_s = 4.0;
  arrival.off_mean_s = 6.0;
  ExpectAppendStability(arrival);
}

// --- scenario plumbing ---

TEST(Scenario, ArrivalAndAutoscalerRoundTripThroughJson) {
  ServeKnobs knobs;
  knobs.load = 0.6;
  knobs.horizon_s = 30.0;
  knobs.arrival.kind = ArrivalKind::kDiurnal;
  knobs.arrival.period_s = 120.0;
  knobs.arrival.multipliers = {0.4, 1.6, 0.9};
  knobs.autoscaler.policy = AutoscalerPolicy::kPredictive;
  knobs.autoscaler.delay_s = 12.0;
  knobs.autoscaler.max_decode_instances = 24;
  Scenario original = ServeScenario(knobs);
  std::string error;
  auto restored = ScenarioFromJson(ScenarioToJson(original), &error);
  ASSERT_TRUE(restored.has_value()) << error;
  EXPECT_TRUE(*restored == original);
  EXPECT_EQ(restored->serve.arrival.kind, ArrivalKind::kDiurnal);
  EXPECT_EQ(restored->serve.arrival.multipliers, knobs.arrival.multipliers);
  EXPECT_EQ(restored->serve.autoscaler.policy, AutoscalerPolicy::kPredictive);
  EXPECT_DOUBLE_EQ(restored->serve.autoscaler.delay_s, 12.0);
}

TEST(Scenario, TraceArrivalRoundTripsThroughJson) {
  ServeKnobs knobs;
  knobs.arrival.kind = ArrivalKind::kTrace;
  knobs.arrival.times_s = {0.5, 1.25, 2.0};
  Scenario original = ServeScenario(knobs);
  std::string error;
  auto restored = ScenarioFromJson(ScenarioToJson(original), &error);
  ASSERT_TRUE(restored.has_value()) << error;
  EXPECT_TRUE(*restored == original);
  EXPECT_EQ(restored->serve.arrival.times_s, knobs.arrival.times_s);
}

TEST(Scenario, OmittedArrivalAndAutoscalerEmitNoKeys) {
  // Default (stationary Poisson, no autoscaler) scenarios serialize without
  // the new keys at all — the byte-identity guarantee for existing files.
  Scenario s = ServeScenario(ServeKnobs{});
  std::string dump = ScenarioToJson(s).Dump();
  EXPECT_EQ(dump.find("\"arrival\""), std::string::npos);
  EXPECT_EQ(dump.find("\"autoscaler\""), std::string::npos);
}

TEST(Scenario, UnknownArrivalKindGetsADidYouMeanHint) {
  std::string error;
  auto bad = Json::Parse(
      R"({"study": "serve", "serve": {"arrival": {"kind": "diurnall"}}})");
  ASSERT_TRUE(bad.has_value());
  EXPECT_FALSE(ScenarioFromJson(*bad, &error).has_value());
  EXPECT_NE(error.find("diurnall"), std::string::npos);
  EXPECT_NE(error.find("did you mean 'diurnal'"), std::string::npos);
}

TEST(Scenario, UnknownAutoscalerPolicyGetsADidYouMeanHint) {
  std::string error;
  auto bad = Json::Parse(
      R"({"study": "serve", "serve": {"autoscaler": {"policy": "reactve"}}})");
  ASSERT_TRUE(bad.has_value());
  EXPECT_FALSE(ScenarioFromJson(*bad, &error).has_value());
  EXPECT_NE(error.find("did you mean 'reactive'"), std::string::npos);
}

TEST(Scenario, AutoscalerValidationRejectsBadThresholdsAndDelays) {
  std::string error;
  ServeKnobs knobs;
  knobs.autoscaler.policy = AutoscalerPolicy::kReactive;
  knobs.autoscaler.interval_s = 0.0;
  error = ServeScenario(knobs).Validate();
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("interval_s"), std::string::npos);

  knobs = ServeKnobs{};
  knobs.autoscaler.policy = AutoscalerPolicy::kReactive;
  knobs.autoscaler.delay_s = -1.0;
  error = ServeScenario(knobs).Validate();
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("delay_s"), std::string::npos);

  knobs = ServeKnobs{};
  knobs.autoscaler.policy = AutoscalerPolicy::kReactive;
  knobs.autoscaler.max_decode_instances = 0;
  error = ServeScenario(knobs).Validate();
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("max >= min"), std::string::npos);

  knobs = ServeKnobs{};
  knobs.autoscaler.policy = AutoscalerPolicy::kReactive;
  knobs.autoscaler.scale_down_utilization = 0.95;  // above the up threshold
  error = ServeScenario(knobs).Validate();
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("scale_down_utilization"), std::string::npos);

  // A scale-up must land inside the horizon: the delay is bounded by it.
  knobs = ServeKnobs{};
  knobs.horizon_s = 60.0;
  knobs.autoscaler.policy = AutoscalerPolicy::kReactive;
  knobs.autoscaler.delay_s = 1e308;
  error = ServeScenario(knobs).Validate();
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("serve.autoscaler.delay_s must be <= serve.horizon_s"),
            std::string::npos)
      << error;
  knobs.autoscaler.delay_s = 60.0;
  EXPECT_EQ(ServeScenario(knobs).Validate(), "");

  // A disabled block never validates its thresholds — kNone means "no
  // autoscaler", whatever stale values ride along.
  knobs = ServeKnobs{};
  knobs.autoscaler.policy = AutoscalerPolicy::kNone;
  knobs.autoscaler.interval_s = -5.0;
  EXPECT_EQ(ServeScenario(knobs).Validate(), "");
}

TEST(Scenario, SweepRejectsTraceArrivals) {
  std::string error;
  ServeSweepKnobs knobs;
  knobs.arrival.kind = ArrivalKind::kTrace;
  knobs.arrival.times_s = {1.0};
  error = SweepScenario(knobs).Validate();
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("trace"), std::string::npos);
}

// --- the runner ---

TEST(Runner, ReactiveAutoscalerScalesUpUnderABurstyDay) {
  ServeKnobs knobs;
  knobs.load = 0.7;
  knobs.horizon_s = 40.0;
  knobs.arrival.kind = ArrivalKind::kOnOff;
  knobs.arrival.on_mean_s = 8.0;
  knobs.arrival.off_mean_s = 8.0;
  knobs.arrival.on_multiplier = 2.5;
  knobs.arrival.off_multiplier = 0.1;
  knobs.autoscaler.policy = AutoscalerPolicy::kReactive;
  knobs.autoscaler.interval_s = 2.0;
  knobs.autoscaler.delay_s = 4.0;
  Scenario s = ServeScenario(knobs);
  RunReport report = Runner().Run(s);
  ASSERT_TRUE(report.ok) << report.error;
  const auto& serve = std::get<ServeStudyReport>(report.payload);
  ASSERT_TRUE(serve.scale.enabled);
  EXPECT_EQ(serve.scale.policy, "reactive");
  EXPECT_GT(serve.scale.scale_ups, 0);
  EXPECT_FALSE(serve.scale.events.empty());
  EXPECT_GT(serve.scale.peak_decode_instances, 0);
  EXPECT_GT(serve.scale.decode_instance_hours, 0.0);
  EXPECT_GT(serve.scale.gpu_hours, 0.0);
  EXPECT_GT(serve.scale.ttft_attainment, 0.0);
  // Every recorded event carries a reason and a consistent pool size.
  for (const ScaleEvent& event : serve.scale.events) {
    EXPECT_FALSE(event.reason.empty());
    EXPECT_NE(event.delta, 0);
    EXPECT_GE(event.instances_after, 1);
    EXPECT_GE(event.time_s, 0.0);
  }
  // The report surfaces the block in both renderings.
  EXPECT_NE(report.ToText().find("autoscaler ("), std::string::npos);
  EXPECT_NE(report.ToJson().Dump().find("\"gpu_hours\""), std::string::npos);
}

TEST(Runner, PredictiveAutoscalerRunsAndReportsPolicy) {
  ServeKnobs knobs;
  knobs.load = 0.6;
  knobs.horizon_s = 25.0;
  knobs.arrival.kind = ArrivalKind::kDiurnal;
  knobs.arrival.multipliers = {0.3, 1.7};
  knobs.autoscaler.policy = AutoscalerPolicy::kPredictive;
  knobs.autoscaler.interval_s = 2.0;
  knobs.autoscaler.delay_s = 3.0;
  knobs.autoscaler.forecast_window_s = 8.0;
  Scenario s = ServeScenario(knobs);
  RunReport report = Runner().Run(s);
  ASSERT_TRUE(report.ok) << report.error;
  const auto& serve = std::get<ServeStudyReport>(report.payload);
  ASSERT_TRUE(serve.scale.enabled);
  EXPECT_EQ(serve.scale.policy, "predictive");
  EXPECT_GT(serve.scale.gpu_hours, 0.0);
}

TEST(Runner, FixedPoolServeReportHasNoAutoscalerBlock) {
  ServeKnobs knobs;
  knobs.horizon_s = 10.0;
  Scenario s = ServeScenario(knobs);
  RunReport report = Runner().Run(s);
  ASSERT_TRUE(report.ok) << report.error;
  const auto& serve = std::get<ServeStudyReport>(report.payload);
  EXPECT_FALSE(serve.scale.enabled);
  EXPECT_TRUE(serve.scale.events.empty());
  std::string dump = report.ToJson().Dump();
  EXPECT_EQ(dump.find("\"autoscaler\""), std::string::npos);
  EXPECT_EQ(dump.find("\"gpu_hours\""), std::string::npos);
}

TEST(Runner, AutoscaledSweepIsBitIdenticalAtAnyThreadCount) {
  ServeSweepKnobs knobs;
  knobs.loads = {0.4, 0.8};
  knobs.horizon_s = 8.0;
  knobs.arrival.kind = ArrivalKind::kDiurnal;
  knobs.arrival.multipliers = {0.5, 1.5};
  knobs.autoscaler.policy = AutoscalerPolicy::kReactive;
  knobs.autoscaler.interval_s = 2.0;
  knobs.autoscaler.delay_s = 3.0;
  Scenario serial = SweepScenario(knobs, 1);
  RunReport reference = Runner().Run(serial);
  ASSERT_TRUE(reference.ok) << reference.error;
  for (int threads : {0, 2, 4}) {
    Scenario parallel = serial;
    parallel.exec.threads = threads;
    RunReport report = Runner().Run(parallel);
    ASSERT_TRUE(report.ok);
    EXPECT_EQ(report.ToJson().Dump(), reference.ToJson().Dump()) << threads;
  }
}

TEST(Runner, AutoscaledSweepReportsTheCheapestSloMeetingPoint) {
  ServeSweepKnobs knobs;
  knobs.loads = {0.3, 0.6};
  knobs.horizon_s = 8.0;
  knobs.autoscaler.policy = AutoscalerPolicy::kReactive;
  knobs.autoscaler.interval_s = 2.0;
  knobs.autoscaler.delay_s = 3.0;
  Scenario s = SweepScenario(knobs);
  RunReport report = Runner().Run(s);
  ASSERT_TRUE(report.ok) << report.error;
  const auto& sweep = std::get<ServeSweepReport>(report.payload);
  for (const auto& p : sweep.points) {
    EXPECT_TRUE(p.scale.enabled);
    EXPECT_GT(p.scale.gpu_hours, 0.0);
  }
  // The cheapest point (if any point meets the SLOs) must itself be an
  // SLO-meeting point with the best tokens-per-GPU-hour among them.
  if (sweep.cheapest_index >= 0) {
    const auto& cheapest = sweep.points[static_cast<size_t>(sweep.cheapest_index)];
    EXPECT_TRUE(cheapest.slo_ok);
    EXPECT_GT(sweep.cheapest_tokens_per_gpu_hour, 0.0);
    for (const auto& p : sweep.points) {
      if (!p.slo_ok || p.scale.gpu_hours <= 0.0) continue;
      EXPECT_GE(sweep.cheapest_tokens_per_gpu_hour,
                p.goodput_tokens_per_s * p.makespan_s / p.scale.gpu_hours - 1e-9);
    }
  } else {
    EXPECT_EQ(sweep.cheapest_tokens_per_gpu_hour, 0.0);
  }
  // The JSON carries the cheapest block (gated on the autoscaler).
  EXPECT_NE(report.ToJson().Dump().find("\"cheapest\""), std::string::npos);
  EXPECT_NE(report.ToText().find("cheapest"), std::string::npos);
}

TEST(Runner, TraceServeStudyDerivesItsRateFromTheTrace) {
  ServeKnobs knobs;
  knobs.horizon_s = 10.0;
  knobs.load = 0.0;  // trace scenarios need neither load nor rate
  knobs.arrival.kind = ArrivalKind::kTrace;
  for (int i = 0; i < 200; ++i) {
    knobs.arrival.times_s.push_back(i * 0.05);  // 20 req/s over 10 s
  }
  Scenario s = ServeScenario(knobs);
  RunReport report = Runner().Run(s);
  ASSERT_TRUE(report.ok) << report.error;
  const auto& serve = std::get<ServeStudyReport>(report.payload);
  EXPECT_NEAR(serve.arrival_rate_per_s, 20.0, 1e-9);
  EXPECT_EQ(serve.admitted_requests, 200);
}

TEST(Simulator, PredictiveDemandHistoryStaysBoundedByTheForecastWindow) {
  // Regression: the predictive autoscaler's demand history used to grow
  // with every admitted request. It is now pruned to the forecast window
  // as arrivals are processed, so its peak size tracks rate * window and
  // stays flat as the horizon grows.
  auto peak_entries = [](double horizon_s) {
    WorkloadSpec spec;
    spec.arrival_rate_per_s = 40.0;
    spec.duration_s = horizon_s;
    spec.median_prompt_tokens = 200;
    spec.median_output_tokens = 16;
    std::vector<double> prefill_s;
    for (int b = 1; b <= 8; ++b) {
      prefill_s.push_back(0.01 * b);
    }
    StepTimeTable table(std::move(prefill_s), std::vector<double>(256, 0.005));
    ServeClusterConfig config;
    config.prefill_instances = 2;
    config.decode_instances = 2;
    config.horizon_s = horizon_s;
    config.autoscaler.enabled = true;
    config.autoscaler.predictive = true;
    config.autoscaler.interval_s = 2.0;
    config.autoscaler.delay_s = 3.0;
    config.autoscaler.forecast_window_s = 5.0;
    config.autoscaler.prefill_tokens_per_s = 40000.0;
    config.autoscaler.decode_tokens_per_s = 4000.0;
    ServeMetrics m = RunServeSimulation(GenerateWorkload(spec), config, table);
    EXPECT_GT(m.peak_demand_entries, 0u) << "predictive path never ran";
    return m.peak_demand_entries;
  };
  size_t short_run = peak_entries(30.0);
  size_t long_run = peak_entries(120.0);
  // ~200 entries fit a 5 s window at 40 req/s; a 4x horizon must not grow
  // the peak beyond sampling noise (the old behavior would be ~4x).
  EXPECT_LE(long_run, short_run * 3 / 2);
  EXPECT_LE(long_run, size_t{400});
}

}  // namespace
}  // namespace litegpu
