#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "src/core/runner.h"
#include "src/core/scenario.h"

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

// --- grid expansion ---

TEST(ServeSweepKnobs, DefaultGridIsTenLoadPoints) {
  ServeSweepKnobs knobs;
  std::vector<double> grid = knobs.GridPoints();
  ASSERT_EQ(grid.size(), 10u);
  EXPECT_DOUBLE_EQ(grid.front(), 0.1);
  EXPECT_NEAR(grid.back(), 1.0, 1e-9);
  EXPECT_FALSE(knobs.IsRateGrid());
}

TEST(ServeSweepKnobs, ExplicitListsOverrideTheRange) {
  ServeSweepKnobs knobs;
  knobs.loads = {0.5, 0.9};
  EXPECT_EQ(knobs.GridPoints(), (std::vector<double>{0.5, 0.9}));
  knobs.rates = {10.0, 20.0, 30.0};
  EXPECT_TRUE(knobs.IsRateGrid());
  EXPECT_EQ(knobs.GridPoints(), (std::vector<double>{10.0, 20.0, 30.0}));
}

TEST(ServeSweepKnobs, RangeIncludesTheEndpoint) {
  ServeSweepKnobs knobs;
  knobs.load_lo = 0.1;
  knobs.load_hi = 1.0;
  knobs.load_step = 0.05;
  EXPECT_EQ(knobs.GridPoints().size(), 19u);
  knobs.load_hi = knobs.load_lo;  // degenerate range: one point
  EXPECT_EQ(knobs.GridPoints().size(), 1u);
}

// --- scenario plumbing ---

TEST(Scenario, ServeSweepRoundTripsThroughJson) {
  ServeSweepKnobs knobs;
  knobs.loads = {0.25, 0.75};
  knobs.horizon_s = 15.0;
  knobs.prefill_instances = 2;
  knobs.decode_instances = 3;
  knobs.seed = 0xFEEDF00D;
  Scenario original = SweepScenario(knobs);
  original.models = {"Llama3-70B"};
  original.gpus = {"Lite+MemBW"};
  std::string error;
  auto restored = ScenarioFromJson(ScenarioToJson(original), &error);
  ASSERT_TRUE(restored.has_value()) << error;
  EXPECT_TRUE(*restored == original);
  EXPECT_EQ(restored->sweep.GridPoints(), knobs.loads);
}

TEST(Scenario, ServeSweepValidationRejectsBadGrids) {
  std::string error;
  ServeSweepKnobs knobs;
  knobs.load_step = 0.0;
  error = SweepScenario(knobs).Validate();
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("load_step"), std::string::npos);

  knobs = ServeSweepKnobs{};
  knobs.loads = {0.5, -0.1};
  error = SweepScenario(knobs).Validate();
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("positive"), std::string::npos);

  knobs = ServeSweepKnobs{};
  knobs.horizon_s = 0.0;
  error = SweepScenario(knobs).Validate();
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("horizon_s"), std::string::npos);

  // Absurd ranges must not expand: past the 1e6-point cap the grid comes
  // back empty and validation rejects it instead of the int cast
  // overflowing or the vector allocation aborting the process.
  knobs = ServeSweepKnobs{};
  knobs.load_lo = 1e-6;
  knobs.load_hi = 1e9;
  knobs.load_step = 1e-6;
  EXPECT_TRUE(knobs.GridPoints().empty());
  error = SweepScenario(knobs).Validate();
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("grid is empty"), std::string::npos);

  // Non-finite grid points must be rejected: an inf/NaN arrival rate would
  // spin the workload generator forever.
  knobs = ServeSweepKnobs{};
  knobs.loads = {0.5, std::numeric_limits<double>::infinity()};
  error = SweepScenario(knobs).Validate();
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("finite"), std::string::npos);
  knobs.loads = {std::numeric_limits<double>::quiet_NaN()};
  error = SweepScenario(knobs).Validate();
  EXPECT_FALSE(error.empty());

  // Typos inside the sweep block fail loudly, like every other block.
  auto typo = Json::Parse(R"({"study": "serve-sweep", "sweep": {"laods": [0.5]}})");
  ASSERT_TRUE(typo.has_value());
  EXPECT_FALSE(ScenarioFromJson(*typo, &error).has_value());
  EXPECT_NE(error.find("laods"), std::string::npos);
}

// --- the study ---

TEST(Runner, ServeSweepRunsEveryPointAndFindsTheKnee) {
  ServeSweepKnobs knobs;
  knobs.loads = {0.5, 0.9};
  knobs.horizon_s = 10.0;
  Scenario s = SweepScenario(knobs);
  RunReport report = Runner().Run(s);
  ASSERT_TRUE(report.ok) << report.error;
  const auto& sweep = std::get<ServeSweepReport>(report.payload);
  ASSERT_EQ(sweep.points.size(), 2u);
  EXPECT_DOUBLE_EQ(sweep.points[0].load, 0.5);
  EXPECT_DOUBLE_EQ(sweep.points[1].load, 0.9);
  EXPECT_LT(sweep.points[0].arrival_rate_per_s, sweep.points[1].arrival_rate_per_s);
  for (const auto& p : sweep.points) {
    EXPECT_GT(p.admitted_requests, 0);
    EXPECT_EQ(p.completed_requests, p.admitted_requests);  // drains
    EXPECT_GT(p.goodput_tokens_per_s, 0.0);
    EXPECT_GT(p.capacity_agreement, 0.5);
    EXPECT_GT(p.prefill_instances, 0);
  }
  // Each point owns a distinct RNG stream derived from the sweep seed, and
  // the reported value survives JSON's double-backed numbers exactly so
  // `litegpu serve --seed <reported>` reproduces the point.
  EXPECT_NE(sweep.points[0].seed, sweep.points[1].seed);
  for (const auto& p : sweep.points) {
    EXPECT_LT(p.seed, uint64_t{1} << 53);
    EXPECT_EQ(Json(p.seed).AsUint64(), p.seed);
  }
  // The knee is the highest-rate point meeting both SLOs (if any); below
  // saturation both points should qualify here.
  ASSERT_GE(sweep.knee_index, 0);
  EXPECT_EQ(sweep.knee_index, 1);
  EXPECT_TRUE(sweep.points[1].slo_ok);
  // Rendering covers the sweep payload.
  EXPECT_NE(report.ToText().find("Serve sweep"), std::string::npos);
  EXPECT_NE(report.ToJson().Dump().find("knee"), std::string::npos);
}

TEST(Runner, ServeSweepEmptyPointNeverMeetsSlosOrBecomesTheKnee) {
  // A rate so low the Poisson workload generates nothing: zero percentiles
  // must not vacuously satisfy the SLOs, and the knee must stay unset
  // rather than reporting an empty point as the capacity answer.
  ServeSweepKnobs knobs;
  knobs.rates = {0.001};
  knobs.horizon_s = 5.0;
  Scenario s = SweepScenario(knobs);
  RunReport report = Runner().Run(s);
  ASSERT_TRUE(report.ok) << report.error;
  const auto& sweep = std::get<ServeSweepReport>(report.payload);
  ASSERT_EQ(sweep.points.size(), 1u);
  EXPECT_EQ(sweep.points[0].completed_requests, 0);
  EXPECT_FALSE(sweep.points[0].slo_ok);
  EXPECT_EQ(sweep.knee_index, -1);
  EXPECT_NE(report.ToText().find("no load point meets the SLOs"), std::string::npos);
}

TEST(Runner, ServeSweepReportIsBitIdenticalAtAnyThreadCount) {
  ServeSweepKnobs knobs;
  knobs.load_lo = 0.3;
  knobs.load_hi = 0.9;
  knobs.load_step = 0.2;
  knobs.horizon_s = 8.0;
  Scenario serial = SweepScenario(knobs, 1);
  RunReport reference = Runner().Run(serial);
  ASSERT_TRUE(reference.ok) << reference.error;
  for (int threads : {0, 2, 4}) {  // 0 = hardware concurrency
    Scenario parallel = serial;
    parallel.exec.threads = threads;
    RunReport report = Runner().Run(parallel);
    ASSERT_TRUE(report.ok);
    EXPECT_EQ(report.ToJson().Dump(), reference.ToJson().Dump()) << threads;
  }
}

// --- the point-reproduction contract ---

// The serve study a sweep point's reported rate and seed describe: the
// sweep's per-point knobs, driven at that rate from that seed.
Scenario ServeAtPoint(const ServeSweepKnobs& sweep, const ServePointReport& point) {
  ServeKnobs knobs;
  static_cast<ServeCommonKnobs&>(knobs) = sweep;
  knobs.arrival_rate_per_s = point.arrival_rate_per_s;
  knobs.seed = point.seed;
  return ServeScenario(knobs, 1);
}

// Checks a serve study reproduces a sweep point field for field, bit for
// bit. The nested autoscaler, faults and classes blocks and the latency
// percentiles are compared through their JSON, which renders every field
// with shortest-round-trip numbers. `load` is the one field left out: a
// serve study given a rate directly reports none.
void ExpectServeReproducesPoint(const ServeSweepKnobs& knobs, const RunReport& sweep_run,
                                size_t index) {
  SCOPED_TRACE("point " + std::to_string(index));
  const ServePointReport& point =
      std::get<ServeSweepReport>(sweep_run.payload).points[index];
  RunReport serve_run = Runner().Run(ServeAtPoint(knobs, point));
  ASSERT_TRUE(serve_run.ok) << serve_run.error;
  const auto& serve = std::get<ServeStudyReport>(serve_run.payload);
  EXPECT_EQ(serve.arrival_rate_per_s, point.arrival_rate_per_s);
  EXPECT_EQ(serve.seed, point.seed);
  EXPECT_EQ(serve.prefill_instances, point.prefill_instances);
  EXPECT_EQ(serve.decode_instances, point.decode_instances);
  EXPECT_EQ(serve.total_gpus, point.total_gpus);
  EXPECT_EQ(serve.admitted_requests, point.admitted_requests);
  EXPECT_EQ(serve.completed_requests, point.completed_requests);
  EXPECT_EQ(serve.in_flight_at_horizon, point.in_flight_at_horizon);
  EXPECT_EQ(serve.ttft_p50_s, point.ttft_p50_s);
  EXPECT_EQ(serve.ttft_p95_s, point.ttft_p95_s);
  EXPECT_EQ(serve.ttft_p99_s, point.ttft_p99_s);
  EXPECT_EQ(serve.tbt_p50_s, point.tbt_p50_s);
  EXPECT_EQ(serve.tbt_p95_s, point.tbt_p95_s);
  EXPECT_EQ(serve.tbt_p99_s, point.tbt_p99_s);
  EXPECT_EQ(serve.goodput_tokens_per_s, point.goodput_tokens_per_s);
  EXPECT_EQ(serve.analytic_tokens_per_s, point.analytic_tokens_per_s);
  EXPECT_EQ(serve.capacity_agreement, point.capacity_agreement);
  EXPECT_EQ(serve.prefill_utilization, point.prefill_utilization);
  EXPECT_EQ(serve.decode_utilization, point.decode_utilization);
  EXPECT_EQ(serve.mean_decode_batch, point.mean_decode_batch);
  EXPECT_EQ(serve.makespan_s, point.makespan_s);
  EXPECT_EQ(serve.slo_ok, point.slo_ok);
  EXPECT_EQ(serve.scale.enabled, point.scale.enabled);
  EXPECT_EQ(serve.faults.enabled, point.faults.enabled);
  EXPECT_EQ(serve.classes.size(), point.classes.size());

  Json serve_json = serve_run.ToJson();
  Json sweep_json = sweep_run.ToJson();
  const Json& serve_block = *serve_json.Find("report");
  const Json& point_block = sweep_json.Find("report")->Find("points")->elements()[index];
  for (const char* key : {"latency", "autoscaler", "faults", "classes"}) {
    const Json* a = serve_block.Find(key);
    const Json* b = point_block.Find(key);
    ASSERT_EQ(a == nullptr, b == nullptr) << key;
    if (a != nullptr) {
      EXPECT_EQ(a->Dump(), b->Dump()) << key;
    }
  }
}

TEST(Runner, ServeStudyReproducesEverySweepPoint) {
  ServeSweepKnobs knobs;
  knobs.loads = {0.5, 0.9};
  knobs.horizon_s = 10.0;
  Scenario s = SweepScenario(knobs, 1);
  RunReport sweep = Runner().Run(s);
  ASSERT_TRUE(sweep.ok) << sweep.error;
  for (size_t i = 0; i < knobs.loads.size(); ++i) {
    ExpectServeReproducesPoint(knobs, sweep, i);
  }
}

TEST(Runner, ServeStudyReproducesAutoscaledFaultyMultiClassSweepPoints) {
  ServeSweepKnobs knobs;
  knobs.loads = {0.4, 0.8};
  knobs.horizon_s = 20.0;
  knobs.prompt_sigma = 0.5;
  knobs.output_sigma = 0.5;
  knobs.autoscaler.policy = AutoscalerPolicy::kReactive;
  knobs.autoscaler.interval_s = 2.0;
  knobs.autoscaler.delay_s = 3.0;
  knobs.faults.afr = 200000.0;
  knobs.faults.mttr_hours = 0.01;
  knobs.faults.spare_activation_minutes = 0.1;
  knobs.faults.hot_spares = 1;
  knobs.faults.shed_queue_depth = 16;
  RequestClass chat;
  chat.name = "chat";
  chat.weight = 0.7;
  RequestClass batch;
  batch.name = "batch";
  batch.weight = 0.3;
  batch.prompt_tokens = 4000;
  batch.output_tokens = 800;
  batch.ttft_slo_s = 8.0;
  knobs.classes = {chat, batch};
  Scenario s = SweepScenario(knobs, 1);
  RunReport sweep = Runner().Run(s);
  ASSERT_TRUE(sweep.ok) << sweep.error;
  const auto& points = std::get<ServeSweepReport>(sweep.payload).points;
  int failures = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_TRUE(points[i].scale.enabled);
    EXPECT_TRUE(points[i].faults.enabled);
    EXPECT_EQ(points[i].classes.size(), 2u);
    failures += points[i].faults.prefill.failures + points[i].faults.decode.failures;
    ExpectServeReproducesPoint(knobs, sweep, i);
  }
  EXPECT_GT(failures, 0);  // the fault path really ran
}

}  // namespace
}  // namespace litegpu
