#include <gtest/gtest.h>

#include "src/core/runner.h"
#include "src/core/scenario.h"
#include "src/util/exec_policy.h"

namespace litegpu {
namespace {

// Small, fast workloads for the perf studies.
ScenarioBuilder FastSearch() {
  ScenarioBuilder builder(StudyKind::kSearch);
  builder.Model("Llama3-8B").Gpu("H100").MaxBatch(64);
  return builder;
}

TEST(Runner, InvalidScenarioComesBackAsErrorReport) {
  Scenario bad = ScenarioBuilder(StudyKind::kSearch).Model("Ghost").Peek();
  RunReport report = Runner().Run(bad);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("unknown model"), std::string::npos);
  EXPECT_TRUE(std::holds_alternative<std::monostate>(report.payload));
  // Error reports still render.
  EXPECT_NE(report.ToText().find("unknown model"), std::string::npos);
  EXPECT_EQ(report.ToJson().GetBool("ok", true), false);
}

TEST(Runner, SearchStudyProducesPerPairResults) {
  RunReport report = Runner().Run(*FastSearch().Name("fast").Build());
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.study, StudyKind::kSearch);
  const auto& search = std::get<SearchStudyReport>(report.payload);
  ASSERT_EQ(search.pairs.size(), 1u);
  EXPECT_EQ(search.pairs[0].model, "Llama3-8B");
  EXPECT_TRUE(search.pairs[0].decode.found);
  EXPECT_TRUE(search.pairs[0].prefill.found);
  EXPECT_EQ(report.scenario_name, "fast");
}

TEST(Runner, Fig3StudyMatchesDirectEngineCall) {
  Scenario s = *ScenarioBuilder(StudyKind::kFig3b).Build();
  RunReport report = Runner().Run(s);
  ASSERT_TRUE(report.ok);
  const auto& fig3 = std::get<Fig3StudyReport>(report.payload);
  EXPECT_EQ(fig3.entries.size(), s.ResolvedModels().size() * s.ResolvedGpus().size());
  // H100 rows normalize to 1.0 against themselves.
  for (const auto& e : fig3.entries) {
    if (e.gpu_name == "H100" && e.found) {
      EXPECT_DOUBLE_EQ(e.normalized_vs_h100, 1.0);
    }
  }
}

TEST(Runner, McSimStudyIsDeterministicPerSeed) {
  McSimKnobs knobs;
  knobs.sim_years = 5.0;
  knobs.num_trials = 2;
  Scenario s = *ScenarioBuilder(StudyKind::kMcSim).McSim(knobs).Build();
  RunReport a = Runner().Run(s);
  RunReport b = Runner().Run(s);
  ASSERT_TRUE(a.ok);
  EXPECT_EQ(a.ToJson().Dump(), b.ToJson().Dump());
}

TEST(Runner, YieldStudyCoversAllFourModels) {
  RunReport report = Runner().Run(*ScenarioBuilder(StudyKind::kYield).Build());
  ASSERT_TRUE(report.ok);
  const auto& yield = std::get<YieldStudyReport>(report.payload);
  ASSERT_EQ(yield.rows.size(), 4u);
  for (const auto& row : yield.rows) {
    EXPECT_GT(row.yield_split, row.yield_full);  // smaller dies yield better
    EXPECT_GT(row.gain, 1.0);
  }
}

TEST(Runner, DeriveStudyReportsFeasibility) {
  RunReport report = Runner().Run(*ScenarioBuilder(StudyKind::kDerive).Build());
  ASSERT_TRUE(report.ok);
  const auto& derive = std::get<DeriveStudyReport>(report.payload);
  EXPECT_TRUE(derive.result.shoreline_feasible);
  EXPECT_NE(report.ToText().find("feasible"), std::string::npos);
}

TEST(Runner, ExecPolicyOverrideConstructorWins) {
  // A Runner built with an explicit ExecPolicy forces it onto scenarios;
  // results are identical either way (determinism contract).
  Scenario s = *FastSearch().Threads(4).Build();
  RunReport with_scenario_exec = Runner().Run(s);
  ExecPolicy serial;
  serial.threads = 1;
  RunReport with_override = Runner(serial).Run(s);
  EXPECT_EQ(with_scenario_exec.ToJson().Dump(), with_override.ToJson().Dump());
}

TEST(Runner, ReportJsonRoundTripsThroughParser) {
  for (StudyKind kind :
       {StudyKind::kYield, StudyKind::kDerive, StudyKind::kSearch}) {
    ScenarioBuilder builder = kind == StudyKind::kSearch ? FastSearch()
                                                         : ScenarioBuilder(kind);
    RunReport report = Runner().Run(*builder.Build());
    ASSERT_TRUE(report.ok) << ToString(kind);
    std::string dumped = report.ToJson().Dump();
    std::string error;
    auto parsed = Json::Parse(dumped, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->GetString("study", ""), ToString(kind));
    EXPECT_TRUE(parsed->GetBool("ok", false));
    EXPECT_EQ(parsed->Dump(), dumped);
  }
}

TEST(RunScenarios, BatchIsBitIdenticalAtAnyThreadCount) {
  McSimKnobs mcsim;
  mcsim.sim_years = 5.0;
  std::vector<Scenario> batch = {
      *FastSearch().Name("s1").Build(),
      *ScenarioBuilder(StudyKind::kYield).Name("s2").Build(),
      *ScenarioBuilder(StudyKind::kMcSim).Name("s3").McSim(mcsim).Build(),
      *ScenarioBuilder(StudyKind::kDerive).Name("s4").Build(),
      ScenarioBuilder(StudyKind::kSearch).Name("bad").Model("Ghost").Peek(),
  };
  ExecPolicy serial;
  serial.threads = 1;
  std::vector<RunReport> reference = RunScenarios(batch, serial);
  ASSERT_EQ(reference.size(), batch.size());
  // Reports come back in scenario order; the invalid one fails in place.
  EXPECT_EQ(reference[0].scenario_name, "s1");
  EXPECT_FALSE(reference[4].ok);
  for (int threads : {2, 4, 8}) {
    ExecPolicy exec;
    exec.threads = threads;
    std::vector<RunReport> parallel = RunScenarios(batch, exec);
    ASSERT_EQ(parallel.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(parallel[i].ToJson().Dump(), reference[i].ToJson().Dump())
          << "threads=" << threads << " scenario " << i;
    }
  }
}

TEST(Runner, ServeStudyCrossChecksAnalyticCapacity) {
  ServeKnobs knobs;
  knobs.load = 0.7;
  knobs.horizon_s = 30.0;
  Scenario s = *ScenarioBuilder(StudyKind::kServe).Serve(knobs).Build();
  RunReport report = Runner().Run(s);
  ASSERT_TRUE(report.ok) << report.error;
  const auto& serve = std::get<ServeStudyReport>(report.payload);
  EXPECT_EQ(serve.model, "Llama3-70B");
  EXPECT_EQ(serve.gpu, "H100");
  EXPECT_GT(serve.prefill_instances, 0);
  EXPECT_EQ(serve.decode_instances, 1);
  EXPECT_GT(serve.admitted_requests, 0);
  EXPECT_EQ(serve.completed_requests, serve.admitted_requests);  // drains
  // Below saturation the simulator reproduces the analytic capacity (the
  // bench_validation_serve expectation, now asserted).
  EXPECT_GT(serve.capacity_agreement, 0.9);
  EXPECT_LT(serve.capacity_agreement, 1.1);
  EXPECT_GT(serve.tbt_p99_s, 0.0);
  EXPECT_LE(serve.tbt_p99_s, 0.050 + 1e-9);  // decode SLO holds below capacity
  // Rendering covers the serve payload too.
  EXPECT_NE(report.ToText().find("Serving simulation"), std::string::npos);
  EXPECT_NE(report.ToJson().Dump().find("capacity_agreement"), std::string::npos);
}

TEST(Runner, ServeStudyIsDeterministicAtAnyThreadCount) {
  ServeKnobs knobs;
  knobs.horizon_s = 20.0;
  Scenario serial = *ScenarioBuilder(StudyKind::kServe).Serve(knobs).Threads(1).Build();
  Scenario parallel = serial;
  parallel.exec.threads = 0;  // hardware concurrency
  RunReport a = Runner().Run(serial);
  RunReport b = Runner().Run(parallel);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.ToJson().Dump(), b.ToJson().Dump());
}

TEST(Runner, ServeStudyFailsCleanlyWhenSloInfeasible) {
  ServeKnobs knobs;
  Scenario s = *ScenarioBuilder(StudyKind::kServe).Serve(knobs).TbtSlo(1e-9).Build();
  RunReport report = Runner().Run(s);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("no feasible"), std::string::npos);
  EXPECT_TRUE(std::holds_alternative<std::monostate>(report.payload));
}

TEST(Runner, ServeStudyThatAdmitsNoRequestsIsAnError) {
  // A horizon too short for a single arrival would otherwise print an
  // all-zero report that reads like a measurement. Serial and sharded runs
  // alike fail, naming the knob to change.
  for (int shards : {0, 1024}) {
    ServeKnobs knobs;
    knobs.horizon_s = 1e-9;
    knobs.shards = shards;
    Scenario s = *ScenarioBuilder(StudyKind::kServe).Serve(knobs).Threads(2).Build();
    RunReport report = Runner().Run(s);
    EXPECT_FALSE(report.ok) << shards << " shards";
    EXPECT_NE(report.error.find("admitted no requests: serve.horizon_s"), std::string::npos)
        << report.error;
    EXPECT_TRUE(std::holds_alternative<std::monostate>(report.payload));
  }
}

TEST(Runner, OutOfMemoryComesBackAsErrorReport) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer's operator new aborts instead of throwing std::bad_alloc";
#endif
  // A valid but enormous horizon: ~7.6e13 expected requests, so the
  // engine's reservation of exact TTFT samples (8 bytes per request) asks
  // for ~6e14 bytes up front, beyond any 47-bit address space, and fails
  // at once instead of paging. The report names the scenario once, in its
  // own field; the message does not repeat it.
  ServeKnobs knobs;
  knobs.horizon_s = 1e12;
  Scenario s = *ScenarioBuilder(StudyKind::kServe).Name("huge").Serve(knobs).Build();
  RunReport report = Runner().Run(s);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.scenario_name, "huge");
  EXPECT_EQ(report.error.rfind("ran out of memory", 0), 0u) << report.error;
  EXPECT_TRUE(std::holds_alternative<std::monostate>(report.payload));
}

TEST(ExecPolicy, EffectiveThreadsIsTheEmbeddedPolicy) {
  // The PR-2 deprecated `threads` alias fields are gone: the embedded
  // ExecPolicy is the only knob, and EffectiveThreads resolves it directly.
  ExecPolicy exec;
  exec.threads = 8;
  EXPECT_EQ(EffectiveThreads(exec), 8);
  exec.threads = -1;  // explicit "all cores"
  EXPECT_EQ(EffectiveThreads(exec), -1);
  SearchOptions options;
  options.exec.threads = 4;
  EXPECT_EQ(EffectiveThreads(options.exec), 4);
}

}  // namespace
}  // namespace litegpu
