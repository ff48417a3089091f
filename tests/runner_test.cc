#include <gtest/gtest.h>

#include "src/core/runner.h"
#include "src/core/scenario.h"
#include "src/util/exec_policy.h"
#include "src/util/thread_pool.h"

namespace litegpu {
namespace {

Scenario Study(StudyKind kind, const std::string& name = "") {
  Scenario s;
  s.study = kind;
  s.name = name;
  return s;
}

// Small, fast workloads for the perf studies.
Scenario FastSearch(const std::string& name = "") {
  Scenario s = Study(StudyKind::kSearch, name);
  s.models = {"Llama3-8B"};
  s.gpus = {"H100"};
  s.max_batch = 64;
  return s;
}

TEST(Runner, InvalidScenarioComesBackAsErrorReport) {
  Scenario bad = Study(StudyKind::kSearch);
  bad.models = {"Ghost"};
  RunReport report = Runner().Run(bad);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("unknown model"), std::string::npos);
  EXPECT_TRUE(std::holds_alternative<std::monostate>(report.payload));
  // Error reports still render.
  EXPECT_NE(report.ToText().find("unknown model"), std::string::npos);
  EXPECT_EQ(report.ToJson().Find("ok")->AsBool(true), false);
}

TEST(Runner, SearchStudyProducesPerPairResults) {
  RunReport report = Runner().Run(FastSearch("fast"));
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
  Scenario s = Study(StudyKind::kFig3b);
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
  Scenario s = Study(StudyKind::kMcSim);
  s.mcsim = knobs;
  RunReport a = Runner().Run(s);
  RunReport b = Runner().Run(s);
  ASSERT_TRUE(a.ok);
  EXPECT_EQ(a.ToJson().Dump(), b.ToJson().Dump());
}

TEST(Runner, YieldStudyCoversAllFourModels) {
  RunReport report = Runner().Run(Study(StudyKind::kYield));
  ASSERT_TRUE(report.ok);
  const auto& yield = std::get<YieldStudyReport>(report.payload);
  ASSERT_EQ(yield.rows.size(), 4u);
  for (const auto& row : yield.rows) {
    EXPECT_GT(row.yield_split, row.yield_full);  // smaller dies yield better
    EXPECT_GT(row.gain, 1.0);
  }
}

TEST(Runner, DeriveStudyReportsFeasibility) {
  RunReport report = Runner().Run(Study(StudyKind::kDerive));
  ASSERT_TRUE(report.ok);
  const auto& derive = std::get<DeriveStudyReport>(report.payload);
  EXPECT_TRUE(derive.result.shoreline_feasible);
  EXPECT_NE(report.ToText().find("feasible"), std::string::npos);
}

TEST(Runner, SearchStudyIsIdenticalAtAnyThreadCount) {
  // The determinism contract: the scenario's own ExecPolicy changes how
  // the search fans out, never what it reports.
  Scenario parallel = FastSearch();
  parallel.exec.threads = 4;
  Scenario serial = FastSearch();
  serial.exec.threads = 1;
  EXPECT_EQ(Runner().Run(parallel).ToJson().Dump(), Runner().Run(serial).ToJson().Dump());
}

TEST(Runner, ReportJsonRoundTripsThroughParser) {
  for (StudyKind kind :
       {StudyKind::kYield, StudyKind::kDerive, StudyKind::kSearch}) {
    RunReport report = Runner().Run(kind == StudyKind::kSearch ? FastSearch() : Study(kind));
    ASSERT_TRUE(report.ok) << ToString(kind);
    std::string dumped = report.ToJson().Dump();
    std::string error;
    auto parsed = Json::Parse(dumped, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    ASSERT_NE(parsed->Find("study"), nullptr);
    EXPECT_EQ(parsed->Find("study")->AsString(), ToString(kind));
    ASSERT_NE(parsed->Find("ok"), nullptr);
    EXPECT_TRUE(parsed->Find("ok")->AsBool());
    EXPECT_EQ(parsed->Dump(), dumped);
  }
}

TEST(RunScenarios, BatchIsBitIdenticalAtAnyThreadCount) {
  McSimKnobs mcsim;
  mcsim.sim_years = 5.0;
  std::vector<Scenario> batch = {FastSearch("s1"), Study(StudyKind::kYield, "s2"),
                                 Study(StudyKind::kMcSim, "s3"),
                                 Study(StudyKind::kDerive, "s4"),
                                 Study(StudyKind::kSearch, "bad")};
  batch[2].mcsim = mcsim;
  batch[4].models = {"Ghost"};
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

TEST(RunScenarios, OneThreadBatchStartsNoLane) {
  // The batch is the fan-out: at one thread its scenarios' own searches
  // (each asking for four lanes) run inline on the calling thread.
  std::vector<Scenario> batch = {FastSearch("a"), FastSearch("b")};
  batch[1].models = {"Llama3-70B"};
  for (Scenario& s : batch) {
    s.exec.threads = 4;
  }
  ExecPolicy serial;
  serial.threads = 1;
  uint64_t before = ParallelForLanesStarted();
  std::vector<RunReport> inline_reports = RunScenarios(batch, serial);
  EXPECT_EQ(ParallelForLanesStarted() - before, 0u);
  ExecPolicy four;
  four.threads = 4;
  std::vector<RunReport> parallel = RunScenarios(batch, four);
  ASSERT_EQ(inline_reports.size(), 2u);
  ASSERT_EQ(parallel.size(), 2u);
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(inline_reports[i].ok) << inline_reports[i].error;
    EXPECT_EQ(inline_reports[i].ToJson().Dump(), parallel[i].ToJson().Dump()) << i;
  }
}

TEST(Runner, ServeStudyCrossChecksAnalyticCapacity) {
  ServeKnobs knobs;
  knobs.load = 0.7;
  knobs.horizon_s = 30.0;
  Scenario s = Study(StudyKind::kServe);
  s.serve = knobs;
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
  Scenario serial = Study(StudyKind::kServe);
  serial.serve = knobs;
  serial.exec.threads = 1;
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
  Scenario s = Study(StudyKind::kServe);
  s.serve = knobs;
  s.workload.tbt_slo_s = 1e-9;
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
    Scenario s = Study(StudyKind::kServe);
    s.serve = knobs;
    s.exec.threads = 2;
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
  Scenario s = Study(StudyKind::kServe, "huge");
  s.serve = knobs;
  RunReport report = Runner().Run(s);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.scenario_name, "huge");
  EXPECT_EQ(report.error.rfind("ran out of memory", 0), 0u) << report.error;
  EXPECT_TRUE(std::holds_alternative<std::monostate>(report.payload));
}

TEST(Runner, ConfigEchoesReadBackAsTheScenarioKnobs) {
  // The mcsim and serve-sweep reports echo their knob blocks under the
  // scenario file's own keys, so a report's config fed back in as the
  // study's block is the scenario that produced it.
  McSimKnobs mcsim;
  mcsim.num_instances = 3;
  mcsim.num_spares = 1;
  mcsim.sim_years = 2.0;
  mcsim.seed = 99;
  mcsim.num_trials = 2;
  ServeSweepKnobs sweep;
  sweep.loads = {0.3, 0.6};
  sweep.load_step = 0.25;
  sweep.horizon_s = 5.0;
  sweep.prompt_sigma = 0.2;
  sweep.seed = 42;
  std::pair<Scenario, const char*> studies[] = {{Study(StudyKind::kMcSim), "mcsim"},
                                                {Study(StudyKind::kServeSweep), "sweep"}};
  studies[0].first.mcsim = mcsim;
  studies[1].first.sweep = sweep;
  for (const auto& [scenario, block] : studies) {
    RunReport report = Runner().Run(scenario);
    ASSERT_TRUE(report.ok) << report.error;
    const Json json = report.ToJson();
    const Json* config = json.Find("report")->Find("config");
    ASSERT_NE(config, nullptr) << block;
    Json file = Json::Object();
    file.Set("study", ToString(scenario.study)).Set(block, *config);
    std::string error;
    std::optional<Scenario> back = ScenarioFromJson(file, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_TRUE(*back == scenario) << ScenarioToJson(*back).Dump();
  }
}

}  // namespace
}  // namespace litegpu
