// End-to-end smoke test for the litegpu CLI: executes the real binary on
// the checked-in examples/scenarios/*.json files and parses the JSON it
// prints. Paths are injected by CMake (LITEGPU_CLI_PATH / LITEGPU_SCENARIO_DIR).

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

#include "src/util/json.h"

#ifndef LITEGPU_CLI_PATH
#error "LITEGPU_CLI_PATH must be defined by the build"
#endif
#ifndef LITEGPU_SCENARIO_DIR
#error "LITEGPU_SCENARIO_DIR must be defined by the build"
#endif

namespace litegpu {
namespace {

struct CommandResult {
  int exit_code = -1;
  std::string stdout_text;
};

// Runs a shell command and captures its stdout and exit code.
CommandResult Capture(const std::string& command) {
  CommandResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    return result;
  }
  std::array<char, 4096> buffer;
  size_t n = 0;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.stdout_text.append(buffer.data(), n);
  }
  int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

CommandResult RunCommand(const std::string& args) {
  return Capture(std::string(LITEGPU_CLI_PATH) + " " + args + " 2>/dev/null");
}

std::string ScenarioPath(const std::string& name) {
  return std::string(LITEGPU_SCENARIO_DIR) + "/" + name;
}

// Like RunCommand, but folds stderr into the captured text — for asserting
// on diagnostic messages, which the CLI prints to stderr.
CommandResult RunCommandMergedOutput(const std::string& args) {
  return Capture(std::string(LITEGPU_CLI_PATH) + " " + args + " 2>&1");
}

TEST(CliSmoke, RunExecutesEveryCheckedInScenarioAsJson) {
  // One file per study kind; every report must be valid JSON with ok=true.
  for (const char* file : {"fig3a.json", "fig3b.json", "search.json", "design.json",
                           "mcsim.json", "yield.json", "derive.json", "serve.json",
                           "serve_sweep.json", "serve_multitenant.json",
                           "serve_autoscale.json", "serve_faulty.json",
                           "serve_chaos.json", "fleet_compare.json"}) {
    CommandResult result = RunCommand("run " + ScenarioPath(file) + " --json");
    EXPECT_EQ(result.exit_code, 0) << file;
    std::string error;
    auto parsed = Json::Parse(result.stdout_text, &error);
    ASSERT_TRUE(parsed.has_value()) << file << ": " << error;
    if (parsed->is_array()) {  // batch files print one result per scenario
      ASSERT_GT(parsed->size(), 0u) << file;
      for (const Json& report : parsed->elements()) {
        EXPECT_TRUE(report.GetBool("ok", false)) << file;
        EXPECT_NE(report.Find("report"), nullptr) << file;
      }
    } else {
      EXPECT_TRUE(parsed->GetBool("ok", false)) << file;
      EXPECT_NE(parsed->Find("report"), nullptr) << file;
    }
  }
}

TEST(CliSmoke, JsonFlagBeforePositionalStillWorks) {
  CommandResult result = RunCommand("run --json " + ScenarioPath("yield.json"));
  EXPECT_EQ(result.exit_code, 0);
  auto parsed = Json::Parse(result.stdout_text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->GetBool("ok", false));
}

TEST(CliSmoke, RunExecutesTheBatchSuite) {
  CommandResult result = RunCommand("run " + ScenarioPath("paper_suite.json") + " --json");
  EXPECT_EQ(result.exit_code, 0);
  auto parsed = Json::Parse(result.stdout_text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->is_array());
  // fig3a, fig3b, yield, design + the big-GPU-vs-Lite-GPU serve pair.
  EXPECT_EQ(parsed->size(), 6u);
  for (const Json& report : parsed->elements()) {
    EXPECT_TRUE(report.GetBool("ok", false));
  }
}

TEST(CliSmoke, JsonFlagOnEverySubcommandEmitsParsableJson) {
  for (const char* args :
       {"search --model Llama3-8B --gpu H100 --max-batch 64 --json",
        "fig3a --json", "fig3b --json", "design --model Llama3-70B --json",
        "yield --json", "derive --split 4 --json", "mcsim --trials 1 --years 5 --json",
        "serve --load 0.5 --horizon 20 --json",
        "sweep --loads 0.5,0.8 --horizon 10 --json", "list --json"}) {
    CommandResult result = RunCommand(args);
    EXPECT_EQ(result.exit_code, 0) << args;
    std::string error;
    auto parsed = Json::Parse(result.stdout_text, &error);
    EXPECT_TRUE(parsed.has_value()) << args << ": " << error;
  }
}

TEST(CliSmoke, FleetSubcommandEmitsParetoFrontierAndIsThreadInvariant) {
  // The acceptance check for fleet-compare: `litegpu fleet` on the
  // checked-in catalog reports $/Mtoken and joules/token per candidate, a
  // non-empty Pareto frontier with a winner, and the whole report is
  // bit-identical at any --threads.
  CommandResult t1 =
      RunCommand("fleet " + ScenarioPath("fleet_compare.json") + " --json --threads 1");
  CommandResult t0 =
      RunCommand("fleet " + ScenarioPath("fleet_compare.json") + " --json --threads 0");
  CommandResult t13 =
      RunCommand("fleet " + ScenarioPath("fleet_compare.json") + " --json --threads 13");
  ASSERT_EQ(t1.exit_code, 0);
  ASSERT_EQ(t0.exit_code, 0);
  ASSERT_EQ(t13.exit_code, 0);
  EXPECT_EQ(t1.stdout_text, t0.stdout_text);
  EXPECT_EQ(t1.stdout_text, t13.stdout_text);
  auto parsed = Json::Parse(t1.stdout_text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->GetBool("ok", false));
  const Json* report = parsed->Find("report");
  ASSERT_NE(report, nullptr);
  const Json* candidates = report->Find("candidates");
  ASSERT_NE(candidates, nullptr);
  ASSERT_EQ(candidates->size(), 5u);
  for (const Json& c : candidates->elements()) {
    EXPECT_FALSE(c.GetString("name", "").empty());
    ASSERT_TRUE(c.GetBool("feasible", false)) << c.GetString("name", "");
    const Json* economics = c.Find("economics");
    ASSERT_NE(economics, nullptr);
    EXPECT_GT(economics->GetDouble("usd_per_mtoken", 0.0), 0.0);
    EXPECT_GT(economics->GetDouble("joules_per_token", 0.0), 0.0);
    const Json* knee = c.Find("knee");
    ASSERT_NE(knee, nullptr);
    EXPECT_GT(knee->GetDouble("goodput_tokens_per_s", 0.0), 0.0);
  }
  const Json* frontier = report->Find("frontier");
  ASSERT_NE(frontier, nullptr);
  EXPECT_GT(frontier->size(), 0u);
  EXPECT_GE(report->GetInt("winner_index", -1), 0);
  // Candidates sharing a resolved part share a platform: five distinct
  // parts in the checked-in catalog, five builds.
  EXPECT_EQ(report->GetInt("platform_builds", 0), 5);
  // `litegpu run` executes the same scenario identically.
  CommandResult via_run =
      RunCommand("run " + ScenarioPath("fleet_compare.json") + " --json --threads 1");
  ASSERT_EQ(via_run.exit_code, 0);
  EXPECT_EQ(via_run.stdout_text, t1.stdout_text);
  // Text mode renders the comparison table and names the winner.
  CommandResult text = RunCommand("fleet " + ScenarioPath("fleet_compare.json"));
  EXPECT_EQ(text.exit_code, 0);
  EXPECT_NE(text.stdout_text.find("$ / Mtok"), std::string::npos);
  EXPECT_NE(text.stdout_text.find("winner:"), std::string::npos);
}

TEST(CliSmoke, FleetSubcommandRejectsNonFleetScenarios) {
  CommandResult result =
      RunCommandMergedOutput("fleet " + ScenarioPath("serve_sweep.json"));
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.stdout_text.find("not fleet-compare"), std::string::npos);
}

TEST(CliSmoke, FleetSubcommandRunsABatchLikeRun) {
  // A file of several fleet-compare scenarios runs as `run` runs a batch:
  // --threads sizes the batch's workers, reports come back in file order,
  // and the output is the same at any --threads.
  std::string path = ::testing::TempDir() + "litegpu_fleet_batch.json";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  auto scenario = [](const char* name) {
    return std::string("{\"name\": \"") + name +
           "\", \"study\": \"fleet-compare\", \"models\": [\"Llama3-70B\"],"
           " \"fleet\": {\"candidates\": [{\"name\": \"H100\", \"gpu\": \"H100\"}],"
           " \"load_lo\": 0.5, \"load_hi\": 0.6, \"load_step\": 0.1, \"horizon_s\": 10}}";
  };
  std::string batch =
      "{\"scenarios\": [" + scenario("first") + ", " + scenario("second") + "]}";
  fputs(batch.c_str(), f);
  fclose(f);
  CommandResult t1 = RunCommand("fleet " + path + " --json --threads 1");
  CommandResult t2 = RunCommand("fleet " + path + " --json --threads 2");
  std::remove(path.c_str());
  ASSERT_EQ(t1.exit_code, 0);
  EXPECT_EQ(t1.stdout_text, t2.stdout_text);
  auto parsed = Json::Parse(t1.stdout_text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ(parsed->elements()[0].GetString("scenario", ""), "first");
  EXPECT_EQ(parsed->elements()[1].GetString("scenario", ""), "second");
}

TEST(CliSmoke, MultitenantScenarioReportsPerClassBlocks) {
  // The acceptance check for multi-tenant serving: the checked-in mix
  // reports per-class TTFT/TBT percentiles, goodput, and SLO attainment.
  CommandResult result =
      RunCommand("run " + ScenarioPath("serve_multitenant.json") + " --json");
  ASSERT_EQ(result.exit_code, 0);
  auto parsed = Json::Parse(result.stdout_text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->GetBool("ok", false));
  const Json* report = parsed->Find("report");
  ASSERT_NE(report, nullptr);
  const Json* classes = report->Find("classes");
  ASSERT_NE(classes, nullptr);
  ASSERT_EQ(classes->size(), 3u);
  for (const Json& cls : classes->elements()) {
    EXPECT_FALSE(cls.GetString("name", "").empty());
    const Json* latency = cls.Find("latency");
    ASSERT_NE(latency, nullptr);
    EXPECT_GT(latency->GetDouble("ttft_p99_s", 0.0), 0.0);
    EXPECT_GT(latency->GetDouble("tbt_p99_s", 0.0), 0.0);
    EXPECT_GT(cls.GetDouble("goodput_tokens_per_s", 0.0), 0.0);
    EXPECT_NE(cls.Find("ttft_attainment"), nullptr);
    EXPECT_NE(cls.Find("slo_ok"), nullptr);
  }
  // Text mode renders the per-class table.
  CommandResult text = RunCommand("run " + ScenarioPath("serve_multitenant.json"));
  EXPECT_EQ(text.exit_code, 0);
  EXPECT_NE(text.stdout_text.find("per-class"), std::string::npos);
  EXPECT_NE(text.stdout_text.find("batch-summarize"), std::string::npos);
}

TEST(CliSmoke, AutoscaleScenarioIsThreadInvariantAndReportsScaling) {
  // The acceptance check for time-varying traffic + autoscaling: the
  // checked-in diurnal day reports scale events and instance-hours, and the
  // whole report is bit-identical at any --threads.
  CommandResult t1 =
      RunCommand("run " + ScenarioPath("serve_autoscale.json") + " --json --threads 1");
  CommandResult t4 =
      RunCommand("run " + ScenarioPath("serve_autoscale.json") + " --json --threads 4");
  ASSERT_EQ(t1.exit_code, 0);
  ASSERT_EQ(t4.exit_code, 0);
  EXPECT_EQ(t1.stdout_text, t4.stdout_text);
  auto parsed = Json::Parse(t1.stdout_text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->GetBool("ok", false));
  const Json* report = parsed->Find("report");
  ASSERT_NE(report, nullptr);
  const Json* config = report->Find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_NE(config->Find("arrival"), nullptr);
  EXPECT_NE(config->Find("autoscaler"), nullptr);
  const Json* scale = report->Find("autoscaler");
  ASSERT_NE(scale, nullptr);
  EXPECT_EQ(scale->GetString("policy", ""), "reactive");
  EXPECT_GT(scale->GetDouble("gpu_hours", 0.0), 0.0);
  EXPECT_GT(scale->GetDouble("decode_instance_hours", 0.0), 0.0);
  EXPECT_GT(scale->GetDouble("ttft_attainment", 0.0), 0.0);
  const Json* events = scale->Find("events");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->size(), 0u);
}

TEST(CliSmoke, FaultyScenarioIsThreadInvariantAndReportsBlastRadius) {
  // The acceptance check for fault injection: the checked-in faulty day
  // (H100 vs Lite instances) reports a fault event log, measured and
  // predicted availability, and per-pool blast radius — and the whole
  // report, fault event log included, is bit-identical at any --threads.
  CommandResult t1 =
      RunCommand("run " + ScenarioPath("serve_faulty.json") + " --json --threads 1");
  CommandResult t4 =
      RunCommand("run " + ScenarioPath("serve_faulty.json") + " --json --threads 4");
  ASSERT_EQ(t1.exit_code, 0);
  ASSERT_EQ(t4.exit_code, 0);
  EXPECT_EQ(t1.stdout_text, t4.stdout_text);
  auto parsed = Json::Parse(t1.stdout_text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->is_array());
  ASSERT_EQ(parsed->size(), 2u);  // H100 run + Lite run
  for (const Json& result : parsed->elements()) {
    ASSERT_TRUE(result.GetBool("ok", false));
    const Json* report = result.Find("report");
    ASSERT_NE(report, nullptr);
    const Json* config = report->Find("config");
    ASSERT_NE(config, nullptr);
    EXPECT_NE(config->Find("faults"), nullptr);
    const Json* faults = report->Find("faults");
    ASSERT_NE(faults, nullptr);
    EXPECT_EQ(faults->GetString("retry_policy", ""), "retry");
    const Json* events = faults->Find("events");
    ASSERT_NE(events, nullptr);
    EXPECT_GT(events->size(), 0u);
    const Json* decode = faults->Find("decode");
    ASSERT_NE(decode, nullptr);
    EXPECT_GT(decode->GetDouble("availability_measured", 0.0), 0.0);
    EXPECT_GT(decode->GetDouble("availability_predicted", 0.0), 0.0);
    EXPECT_GE(decode->GetDouble("blast_radius_fraction", -1.0), 0.0);
    EXPECT_GT(faults->GetDouble("goodput_tokens_per_s", 0.0), 0.0);
    EXPECT_GT(faults->GetDouble("baseline_goodput_tokens_per_s", 0.0), 0.0);
  }
  // Text mode renders the churn summary.
  CommandResult text = RunCommand("run " + ScenarioPath("serve_faulty.json"));
  EXPECT_EQ(text.exit_code, 0);
  EXPECT_NE(text.stdout_text.find("faults"), std::string::npos);
  EXPECT_NE(text.stdout_text.find("blast radius"), std::string::npos);
}

TEST(CliSmoke, ChaosScenarioIsThreadInvariantAndLiteBlastRadiusExceedsH100) {
  // The acceptance check for the three-axis robustness engine: the chaos
  // day (correlated domains + degradation + shedding on the H100-vs-Lite
  // pair) is bit-identical at any --threads, reports all three axes, and
  // the Lite pool's worst single domain outage destroys a larger fraction
  // of its served tokens than the H100 pool's under the same domain size
  // in silicon — more small-die instances fit in one rack, so one rack
  // takes out more of the (smaller) pool throughput.
  CommandResult t1 =
      RunCommand("run " + ScenarioPath("serve_chaos.json") + " --json --threads 1");
  CommandResult t4 =
      RunCommand("run " + ScenarioPath("serve_chaos.json") + " --json --threads 4");
  ASSERT_EQ(t1.exit_code, 0);
  ASSERT_EQ(t4.exit_code, 0);
  EXPECT_EQ(t1.stdout_text, t4.stdout_text);
  auto parsed = Json::Parse(t1.stdout_text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->is_array());
  ASSERT_EQ(parsed->size(), 2u);  // H100 run + Lite run
  double worst_fraction[2] = {0.0, 0.0};
  for (size_t idx = 0; idx < 2; ++idx) {
    const Json& result = parsed->elements()[idx];
    ASSERT_TRUE(result.GetBool("ok", false));
    const Json* report = result.Find("report");
    ASSERT_NE(report, nullptr);
    const Json* faults = report->Find("faults");
    ASSERT_NE(faults, nullptr);
    const Json* decode = faults->Find("decode");
    ASSERT_NE(decode, nullptr);
    // Domain axis: per-domain blast radii and the worst-single-event
    // columns are present and consistent.
    const Json* domains = decode->Find("domains");
    ASSERT_NE(domains, nullptr);
    EXPECT_GT(decode->GetDouble("availability_correlated", 0.0), 0.0);
    EXPECT_LT(decode->GetDouble("availability_correlated", 1.0),
              decode->GetDouble("availability_predicted", 0.0));
    worst_fraction[idx] = decode->GetDouble("worst_event_fraction", 0.0);
    EXPECT_GT(worst_fraction[idx], 0.0);
    // Degraded axis: windows opened and throttled seconds accumulated.
    EXPECT_GT(decode->GetDouble("degraded_instance_s", 0.0), 0.0);
    EXPECT_NE(faults->Find("degraded_goodput_tokens_per_s"), nullptr);
    // Shedding axis + stability verdict.
    EXPECT_NE(faults->Find("shed_requests"), nullptr);
    EXPECT_NE(faults->Find("shed_events"), nullptr);
    EXPECT_NE(faults->Find("stable"), nullptr);
    EXPECT_NE(faults->Find("time_to_drain_s"), nullptr);
  }
  EXPECT_GT(worst_fraction[1], worst_fraction[0])
      << "Lite worst-single-event blast radius should exceed H100's";
  // Text mode renders the three new summary lines.
  CommandResult text = RunCommand("run " + ScenarioPath("serve_chaos.json"));
  EXPECT_EQ(text.exit_code, 0);
  EXPECT_NE(text.stdout_text.find("domains:"), std::string::npos);
  EXPECT_NE(text.stdout_text.find("degraded:"), std::string::npos);
  EXPECT_NE(text.stdout_text.find("shedding:"), std::string::npos);
  EXPECT_NE(text.stdout_text.find("stability:"), std::string::npos);
}

TEST(CliSmoke, RobustnessKnobValidationExitsUsageError) {
  // Field-labelled exit-64 rejections for the new knobs, end to end.
  std::string path = ::testing::TempDir() + "litegpu_bad_robustness.json";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("{\"afr\": 100, \"retry_budget\": -1}", f);
  fclose(f);
  CommandResult result = RunCommandMergedOutput("serve --faults " + path);
  EXPECT_EQ(result.exit_code, 64);
  EXPECT_NE(result.stdout_text.find("retry_budget"), std::string::npos);
  // A spare slower than the repair it masks never activates.
  f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("{\"afr\": 100, \"hot_spares\": 1, \"mttr_hours\": 0.02,"
        " \"spare_activation_minutes\": 5}", f);
  fclose(f);
  result = RunCommandMergedOutput("serve --faults " + path);
  EXPECT_EQ(result.exit_code, 64);
  EXPECT_NE(result.stdout_text.find("spare_activation_minutes"), std::string::npos);
  // Domain churn without a domain size.
  f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("{\"domain_afr\": 100}", f);
  fclose(f);
  result = RunCommandMergedOutput("serve --faults " + path);
  EXPECT_EQ(result.exit_code, 64);
  EXPECT_NE(result.stdout_text.find("domain_gpus"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliSmoke, FaultsFlagRoundTripsThroughServe) {
  std::string path = ::testing::TempDir() + "litegpu_faults.json";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("{\"faults\": {\"afr\": 20000, \"mttr_hours\": 0.02,"
        " \"spare_activation_minutes\": 0.1, \"hot_spares\": 1,"
        " \"retry_policy\": \"drop\"}}", f);
  fclose(f);
  CommandResult result =
      RunCommand("serve --load 0.5 --horizon 60 --faults " + path + " --json");
  EXPECT_EQ(result.exit_code, 0);
  auto parsed = Json::Parse(result.stdout_text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->GetBool("ok", false));
  const Json* report = parsed->Find("report");
  ASSERT_NE(report, nullptr);
  const Json* config = report->Find("config");
  ASSERT_NE(config, nullptr);
  const Json* echoed = config->Find("faults");
  ASSERT_NE(echoed, nullptr);  // non-default knobs echo back in the config
  EXPECT_EQ(echoed->GetString("retry_policy", ""), "drop");
  EXPECT_DOUBLE_EQ(echoed->GetDouble("afr", 0.0), 20000.0);
  const Json* faults = report->Find("faults");
  ASSERT_NE(faults, nullptr);
  EXPECT_EQ(faults->GetString("retry_policy", ""), "drop");
  std::remove(path.c_str());
}

TEST(CliSmoke, UnknownRetryPolicyExitsUsageErrorWithSuggestion) {
  std::string path = ::testing::TempDir() + "litegpu_bad_faults.json";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("{\"afr\": 0.09, \"retry_policy\": \"rety\"}", f);
  fclose(f);
  CommandResult result = RunCommandMergedOutput("serve --faults " + path);
  EXPECT_EQ(result.exit_code, 64);
  EXPECT_NE(result.stdout_text.find("unknown retry policy"), std::string::npos);
  EXPECT_NE(result.stdout_text.find("did you mean 'retry'"), std::string::npos);
  // Invalid values are rejected even when the knob block is disabled.
  std::string zero_path = ::testing::TempDir() + "litegpu_bad_faults2.json";
  f = fopen(zero_path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("{\"afr\": 0, \"mttr_hours\": -1}", f);
  fclose(f);
  EXPECT_EQ(RunCommand("serve --faults " + zero_path).exit_code, 64);
  std::remove(path.c_str());
  std::remove(zero_path.c_str());
}

TEST(CliSmoke, InvalidAutoscalerFileExitsUsageError) {
  std::string path = ::testing::TempDir() + "litegpu_bad_autoscaler.json";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("{\"policy\": \"reactive\", \"interval_s\": -1}", f);
  fclose(f);
  EXPECT_EQ(RunCommand("serve --autoscaler " + path).exit_code, 64);
  std::string arrival_path = ::testing::TempDir() + "litegpu_bad_arrival.json";
  f = fopen(arrival_path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("{\"kind\": \"diurnl\"}", f);
  fclose(f);
  EXPECT_EQ(RunCommand("serve --arrival " + arrival_path).exit_code, 64);
  std::remove(path.c_str());
  std::remove(arrival_path.c_str());
}

TEST(CliSmoke, ServeThatAdmitsNoRequestsExitsOne) {
  CommandResult result = RunCommandMergedOutput("serve --horizon 1e-9 --threads 1");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.stdout_text.find("admitted no requests: serve.horizon_s"),
            std::string::npos)
      << result.stdout_text;
}

TEST(CliSmoke, TextModeStillPrintsTables) {
  CommandResult result = RunCommand("run " + ScenarioPath("fig3a.json"));
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.stdout_text.find("Figure 3a"), std::string::npos);
  EXPECT_NE(result.stdout_text.find("Llama3-70B"), std::string::npos);
}

TEST(CliSmoke, UnknownFlagsAreRejectedWithSuggestion) {
  CommandResult typo = RunCommand("search --thread 4");
  EXPECT_EQ(typo.exit_code, 64);
  CommandResult typo2 = RunCommand("fig3a --mdoel Llama3-70B");
  EXPECT_EQ(typo2.exit_code, 64);
  // Valid spellings still pass.
  CommandResult ok = RunCommand("yield --split 2");
  EXPECT_EQ(ok.exit_code, 0);
}

TEST(CliSmoke, SweepRejectsMalformedGridSpecs) {
  EXPECT_EQ(RunCommand("sweep --loads 0.1:1.0").exit_code, 64);    // missing step
  EXPECT_EQ(RunCommand("sweep --loads nope").exit_code, 64);       // not numeric
  EXPECT_EQ(RunCommand("sweep --rates 30:10:5").exit_code, 64);    // hi < lo
}

TEST(CliSmoke, MalformedFlagValuesAreUsageErrors) {
  // A flag value is read like the scenario key it sets: a mistyped,
  // fractional, negative or out-of-range value is a field-labelled usage
  // error, never a silent fallback or a wrapped integer.
  struct Case {
    std::string args;
    const char* field;
  };
  const Case cases[] = {
      {"mcsim --trials abc", "num_trials"},
      {"serve --horizon abc", "horizon_s"},
      {"serve --decode-instances 2.5", "decode_instances"},
      {"serve --seed -5", "seed"},
      {"derive --split 99999999999", "split"},
      {"serve --horizon -1", "serve.horizon_s"},
      {"run " + ScenarioPath("yield.json") + " --threads abc", "threads"},
  };
  for (const Case& c : cases) {
    CommandResult result = RunCommandMergedOutput(c.args);
    EXPECT_EQ(result.exit_code, 64) << c.args << ": " << result.stdout_text;
    EXPECT_NE(result.stdout_text.find(c.field), std::string::npos)
        << c.args << ": " << result.stdout_text;
  }
}

TEST(CliSmoke, SeedFlagsStayExactAndSwitchesAreStrict) {
  // A digits-only seed is read exactly over its whole uint64 range: 2^53 + 1
  // is not rounded to 2^53, and 2^64 - 1 runs.
  const std::string serve = "serve --horizon 5 --json --seed ";
  CommandResult above = RunCommand(serve + "9007199254740993");
  CommandResult at = RunCommand(serve + "9007199254740992");
  EXPECT_EQ(above.exit_code, 0);
  EXPECT_EQ(at.exit_code, 0);
  EXPECT_NE(above.stdout_text, at.stdout_text);
  EXPECT_EQ(RunCommand("mcsim --trials 2 --seed 18446744073709551615").exit_code, 0);
  CommandResult past = RunCommandMergedOutput("mcsim --trials 2 --seed 18446744073709551616");
  EXPECT_EQ(past.exit_code, 64);
  EXPECT_NE(past.stdout_text.find("seed"), std::string::npos) << past.stdout_text;
  // A switch given a non-boolean value is a usage error, --json included.
  for (const char* args : {"search --json=maybe", "search --kv-ideal=maybe", "list --json=2"}) {
    CommandResult result = RunCommandMergedOutput(args);
    EXPECT_EQ(result.exit_code, 64) << args;
    EXPECT_NE(result.stdout_text.find("takes no value or true|false"), std::string::npos)
        << args << ": " << result.stdout_text;
  }
}

std::string WriteTempFile(const std::string& name, const std::string& text) {
  std::string path = ::testing::TempDir() + name;
  FILE* f = fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr) << path;
  if (f != nullptr) {
    fputs(text.c_str(), f);
    fclose(f);
  }
  return path;
}

// Whether `echo` carries every key and entry of `block` with equal values.
bool CarriesBlock(const Json& echo, const Json& block) {
  if (block.is_object()) {
    for (const auto& [key, value] : block.members()) {
      const Json* echoed = echo.Find(key);
      if (echoed == nullptr || !CarriesBlock(*echoed, value)) {
        return false;
      }
    }
    return true;
  }
  if (block.is_array()) {
    if (!echo.is_array() || echo.size() != block.size()) {
      return false;
    }
    for (size_t i = 0; i < block.size(); ++i) {
      if (!CarriesBlock(echo.elements()[i], block.elements()[i])) {
        return false;
      }
    }
    return true;
  }
  return echo == block;
}

TEST(CliSmoke, KnobFileFlagsTakeBareAndWrappedBlocks) {
  // Each knob-file flag inserts its file's block into the scenario, whether
  // the file holds the block itself or {"<block>": ...}; the serve report's
  // config echoes it back. A malformed file is a field-labelled usage error.
  struct Case {
    const char* flag;
    const char* block;
    const char* bare;
    const char* malformed;
    const char* message;
  };
  const Case cases[] = {
      {"classes", "classes", R"([{"name": "a"}, {"name": "b", "weight": 2}])",
       R"("not a mix")", "'classes' in serve must be an array of objects"},
      {"arrival", "arrival", R"({"kind": "onoff", "on_mean_s": 7, "off_multiplier": 0.1})",
       R"(["x"])", "serve.arrival must be an object"},
      {"autoscaler", "autoscaler", R"({"policy": "reactive", "headroom": 1.4})",
       R"({"autoscaler": {"policy": "reactive"}, "extra": 1})", "'autoscaler' key"},
      {"faults", "faults", R"({"afr": 0.09, "hot_spares": 1})",
       R"(["not", "a", "faults", "block"])", "serve.faults must be an object"},
  };
  for (const Case& c : cases) {
    const Json block = *Json::Parse(c.bare);
    const std::string bare = WriteTempFile("litegpu_bare_knobs.json", c.bare);
    const std::string wrapped = WriteTempFile(
        "litegpu_wrapped_knobs.json", "{\"" + std::string(c.block) + "\": " + c.bare + "}");
    for (const std::string& path : {bare, wrapped}) {
      CommandResult result = RunCommand("serve --horizon 10 --" + std::string(c.flag) + " " +
                                        path + " --json");
      EXPECT_EQ(result.exit_code, 0) << c.flag << " " << path;
      auto parsed = Json::Parse(result.stdout_text);
      ASSERT_TRUE(parsed.has_value()) << c.flag;
      const Json* report = parsed->Find("report");
      const Json* config = report != nullptr ? report->Find("config") : nullptr;
      ASSERT_NE(config, nullptr) << c.flag;
      const Json* echoed = config->Find(c.block);
      ASSERT_NE(echoed, nullptr) << c.flag << " " << path;
      EXPECT_TRUE(CarriesBlock(*echoed, block)) << c.flag << ": " << echoed->Dump();
    }
    const std::string bad = WriteTempFile("litegpu_bad_knobs.json", c.malformed);
    CommandResult result = RunCommandMergedOutput("serve --" + std::string(c.flag) + " " + bad);
    EXPECT_EQ(result.exit_code, 64) << c.flag;
    EXPECT_NE(result.stdout_text.find(c.message), std::string::npos)
        << c.flag << ": " << result.stdout_text;
    for (const std::string& path : {bare, wrapped, bad}) {
      std::remove(path.c_str());
    }
  }
}

TEST(CliSmoke, DeriveExitsTwoForAnInfeasiblePart) {
  // Scripts branch on the derive subcommand's exit 2 for a
  // shoreline-infeasible part; `run` reports the same scenario with exit 0.
  CommandResult flags = RunCommand("derive --split 2 --mem 8 --net 8");
  EXPECT_EQ(flags.exit_code, 2);
  EXPECT_NE(flags.stdout_text.find("INFEASIBLE"), std::string::npos) << flags.stdout_text;
  const std::string path = WriteTempFile(
      "litegpu_infeasible_derive.json",
      R"({"study": "derive", "derive": {"split": 2, "mem_bw_multiplier": 8,
          "net_bw_multiplier": 8}})");
  CommandResult file = RunCommand("run " + path);
  std::remove(path.c_str());
  EXPECT_EQ(file.exit_code, 0);
  EXPECT_NE(file.stdout_text.find("INFEASIBLE"), std::string::npos) << file.stdout_text;
}

TEST(CliSmoke, RunReportsMissingAndMalformedFiles) {
  EXPECT_EQ(RunCommand("run /nonexistent.json").exit_code, 1);
  EXPECT_EQ(RunCommand("run").exit_code, 64);
  // Pathologically deep nesting is an ordinary parse error, not a crash.
  std::string deep_path = ::testing::TempDir() + "litegpu_deep.json";
  FILE* f = fopen(deep_path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs(std::string(200000, '[').c_str(), f);
  fclose(f);
  CommandResult deep = RunCommandMergedOutput("run " + deep_path);
  EXPECT_EQ(deep.exit_code, 1);
  EXPECT_NE(deep.stdout_text.find("line 1: nesting deeper than 256"), std::string::npos);
  std::remove(deep_path.c_str());
  // An infinite horizon (1e999 overflows to inf) is a field-labelled
  // rejection (exit 64, before anything runs), not a std::bad_alloc abort.
  std::string inf_path = ::testing::TempDir() + "litegpu_inf_horizon.json";
  f = fopen(inf_path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("{\"study\": \"fleet-compare\", \"fleet\": {\"candidates\": [{\"name\": \"a\"}],"
        " \"horizon_s\": 1e999}}", f);
  fclose(f);
  CommandResult inf = RunCommandMergedOutput("run " + inf_path);
  EXPECT_EQ(inf.exit_code, 64);
  EXPECT_NE(inf.stdout_text.find("fleet.horizon_s must be positive and finite"),
            std::string::npos)
      << inf.stdout_text;
  std::remove(inf_path.c_str());
#if !defined(__SANITIZE_ADDRESS__)  // ASan's operator new aborts, never throws
  // A finite but enormous horizon passes validation; running out of memory
  // is an error report (exit 1), not a std::bad_alloc abort (exit 134).
  std::string huge_path = ::testing::TempDir() + "litegpu_huge_horizon.json";
  f = fopen(huge_path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("{\"name\": \"huge\", \"study\": \"serve\", \"serve\": {\"horizon_s\": 1e12}}", f);
  fclose(f);
  CommandResult huge = RunCommandMergedOutput("run " + huge_path);
  EXPECT_EQ(huge.exit_code, 1);
  EXPECT_NE(huge.stdout_text.find("litegpu: scenario 'huge': ran out of memory"),
            std::string::npos)
      << huge.stdout_text;
  EXPECT_EQ(huge.stdout_text.find("scenario 'huge' ran"), std::string::npos)
      << huge.stdout_text;
  std::remove(huge_path.c_str());
#endif
}

// Runs `litegpu run` (stderr folded in, under a 60 s timeout so a hang
// fails instead of stalling the suite) on a copy of checked-in example
// `name` whose first occurrence of `from` became `to`.
CommandResult RunEditedExample(const std::string& name, const std::string& from,
                               const std::string& to) {
  std::string text;
  FILE* in = fopen(ScenarioPath(name).c_str(), "r");
  EXPECT_NE(in, nullptr) << name;
  if (in == nullptr) {
    return {};
  }
  std::array<char, 4096> buffer;
  size_t n = 0;
  while ((n = fread(buffer.data(), 1, buffer.size(), in)) > 0) {
    text.append(buffer.data(), n);
  }
  fclose(in);
  size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << name << " has no " << from;
  if (at == std::string::npos) {
    return {};
  }
  text.replace(at, from.size(), to);
  std::string path = ::testing::TempDir() + "litegpu_edited_" + name;
  FILE* out = fopen(path.c_str(), "w");
  EXPECT_NE(out, nullptr);
  if (out == nullptr) {
    return {};
  }
  fputs(text.c_str(), out);
  fclose(out);
  CommandResult result =
      Capture("timeout 60 " + std::string(LITEGPU_CLI_PATH) + " run " + path + " 2>&1");
  std::remove(path.c_str());
  return result;
}

// One-field edits of checked-in examples that used to crash or hang the
// CLI. Each now ends in an error that names its cause: `run` rejects an
// invalid field with exit 64 before running anything, like the
// infinite-horizon case above, and reports a scenario that cannot run with
// exit 1.
TEST(CliSmoke, UnaddressableArrivalRateIsAnErrorNotAnAbort) {
  // The diurnal multiplier makes the stream's expected request count larger
  // than a vector can hold, so the engine's reservation of exact TTFT
  // samples throws std::length_error before the first request is drawn. It
  // used to escape Runner::Run (exit 134).
  CommandResult result = RunEditedExample("serve_faulty.json", "[0.35, 0.7,",
                                          "[0.35, 9007199254740993,");
  EXPECT_EQ(result.exit_code, 1) << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("std::length_error"), std::string::npos)
      << result.stdout_text;
}

TEST(CliSmoke, InfiniteArrivalMultiplierIsAnErrorNotAHang) {
  // A 1e308 diurnal multiplier hung the autoscaled example. Its expected
  // request count now overflows the TTFT reservation, which throws
  // std::length_error at once.
  CommandResult result =
      RunEditedExample("serve_autoscale.json", "1.1, 0.5]", "1.1, 1e308]");
  EXPECT_EQ(result.exit_code, 1) << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("std::length_error"), std::string::npos)
      << result.stdout_text;
}

TEST(CliSmoke, UnboundedRepairTimeIsRejected) {
  // A 1e308-hour repair overflowed the event queue's bucket arithmetic
  // (SIGSEGV).
  CommandResult result =
      RunEditedExample("serve_chaos.json", "\"mttr_hours\": 0.02", "\"mttr_hours\": 1e308");
  EXPECT_EQ(result.exit_code, 64) << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("serve.faults.mttr_hours must be in (0, 1e+06]"),
            std::string::npos)
      << result.stdout_text;
}

TEST(CliSmoke, UnboundedDegradedWindowIsRejected) {
  // A 1e308-minute degraded window ended at an infinite time, the same
  // bucket overflow as the repair (SIGSEGV).
  CommandResult result = RunEditedExample("serve_chaos.json", "\"degrade_minutes\": 0.5",
                                          "\"degrade_minutes\": 1e308");
  EXPECT_EQ(result.exit_code, 64) << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("serve.faults.degrade_minutes must be in [0, 6e+07]"),
            std::string::npos)
      << result.stdout_text;
}

TEST(CliSmoke, UnboundedSpareActivationIsRejected) {
  // An activation delay becomes an event time like a repair. Its range row
  // rejects an unbounded one with or without spares, before the cross-field
  // rule against mttr_hours.
  CommandResult result =
      RunEditedExample("serve_chaos.json", "\"spare_activation_minutes\": 0.1",
                       "\"spare_activation_minutes\": 1e308");
  EXPECT_EQ(result.exit_code, 64) << result.stdout_text;
  EXPECT_NE(
      result.stdout_text.find("serve.faults.spare_activation_minutes must be in [0, 6e+07]"),
      std::string::npos)
      << result.stdout_text;
}

TEST(CliSmoke, UnboundedDegradeMultiplierIsRejected) {
  // A 1e9 step-time multiplier stretched the chaos example's run about
  // 100x before it finished.
  CommandResult result = RunEditedExample("serve_chaos.json", "\"degrade_multiplier\": 1.8",
                                          "\"degrade_multiplier\": 1e9");
  EXPECT_EQ(result.exit_code, 64) << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("serve.faults.degrade_multiplier must be in [1, 1000]"),
            std::string::npos)
      << result.stdout_text;
}

TEST(CliSmoke, ProvisioningDelayPastTheHorizonIsRejected) {
  // A 1e308 s provisioning delay hung the autoscaler.
  CommandResult result =
      RunEditedExample("serve_faulty.json", "\"delay_s\": 8", "\"delay_s\": 1e308");
  EXPECT_EQ(result.exit_code, 64) << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("serve.autoscaler.delay_s must be <= serve.horizon_s"),
            std::string::npos)
      << result.stdout_text;
}

}  // namespace
}  // namespace litegpu
