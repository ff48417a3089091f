// litegpu — command-line front end for the modeling library.
//
//   litegpu run <scenario.json>... [--json]     execute scenario file(s)
//   litegpu fleet <scenario.json> [--json]      fleet-compare catalog:
//                                               knee-vs-knee $/Mtoken at SLO
//   litegpu fig3a [--ideal-capacity]            regenerate Figure 3a
//   litegpu fig3b [--ideal-capacity]            regenerate Figure 3b
//   litegpu search --model M --gpu G [...]      best config for one pair
//   litegpu design --model M                    Table-1 cluster comparison
//   litegpu serve [--model M --gpu G --load X]  end-to-end serving simulation
//                 [--classes mix.json]          multi-tenant request classes
//                 [--arrival proc.json]         time-varying arrival process
//                 [--autoscaler policy.json]    mid-horizon pool autoscaling
//                 [--faults faults.json]        failure injection + blast radius
//                 [--shards N]                  split the horizon into N parallel
//                                               sub-horizon replications
//   litegpu sweep [--loads lo:hi:step]          serving sim over a load grid
//   litegpu mcsim [--spares N] [--trials N]     Monte-Carlo availability
//   litegpu yield [--d0 X] [--area A]           Section-2 silicon economics
//   litegpu derive --split N [--mem X] [--net X] [--clock X]
//                                               custom Lite-GPU + feasibility
//   litegpu list                                catalog contents
//
// Common flags: --prompt N --output N --ttft S --tbt S --kv-ideal
//               --threads N (sweep workers; 0 = all cores, 1 = serial)
//               --json (structured report on stdout)
//
// Every subcommand builds a Scenario and executes it through the Runner
// (src/core/scenario.h, src/core/runner.h); `run` loads the same Scenario
// from a JSON file instead. Unknown flags are rejected with a hint.

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/runner.h"
#include "src/core/scenario.h"
#include "src/hw/catalog.h"
#include "src/util/flags.h"
#include "src/util/json.h"
#include "src/util/units.h"

namespace litegpu {
namespace {

constexpr int kUsageError = 64;

// Flags shared by the perf studies (search/fig3*/design).
const std::vector<std::string> kWorkloadFlags = {"prompt", "output", "ttft", "tbt",
                                                 "ideal-capacity", "kv-ideal", "max-batch"};
const std::vector<std::string> kCommonFlags = {"threads", "json"};

std::vector<std::string> AllowedFlags(std::vector<std::string> own, bool workload = true) {
  own.insert(own.end(), kCommonFlags.begin(), kCommonFlags.end());
  if (workload) {
    own.insert(own.end(), kWorkloadFlags.begin(), kWorkloadFlags.end());
  }
  return own;
}

// Returns nonzero exit code on unknown flags, else 0.
int CheckFlags(const Flags& flags, const std::vector<std::string>& allowed) {
  std::string problem = flags.UnknownFlagCheck(allowed);
  if (!problem.empty()) {
    std::fprintf(stderr, "litegpu: %s\n", problem.c_str());
    return kUsageError;
  }
  return 0;
}

void ApplyWorkloadFlags(const Flags& flags, ScenarioBuilder& builder) {
  builder.PromptTokens(flags.GetInt("prompt", 1500))
      .OutputTokens(flags.GetInt("output", 256))
      .TtftSlo(flags.GetDouble("ttft", 1.0))
      .TbtSlo(flags.GetDouble("tbt", 0.050))
      .EnforceMemoryCapacity(!flags.GetBool("ideal-capacity", false))
      .MaxBatch(flags.GetInt("max-batch", 65536))
      .Threads(flags.GetInt("threads", 0));
  if (flags.GetBool("kv-ideal", false)) {
    builder.KvPolicy(KvShardPolicy::kIdealShard);
  }
}

// Runs one built scenario and prints the report; shared exit-code policy.
int Execute(const ScenarioBuilder& builder, const Flags& flags) {
  std::string error;
  auto scenario = builder.Build(&error);
  if (!scenario) {
    std::fprintf(stderr, "litegpu: %s\n", error.c_str());
    return 1;
  }
  RunReport report = Runner().Run(*scenario);
  if (flags.GetBool("json", false)) {
    std::printf("%s\n", report.ToJson().Dump().c_str());
  } else {
    std::printf("%s", report.ToText().c_str());
  }
  if (!report.ok) {
    std::fprintf(stderr, "litegpu: %s\n", report.error.c_str());
    return 1;
  }
  // derive keeps its historical exit contract: 2 when the part is
  // shoreline-infeasible (scripts branch on it).
  if (report.study == StudyKind::kDerive &&
      !std::get<DeriveStudyReport>(report.payload).result.shoreline_feasible) {
    return 2;
  }
  return 0;
}

// Loads every scenario in `files` and validates each before any runs. A
// missing or malformed file exits 1; an invalid scenario exits 64, like the
// same field given as a flag.
int LoadScenarios(const std::vector<std::string>& files, std::vector<Scenario>* scenarios) {
  for (const std::string& path : files) {
    std::string error;
    auto loaded = LoadScenarioFile(path, &error);
    if (!loaded) {
      std::fprintf(stderr, "litegpu: %s: %s\n", path.c_str(), error.c_str());
      return 1;
    }
    for (const Scenario& s : *loaded) {
      std::string problem = s.Validate();
      if (!problem.empty()) {
        std::fprintf(stderr, "litegpu: %s: scenario '%s': %s\n", path.c_str(), s.name.c_str(),
                     problem.c_str());
        return kUsageError;
      }
    }
    scenarios->insert(scenarios->end(), loaded->begin(), loaded->end());
  }
  return 0;
}

// Runs loaded scenarios and prints their reports: one scenario alone (at
// --threads when given), a batch one worker per scenario.
int RunScenarioList(const std::vector<Scenario>& scenarios, const Flags& flags) {
  std::vector<RunReport> reports;
  if (scenarios.size() == 1) {
    Scenario only = scenarios.front();
    if (flags.Has("threads")) {
      only.exec.threads = flags.GetInt("threads", 0);
    }
    reports.push_back(Runner().Run(only));
  } else {
    ExecPolicy exec;
    exec.threads = flags.GetInt("threads", 0);
    reports = RunScenarios(scenarios, exec);
  }

  bool all_ok = true;
  if (flags.GetBool("json", false)) {
    if (reports.size() == 1) {
      std::printf("%s\n", reports.front().ToJson().Dump().c_str());
    } else {
      Json batch = Json::Array();
      for (const auto& report : reports) {
        batch.Append(report.ToJson());
      }
      std::printf("%s\n", batch.Dump().c_str());
    }
  } else {
    for (const auto& report : reports) {
      std::printf("%s\n", report.ToText().c_str());
    }
  }
  for (const auto& report : reports) {
    if (!report.ok) {
      std::fprintf(stderr, "litegpu: scenario '%s': %s\n", report.scenario_name.c_str(),
                   report.error.c_str());
      all_ok = false;
    }
  }
  return all_ok ? 0 : 1;
}

int RunScenarioFiles(const Flags& flags) {
  if (int rc = CheckFlags(flags, AllowedFlags({}, /*workload=*/false))) {
    return rc;
  }
  std::vector<std::string> files(flags.positionals().begin() + 1,
                                 flags.positionals().end());
  if (files.empty()) {
    std::fprintf(stderr, "usage: litegpu run <scenario.json>... [--json] [--threads N]\n");
    return kUsageError;
  }
  std::vector<Scenario> scenarios;
  if (int rc = LoadScenarios(files, &scenarios)) {
    return rc;
  }
  return RunScenarioList(scenarios, flags);
}

// `litegpu fleet <scenario.json>`: run's loader restricted to fleet-compare
// scenarios — the catalog shape (candidates, grids, economics knobs) only
// makes sense declaratively, so the subcommand takes a file, not flags.
int RunFleet(const Flags& flags) {
  if (int rc = CheckFlags(flags, AllowedFlags({}, /*workload=*/false))) {
    return rc;
  }
  std::vector<std::string> files(flags.positionals().begin() + 1,
                                 flags.positionals().end());
  if (files.size() != 1) {
    std::fprintf(stderr, "usage: litegpu fleet <scenario.json> [--json] [--threads N]\n");
    return kUsageError;
  }
  std::vector<Scenario> scenarios;
  if (int rc = LoadScenarios(files, &scenarios)) {
    return rc;
  }
  for (const Scenario& s : scenarios) {
    if (s.study != StudyKind::kFleetCompare) {
      std::fprintf(stderr,
                   "litegpu: %s: scenario '%s' is a %s study, not fleet-compare "
                   "(use `litegpu run`)\n",
                   files.front().c_str(), s.name.c_str(), ToString(s.study).c_str());
      return kUsageError;
    }
  }
  return RunScenarioList(scenarios, flags);
}

int RunFig3(const Flags& flags, bool prefill) {
  if (int rc = CheckFlags(flags, AllowedFlags({"baseline"}))) {
    return rc;
  }
  ScenarioBuilder builder(prefill ? StudyKind::kFig3a : StudyKind::kFig3b);
  ApplyWorkloadFlags(flags, builder);
  builder.Baseline(flags.GetString("baseline", "H100"));
  return Execute(builder, flags);
}

int RunSearch(const Flags& flags) {
  if (int rc = CheckFlags(flags, AllowedFlags({"model", "gpu"}))) {
    return rc;
  }
  ScenarioBuilder builder(StudyKind::kSearch);
  ApplyWorkloadFlags(flags, builder);
  builder.Model(flags.GetString("model", "Llama3-70B"))
      .Gpu(flags.GetString("gpu", "H100"));
  return Execute(builder, flags);
}

int RunDesign(const Flags& flags) {
  if (int rc = CheckFlags(flags, AllowedFlags({"model", "hbm-cost", "price-multiplier",
                                               "amortization-years"}))) {
    return rc;
  }
  ScenarioBuilder builder(StudyKind::kDesign);
  ApplyWorkloadFlags(flags, builder);
  builder.Model(flags.GetString("model", "Llama3-70B"));
  DesignKnobs knobs;
  knobs.hbm_usd_per_gb = flags.GetDouble("hbm-cost", knobs.hbm_usd_per_gb);
  knobs.gpu_price_multiplier =
      flags.GetDouble("price-multiplier", knobs.gpu_price_multiplier);
  knobs.amortization_years =
      flags.GetDouble("amortization-years", knobs.amortization_years);
  builder.Design(knobs);
  return Execute(builder, flags);
}

// Loads a --<flag> knob file (--classes, --arrival, --autoscaler, --faults):
// parses it with `parse` and, when given, checks it with `validate` (labelled
// "<flag> file") before the run. Returns false (with the message printed) on
// read, parse or validation errors; an absent flag leaves `out` untouched.
template <typename T>
bool LoadKnobFileFlag(const Flags& flags, const char* flag,
                      std::optional<T> (*parse)(const Json&, std::string*),
                      std::string (*validate)(const T&, const std::string&), T& out) {
  if (!flags.Has(flag)) {
    return true;
  }
  std::string path = flags.GetString(flag);
  std::string error;
  auto json = Json::ParseFile(path, &error);
  std::optional<T> knobs;
  if (json) {
    knobs = parse(*json, &error);
  }
  if (knobs && validate != nullptr) {
    error = validate(*knobs, std::string(flag) + " file");
  }
  if (!error.empty()) {
    std::fprintf(stderr, "litegpu: %s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  out = std::move(*knobs);
  return true;
}

// The knob-file flags serve and sweep share.
bool LoadServeFileFlags(const Flags& flags, ServeCommonKnobs& knobs) {
  return LoadKnobFileFlag<std::vector<RequestClass>>(flags, "classes", ParseRequestClasses,
                                                     nullptr, knobs.classes) &&
         LoadKnobFileFlag(flags, "arrival", ParseArrivalProcess, ValidateArrivalProcess,
                          knobs.arrival) &&
         LoadKnobFileFlag(flags, "autoscaler", ParseAutoscalerKnobs,
                          ValidateAutoscalerKnobs, knobs.autoscaler) &&
         LoadKnobFileFlag(flags, "faults", ParseFaultKnobs, ValidateFaultKnobs,
                          knobs.faults);
}

int RunServe(const Flags& flags) {
  if (int rc = CheckFlags(
          flags, AllowedFlags({"model", "gpu", "load", "rate", "horizon",
                               "prefill-instances", "decode-instances", "prompt-sigma",
                               "output-sigma", "seed", "classes", "arrival",
                               "autoscaler", "faults", "shards"}))) {
    return rc;
  }
  ScenarioBuilder builder(StudyKind::kServe);
  ApplyWorkloadFlags(flags, builder);
  builder.Model(flags.GetString("model", "Llama3-70B"))
      .Gpu(flags.GetString("gpu", "H100"));
  ServeKnobs knobs;
  knobs.load = flags.GetDouble("load", knobs.load);
  knobs.arrival_rate_per_s = flags.GetDouble("rate", knobs.arrival_rate_per_s);
  knobs.horizon_s = flags.GetDouble("horizon", knobs.horizon_s);
  knobs.prefill_instances = flags.GetInt("prefill-instances", knobs.prefill_instances);
  knobs.decode_instances = flags.GetInt("decode-instances", knobs.decode_instances);
  knobs.prompt_sigma = flags.GetDouble("prompt-sigma", knobs.prompt_sigma);
  knobs.output_sigma = flags.GetDouble("output-sigma", knobs.output_sigma);
  knobs.seed = flags.GetUint64("seed", knobs.seed);
  knobs.shards = flags.GetInt("shards", knobs.shards);
  if (!LoadServeFileFlags(flags, knobs)) {
    return kUsageError;
  }
  builder.Serve(knobs);
  return Execute(builder, flags);
}

// Parses a grid spec: "lo:hi:step" (inclusive range) or a comma-separated
// list of values. Returns false on malformed input.
bool ParseGridSpec(const std::string& spec, ServeSweepKnobs& knobs, bool as_rates,
                   std::string* error) {
  auto parse_double = [](const std::string& text, double& out) {
    char* end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end != text.c_str() && *end == '\0';
  };
  std::vector<double>& list = as_rates ? knobs.rates : knobs.loads;
  if (spec.find(':') != std::string::npos) {
    // lo:hi:step — for loads it maps onto the knobs' range fields; rate
    // ranges expand to an explicit list here.
    double parts[3];
    size_t start = 0;
    for (int i = 0; i < 3; ++i) {
      size_t colon = spec.find(':', start);
      bool last = i == 2;
      if (last != (colon == std::string::npos) ||
          !parse_double(spec.substr(start, last ? std::string::npos : colon - start),
                        parts[i])) {
        *error = "malformed grid spec '" + spec + "' (expected lo:hi:step)";
        return false;
      }
      start = colon + 1;
    }
    std::vector<double> expanded = ExpandGridRange(parts[0], parts[1], parts[2]);
    if (expanded.empty()) {
      *error = "grid range '" + spec +
               "' needs finite hi >= lo, step > 0, and at most 1e6 points";
      return false;
    }
    if (as_rates) {
      list.insert(list.end(), expanded.begin(), expanded.end());
    } else {
      knobs.load_lo = parts[0];
      knobs.load_hi = parts[1];
      knobs.load_step = parts[2];
    }
    return true;
  }
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    std::string token =
        spec.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    double value = 0.0;
    if (!parse_double(token, value)) {
      *error = "malformed grid value '" + token + "' in '" + spec + "'";
      return false;
    }
    list.push_back(value);
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return true;
}

int RunSweep(const Flags& flags) {
  if (int rc = CheckFlags(
          flags, AllowedFlags({"model", "gpu", "loads", "rates", "horizon",
                               "prefill-instances", "decode-instances", "prompt-sigma",
                               "output-sigma", "seed", "classes", "arrival",
                               "autoscaler", "faults", "shards"}))) {
    return rc;
  }
  ScenarioBuilder builder(StudyKind::kServeSweep);
  ApplyWorkloadFlags(flags, builder);
  builder.Model(flags.GetString("model", "Llama3-70B"))
      .Gpu(flags.GetString("gpu", "H100"));
  ServeSweepKnobs knobs;
  std::string error;
  if (flags.Has("loads") &&
      !ParseGridSpec(flags.GetString("loads"), knobs, /*as_rates=*/false, &error)) {
    std::fprintf(stderr, "litegpu: %s\n", error.c_str());
    return kUsageError;
  }
  if (flags.Has("rates") &&
      !ParseGridSpec(flags.GetString("rates"), knobs, /*as_rates=*/true, &error)) {
    std::fprintf(stderr, "litegpu: %s\n", error.c_str());
    return kUsageError;
  }
  knobs.horizon_s = flags.GetDouble("horizon", knobs.horizon_s);
  knobs.prefill_instances = flags.GetInt("prefill-instances", knobs.prefill_instances);
  knobs.decode_instances = flags.GetInt("decode-instances", knobs.decode_instances);
  knobs.prompt_sigma = flags.GetDouble("prompt-sigma", knobs.prompt_sigma);
  knobs.output_sigma = flags.GetDouble("output-sigma", knobs.output_sigma);
  knobs.seed = flags.GetUint64("seed", knobs.seed);
  knobs.shards = flags.GetInt("shards", knobs.shards);
  if (!LoadServeFileFlags(flags, knobs)) {
    return kUsageError;
  }
  builder.ServeSweep(knobs);
  return Execute(builder, flags);
}

int RunMcSim(const Flags& flags) {
  if (int rc = CheckFlags(flags, AllowedFlags({"gpu", "gpus-per-instance", "instances",
                                               "spares", "years", "seed", "trials"},
                                              /*workload=*/false))) {
    return rc;
  }
  ScenarioBuilder builder(StudyKind::kMcSim);
  builder.Gpu(flags.GetString("gpu", "H100")).Threads(flags.GetInt("threads", 0));
  McSimKnobs knobs;
  knobs.gpus_per_instance = flags.GetInt("gpus-per-instance", knobs.gpus_per_instance);
  knobs.num_instances = flags.GetInt("instances", knobs.num_instances);
  knobs.num_spares = flags.GetInt("spares", knobs.num_spares);
  knobs.sim_years = flags.GetDouble("years", knobs.sim_years);
  knobs.seed = flags.GetUint64("seed", knobs.seed);
  knobs.num_trials = flags.GetInt("trials", knobs.num_trials);
  builder.McSim(knobs);
  return Execute(builder, flags);
}

int RunYield(const Flags& flags) {
  if (int rc =
          CheckFlags(flags, AllowedFlags({"d0", "area", "split", "cluster-alpha"},
                                         /*workload=*/false))) {
    return rc;
  }
  ScenarioBuilder builder(StudyKind::kYield);
  YieldKnobs knobs;
  knobs.defect_density_per_cm2 = flags.GetDouble("d0", knobs.defect_density_per_cm2);
  knobs.die_area_mm2 = flags.GetDouble("area", knobs.die_area_mm2);
  knobs.split = flags.GetInt("split", knobs.split);
  knobs.cluster_alpha = flags.GetDouble("cluster-alpha", knobs.cluster_alpha);
  builder.Yield(knobs);
  return Execute(builder, flags);
}

int RunDerive(const Flags& flags) {
  if (int rc = CheckFlags(flags, AllowedFlags({"base", "split", "mem", "net", "clock"},
                                              /*workload=*/false))) {
    return rc;
  }
  ScenarioBuilder builder(StudyKind::kDerive);
  DeriveKnobs knobs;
  knobs.base_gpu = flags.GetString("base", knobs.base_gpu);
  knobs.split = flags.GetInt("split", knobs.split);
  knobs.mem_bw_multiplier = flags.GetDouble("mem", knobs.mem_bw_multiplier);
  knobs.net_bw_multiplier = flags.GetDouble("net", knobs.net_bw_multiplier);
  knobs.overclock = flags.GetDouble("clock", knobs.overclock);
  builder.Derive(knobs);
  return Execute(builder, flags);
}

int RunList(const Flags& flags) {
  if (int rc = CheckFlags(flags, {"json"})) {
    return rc;
  }
  if (flags.GetBool("json", false)) {
    Json gpus = Json::Array();
    for (const auto& g : Table1Configs()) {
      Json j = Json::Object();
      j.Set("name", g.name)
          .Set("flops", g.flops)
          .Set("mem_bw_bytes_per_s", g.mem_bw_bytes_per_s)
          .Set("net_bw_bytes_per_s", g.net_bw_bytes_per_s)
          .Set("max_gpus", g.max_gpus);
      gpus.Append(std::move(j));
    }
    Json models = Json::Array();
    for (const auto& m : {Llama3_8B(), Llama3_70B(), Gpt3_175B(), Llama3_405B()}) {
      Json j = Json::Object();
      j.Set("name", m.name)
          .Set("num_layers", m.num_layers)
          .Set("d_model", m.d_model)
          .Set("num_heads", m.num_heads)
          .Set("num_kv_heads", m.num_kv_heads);
      models.Append(std::move(j));
    }
    Json j = Json::Object();
    j.Set("gpus", std::move(gpus)).Set("models", std::move(models));
    std::printf("%s\n", j.Dump().c_str());
    return 0;
  }
  std::printf("GPUs:\n");
  for (const auto& g : Table1Configs()) {
    std::printf("  %-18s %4.0f TFLOPS %5.0f GB/s mem %6.1f GB/s net, max %d\n",
                g.name.c_str(), g.flops / kTFLOPS, g.mem_bw_bytes_per_s / kGBps,
                g.net_bw_bytes_per_s / kGBps, g.max_gpus);
  }
  for (const auto& g : HistoricalGenerations()) {
    std::printf("  %-18s (%d)\n", g.name.c_str(), g.year);
  }
  std::printf("Models:\n");
  for (const auto& m : {Llama3_8B(), Llama3_70B(), Gpt3_175B(), Llama3_405B()}) {
    std::printf("  %-12s %3d layers, d_model %5d, %3d heads / %2d KV heads\n",
                m.name.c_str(), m.num_layers, m.d_model, m.num_heads, m.num_kv_heads);
  }
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: litegpu <run|fleet|fig3a|fig3b|search|design|serve|sweep|mcsim|yield|derive|"
      "list> [flags]\n"
      "  run:     <scenario.json>...  execute declarative scenario file(s)\n"
      "  fleet:   <scenario.json>     fleet-compare catalog: knee-vs-knee $/Mtoken\n"
      "  search:  --model M --gpu G [--prompt N --output N --ttft S --tbt S]\n"
      "  serve:   [--model M --gpu G --load X --rate R --horizon S\n"
      "            --prefill-instances N --decode-instances N\n"
      "            --prompt-sigma X --output-sigma X --seed N --classes mix.json\n"
      "            --arrival proc.json --autoscaler policy.json --faults f.json\n"
      "            --shards N]\n"
      "  sweep:   [--model M --gpu G --loads lo:hi:step|a,b,c --rates lo:hi:step|a,b,c\n"
      "            --horizon S --prefill-instances N --decode-instances N\n"
      "            --prompt-sigma X --output-sigma X --seed N --classes mix.json\n"
      "            --arrival proc.json --autoscaler policy.json --faults f.json\n"
      "            --shards N]\n"
      "  design:  --model M [--hbm-cost X --price-multiplier X --amortization-years X]\n"
      "  mcsim:   [--gpu G --gpus-per-instance N --instances N --spares N\n"
      "            --years X --seed N --trials N]\n"
      "  yield:   [--d0 X --area A --split N --cluster-alpha X]\n"
      "  derive:  [--base G --split N --mem X --net X --clock X]\n"
      "  fig3*:   [--ideal-capacity] [--kv-ideal] [--baseline G]\n"
      "  common:  [--threads N]  sweep workers (0 = all cores, 1 = serial)\n"
      "           [--json]      structured report on stdout\n");
  return kUsageError;
}

int Main(int argc, const char* const* argv) {
  // Declared boolean switches never swallow a following positional
  // (`litegpu run --json scenario.json` keeps the file positional).
  Flags flags = Flags::Parse(argc, argv, {"json", "kv-ideal", "ideal-capacity"});
  std::string cmd = flags.Subcommand();
  if (cmd == "run") {
    return RunScenarioFiles(flags);
  }
  if (cmd == "fleet") {
    return RunFleet(flags);
  }
  if (cmd == "fig3a") {
    return RunFig3(flags, /*prefill=*/true);
  }
  if (cmd == "fig3b") {
    return RunFig3(flags, /*prefill=*/false);
  }
  if (cmd == "search") {
    return RunSearch(flags);
  }
  if (cmd == "design") {
    return RunDesign(flags);
  }
  if (cmd == "serve") {
    return RunServe(flags);
  }
  if (cmd == "sweep") {
    return RunSweep(flags);
  }
  if (cmd == "mcsim") {
    return RunMcSim(flags);
  }
  if (cmd == "yield") {
    return RunYield(flags);
  }
  if (cmd == "derive") {
    return RunDerive(flags);
  }
  if (cmd == "list") {
    return RunList(flags);
  }
  return Usage();
}

}  // namespace
}  // namespace litegpu

int main(int argc, char** argv) { return litegpu::Main(argc, argv); }
