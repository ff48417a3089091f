// litegpu — command-line front end for the modeling library.
//
//   litegpu run <scenario.json>... [--json]     execute scenario file(s)
//   litegpu fleet <scenario.json> [--json]      fleet-compare catalog:
//                                               knee-vs-knee $/Mtoken at SLO
//   litegpu <study> [flags]                     one study from flags: fig3a,
//                                               fig3b, search, design, serve,
//                                               sweep, mcsim, yield, derive
//   litegpu list                                catalog contents
//
// A study subcommand is one row of kSubcommands: its study kind, a default
// model where it differs from the study's own, and its flags, each naming
// the scenario key it sets. The given flags become one scenario JSON object,
// which runs through `run`'s path (ScenarioFromJson -> Validate -> Runner).
// A flag value is therefore type- and range-checked exactly like the same
// key in a scenario file, and an invalid one exits 64 with the key's name;
// so do unknown flags, with a did-you-mean hint, and switches given a
// non-boolean value. `litegpu` with no subcommand prints every flag.

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
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

// How a flag's text becomes scenario JSON.
enum class FlagKind {
  kValue,     // a number when the text reads as one in full, else the string
  kSwitch,    // bare or =true|false (1|0, yes|no, on|off): `on` at `key` when true
  kName,      // a one-name list (--model, --gpu)
  kLoadGrid,  // a,b,c: the list at `key`; lo:hi:step: the block's load_lo/hi/step
  kRateGrid,  // a,b,c: the list at `key`; lo:hi:step expands into that list
  kFile,      // a JSON file holding the block at `key`, bare or {"<block>": ...}
  kOutput,    // --json: picks the rendering, sets no key
};

struct CliFlag {
  CliFlag(std::string name, std::string key, FlagKind kind, std::string meta = "",
          Json on = {})
      : name(std::move(name)), key(std::move(key)), kind(kind), meta(std::move(meta)),
        on(std::move(on)) {}

  std::string name;  // spelling without the leading --
  std::string key;   // dotted scenario key; a leading '.' is under the row's block
  FlagKind kind;
  std::string meta;  // the value's name in Usage() ("N", "S", "mix.json")
  Json on;           // kSwitch: the value set when the switch is on
};

struct Subcommand {
  std::string name;
  StudyKind study;
  std::string block;  // the scenario block its '.'-keys live in
  std::string model;  // the models list without --model ("" = the study's own)
  std::vector<CliFlag> flags;
};

std::vector<CliFlag> Join(std::initializer_list<std::vector<CliFlag>> groups) {
  std::vector<CliFlag> all;
  for (const auto& group : groups) {
    all.insert(all.end(), group.begin(), group.end());
  }
  return all;
}

const CliFlag kJsonFlag = {"json", "", FlagKind::kOutput};
const std::vector<CliFlag> kCommonFlags = {
    {"threads", "exec.threads", FlagKind::kValue, "N"},
    kJsonFlag,
};

// The workload and engine knobs of the studies that run the perf search.
const std::vector<CliFlag> kWorkloadFlags = {
    {"prompt", "workload.prompt_tokens", FlagKind::kValue, "N"},
    {"output", "workload.output_tokens", FlagKind::kValue, "N"},
    {"ttft", "workload.ttft_slo_s", FlagKind::kValue, "S"},
    {"tbt", "workload.tbt_slo_s", FlagKind::kValue, "S"},
    {"ideal-capacity", "workload.enforce_memory_capacity", FlagKind::kSwitch, "", false},
    {"kv-ideal", "kv_policy", FlagKind::kSwitch, "", "ideal-shard"},
    {"max-batch", "max_batch", FlagKind::kValue, "N"},
};

const CliFlag kModelFlag = {"model", "models", FlagKind::kName, "M"};
const CliFlag kGpuFlag = {"gpu", "gpus", FlagKind::kName, "G"};

// The per-point knobs the serve and sweep blocks share.
const std::vector<CliFlag> kServePointFlags = {
    {"horizon", ".horizon_s", FlagKind::kValue, "S"},
    {"prefill-instances", ".prefill_instances", FlagKind::kValue, "N"},
    {"decode-instances", ".decode_instances", FlagKind::kValue, "N"},
    {"prompt-sigma", ".prompt_sigma", FlagKind::kValue, "X"},
    {"output-sigma", ".output_sigma", FlagKind::kValue, "X"},
    {"seed", ".seed", FlagKind::kValue, "N"},
    {"classes", ".classes", FlagKind::kFile, "mix.json"},
    {"arrival", ".arrival", FlagKind::kFile, "proc.json"},
    {"autoscaler", ".autoscaler", FlagKind::kFile, "policy.json"},
    {"faults", ".faults", FlagKind::kFile, "f.json"},
    {"shards", ".shards", FlagKind::kValue, "N"},
};

const std::vector<Subcommand> kSubcommands = {
    {"fig3a", StudyKind::kFig3a, "", "",
     Join({{{"baseline", "baseline_gpu", FlagKind::kValue, "G"}}, kWorkloadFlags,
           kCommonFlags})},
    {"fig3b", StudyKind::kFig3b, "", "",
     Join({{{"baseline", "baseline_gpu", FlagKind::kValue, "G"}}, kWorkloadFlags,
           kCommonFlags})},
    {"search", StudyKind::kSearch, "", "Llama3-70B",
     Join({{kModelFlag, kGpuFlag}, kWorkloadFlags, kCommonFlags})},
    {"design", StudyKind::kDesign, "design", "Llama3-70B",
     Join({{kModelFlag,
            {"hbm-cost", ".hbm_usd_per_gb", FlagKind::kValue, "X"},
            {"price-multiplier", ".gpu_price_multiplier", FlagKind::kValue, "X"},
            {"amortization-years", ".amortization_years", FlagKind::kValue, "X"}},
           kWorkloadFlags, kCommonFlags})},
    {"serve", StudyKind::kServe, "serve", "",
     Join({{kModelFlag, kGpuFlag,
            {"load", ".load", FlagKind::kValue, "X"},
            {"rate", ".arrival_rate_per_s", FlagKind::kValue, "R"}},
           kServePointFlags, kWorkloadFlags, kCommonFlags})},
    {"sweep", StudyKind::kServeSweep, "sweep", "",
     Join({{kModelFlag, kGpuFlag,
            {"loads", ".loads", FlagKind::kLoadGrid, "lo:hi:step|a,b,c"},
            {"rates", ".rates", FlagKind::kRateGrid, "lo:hi:step|a,b,c"}},
           kServePointFlags, kWorkloadFlags, kCommonFlags})},
    {"mcsim", StudyKind::kMcSim, "mcsim", "",
     Join({{kGpuFlag,
            {"gpus-per-instance", ".gpus_per_instance", FlagKind::kValue, "N"},
            {"instances", ".num_instances", FlagKind::kValue, "N"},
            {"spares", ".num_spares", FlagKind::kValue, "N"},
            {"years", ".sim_years", FlagKind::kValue, "X"},
            {"seed", ".seed", FlagKind::kValue, "N"},
            {"trials", ".num_trials", FlagKind::kValue, "N"}},
           kCommonFlags})},
    {"yield", StudyKind::kYield, "yield", "",
     Join({{{"d0", ".defect_density_per_cm2", FlagKind::kValue, "X"},
            {"area", ".die_area_mm2", FlagKind::kValue, "A"},
            {"split", ".split", FlagKind::kValue, "N"},
            {"cluster-alpha", ".cluster_alpha", FlagKind::kValue, "X"}},
           kCommonFlags})},
    {"derive", StudyKind::kDerive, "derive", "",
     Join({{{"base", ".base_gpu", FlagKind::kValue, "G"},
            {"split", ".split", FlagKind::kValue, "N"},
            {"mem", ".mem_bw_multiplier", FlagKind::kValue, "X"},
            {"net", ".net_bw_multiplier", FlagKind::kValue, "X"},
            {"clock", ".overclock", FlagKind::kValue, "X"}},
           kCommonFlags})},
};

std::vector<std::string> NamesOf(const std::vector<CliFlag>& flags) {
  std::vector<std::string> names;
  for (const CliFlag& flag : flags) {
    names.push_back(flag.name);
  }
  return names;
}

int UsageError(const std::string& message) {
  std::fprintf(stderr, "litegpu: %s\n", message.c_str());
  return kUsageError;
}

bool IsSwitch(const CliFlag& flag) {
  return flag.kind == FlagKind::kSwitch || flag.kind == FlagKind::kOutput;
}

// Returns kUsageError (with the message printed) on an unknown flag or a
// switch given a non-boolean value, else 0.
int CheckFlags(const Flags& flags, const std::vector<CliFlag>& allowed) {
  std::string problem = flags.UnknownFlagCheck(NamesOf(allowed));
  for (const CliFlag& flag : allowed) {
    if (problem.empty() && IsSwitch(flag) && !flags.GetBool(flag.name)) {
      problem = "--" + flag.name + " takes no value or true|false, not '" +
                flags.GetString(flag.name) + "'";
    }
  }
  return problem.empty() ? 0 : UsageError(problem);
}

// A flag's text as JSON: a number when it reads as one in full (a digits-only
// seed stays exact), else the string, which the scenario reader then rejects
// where it wants a number.
Json FlagValue(const std::string& text) {
  std::optional<Json> number = Json::ParseNumber(text);
  return number ? *number : Json(text);
}

// Sets `value` at `key`, which is "name" or "block.name".
void SetKey(Json& scenario, const std::string& key, Json value) {
  size_t dot = key.find('.');
  if (dot == std::string::npos) {
    scenario.Set(key, std::move(value));
    return;
  }
  std::string block = key.substr(0, dot);
  const Json* existing = scenario.Find(block);
  Json inner = existing != nullptr ? *existing : Json::Object();
  inner.Set(key.substr(dot + 1), std::move(value));
  scenario.Set(block, std::move(inner));
}

// Parses a grid spec, "lo:hi:step" (inclusive range) or "a,b,c", and sets
// it under `key`'s block: a list at `key`, and a range either expanded into
// that list or, when `range_keys`, as the block's load_lo/load_hi/load_step.
// Returns false on malformed input.
bool ParseGridSpec(const std::string& spec, const std::string& key, bool range_keys,
                   Json& scenario, std::string* error) {
  const bool range = spec.find(':') != std::string::npos;
  std::vector<double> numbers;
  bool parsed = true;
  for (size_t start = 0, end = 0; parsed && end != std::string::npos; start = end + 1) {
    end = spec.find(range ? ':' : ',', start);
    Json value = FlagValue(spec.substr(start, end == std::string::npos ? end : end - start));
    parsed = value.type() == Json::Type::kNumber;
    numbers.push_back(value.AsDouble());
  }
  if (!parsed || (range && numbers.size() != 3)) {
    *error = "malformed grid spec '" + spec + "' (expected lo:hi:step or a,b,c)";
    return false;
  }
  std::vector<double> list = numbers;
  if (range) {
    list = ExpandGridRange(numbers[0], numbers[1], numbers[2]);
    if (list.empty()) {
      *error = "grid range '" + spec +
               "' needs finite hi >= lo, step > 0, and at most 1e6 points";
      return false;
    }
    if (range_keys) {
      std::string block = key.substr(0, key.find('.') + 1);
      SetKey(scenario, block + "load_lo", numbers[0]);
      SetKey(scenario, block + "load_hi", numbers[1]);
      SetKey(scenario, block + "load_step", numbers[2]);
      return true;
    }
  }
  Json arr = Json::Array();
  for (double x : list) {
    arr.Append(x);
  }
  SetKey(scenario, key, std::move(arr));
  return true;
}

// A knob file's block: the file's JSON itself, or, when the file is an
// object holding the block's name, the value under that one key.
std::optional<Json> ReadKnobFile(const std::string& path, const std::string& block,
                                 std::string* error) {
  auto json = Json::ParseFile(path, error);
  if (!json) {
    return std::nullopt;
  }
  const Json* wrapped = json->Find(block);
  if (wrapped == nullptr) {
    return json;
  }
  if (json->size() != 1) {
    *error = "a wrapped file holds only the '" + block + "' key";
    return std::nullopt;
  }
  return *wrapped;
}

// The scenario JSON `flags` describe for subcommand `cmd`, or nullopt (with
// the message in `error`) when a flag's text cannot become JSON: a malformed
// grid or an unreadable knob file. `flags` must have passed CheckFlags.
std::optional<Json> ScenarioJsonFromFlags(const Subcommand& cmd, const Flags& flags,
                                          std::string* error) {
  Json scenario = Json::Object();
  scenario.Set("study", ToString(cmd.study));
  for (const CliFlag& flag : cmd.flags) {
    const std::string key = flag.key.rfind('.', 0) == 0 ? cmd.block + flag.key : flag.key;
    const std::string fallback = flag.name == kModelFlag.name ? cmd.model : "";
    if (flag.kind == FlagKind::kOutput || (!flags.Has(flag.name) && fallback.empty())) {
      continue;
    }
    const std::string text = flags.GetString(flag.name, fallback);
    switch (flag.kind) {
      case FlagKind::kValue:
        SetKey(scenario, key, FlagValue(text));
        break;
      case FlagKind::kSwitch:
        if (*flags.GetBool(flag.name)) {
          SetKey(scenario, key, flag.on);
        }
        break;
      case FlagKind::kName:
        SetKey(scenario, key, Json::Array().Append(text));
        break;
      case FlagKind::kLoadGrid:
      case FlagKind::kRateGrid:
        if (!ParseGridSpec(text, key, flag.kind == FlagKind::kLoadGrid, scenario, error)) {
          return std::nullopt;
        }
        break;
      case FlagKind::kFile: {
        std::optional<Json> block = ReadKnobFile(text, key.substr(key.find('.') + 1), error);
        if (!block) {
          *error = text + ": " + *error;
          return std::nullopt;
        }
        SetKey(scenario, key, std::move(*block));
        break;
      }
      case FlagKind::kOutput:
        break;
    }
  }
  return scenario;
}

// Reads `run`'s and `fleet`'s --threads as the exec block's key; returns
// false (with the message printed) when the value does not read.
bool ThreadsFlag(const Flags& flags, std::optional<int>* threads) {
  if (!flags.Has("threads")) {
    return true;
  }
  Json block = Json::Object();
  block.Set("threads", FlagValue(flags.GetString("threads")));
  std::string error;
  std::optional<ExecPolicy> exec = ExecPolicyFromJson(block, &error);
  if (!exec) {
    UsageError(error);
    return false;
  }
  *threads = exec->threads;
  return true;
}

// Loads every scenario in `files` and validates each before any runs. A
// missing or malformed file exits 1; an invalid scenario exits 64.
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
        return UsageError(path + ": scenario '" + s.name + "': " + problem);
      }
    }
    scenarios->insert(scenarios->end(), loaded->begin(), loaded->end());
  }
  return 0;
}

// Runs validated scenarios and prints their reports: one scenario alone (at
// `threads` when given), a batch one worker per scenario. Text reports end
// with `text_end`. Returns 0 when every report is ok, else 1.
int RunScenarioList(const std::vector<Scenario>& scenarios, std::optional<int> threads,
                    bool json, const char* text_end, std::vector<RunReport>* out = nullptr) {
  std::vector<RunReport> reports;
  if (scenarios.size() == 1) {
    Scenario only = scenarios.front();
    if (threads) {
      only.exec.threads = *threads;
    }
    reports.push_back(Runner().Run(only));
  } else {
    ExecPolicy exec;
    exec.threads = threads.value_or(0);
    reports = RunScenarios(scenarios, exec);
  }

  if (json) {
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
      std::printf("%s%s", report.ToText().c_str(), text_end);
    }
  }
  bool all_ok = true;
  for (const auto& report : reports) {
    if (!report.ok) {
      // A scenario built from flags has no name to label its error with.
      std::string label =
          report.scenario_name.empty() ? "" : "scenario '" + report.scenario_name + "': ";
      std::fprintf(stderr, "litegpu: %s%s\n", label.c_str(), report.error.c_str());
      all_ok = false;
    }
  }
  if (out != nullptr) {
    *out = std::move(reports);
  }
  return all_ok ? 0 : 1;
}

// `litegpu run <scenario.json>...`, and `litegpu fleet <scenario.json>`:
// run's loader restricted to one file of fleet-compare scenarios — the
// catalog shape (candidates, grids, economics knobs) only makes sense
// declaratively, so the subcommand takes a file, not flags.
int RunScenarioFiles(const Flags& flags, bool fleet) {
  if (int rc = CheckFlags(flags, kCommonFlags)) {
    return rc;
  }
  std::vector<std::string> files(flags.positionals().begin() + 1,
                                 flags.positionals().end());
  if (files.empty() || (fleet && files.size() != 1)) {
    return UsageError(fleet ? "usage: litegpu fleet <scenario.json> [--json] [--threads N]"
                            : "usage: litegpu run <scenario.json>... [--json] [--threads N]");
  }
  std::optional<int> threads;
  if (!ThreadsFlag(flags, &threads)) {
    return kUsageError;
  }
  std::vector<Scenario> scenarios;
  if (int rc = LoadScenarios(files, &scenarios)) {
    return rc;
  }
  for (const Scenario& s : scenarios) {
    if (fleet && s.study != StudyKind::kFleetCompare) {
      return UsageError(files.front() + ": scenario '" + s.name + "' is a " +
                        ToString(s.study) +
                        " study, not fleet-compare (use `litegpu run`)");
    }
  }
  return RunScenarioList(scenarios, threads, *flags.GetBool("json"), "\n");
}

// One study built from flags. Its text report prints with no separator
// line, and derive keeps its exit contract: 2 when the part is
// shoreline-infeasible (scripts branch on it).
int RunStudySubcommand(const Subcommand& cmd, const Flags& flags) {
  if (int rc = CheckFlags(flags, cmd.flags)) {
    return rc;
  }
  std::string error;
  std::optional<Json> json = ScenarioJsonFromFlags(cmd, flags, &error);
  std::optional<Scenario> scenario;
  if (json) {
    scenario = ScenarioFromJson(*json, &error);
  }
  if (scenario) {
    error = scenario->Validate();
  }
  if (!error.empty()) {
    return UsageError(error);
  }
  std::vector<RunReport> reports;
  if (int rc = RunScenarioList({*scenario}, std::nullopt, *flags.GetBool("json"), "", &reports)) {
    return rc;
  }
  if (cmd.study == StudyKind::kDerive &&
      !std::get<DeriveStudyReport>(reports.front().payload).result.shoreline_feasible) {
    return 2;
  }
  return 0;
}

int RunList(const Flags& flags) {
  if (int rc = CheckFlags(flags, {kJsonFlag})) {
    return rc;
  }
  if (*flags.GetBool("json")) {
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

// "  <name>: <lead>[--flag META ...]", wrapped before 80 columns.
std::string UsageLine(const std::string& name, const std::string& lead,
                      const std::vector<CliFlag>& flags) {
  std::vector<std::string> words;
  if (!lead.empty()) {
    words.push_back(lead);
  }
  for (const CliFlag& flag : flags) {
    words.push_back("--" + flag.name + (flag.meta.empty() ? "" : " " + flag.meta));
  }
  words[lead.empty() ? 0 : 1].insert(0, "[");
  words.back() += "]";
  std::string text = "  " + name + ":";
  text.resize(10, ' ');
  size_t line_start = 0;
  for (const std::string& word : words) {
    if (text.size() - line_start + 1 + word.size() > 79) {
      line_start = text.size() + 1;
      text += "\n           ";
    }
    text += " " + word;
  }
  return text + "\n";
}

int Usage() {
  std::string text = "usage: litegpu <run|fleet|";
  for (const Subcommand& cmd : kSubcommands) {
    text += cmd.name + "|";
  }
  text += "list> [flags]\n";
  text += UsageLine("run", "<scenario.json>...", kCommonFlags);
  text += UsageLine("fleet", "<scenario.json>", kCommonFlags);
  for (const Subcommand& cmd : kSubcommands) {
    text += UsageLine(cmd.name, "", cmd.flags);
  }
  text += UsageLine("list", "", {kJsonFlag});
  std::fputs(text.c_str(), stderr);
  return kUsageError;
}

int Main(int argc, const char* const* argv) {
  // Declared boolean switches never swallow a following positional
  // (`litegpu run --json scenario.json` keeps the file positional).
  std::vector<std::string> switches;
  for (const Subcommand& cmd : kSubcommands) {
    for (const CliFlag& flag : cmd.flags) {
      if (IsSwitch(flag)) {
        switches.push_back(flag.name);
      }
    }
  }
  Flags flags = Flags::Parse(argc, argv, switches);
  std::string name = flags.Subcommand();
  if (name == "run" || name == "fleet") {
    return RunScenarioFiles(flags, name == "fleet");
  }
  if (name == "list") {
    return RunList(flags);
  }
  for (const Subcommand& cmd : kSubcommands) {
    if (cmd.name == name) {
      return RunStudySubcommand(cmd, flags);
    }
  }
  return Usage();
}

}  // namespace
}  // namespace litegpu

int main(int argc, char** argv) { return litegpu::Main(argc, argv); }
