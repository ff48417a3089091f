#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/core/scenario.h"
#include "src/core/scenario_fields.h"
#include "src/hw/catalog.h"

namespace litegpu {
namespace {

Scenario Study(StudyKind kind, std::vector<std::string> models = {},
               std::vector<std::string> gpus = {}) {
  Scenario s;
  s.study = kind;
  s.models = std::move(models);
  s.gpus = std::move(gpus);
  return s;
}

Scenario ServeWith(const ServeKnobs& knobs) {
  Scenario s = Study(StudyKind::kServe);
  s.serve = knobs;
  return s;
}

Scenario SweepWith(const ServeSweepKnobs& knobs) {
  Scenario s = Study(StudyKind::kServeSweep);
  s.sweep = knobs;
  return s;
}

Scenario FleetWith(const FleetKnobs& knobs) {
  Scenario s = Study(StudyKind::kFleetCompare);
  s.fleet = knobs;
  return s;
}

// True when `s` fails validation; `error` gets the problem.
bool Rejects(const Scenario& s, std::string* error) {
  *error = s.Validate();
  return !error->empty();
}

TEST(StudyKind, RoundTripsThroughNames) {
  for (StudyKind kind : {StudyKind::kSearch, StudyKind::kFig3a, StudyKind::kFig3b,
                         StudyKind::kDesign, StudyKind::kMcSim, StudyKind::kYield,
                         StudyKind::kDerive, StudyKind::kServe, StudyKind::kServeSweep,
                         StudyKind::kFleetCompare}) {
    auto parsed = ParseStudyKind(ToString(kind));
    ASSERT_TRUE(parsed.has_value()) << ToString(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseStudyKind("fig3c").has_value());
}

TEST(Scenario, DefaultScenariosValidate) {
  for (StudyKind kind : {StudyKind::kSearch, StudyKind::kFig3a, StudyKind::kFig3b,
                         StudyKind::kDesign, StudyKind::kMcSim, StudyKind::kYield,
                         StudyKind::kDerive, StudyKind::kServe, StudyKind::kServeSweep}) {
    EXPECT_EQ(Study(kind).Validate(), "") << ToString(kind);
  }
}

TEST(Scenario, RejectsUnknownModel) {
  Scenario scenario = Study(StudyKind::kSearch);
  scenario.models = {"NotAModel"};
  EXPECT_NE(scenario.Validate().find("unknown model"), std::string::npos);
}

TEST(Scenario, RejectsUnknownGpu) {
  Scenario scenario = Study(StudyKind::kFig3b);
  scenario.gpus = {"H100", "H1000"};
  EXPECT_NE(scenario.Validate().find("unknown GPU"), std::string::npos);
}

TEST(Scenario, RejectsNonPositiveSlos) {
  std::string error;
  Scenario search = Study(StudyKind::kSearch);
  search.workload.tbt_slo_s = 0.0;
  EXPECT_TRUE(Rejects(search, &error));
  EXPECT_NE(error.find("tbt_slo_s"), std::string::npos);
  Scenario fig3a = Study(StudyKind::kFig3a);
  fig3a.workload.ttft_slo_s = -1.0;
  EXPECT_TRUE(Rejects(fig3a, &error));
  EXPECT_NE(error.find("ttft_slo_s"), std::string::npos);
  search = Study(StudyKind::kSearch);
  search.workload.prompt_tokens = 0;
  EXPECT_TRUE(Rejects(search, &error));
}

TEST(Scenario, RejectsBaselineOutsideGpuList) {
  Scenario scenario = Study(StudyKind::kFig3a);
  scenario.gpus = {"Lite"};
  scenario.baseline_gpu = "H100";
  EXPECT_NE(scenario.Validate().find("baseline_gpu"), std::string::npos);
}

TEST(Scenario, RejectsBadStudyKnobs) {
  std::string error;
  Scenario mcsim = Study(StudyKind::kMcSim);
  mcsim.mcsim.num_trials = 0;
  EXPECT_TRUE(Rejects(mcsim, &error));
  EXPECT_NE(error.find("num_trials"), std::string::npos);

  Scenario derive = Study(StudyKind::kDerive);
  derive.derive.base_gpu = "Nope";
  EXPECT_TRUE(Rejects(derive, &error));
  EXPECT_NE(error.find("base_gpu"), std::string::npos);

  Scenario yield = Study(StudyKind::kYield);
  yield.yield.die_area_mm2 = -5.0;
  EXPECT_TRUE(Rejects(yield, &error));
  EXPECT_NE(error.find("die_area_mm2"), std::string::npos);
}

TEST(Scenario, ResolvedListsApplyStudyDefaults) {
  Scenario fig3a = Study(StudyKind::kFig3a);
  EXPECT_EQ(fig3a.ResolvedModels().size(), CaseStudyModels().size());
  EXPECT_EQ(fig3a.ResolvedGpus().size(), 4u);
  EXPECT_EQ(fig3a.ResolvedGpus().front(), "H100");

  Scenario design = Study(StudyKind::kDesign);
  EXPECT_EQ(design.ResolvedGpus().size(), Table1Configs().size());

  Scenario search = Study(StudyKind::kSearch);
  search.gpus = {"Lite"};
  ASSERT_EQ(search.ResolvedGpus().size(), 1u);
  EXPECT_EQ(search.ResolvedGpus().front(), "Lite");
}

TEST(Scenario, JsonRoundTripPreservesEquality) {
  Scenario fig3a = Study(StudyKind::kFig3a);
  fig3a.name = "a";
  fig3a.workload.prompt_tokens = 2048;
  Scenario search = Study(StudyKind::kSearch);
  search.models = {"Llama3-70B"};
  search.gpus = {"Lite+MemBW"};
  search.kv_policy = KvShardPolicy::kIdealShard;
  search.workload.tbt_slo_s = 0.025;
  search.exec.threads = 4;
  Scenario mcsim = Study(StudyKind::kMcSim);
  mcsim.gpus = {"Lite"};
  mcsim.mcsim.gpus_per_instance = 32;
  mcsim.mcsim.num_trials = 7;
  mcsim.mcsim.seed = 0xDEADBEEFull;
  Scenario design = Study(StudyKind::kDesign);
  design.models = {"GPT3-175B"};
  Scenario serve = Study(StudyKind::kServe);
  serve.models = {"Llama3-70B"};
  serve.gpus = {"Lite+MemBW"};
  serve.serve.load = 0.6;
  serve.serve.horizon_s = 30.0;
  serve.serve.prefill_instances = 2;
  serve.serve.decode_instances = 3;
  serve.serve.prompt_sigma = 0.5;
  serve.serve.seed = 0xFEED;
  Scenario sweep = Study(StudyKind::kServeSweep);
  sweep.sweep.loads = {0.4, 0.8};
  sweep.sweep.horizon_s = 12.0;
  sweep.sweep.decode_instances = 2;
  sweep.sweep.seed = 0xBEEF;
  for (const Scenario& original : {fig3a, search, mcsim, Study(StudyKind::kYield),
                                   Study(StudyKind::kDerive), design, serve, sweep}) {
    ASSERT_EQ(original.Validate(), "") << ToString(original.study);
    Json j = ScenarioToJson(original);
    std::string error;
    auto restored = ScenarioFromJson(j, &error);
    ASSERT_TRUE(restored.has_value()) << error;
    EXPECT_TRUE(*restored == original) << ScenarioToJson(*restored).Dump();
    // And through the text form too.
    auto reparsed = Json::Parse(j.Dump());
    ASSERT_TRUE(reparsed.has_value());
    auto restored2 = ScenarioFromJson(*reparsed, &error);
    ASSERT_TRUE(restored2.has_value()) << error;
    EXPECT_TRUE(*restored2 == original);
  }
}

TEST(Scenario, FromJsonRejectsUnknownKeysAndBadEnums) {
  std::string error;
  auto bad_key = Json::Parse(R"({"study": "search", "modles": ["Llama3-70B"]})");
  ASSERT_TRUE(bad_key.has_value());
  EXPECT_FALSE(ScenarioFromJson(*bad_key, &error).has_value());
  EXPECT_NE(error.find("modles"), std::string::npos);

  auto bad_study = Json::Parse(R"({"study": "fig4"})");
  EXPECT_FALSE(ScenarioFromJson(*bad_study, &error).has_value());
  EXPECT_NE(error.find("unknown study"), std::string::npos);

  auto no_study = Json::Parse(R"({"name": "x"})");
  EXPECT_FALSE(ScenarioFromJson(*no_study, &error).has_value());
  EXPECT_NE(error.find("study"), std::string::npos);

  auto bad_policy = Json::Parse(R"({"study": "search", "kv_policy": "mirror"})");
  EXPECT_FALSE(ScenarioFromJson(*bad_policy, &error).has_value());
  EXPECT_NE(error.find("kv_policy"), std::string::npos);

  auto bad_nested =
      Json::Parse(R"({"study": "yield", "yield": {"defect_densty": 0.2}})");
  EXPECT_FALSE(ScenarioFromJson(*bad_nested, &error).has_value());
  EXPECT_NE(error.find("defect_densty"), std::string::npos);
}

TEST(Scenario, FromJsonRejectsMistypedValues) {
  std::string error;
  // A string where a number is expected must not silently fall back to the
  // default workload.
  auto str_num =
      Json::Parse(R"({"study": "fig3a", "workload": {"prompt_tokens": "3000"}})");
  ASSERT_TRUE(str_num.has_value());
  EXPECT_FALSE(ScenarioFromJson(*str_num, &error).has_value());
  EXPECT_NE(error.find("prompt_tokens"), std::string::npos);
  EXPECT_NE(error.find("number"), std::string::npos);

  auto num_bool = Json::Parse(
      R"({"study": "search", "workload": {"enforce_memory_capacity": 1}})");
  EXPECT_FALSE(ScenarioFromJson(*num_bool, &error).has_value());
  EXPECT_NE(error.find("enforce_memory_capacity"), std::string::npos);

  auto num_name = Json::Parse(R"({"study": "search", "name": 7})");
  EXPECT_FALSE(ScenarioFromJson(*num_name, &error).has_value());

  auto str_threads = Json::Parse(R"({"study": "yield", "exec": {"threads": "four"}})");
  EXPECT_FALSE(ScenarioFromJson(*str_threads, &error).has_value());
  EXPECT_NE(error.find("threads"), std::string::npos);
}

TEST(Scenario, RejectsListsTheStudyWouldIgnore) {
  std::string error;
  // mcsim simulates one GPU type and no models.
  EXPECT_TRUE(Rejects(Study(StudyKind::kMcSim, {}, {"H100", "Lite"}), &error));
  EXPECT_NE(error.find("exactly one GPU"), std::string::npos);
  EXPECT_TRUE(Rejects(Study(StudyKind::kMcSim, {"Llama3-70B"}), &error));
  // yield/derive read their own knob blocks, not the model/GPU lists.
  EXPECT_TRUE(Rejects(Study(StudyKind::kYield, {}, {"Lite"}), &error));
  EXPECT_NE(error.find("does not take"), std::string::npos);
  EXPECT_TRUE(Rejects(Study(StudyKind::kDerive, {"Llama3-70B"}), &error));
}

TEST(Scenario, FromJsonDefaultsMissingFields) {
  auto minimal = Json::Parse(R"({"study": "fig3b"})");
  ASSERT_TRUE(minimal.has_value());
  auto scenario = ScenarioFromJson(*minimal);
  ASSERT_TRUE(scenario.has_value());
  EXPECT_EQ(scenario->workload.prompt_tokens, 1500);
  EXPECT_DOUBLE_EQ(scenario->workload.tbt_slo_s, 0.050);
  EXPECT_EQ(scenario->baseline_gpu, "H100");
  EXPECT_EQ(scenario->exec.threads, 0);
  EXPECT_TRUE(scenario->Validate().empty());
}

TEST(Scenario, ScenariosFromJsonAcceptsSingleArrayAndWrappedForms) {
  auto batch = [](const std::string& text, std::string* error = nullptr) {
    return ScenariosFromJson(Json::Parse(text).value(), error);
  };
  auto single = batch(R"({"study": "yield"})");
  ASSERT_TRUE(single.has_value());
  EXPECT_EQ(single->size(), 1u);

  auto array = batch(R"([{"study": "yield"}, {"study": "derive"}])");
  ASSERT_TRUE(array.has_value());
  EXPECT_EQ(array->size(), 2u);

  auto wrapped = batch(R"({"scenarios": [{"study": "fig3a"}]})");
  ASSERT_TRUE(wrapped.has_value());
  EXPECT_EQ(wrapped->size(), 1u);
  EXPECT_EQ(wrapped->front().study, StudyKind::kFig3a);

  std::string error;
  EXPECT_FALSE(batch(R"({"scenarios": []})", &error).has_value());
  EXPECT_EQ(error, "no scenarios in input");
}

TEST(Scenario, ServeValidationRejectsBadShapes) {
  std::string error;
  // Serve simulates exactly one (model, GPU) pair.
  EXPECT_TRUE(Rejects(Study(StudyKind::kServe, {}, {"H100", "Lite"}), &error));
  EXPECT_NE(error.find("exactly one GPU"), std::string::npos);
  EXPECT_TRUE(Rejects(Study(StudyKind::kServe, {"Llama3-8B", "Llama3-70B"}), &error));
  EXPECT_NE(error.find("exactly one model"), std::string::npos);

  ServeKnobs knobs;
  knobs.horizon_s = 0.0;
  EXPECT_TRUE(Rejects(ServeWith(knobs), &error));
  EXPECT_NE(error.find("horizon_s"), std::string::npos);

  knobs = ServeKnobs{};
  knobs.decode_instances = 0;
  EXPECT_TRUE(Rejects(ServeWith(knobs), &error));
  EXPECT_NE(error.find("decode_instances"), std::string::npos);

  knobs = ServeKnobs{};
  knobs.load = 0.0;  // and no explicit rate
  EXPECT_TRUE(Rejects(ServeWith(knobs), &error));
  EXPECT_NE(error.find("load"), std::string::npos);
}

TEST(Scenario, ServeDefaultsAndStrictKeys) {
  // Defaults: Llama3-70B on one H100-backed deployment.
  Scenario serve = Study(StudyKind::kServe);
  EXPECT_EQ(serve.ResolvedModels(), std::vector<std::string>{"Llama3-70B"});
  EXPECT_EQ(serve.ResolvedGpus(), std::vector<std::string>{"H100"});

  auto minimal = Json::Parse(R"({"study": "serve"})");
  ASSERT_TRUE(minimal.has_value());
  auto scenario = ScenarioFromJson(*minimal);
  ASSERT_TRUE(scenario.has_value());
  EXPECT_DOUBLE_EQ(scenario->serve.load, 0.8);
  EXPECT_DOUBLE_EQ(scenario->serve.horizon_s, 60.0);
  EXPECT_TRUE(scenario->Validate().empty());

  // Typos inside the serve block fail loudly, like every other block.
  std::string error;
  auto typo = Json::Parse(R"({"study": "serve", "serve": {"horizon": 30}})");
  ASSERT_TRUE(typo.has_value());
  EXPECT_FALSE(ScenarioFromJson(*typo, &error).has_value());
  EXPECT_NE(error.find("horizon"), std::string::npos);
}

std::vector<RequestClass> TwoClassMix() {
  RequestClass chat;
  chat.name = "chat";
  chat.weight = 0.7;
  RequestClass batch;
  batch.name = "batch";
  batch.weight = 0.3;
  batch.prompt_tokens = 4000;
  batch.prompt_sigma = 0.4;
  batch.output_tokens = 900;
  batch.ttft_slo_s = 5.0;
  batch.tbt_slo_s = 0.2;
  return {chat, batch};
}

TEST(Scenario, RequestClassesRoundTripThroughJson) {
  ServeKnobs serve;
  serve.classes = TwoClassMix();
  ServeSweepKnobs sweep;
  sweep.loads = {0.4, 0.8};
  sweep.classes = TwoClassMix();
  for (const Scenario& original :
       {ServeWith(serve),
        SweepWith(sweep)}) {
    Json j = ScenarioToJson(original);
    std::string error;
    auto reparsed = Json::Parse(j.Dump());
    ASSERT_TRUE(reparsed.has_value());
    auto restored = ScenarioFromJson(*reparsed, &error);
    ASSERT_TRUE(restored.has_value()) << error;
    EXPECT_TRUE(*restored == original) << ScenarioToJson(*restored).Dump();
  }
  // Classless scenarios serialize without a classes key at all, so
  // pre-class scenario files and reports are byte-compatible.
  Json j = ScenarioToJson(Study(StudyKind::kServe));
  EXPECT_EQ(j.Dump().find("classes"), std::string::npos);
}

TEST(Scenario, RequestClassValidationRejectsBadMixes) {
  std::string error;
  // Duplicate names.
  ServeKnobs knobs;
  knobs.classes = TwoClassMix();
  knobs.classes[1].name = "chat";
  EXPECT_TRUE(Rejects(ServeWith(knobs), &error));
  EXPECT_NE(error.find("duplicate name 'chat'"), std::string::npos);

  // Non-positive weight.
  knobs.classes = TwoClassMix();
  knobs.classes[0].weight = 0.0;
  EXPECT_TRUE(Rejects(ServeWith(knobs), &error));
  EXPECT_NE(error.find("weight must be positive"), std::string::npos);

  // Empty name.
  knobs.classes = TwoClassMix();
  knobs.classes[1].name = "";
  EXPECT_TRUE(Rejects(ServeWith(knobs), &error));
  EXPECT_NE(error.find("non-empty name"), std::string::npos);

  // Negative SLO / sigma / length.
  knobs.classes = TwoClassMix();
  knobs.classes[0].tbt_slo_s = -0.1;
  EXPECT_TRUE(Rejects(ServeWith(knobs), &error));
  EXPECT_NE(error.find("SLOs must be >= 0"), std::string::npos);
  knobs.classes = TwoClassMix();
  knobs.classes[0].prompt_sigma = -1.0;
  EXPECT_TRUE(Rejects(ServeWith(knobs), &error));
  knobs.classes = TwoClassMix();
  knobs.classes[0].output_tokens = 0;
  EXPECT_TRUE(Rejects(ServeWith(knobs), &error));

  // The same mix rules guard the sweep block.
  ServeSweepKnobs sweep;
  sweep.classes = TwoClassMix();
  sweep.classes[0].weight = -2.0;
  EXPECT_TRUE(Rejects(SweepWith(sweep), &error));
  EXPECT_NE(error.find("sweep.classes"), std::string::npos);
}

TEST(Scenario, RequestClassJsonIsStrict) {
  std::string error;
  auto typo = Json::Parse(
      R"({"study": "serve", "serve": {"classes": [{"name": "chat", "wieght": 2}]}})");
  ASSERT_TRUE(typo.has_value());
  EXPECT_FALSE(ScenarioFromJson(*typo, &error).has_value());
  EXPECT_NE(error.find("wieght"), std::string::npos);

  auto mistyped = Json::Parse(
      R"({"study": "serve", "serve": {"classes": [{"name": "chat", "weight": "heavy"}]}})");
  ASSERT_TRUE(mistyped.has_value());
  EXPECT_FALSE(ScenarioFromJson(*mistyped, &error).has_value());
  EXPECT_NE(error.find("weight"), std::string::npos);

  auto not_object = Json::Parse(R"({"study": "serve", "serve": {"classes": [7]}})");
  ASSERT_TRUE(not_object.has_value());
  EXPECT_FALSE(ScenarioFromJson(*not_object, &error).has_value());
  EXPECT_NE(error.find("must be an object"), std::string::npos);
}

TEST(Scenario, SummarizeClassMixNormalizesWeights) {
  auto mix = SummarizeClassMix(TwoClassMix());
  ASSERT_EQ(mix.shares.size(), 2u);
  EXPECT_DOUBLE_EQ(mix.shares[0] + mix.shares[1], 1.0);
  EXPECT_DOUBLE_EQ(mix.shares[0], 0.7);
  EXPECT_DOUBLE_EQ(mix.mean_prompt_tokens, 0.7 * 1500 + 0.3 * 4000);
  EXPECT_DOUBLE_EQ(mix.mean_output_tokens, 0.7 * 256 + 0.3 * 900);
  EXPECT_TRUE(SummarizeClassMix({}).shares.empty());
}

// The serialization gate for the faults block: a serve block carries a
// `faults` key only when some field moved off its default.
bool SerializesFaults(const FaultKnobs& faults) {
  ServeKnobs knobs;
  knobs.faults = faults;
  Json block = Json::Object();
  WriteServeOptionalBlocks(block, knobs);
  return block.Find("faults") != nullptr;
}

FaultKnobs ChurnyFaultKnobs() {
  FaultKnobs faults;
  faults.afr = 0.09;
  faults.mttr_hours = 6.0;
  faults.spare_activation_minutes = 2.0;
  faults.hot_spares = 2;
  faults.retry_policy = FaultRetryPolicy::kRetryWithBudget;
  faults.retry_budget = 2;
  faults.target_attainment = 0.95;
  return faults;
}

TEST(Scenario, FaultKnobsRoundTripThroughJson) {
  ServeKnobs serve;
  serve.faults = ChurnyFaultKnobs();
  ServeSweepKnobs sweep;
  sweep.loads = {0.4, 0.8};
  sweep.faults = ChurnyFaultKnobs();
  for (const Scenario& original :
       {ServeWith(serve),
        SweepWith(sweep)}) {
    Json j = ScenarioToJson(original);
    std::string error;
    auto reparsed = Json::Parse(j.Dump());
    ASSERT_TRUE(reparsed.has_value());
    auto restored = ScenarioFromJson(*reparsed, &error);
    ASSERT_TRUE(restored.has_value()) << error;
    EXPECT_TRUE(*restored == original) << ScenarioToJson(*restored).Dump();
  }
  // A default faults block serializes to nothing at all, so fault-free
  // scenario files and reports stay byte-identical to the pre-fault engine.
  Json j = ScenarioToJson(Study(StudyKind::kServe));
  EXPECT_EQ(j.Dump().find("faults"), std::string::npos);
  EXPECT_FALSE(SerializesFaults(FaultKnobs{}));
  // The gate is field-by-field, not enabled(): an afr-0 block with spares
  // set still round-trips.
  ServeKnobs tweaked;
  tweaked.faults.hot_spares = 1;
  EXPECT_TRUE(SerializesFaults(tweaked.faults));
  Json k = ScenarioToJson(ServeWith(tweaked));
  EXPECT_NE(k.Dump().find("hot_spares"), std::string::npos);
}

FleetKnobs FancyFleetKnobs() {
  FleetKnobs fleet;
  FleetCandidate big;
  big.name = "baseline";
  big.gpu = "H100";
  FleetCandidate lite;
  lite.name = "lite-fed";
  lite.gpu = "H100";
  lite.split = 4;
  lite.mem_bw_multiplier = 2.0;
  lite.net_bw_multiplier = 1.5;
  lite.overclock = 1.1;
  lite.prefill_instances = 2;
  lite.decode_instances = 3;
  fleet.candidates = {big, lite};
  fleet.loads = {0.4, 0.8};
  fleet.horizon_s = 25.0;
  fleet.prompt_sigma = 0.3;
  fleet.output_sigma = 0.2;
  fleet.seed = 0xF1EE7;  // any non-default value
  fleet.hbm_usd_per_gb = 10.0;
  fleet.gpu_price_multiplier = 6.0;
  fleet.depreciation_months = 36.0;
  fleet.electricity_usd_per_kwh = 0.11;
  fleet.gpu_utilization = 0.6;
  return fleet;
}

TEST(Scenario, FleetKnobsRoundTripThroughJson) {
  Scenario original = FleetWith(FancyFleetKnobs());
  Json j = ScenarioToJson(original);
  std::string error;
  auto reparsed = Json::Parse(j.Dump());
  ASSERT_TRUE(reparsed.has_value());
  auto restored = ScenarioFromJson(*reparsed, &error);
  ASSERT_TRUE(restored.has_value()) << error;
  EXPECT_TRUE(*restored == original) << ScenarioToJson(*restored).Dump();
  // The explicit loads list survives, and the range fields still emit.
  EXPECT_EQ(restored->fleet.loads, original.fleet.loads);
  EXPECT_EQ(restored->fleet.candidates.size(), 2u);
  EXPECT_EQ(restored->fleet.candidates[1].overclock, 1.1);
}

TEST(Scenario, FleetBlockOnlySerializesForFleetStudies) {
  // The fleet block is study-specific: no other study's serialized form
  // grows a "fleet" key, so every pre-fleet scenario file and report stays
  // byte-identical.
  for (StudyKind kind : {StudyKind::kSearch, StudyKind::kFig3a, StudyKind::kFig3b,
                         StudyKind::kDesign, StudyKind::kMcSim, StudyKind::kYield,
                         StudyKind::kDerive, StudyKind::kServe, StudyKind::kServeSweep}) {
    Json j = ScenarioToJson(Study(kind));
    EXPECT_EQ(j.Dump().find("fleet"), std::string::npos) << ToString(kind);
  }
  // More generally, every study writes its own knob block and no other
  // (search and the Figure-3 studies have none).
  const std::pair<StudyKind, std::string> own_blocks[] = {
      {StudyKind::kSearch, ""},           {StudyKind::kFig3a, ""},
      {StudyKind::kFig3b, ""},            {StudyKind::kDesign, "design"},
      {StudyKind::kMcSim, "mcsim"},       {StudyKind::kYield, "yield"},
      {StudyKind::kDerive, "derive"},     {StudyKind::kServe, "serve"},
      {StudyKind::kServeSweep, "sweep"},  {StudyKind::kFleetCompare, "fleet"}};
  for (const auto& [kind, own] : own_blocks) {
    Json j = ScenarioToJson(Study(kind));
    for (const char* block : {"design", "mcsim", "yield", "derive", "serve", "sweep", "fleet"}) {
      EXPECT_EQ(j.Find(block) != nullptr, own == block) << ToString(kind) << ": " << block;
    }
  }
}

TEST(Scenario, EveryStudyKeepsItsModelAndGpuListMessages) {
  // What each study says to a two-model and to a two-GPU list ("" = it
  // accepts the list). The fleet study gets a one-candidate catalog so its
  // list rules, not the empty-catalog check, answer.
  struct Case {
    StudyKind kind;
    std::string two_models;
    std::string two_gpus;
  };
  const Case cases[] = {
      {StudyKind::kSearch, "", ""},
      {StudyKind::kFig3a, "", ""},
      {StudyKind::kFig3b, "", ""},
      {StudyKind::kDesign, "", ""},
      {StudyKind::kMcSim, "study 'mcsim' does not take a models list",
       "study 'mcsim' simulates exactly one GPU type (got 2)"},
      {StudyKind::kYield, "study 'yield' does not take models/gpus lists",
       "study 'yield' does not take models/gpus lists"},
      {StudyKind::kDerive, "study 'derive' does not take models/gpus lists",
       "study 'derive' does not take models/gpus lists"},
      {StudyKind::kServe, "study 'serve' simulates exactly one model (got 2)",
       "study 'serve' simulates exactly one GPU type (got 2)"},
      {StudyKind::kServeSweep, "study 'serve-sweep' simulates exactly one model (got 2)",
       "study 'serve-sweep' simulates exactly one GPU type (got 2)"},
      {StudyKind::kFleetCompare, "study 'fleet-compare' simulates exactly one model (got 2)",
       "study 'fleet-compare' takes its GPUs from fleet.candidates (drop the gpus list)"},
  };
  FleetKnobs fleet;
  fleet.candidates.resize(1);
  fleet.candidates[0].name = "only";
  for (const Case& c : cases) {
    Scenario two_models = Study(c.kind, {"Llama3-8B", "Llama3-70B"});
    two_models.fleet = fleet;
    Scenario two_gpus = Study(c.kind, {}, {"H100", "Lite"});
    two_gpus.fleet = fleet;
    EXPECT_EQ(two_models.Validate(), c.two_models) << ToString(c.kind);
    EXPECT_EQ(two_gpus.Validate(), c.two_gpus) << ToString(c.kind);
  }
}

TEST(Scenario, UnknownStudyErrorNamesEverySpelling) {
  std::string error;
  EXPECT_FALSE(ScenarioFromJson(*Json::Parse(R"({"study": "fig4"})"), &error).has_value());
  EXPECT_EQ(error,
            "unknown study 'fig4' (expected search|fig3a|fig3b|design|mcsim|yield|derive|"
            "serve|serve-sweep|fleet-compare)");
  for (StudyKind kind : {StudyKind::kSearch, StudyKind::kFig3a, StudyKind::kFig3b,
                         StudyKind::kDesign, StudyKind::kMcSim, StudyKind::kYield,
                         StudyKind::kDerive, StudyKind::kServe, StudyKind::kServeSweep,
                         StudyKind::kFleetCompare}) {
    EXPECT_NE(error.find(ToString(kind)), std::string::npos) << ToString(kind);
  }
}

TEST(Scenario, FleetValidationRejectsBadCatalogs) {
  std::string error;
  // An empty catalog is the fleet study's "no GPUs".
  EXPECT_TRUE(Rejects(Study(StudyKind::kFleetCompare), &error));
  EXPECT_NE(error.find("fleet.candidates"), std::string::npos);

  FleetKnobs fleet = FancyFleetKnobs();
  fleet.candidates[1].name = "baseline";  // duplicate names would alias RNG streams
  EXPECT_TRUE(Rejects(FleetWith(fleet), &error));
  EXPECT_NE(error.find("duplicate fleet candidate name"), std::string::npos);

  fleet = FancyFleetKnobs();
  fleet.candidates[0].split = 0;
  EXPECT_TRUE(Rejects(FleetWith(fleet), &error));
  EXPECT_NE(error.find("split"), std::string::npos);

  fleet = FancyFleetKnobs();
  fleet.gpu_utilization = 1.5;
  EXPECT_TRUE(Rejects(FleetWith(fleet), &error));
  EXPECT_NE(error.find("gpu_utilization"), std::string::npos);

  // The explicit gpus list belongs to the other studies.
  Scenario with_gpus = FleetWith(FancyFleetKnobs());
  with_gpus.gpus = {"H100"};
  EXPECT_TRUE(Rejects(with_gpus, &error));
  EXPECT_NE(error.find("fleet.candidates"), std::string::npos);
}

TEST(Scenario, FleetReaderSuggestsClosestKey) {
  std::string error;
  auto typo = Json::Parse(
      R"({"study": "fleet-compare",
          "fleet": {"candidates": [{"name": "a", "splt": 4}]}})");
  ASSERT_TRUE(typo.has_value());
  EXPECT_FALSE(ScenarioFromJson(*typo, &error).has_value());
  EXPECT_NE(error.find("splt"), std::string::npos);
  EXPECT_NE(error.find("did you mean 'split'?"), std::string::npos);

  auto knob_typo = Json::Parse(
      R"({"study": "fleet-compare",
          "fleet": {"candidates": [{"name": "a"}], "horizons_s": 10}})");
  ASSERT_TRUE(knob_typo.has_value());
  EXPECT_FALSE(ScenarioFromJson(*knob_typo, &error).has_value());
  EXPECT_NE(error.find("did you mean 'horizon_s'?"), std::string::npos);
}

TEST(Scenario, FaultKnobsValidationRejectsBadValues) {
  // Every field is checked even when the block is disabled: a latent
  // nonsense value should fail now, not when someone flips afr on.
  FaultKnobs knobs;
  knobs.mttr_hours = -1.0;
  EXPECT_NE(ValidateFaultKnobs(knobs, "serve.faults").find("mttr_hours"),
            std::string::npos);
  knobs = FaultKnobs{};
  knobs.afr = -0.1;
  EXPECT_NE(ValidateFaultKnobs(knobs, "serve.faults").find("afr"),
            std::string::npos);
  knobs = FaultKnobs{};
  knobs.target_attainment = 1.5;
  EXPECT_NE(ValidateFaultKnobs(knobs, "serve.faults").find("target_attainment"),
            std::string::npos);
  knobs = FaultKnobs{};
  knobs.retry_policy = FaultRetryPolicy::kRetryWithBudget;
  knobs.retry_budget = 0;
  EXPECT_NE(ValidateFaultKnobs(knobs, "serve.faults").find("retry_budget"),
            std::string::npos);
  // Repair times become event times, so they are bounded (1e6 hours).
  knobs = FaultKnobs{};
  knobs.mttr_hours = 1e308;
  EXPECT_NE(ValidateFaultKnobs(knobs, "serve.faults").find("mttr_hours must be in (0, 1e+06]"),
            std::string::npos);
  knobs.mttr_hours = 1e6;
  EXPECT_EQ(ValidateFaultKnobs(knobs, "serve.faults"), "");
  knobs.domain_mttr_hours = 2e6;
  EXPECT_NE(ValidateFaultKnobs(knobs, "serve.faults").find("domain_mttr_hours"),
            std::string::npos);
  // So are spare activations and degraded windows (6e7 minutes).
  knobs = FaultKnobs{};
  knobs.spare_activation_minutes = 1e308;
  EXPECT_NE(ValidateFaultKnobs(knobs, "serve.faults")
                .find("spare_activation_minutes must be in [0, 6e+07]"),
            std::string::npos);
  knobs = FaultKnobs{};
  knobs.degrade_minutes = 1e308;
  EXPECT_NE(ValidateFaultKnobs(knobs, "serve.faults").find("degrade_minutes must be in [0, 6e+07]"),
            std::string::npos);
  knobs.degrade_minutes = 6e7;
  EXPECT_EQ(ValidateFaultKnobs(knobs, "serve.faults"), "");
  // The scenario validator runs the same checks on the embedded block.
  std::string error;
  ServeKnobs serve;
  serve.faults.spare_activation_minutes = -5.0;
  EXPECT_TRUE(Rejects(ServeWith(serve), &error));
  EXPECT_NE(error.find("serve.faults"), std::string::npos);
}

TEST(Scenario, RobustnessKnobsRoundTripAndEmitNoKeysAtDefaults) {
  // The three-axis knobs (domains, degradation, shedding) round-trip like
  // the original block...
  ServeKnobs serve;
  serve.faults = ChurnyFaultKnobs();
  serve.faults.domain_gpus = 16.0;
  serve.faults.domain_afr = 40000.0;
  serve.faults.domain_mttr_hours = 0.01;
  serve.faults.degrade_afr = 30000.0;
  serve.faults.degrade_multiplier = 1.8;
  serve.faults.degrade_minutes = 0.5;
  serve.faults.shed_queue_depth = 8;
  serve.faults.shed_ttft_deadline_s = 2.0;
  Scenario original = ServeWith(serve);
  Json j = ScenarioToJson(original);
  std::string error;
  auto reparsed = Json::Parse(j.Dump());
  ASSERT_TRUE(reparsed.has_value());
  auto restored = ScenarioFromJson(*reparsed, &error);
  ASSERT_TRUE(restored.has_value()) << error;
  EXPECT_TRUE(*restored == original) << ScenarioToJson(*restored).Dump();
  // ...but a pre-domain faults block serializes to exactly the pre-domain
  // keys: none of the new fields emit at their defaults, so every existing
  // scenario file and report stays byte-identical.
  ServeKnobs old_style;
  old_style.faults = ChurnyFaultKnobs();
  Json old_json = ScenarioToJson(ServeWith(old_style));
  std::string dump = old_json.Dump();
  for (const char* key : {"domain_gpus", "domain_afr", "domain_mttr_hours",
                          "degrade_afr", "degrade_multiplier", "degrade_minutes",
                          "shed_queue_depth", "shed_ttft_deadline_s"}) {
    EXPECT_EQ(dump.find(key), std::string::npos) << key;
  }
  EXPECT_TRUE(SerializesFaults(serve.faults));
  // A block that differs from defaults only in a new knob still serializes.
  FaultKnobs shed_only;
  shed_only.shed_queue_depth = 4;
  EXPECT_TRUE(SerializesFaults(shed_only));
}

TEST(Scenario, RobustnessKnobValidationRejectsBadValues) {
  // Negative retry budget is rejected even under policies that ignore it.
  FaultKnobs knobs;
  knobs.retry_budget = -1;
  EXPECT_NE(ValidateFaultKnobs(knobs, "serve.faults").find("retry_budget"),
            std::string::npos);
  // A spare that activates slower than the repair itself never activates:
  // rejected whenever hot spares are configured.
  knobs = FaultKnobs{};
  knobs.hot_spares = 1;
  knobs.mttr_hours = 0.02;
  knobs.spare_activation_minutes = 1.2;  // == repair time; must be strictly less
  EXPECT_NE(ValidateFaultKnobs(knobs, "serve.faults").find("spare_activation_minutes"),
            std::string::npos);
  knobs.spare_activation_minutes = 1.1;
  EXPECT_EQ(ValidateFaultKnobs(knobs, "serve.faults"), "");
  // Domain churn needs a domain size to map instances onto.
  knobs = FaultKnobs{};
  knobs.domain_afr = 100.0;
  EXPECT_NE(ValidateFaultKnobs(knobs, "serve.faults").find("domain_gpus"),
            std::string::npos);
  knobs.domain_gpus = 16.0;
  EXPECT_EQ(ValidateFaultKnobs(knobs, "serve.faults"), "");
  // Degradation must slow things down, and must have a window length.
  knobs = FaultKnobs{};
  knobs.degrade_multiplier = 0.5;
  EXPECT_NE(ValidateFaultKnobs(knobs, "serve.faults").find("degrade_multiplier"),
            std::string::npos);
  knobs = FaultKnobs{};
  knobs.degrade_afr = 10.0;
  knobs.degrade_minutes = 0.5;
  EXPECT_NE(ValidateFaultKnobs(knobs, "serve.faults").find("degrade_multiplier"),
            std::string::npos);
  knobs.degrade_multiplier = 2.0;
  EXPECT_EQ(ValidateFaultKnobs(knobs, "serve.faults"), "");
  // Shedding knobs must be non-negative.
  knobs = FaultKnobs{};
  knobs.shed_queue_depth = -3;
  EXPECT_NE(ValidateFaultKnobs(knobs, "serve.faults").find("shed_queue_depth"),
            std::string::npos);
  knobs = FaultKnobs{};
  knobs.shed_ttft_deadline_s = -1.0;
  EXPECT_NE(ValidateFaultKnobs(knobs, "serve.faults").find("shed_ttft_deadline_s"),
            std::string::npos);
  // The new keys parse from JSON and typos are caught.
  std::string error;
  auto parsed = Json::Parse(
      R"({"study": "serve", "serve": {"faults": {"afr": 100, "domain_gpus": 16,
          "domain_afr": 200, "degrade_afr": 50, "degrade_multiplier": 2,
          "degrade_minutes": 1, "shed_queue_depth": 8}}})");
  ASSERT_TRUE(parsed.has_value());
  auto scenario = ScenarioFromJson(*parsed, &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  EXPECT_DOUBLE_EQ(scenario->serve.faults.domain_gpus, 16.0);
  EXPECT_EQ(scenario->serve.faults.shed_queue_depth, 8);
  auto typo = Json::Parse(
      R"({"study": "serve", "serve": {"faults": {"domain_gpu": 16}}})");
  ASSERT_TRUE(typo.has_value());
  EXPECT_FALSE(ScenarioFromJson(*typo, &error).has_value());
  EXPECT_NE(error.find("domain_gpu"), std::string::npos);
}

TEST(Scenario, FaultJsonIsStrictWithSuggestions) {
  std::string error;
  auto typo = Json::Parse(
      R"({"study": "serve", "serve": {"faults": {"afrr": 0.09}}})");
  ASSERT_TRUE(typo.has_value());
  EXPECT_FALSE(ScenarioFromJson(*typo, &error).has_value());
  EXPECT_NE(error.find("afrr"), std::string::npos);

  auto bad_policy = Json::Parse(
      R"({"study": "serve", "serve": {"faults": {"retry_policy": "rety"}}})");
  ASSERT_TRUE(bad_policy.has_value());
  EXPECT_FALSE(ScenarioFromJson(*bad_policy, &error).has_value());
  EXPECT_NE(error.find("unknown retry policy"), std::string::npos);
  EXPECT_NE(error.find("did you mean 'retry'"), std::string::npos);

  auto mistyped = Json::Parse(
      R"({"study": "serve", "serve": {"faults": {"hot_spares": "two"}}})");
  ASSERT_TRUE(mistyped.has_value());
  EXPECT_FALSE(ScenarioFromJson(*mistyped, &error).has_value());
  EXPECT_NE(error.find("hot_spares"), std::string::npos);
}

// The reader's verdict on one scenario text: "" when it parses, else the
// error.
std::string ParseError(const std::string& text) {
  std::string error;
  auto json = Json::Parse(text, &error);
  if (!json) {
    return "unparsable test input: " + error;
  }
  return ScenarioFromJson(*json, &error) ? "" : error;
}

TEST(Scenario, IntegerAndSeedRowsRejectNonIntegralOrOutOfRangeNumbers) {
  // Truncating or wrapping these would silently run a different value (1, 3,
  // 1 and the default seed).
  std::string error =
      ParseError(R"({"study": "serve", "serve": {"decode_instances": 4294967297}})");
  EXPECT_NE(error.find("'decode_instances' in serve must be an integer"), std::string::npos)
      << error;
  error = ParseError(R"({"study": "serve", "serve": {"decode_instances": 2.6}})");
  EXPECT_NE(error.find("'decode_instances' in serve must be an integer"), std::string::npos)
      << error;
  error = ParseError(R"({"study": "mcsim", "mcsim": {"num_trials": -4294967295}})");
  EXPECT_NE(error.find("'num_trials' in mcsim must be an integer"), std::string::npos)
      << error;
  error = ParseError(R"({"study": "serve", "serve": {"seed": -1}})");
  EXPECT_NE(error.find("'seed' in serve must be an integer"), std::string::npos) << error;
  error = ParseError(R"({"study": "fleet-compare", "fleet": {"seed": 1.5}})");
  EXPECT_NE(error.find("'seed' in fleet must be an integer"), std::string::npos) << error;

  // Integral spellings of integers still parse.
  auto json = Json::Parse(
      R"({"study": "serve", "serve": {"decode_instances": 8.0, "seed": 1e3},
          "max_batch": 1e3})");
  ASSERT_TRUE(json.has_value());
  auto scenario = ScenarioFromJson(*json, &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  EXPECT_EQ(scenario->serve.decode_instances, 8);
  EXPECT_EQ(scenario->serve.seed, 1000u);
  EXPECT_EQ(scenario->max_batch, 1000);
}

TEST(Scenario, DigitsOnlySeedsReadExactlyOverTheWholeRange) {
  // A double rounds 2^53 + 1 to 2^53, so two seeds would run as one.
  std::string error;
  auto serve = ScenarioFromJson(
      *Json::Parse(R"({"study": "serve", "serve": {"seed": 9007199254740993}})"), &error);
  ASSERT_TRUE(serve.has_value()) << error;
  EXPECT_EQ(serve->serve.seed, 9007199254740993u);
  auto mcsim = ScenarioFromJson(
      *Json::Parse(R"({"study": "mcsim", "mcsim": {"seed": 18446744073709551615}})"), &error);
  ASSERT_TRUE(mcsim.has_value()) << error;
  EXPECT_EQ(mcsim->mcsim.seed, 18446744073709551615u);
  error = ParseError(R"({"study": "mcsim", "mcsim": {"seed": 18446744073709551616}})");
  EXPECT_NE(error.find("'seed' in mcsim must be an integer"), std::string::npos) << error;
}

TEST(Scenario, ValidateRejectsNonFiniteDoubles) {
  // 1e999 parses as infinity: an infinite horizon would exhaust memory and
  // infinite sim_years would never finish.
  std::string error;
  auto fleet = ScenarioFromJson(*Json::Parse(
      R"({"study": "fleet-compare", "fleet": {"candidates": [{"name": "a"}],
          "horizon_s": 1e999}})"),
      &error);
  ASSERT_TRUE(fleet.has_value()) << error;
  EXPECT_EQ(fleet->Validate(), "fleet.horizon_s must be positive and finite");

  auto mcsim = ScenarioFromJson(
      *Json::Parse(R"({"study": "mcsim", "mcsim": {"sim_years": 1e999}})"), &error);
  ASSERT_TRUE(mcsim.has_value()) << error;
  EXPECT_EQ(mcsim->Validate(), "mcsim.sim_years must be positive and finite");

  // Rows without a bound still require a finite value.
  Scenario yield = Study(StudyKind::kYield);
  yield.yield.cluster_alpha = std::numeric_limits<double>::infinity();
  EXPECT_EQ(yield.Validate(), "yield.cluster_alpha must be finite");
}

TEST(Scenario, EnumRowsTypeCheckAndSuggest) {
  std::string error = ParseError(R"({"study": "search", "kv_policy": 7})");
  EXPECT_NE(error.find("'kv_policy' in scenario must be a string"), std::string::npos)
      << error;
  error = ParseError(R"({"study": "design", "design": {"yield_model": 3}})");
  EXPECT_NE(error.find("'yield_model' in design must be a string"), std::string::npos)
      << error;
  error = ParseError(R"({"study": "search", "kv_policy": "replicat"})");
  EXPECT_NE(error.find("did you mean 'replicate'?"), std::string::npos) << error;
  error = ParseError(R"({"study": "design", "design": {"yield_model": "murphey"}})");
  EXPECT_NE(error.find("unknown yield model 'murphey'"), std::string::npos) << error;
  EXPECT_NE(error.find("did you mean 'murphy'?"), std::string::npos) << error;
}

TEST(Scenario, UnknownKeysInEveryBlockGetSuggestions) {
  std::string error = ParseError(R"({"study": "serve", "serve": {"hroizon_s": 30}})");
  EXPECT_NE(error.find("unknown key 'hroizon_s' in serve (did you mean 'horizon_s'?)"),
            std::string::npos)
      << error;
  error = ParseError(R"({"study": "search", "workload": {"prompt_token": 30}})");
  EXPECT_NE(error.find("did you mean 'prompt_tokens'?"), std::string::npos) << error;
  error = ParseError(R"({"study": "search", "modles": ["Llama3-70B"]})");
  EXPECT_NE(error.find("did you mean 'models'?"), std::string::npos) << error;
}

// Walks every row of every knob table: `fn(table, base, block, path)` gets a
// scenario whose serialization carries the table's block, an accessor for
// the table's struct inside a scenario, and the JSON path of the block.
template <typename Fn>
void ForEachKnobTable(Fn&& fn) {
  auto root = [](Scenario& s) -> Scenario& { return s; };
  Scenario search = Study(StudyKind::kSearch);
  fn(kScenarioFields, search, root, {});
  fn(kWorkloadFields, search, [](Scenario& s) -> auto& { return s.workload; }, {"workload"});
  fn(kExecFields, search, [](Scenario& s) -> auto& { return s.exec; }, {"exec"});
  fn(kDesignFields, Study(StudyKind::kDesign),
     [](Scenario& s) -> auto& { return s.design; }, {"design"});
  fn(kMcSimFields, Study(StudyKind::kMcSim),
     [](Scenario& s) -> auto& { return s.mcsim; }, {"mcsim"});
  fn(kYieldFields, Study(StudyKind::kYield),
     [](Scenario& s) -> auto& { return s.yield; }, {"yield"});
  fn(kDeriveFields, Study(StudyKind::kDerive),
     [](Scenario& s) -> auto& { return s.derive; }, {"derive"});

  Scenario serve = Study(StudyKind::kServe);
  auto serve_knobs = [](Scenario& s) -> auto& { return s.serve; };
  fn(kServeFields, serve, serve_knobs, {"serve"});
  fn(kServeCommonFields, serve, serve_knobs, {"serve"});
  fn(kServeShardFields, serve, serve_knobs, {"serve"});
  Scenario sweep = Study(StudyKind::kServeSweep);
  fn(kServeSweepFields, sweep, [](Scenario& s) -> auto& { return s.sweep; }, {"sweep"});

  Scenario classes = serve;
  classes.serve.classes.resize(1);
  classes.serve.classes[0].name = "a";
  fn(kRequestClassFields, classes, [](Scenario& s) -> auto& { return s.serve.classes[0]; },
     {"serve", "classes", "0"});

  auto arrival = [](Scenario& s) -> auto& { return s.serve.arrival; };
  const std::vector<std::string> arrival_path = {"serve", "arrival"};
  Scenario with_kind = serve;
  fn(kPoissonFields, with_kind, arrival, arrival_path);
  with_kind.serve.arrival.kind = ArrivalKind::kDiurnal;
  fn(kDiurnalFields, with_kind, arrival, arrival_path);
  with_kind.serve.arrival.kind = ArrivalKind::kOnOff;
  fn(kOnOffFields, with_kind, arrival, arrival_path);
  with_kind.serve.arrival.kind = ArrivalKind::kTrace;
  fn(kTraceFields, with_kind, arrival, arrival_path);

  Scenario autoscaled = serve;
  autoscaled.serve.autoscaler.policy = AutoscalerPolicy::kReactive;
  fn(kAutoscalerFields, autoscaled, [](Scenario& s) -> auto& { return s.serve.autoscaler; },
     {"serve", "autoscaler"});
  Scenario faulty = serve;
  faulty.serve.faults.afr = 0.5;
  fn(kFaultFields, faulty, [](Scenario& s) -> auto& { return s.serve.faults; },
     {"serve", "faults"});

  Scenario fleet = Study(StudyKind::kFleetCompare);
  fleet.fleet.candidates.resize(1);
  fleet.fleet.candidates[0].name = "a";
  fn(kFleetFields, fleet, [](Scenario& s) -> auto& { return s.fleet; }, {"fleet"});
  fn(kFleetCandidateFields, fleet, [](Scenario& s) -> auto& { return s.fleet.candidates[0]; },
     {"fleet", "candidates", "0"});
}

// The JSON object at `path` (array entries by index), or null.
const Json* Descend(const Json& root, const std::vector<std::string>& path) {
  const Json* at = &root;
  for (const std::string& step : path) {
    if (at->is_array()) {
      size_t index = std::stoul(step);
      at = index < at->elements().size() ? &at->elements()[index] : nullptr;
    } else {
      at = at->Find(step);
    }
    if (at == nullptr) {
      return nullptr;
    }
  }
  return at;
}

// Some value other than `value` of the row's type.
template <typename Row, typename T>
T Perturbed(const Row& row, const T& value) {
  if constexpr (std::is_enum_v<T>) {
    std::string names = row.enum_names;
    int count = static_cast<int>(std::count(names.begin(), names.end(), '|')) + 1;
    return static_cast<T>((static_cast<int>(value) + 1) % count);
  } else if constexpr (std::is_same_v<T, bool>) {
    return !value;
  } else if constexpr (std::is_same_v<T, std::string>) {
    return value + "x";
  } else if constexpr (std::is_same_v<T, std::vector<double>>) {
    return {0.25, 0.5};
  } else {
    return value + 3;
  }
}

TEST(Scenario, EveryKnobRowRoundTripsAndDefaultGatedRowsEmitNothingAtDefault) {
  size_t rows_seen = 0;
  ForEachKnobTable([&](const auto& table, const Scenario& base, auto access,
                       const std::vector<std::string>& path) {
    std::apply(
        [&](const auto&... row) {
          auto check = [&](const auto& r) {
            ++rows_seen;
            Scenario changed = base;
            auto& field = access(changed).*r.member;
            field = Perturbed(r, field);
            std::string error;
            auto reparsed = Json::Parse(ScenarioToJson(changed).Dump(), &error);
            ASSERT_TRUE(reparsed.has_value()) << r.name << ": " << error;
            auto restored = ScenarioFromJson(*reparsed, &error);
            ASSERT_TRUE(restored.has_value()) << r.name << ": " << error;
            EXPECT_TRUE(access(*restored).*r.member == field) << r.name;

            // In the base scenario's block (absent only for the default
            // Poisson arrival), a default-gated row at its default emits no
            // key and every other row emits one.
            Scenario unchanged = base;
            bool at_default = access(unchanged).*r.member ==
                              std::decay_t<decltype(access(unchanged))>{}.*r.member;
            const Json base_json = ScenarioToJson(base);
            const Json* block = Descend(base_json, path);
            if (r.emit != Emit::kAlways && at_default) {
              ASSERT_NE(block, nullptr) << r.name;
              EXPECT_EQ(block->Find(std::string(r.name)), nullptr) << r.name;
            } else if (block != nullptr) {
              EXPECT_NE(block->Find(std::string(r.name)), nullptr) << r.name;
            }
          };
          (check(row), ...);
        },
        table);
  });
  EXPECT_GE(rows_seen, 100u);
}

TEST(Scenario, EnumSpellingsMatchTheirModules) {
  EXPECT_EQ(std::string(kKvPolicyNames),
            ToString(KvShardPolicy::kReplicate) + "|" + ToString(KvShardPolicy::kIdealShard));
  EXPECT_EQ(std::string(kYieldModelNames),
            ToString(YieldModel::kPoisson) + "|" + ToString(YieldModel::kMurphy) + "|" +
                ToString(YieldModel::kSeeds) + "|" + ToString(YieldModel::kNegativeBinomial));
  EXPECT_EQ(std::string(kRetryPolicyNames),
            std::string(ToString(FaultRetryPolicy::kRetry)) + "|" +
                ToString(FaultRetryPolicy::kDrop) + "|" +
                ToString(FaultRetryPolicy::kRetryWithBudget));
}

#ifdef LITEGPU_SCENARIOS_DOC
TEST(Scenario, EveryKnobKeyIsDocumented) {
  // docs/scenarios.md must name every key a scenario file accepts, in
  // backticks — adding a row without documenting it fails here.
  std::ifstream in(LITEGPU_SCENARIOS_DOC);
  ASSERT_TRUE(in.good()) << LITEGPU_SCENARIOS_DOC;
  std::stringstream doc;
  doc << in.rdbuf();
  std::vector<std::string> keys;
  ForEachKnobTable([&](const auto& table, const Scenario&, auto,
                       const std::vector<std::string>&) {
    std::apply([&](const auto&... row) { (keys.emplace_back(row.name), ...); }, table);
  });
  keys.insert(keys.end(), std::begin(kScenarioBlockKeys), std::end(kScenarioBlockKeys));
  keys.insert(keys.end(), std::begin(kServeBlockKeys), std::end(kServeBlockKeys));
  keys.insert(keys.end(), std::begin(kFleetBlockKeys), std::end(kFleetBlockKeys));
  for (const std::string& key : keys) {
    EXPECT_NE(doc.str().find("`" + key + "`"), std::string::npos)
        << "scenario key '" << key << "' is not documented in " << LITEGPU_SCENARIOS_DOC;
  }
}
#endif

#ifdef LITEGPU_SCENARIO_DIR
TEST(Scenario, EveryCheckedInExampleLoadsValidatesAndRoundTrips) {
  // The docs cross-check: every scenario file the repo ships must load,
  // validate, and survive a JSON round trip — so docs/scenarios.md can't
  // document fields the parser rejects, and examples can't rot. The CI
  // docs checker (tools/check_docs.sh) covers the reverse direction (every
  // example and knob field is mentioned in the docs).
  size_t seen = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::string(LITEGPU_SCENARIO_DIR))) {
    if (entry.path().extension() != ".json") {
      continue;
    }
    ++seen;
    std::string error;
    auto scenarios = LoadScenarioFile(entry.path().string(), &error);
    ASSERT_TRUE(scenarios.has_value()) << entry.path() << ": " << error;
    for (const Scenario& s : *scenarios) {
      EXPECT_EQ(s.Validate(), "") << entry.path();
      auto reparsed = Json::Parse(ScenarioToJson(s).Dump(), &error);
      ASSERT_TRUE(reparsed.has_value()) << entry.path() << ": " << error;
      auto restored = ScenarioFromJson(*reparsed, &error);
      ASSERT_TRUE(restored.has_value()) << entry.path() << ": " << error;
      EXPECT_TRUE(*restored == s) << entry.path();
    }
  }
  EXPECT_GE(seen, 10u);  // one per study kind + the batch suite + multitenant
}
#endif

TEST(Scenario, MakeSearchOptionsCarriesWorkloadAndExec) {
  Scenario s = Study(StudyKind::kSearch);
  s.workload.prompt_tokens = 2000;
  s.workload.tbt_slo_s = 0.030;
  s.kv_policy = KvShardPolicy::kIdealShard;
  s.max_batch = 128;
  s.exec.threads = 3;
  SearchOptions options = s.MakeSearchOptions();
  EXPECT_EQ(options.workload.prompt_tokens, 2000);
  EXPECT_DOUBLE_EQ(options.workload.tbt_slo_s, 0.030);
  EXPECT_EQ(options.kv_policy, KvShardPolicy::kIdealShard);
  EXPECT_EQ(options.max_batch, 128);
  EXPECT_EQ(options.exec.threads, 3);
}

}  // namespace
}  // namespace litegpu
