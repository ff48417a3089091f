// Scenario: the declarative front door to every study the library runs.
//
// The paper's whole-cluster argument spans five engine surfaces (search,
// Figure-3 studies, cluster designer, Monte-Carlo reliability, yield/derive
// helpers). A Scenario describes WHAT to run — study kind, model(s), GPU
// list, workload/SLOs, KV policy, silicon/power/reliability knobs — as a
// value that can be built fluently in code or loaded from a JSON file, the
// way simulation platforms describe platforms+workloads as data. The Runner
// (src/core/runner.h) executes it and returns a uniform RunReport.
//
// Scenario files are plain JSON (comments and trailing commas tolerated);
// every field is optional and defaults to the paper's setup. See
// examples/scenarios/*.json for one file per study kind.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/search.h"
#include "src/hw/gpu_spec.h"
#include "src/serve/faults.h"
#include "src/serve/workload.h"
#include "src/hw/lite_derive.h"
#include "src/llm/model.h"
#include "src/reliability/mc_sim.h"
#include "src/silicon/yield.h"
#include "src/util/exec_policy.h"
#include "src/util/json.h"

namespace litegpu {

// The studies a Scenario can request, mirroring the CLI subcommands.
enum class StudyKind {
  kSearch,  // best config per (model, GPU) pair, prefill + decode
  kFig3a,   // paper Figure 3a prefill study
  kFig3b,   // paper Figure 3b decode study
  kDesign,  // Table-1 cluster comparison (perf/cost/power/reliability)
  kMcSim,   // Monte-Carlo availability simulation
  kYield,   // Section-2 die-yield / known-good-die economics
  kDerive,  // custom Lite-GPU derivation + shoreline feasibility
  kServe,   // end-to-end discrete-event serving vs the analytic capacity
  kServeSweep,  // one serve deployment swept over a load grid as one study
  kFleetCompare,  // knee-vs-knee $/Mtoken + joules/token across a fleet catalog
};

std::string ToString(StudyKind kind);
std::optional<StudyKind> ParseStudyKind(const std::string& name);

// Knobs only the design study reads (subset of DesignInputs the scenario
// layer exposes; the rest keep their documented defaults).
struct DesignKnobs {
  double hbm_usd_per_gb = 12.0;
  double gpu_price_multiplier = 8.0;
  double amortization_years = 4.0;
  YieldModel yield_model = YieldModel::kMurphy;
};

// Knobs only the mcsim study reads (the sweep shape of McSimConfig; failure
// parameters keep their defaults).
struct McSimKnobs {
  int gpus_per_instance = 8;
  int num_instances = 4;
  int num_spares = 0;
  double sim_years = 20.0;
  uint64_t seed = 0x5EEDED;
  int num_trials = 1;
};

// The mcsim block in the scenario file's keys; the mcsim report's config
// echo is the same object.
Json McSimKnobsToJson(const McSimKnobs& knobs);

// Knobs only the yield study reads.
struct YieldKnobs {
  double defect_density_per_cm2 = 0.1;
  double cluster_alpha = 3.0;
  double die_area_mm2 = 814.0;
  int split = 4;
};

// Knobs only the derive study reads (mirrors LiteDeriveOptions plus the
// base part's catalog name).
struct DeriveKnobs {
  std::string base_gpu = "H100";
  int split = 4;
  double mem_bw_multiplier = 1.0;
  double net_bw_multiplier = 1.0;
  double overclock = 1.0;
};

// One request class of a multi-tenant serving mix (chat, batch
// summarization, long-context RAG, ... sharing the same phase-split
// pools). Each class has its own share of the offered arrival rate, its
// own prompt/output length distributions (its SplitMix64 workload
// substream is independent of every other class's), and its own SLOs.
// ttft_slo_s / tbt_slo_s of 0 inherit the scenario workload's SLOs.
struct RequestClass {
  std::string name;         // required, unique within the mix
  double weight = 1.0;      // relative share of arrivals (> 0; normalized)
  int prompt_tokens = 1500;  // median prompt length
  double prompt_sigma = 0.0;
  int output_tokens = 256;   // median output length
  double output_sigma = 0.0;
  double ttft_slo_s = 0.0;  // 0 = inherit workload.ttft_slo_s
  double tbt_slo_s = 0.0;   // 0 = inherit workload.tbt_slo_s
};

// The normalized view of a class mix used for planning: weights scaled to
// shares summing to 1, and the class-weighted mean prompt/output lengths
// that size the phase-split pools and convert load fractions to request
// rates. Empty mixes report zero shares and the caller's fallbacks.
struct ClassMixSummary {
  std::vector<double> shares;        // per class, sums to 1
  double mean_prompt_tokens = 0.0;
  double mean_output_tokens = 0.0;
};
ClassMixSummary SummarizeClassMix(const std::vector<RequestClass>& classes);

// Autoscaler policy for the serve studies. kNone keeps the fixed pools;
// kReactive scales on observed queue backlog and pool utilization;
// kPredictive forecasts per-class demand from recent arrivals and sizes
// the pools ahead of the curve (falling back to the backlog trigger).
enum class AutoscalerPolicy {
  kNone,
  kReactive,
  kPredictive,
};

std::string ToString(AutoscalerPolicy policy);

// Mid-horizon pool autoscaling knobs. Decisions happen every `interval_s`
// of simulated time; a granted scale-up only adds capacity after `delay_s`
// (instance provisioning is not free), while scale-downs drain: the
// instance stops accepting work and retires when its in-flight requests
// finish. Per-pool instance counts stay inside [min, max].
struct AutoscalerKnobs {
  AutoscalerPolicy policy = AutoscalerPolicy::kNone;
  double interval_s = 5.0;   // decision cadence (simulated seconds)
  double delay_s = 10.0;     // provisioning delay before an instance is live
  int min_prefill_instances = 1;
  int max_prefill_instances = 64;
  int min_decode_instances = 1;
  int max_decode_instances = 64;
  // Reactive triggers: scale up when the queued work in front of a pool
  // exceeds this many seconds at the pool's analytic throughput, or when
  // the pool's utilization over the last interval crosses the up
  // threshold; scale down when utilization falls below the down threshold
  // with an empty queue.
  double scale_up_backlog_s = 2.0;
  double scale_up_utilization = 0.9;
  double scale_down_utilization = 0.35;
  // Predictive: per-class arrival demand over the last `forecast_window_s`
  // is linearly extrapolated half a window ahead; pools are sized to the
  // forecast times `headroom`.
  double forecast_window_s = 30.0;
  double headroom = 1.1;

  bool enabled() const { return policy != AutoscalerPolicy::kNone; }
};

// The arrival and autoscaler blocks in the scenario file's keys; scenario
// files and report config echoes share them.
Json ArrivalProcessToJson(const ArrivalProcess& process);
Json AutoscalerKnobsToJson(const AutoscalerKnobs& knobs);

// Fault-injection knobs for the serve studies (src/serve/faults.h). `afr`
// is the annualized failure rate of one reference-area (H100-class)
// package; 0 — the default — disables injection entirely, keeping reports
// byte-identical to the fault-free engine. Per-GPU rates area-scale from
// it (smaller dies fail less, down to the device floor), and each
// instance's hazard is its GPU count times the per-GPU rate, so H100-sized
// and Lite-sized pools churn differently from the same knobs.
struct FaultKnobs {
  double afr = 0.0;                       // reference AFR; 0 = no faults
  double floor_afr = 0.005;               // per-device floor (board, firmware)
  double mttr_hours = 24.0;               // mean time to repair/replace
  double spare_activation_minutes = 5.0;  // hot-spare activation delay
  int hot_spares = 0;                     // hot-spare GPUs per pool
  FaultRetryPolicy retry_policy = FaultRetryPolicy::kRetry;
  int retry_budget = 3;  // retry_with_budget: kills tolerated before dropping
  // Attainment percentile the sweep's SLO verdicts (and so the knee) are
  // judged at under churn; 0.99 matches the fault-free p99 criterion.
  double target_attainment = 0.99;
  // --- correlated failure domains (rack / switch / rollout) ---
  // Domain size in reference-area (H100-class) GPU equivalents: each
  // instance occupies tp x (die area / reference area) of a domain, so the
  // same silicon budget packs more small-die instances per domain. 0 (the
  // default) disables domains.
  double domain_gpus = 0.0;
  double domain_afr = 0.0;        // annualized outage rate of one domain
  double domain_mttr_hours = 0.0; // domain repair time; 0 = inherit mttr_hours
  // --- transient degraded states (ECC storms, thermal throttling) ---
  double degrade_afr = 0.0;        // annualized degrade-event rate per GPU
  double degrade_multiplier = 1.0; // step-time multiplier while degraded
  double degrade_minutes = 0.0;    // mean throttled-window length
  // --- overload protection / load shedding ---
  int shed_queue_depth = 0;          // shed past this prefill-queue depth
  double shed_ttft_deadline_s = 0.0; // shed when estimated TTFT exceeds this

  bool enabled() const {
    return afr > 0.0 || domain_afr > 0.0 || degrade_afr > 0.0;
  }
};

// Returns "" when the faults block is usable, else the first problem
// (negative rates/delays, bad attainment percentile, ...). `where` labels
// the block in messages ("serve.faults").
std::string ValidateFaultKnobs(const FaultKnobs& knobs, const std::string& where);

// The per-point simulation shape shared by the serve and serve-sweep
// studies — declared once so knobs like the arrival process and the
// autoscaler exist in exactly one place, read by one strict-JSON
// reader/validator for both blocks.
struct ServeCommonKnobs {
  // Admission horizon: arrivals are generated (and admitted) up to this
  // simulated time; admitted-but-unfinished requests drain and are counted
  // as in_flight_at_horizon.
  double horizon_s = 60.0;
  int prefill_instances = 0;  // 0 = auto-size from the analytic capacities
  int decode_instances = 1;
  double prompt_sigma = 0.0;  // lognormal sigma; 0 = constant lengths
  double output_sigma = 0.0;
  uint64_t seed = 0xC0FFEE;
  // Arrival process shape. The default (stationary Poisson) serializes to
  // nothing, so pre-existing scenarios round-trip byte-identically.
  ArrivalProcess arrival;
  // Mid-horizon autoscaling. Disabled by default (fixed pools); like
  // `arrival`, the disabled block serializes to nothing.
  AutoscalerKnobs autoscaler;
  // Fault injection. Disabled by default (afr 0, instances never die);
  // like `autoscaler`, the default block serializes to nothing.
  FaultKnobs faults;
  // Multi-tenant request mix. Empty (the default) keeps the single-class
  // workload shaped by the scenario's shared workload block — reports are
  // bit-identical to the pre-class engine. Non-empty replaces the length
  // knobs above with per-class distributions and adds per-class metrics,
  // goodput, and SLO attainment to the report.
  std::vector<RequestClass> classes;
  // Split a long single-point horizon into this many independent
  // sub-horizon replications (each horizon_s / shards long, with its own
  // deterministic RNG substream via ShardSubstreamSeed) and merge their
  // metrics deterministically — the same result at any thread count. 0 or
  // 1 (the default, which serializes to nothing) runs the single serial
  // horizon with byte-identical reports. Sharded points stream TTFT into
  // fixed-bin histograms, so TTFT percentiles are within one bin width of
  // exact. Only statistically homogeneous runs may shard: validation
  // rejects shards >= 2 combined with the autoscaler, faults, diurnal
  // curves, or trace replays, whose behavior depends on absolute time.
  int shards = 0;
};

// Knobs only the serve study reads. The request mix takes its median
// prompt/output lengths from the scenario's shared workload block (or from
// per-class distributions when `classes` is non-empty); these knobs shape
// arrivals, pool sizes, and the admission horizon. The study runs one
// model on one GPU type (like mcsim); prefill/decode instance
// configurations come from the PerfModel-backed search.
struct ServeKnobs : ServeCommonKnobs {
  // Offered load as a fraction of the decode pool's analytic capacity;
  // ignored when arrival_rate_per_s is set explicitly. A trace arrival
  // process overrides both: the trace fixes the offered rate.
  double load = 0.8;
  double arrival_rate_per_s = 0.0;  // requests/s; 0 = derive from `load`
};

// Knobs only the serve-sweep study reads: one serve deployment driven over
// a grid of offered load points as a single study (the
// bench_validation_serve load table as a scenario). The grid is either an
// explicit list — `loads` as fractions of the decode pool's analytic
// capacity, or `rates` as absolute requests/s — or the inclusive
// lo:hi:step range. The search and the step-time table are shared across
// points; each point gets its own deterministic RNG stream derived from
// `seed`, so the sweep is bit-identical at any thread count. The knee
// generalizes to the highest load where EVERY class meets its SLOs; with
// an autoscaler the sweep also reports the cheapest SLO-meeting point by
// goodput per GPU-hour.
struct ServeSweepKnobs : ServeCommonKnobs {
  std::vector<double> loads;  // explicit load fractions; overrides lo:hi:step
  std::vector<double> rates;  // explicit requests/s; overrides `loads` too
  double load_lo = 0.1;
  double load_hi = 1.0;
  double load_step = 0.1;

  // True when the grid is absolute arrival rates rather than load
  // fractions.
  bool IsRateGrid() const { return !rates.empty(); }
  // The expanded grid: rates, else loads, else lo..hi inclusive by step.
  std::vector<double> GridPoints() const;
};

// The sweep block's grid keys (`loads` and `rates` only when non-empty,
// then `load_lo`, `load_hi`, `load_step`): the scenario file writes them
// first, and the serve-sweep report's config echo opens with them.
Json ServeSweepGridToJson(const ServeSweepKnobs& knobs);

// Writes the optional nested blocks of a serve/sweep block, in this order:
// `arrival` unless it is stationary Poisson, `autoscaler` when a policy is
// set, `faults` when any field moved off its default, and `classes` when
// the mix is non-empty. Scenario files and the serve/sweep report config
// echoes share it, so these nested blocks of a report's config read back
// as the scenario's, and fault-free fixed-pool Poisson output stays
// byte-identical. The rest of a report's config does not round-trip: the
// echoes omit `prefill_instances`, `decode_instances` and `shards`, and the
// serve echo writes the derived offered rate as `arrival_rate_per_s`,
// which would then override `load`.
void WriteServeOptionalBlocks(Json& block, const ServeCommonKnobs& knobs);

// Expands lo..hi inclusive by step (empty when step <= 0, hi < lo, any
// bound is non-finite, or the range would exceed 1e6 points). The one
// grid-range expansion — ServeSweepKnobs and the CLI's lo:hi:step specs
// share it so they can't drift.
std::vector<double> ExpandGridRange(double lo, double hi, double step);

// One fleet candidate: a catalog base part, optionally split into Lite-style
// small dies (split > 1 runs DeriveLite with the multipliers below, exactly
// like the derive study), plus its pool shape. `name` labels the candidate
// in the report and seeds its RNG stream — reordering the catalog never
// changes any candidate's simulated points.
struct FleetCandidate {
  std::string name;          // required, unique within the catalog
  std::string gpu = "H100";  // catalog base part
  int split = 1;             // 1 = the part as-is; >1 = DeriveLite split
  double mem_bw_multiplier = 1.0;
  double net_bw_multiplier = 1.0;
  double overclock = 1.0;
  int prefill_instances = 0;  // 0 = auto-size from the analytic capacities
  int decode_instances = 1;
};

// Knobs only the fleet-compare study reads: a catalog of candidates, the
// shared load grid each candidate's knee is searched on, and the
// economics that turn each knee into $/Mtoken-at-SLO — silicon cost
// (src/silicon/cost) amortized over `depreciation_months`, plus cluster
// power (src/power/cluster_energy) priced at `electricity_usd_per_kwh`
// (PUE rides in the cooling model). Fleet sweeps are stationary
// single-class Poisson on purpose: the study compares hardware, not
// traffic shapes.
struct FleetKnobs {
  std::vector<FleetCandidate> candidates;
  std::vector<double> loads;  // explicit load fractions; overrides lo:hi:step
  double load_lo = 0.1;
  double load_hi = 1.0;
  double load_step = 0.1;
  double horizon_s = 60.0;
  double prompt_sigma = 0.0;  // lognormal sigma; 0 = constant lengths
  double output_sigma = 0.0;
  uint64_t seed = 0xC0FFEE;
  // Economics. hbm_usd_per_gb / gpu_price_multiplier mirror DesignKnobs;
  // gpu_utilization is the power-model activity factor, not the serve
  // pools' occupancy.
  double hbm_usd_per_gb = 12.0;
  double gpu_price_multiplier = 8.0;
  double depreciation_months = 48.0;
  double electricity_usd_per_kwh = 0.08;
  double gpu_utilization = 0.7;

  // The expanded grid: loads, else lo..hi inclusive by step.
  std::vector<double> GridPoints() const;
};

// The one FleetKnobs serializer — scenario files and the fleet-compare
// report's config echo both use it, so a report's config can always be fed
// back in as a scenario.
Json FleetKnobsToJson(const FleetKnobs& knobs);

struct Scenario {
  // Optional label echoed into the RunReport (handy for batches).
  std::string name;
  StudyKind study = StudyKind::kSearch;

  // Model/GPU catalog names. Empty lists mean the study's canonical set:
  // the three case-study models; fig3a/fig3b use the paper's four-GPU
  // lineups, design uses the full Table 1, search/mcsim use {H100}.
  std::vector<std::string> models;
  std::vector<std::string> gpus;
  // Fig3 normalization baseline (must be in the resolved GPU list).
  std::string baseline_gpu = "H100";

  // Shared workload/engine knobs (search, fig3*, design).
  WorkloadParams workload;
  KvShardPolicy kv_policy = KvShardPolicy::kReplicate;
  int max_batch = 65536;

  // Study-specific knobs.
  DesignKnobs design;
  McSimKnobs mcsim;
  YieldKnobs yield;
  DeriveKnobs derive;
  ServeKnobs serve;
  ServeSweepKnobs sweep;
  FleetKnobs fleet;

  ExecPolicy exec;

  // Returns "" when the scenario is runnable, else a description of the
  // first problem (unknown model/GPU name, non-positive SLO, ...).
  std::string Validate() const;

  // The model/GPU lists with study defaults applied (still names; the
  // Runner resolves them against the catalog).
  std::vector<std::string> ResolvedModels() const;
  std::vector<std::string> ResolvedGpus() const;

  // The SearchOptions this scenario implies for the perf studies.
  SearchOptions MakeSearchOptions() const;
};

// Scenarios compare equal iff they serialize identically.
bool operator==(const Scenario& a, const Scenario& b);
inline bool operator!=(const Scenario& a, const Scenario& b) { return !(a == b); }

// JSON round trip. ScenarioFromJson is tolerant of missing fields (they
// default) but rejects unknown top-level keys, bad enum spellings, and
// mistyped values, so typos in scenario files fail loudly.
Json ScenarioToJson(const Scenario& scenario);
std::optional<Scenario> ScenarioFromJson(const Json& json, std::string* error = nullptr);

// Parses scenario text: a single scenario object, a top-level array of
// them, or {"scenarios": [...]}.
std::optional<std::vector<Scenario>> ParseScenarios(const std::string& text,
                                                    std::string* error = nullptr);
std::optional<std::vector<Scenario>> LoadScenarioFile(const std::string& path,
                                                      std::string* error = nullptr);

// Reads an exec block ({"threads": N}) with the scenario reader's checks;
// `litegpu run --threads` goes through it.
std::optional<ExecPolicy> ExecPolicyFromJson(const Json& json, std::string* error = nullptr);

// Fluent builder. Setters return *this for chaining; Build() validates and
// returns nullopt (with `error` describing why) for unrunnable scenarios.
class ScenarioBuilder {
 public:
  explicit ScenarioBuilder(StudyKind study) { scenario_.study = study; }

  ScenarioBuilder& Name(const std::string& name);
  ScenarioBuilder& Model(const std::string& model);  // appends
  ScenarioBuilder& Gpu(const std::string& gpu);      // appends
  ScenarioBuilder& Baseline(const std::string& gpu);
  ScenarioBuilder& PromptTokens(int n);
  ScenarioBuilder& OutputTokens(int n);
  ScenarioBuilder& TtftSlo(double seconds);
  ScenarioBuilder& TbtSlo(double seconds);
  ScenarioBuilder& EnforceMemoryCapacity(bool on);
  ScenarioBuilder& KvPolicy(KvShardPolicy policy);
  ScenarioBuilder& MaxBatch(int n);
  ScenarioBuilder& Threads(int n);
  ScenarioBuilder& Design(const DesignKnobs& knobs);
  ScenarioBuilder& McSim(const McSimKnobs& knobs);
  ScenarioBuilder& Yield(const YieldKnobs& knobs);
  ScenarioBuilder& Derive(const DeriveKnobs& knobs);
  ScenarioBuilder& Serve(const ServeKnobs& knobs);
  ScenarioBuilder& ServeSweep(const ServeSweepKnobs& knobs);
  ScenarioBuilder& Fleet(const FleetKnobs& knobs);

  // The scenario built so far, unvalidated.
  const Scenario& Peek() const { return scenario_; }
  // Validates; nullopt + error message when Scenario::Validate fails.
  std::optional<Scenario> Build(std::string* error = nullptr) const;

 private:
  Scenario scenario_;
};

}  // namespace litegpu
