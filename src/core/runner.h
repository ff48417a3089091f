// Runner: executes Scenarios against the existing engines and returns a
// uniform RunReport — the second half of the Scenario -> Runner -> RunReport
// pipeline. One entry point covers every study the paper's argument spans;
// the CLI, the examples, and future workload backends all plug in here
// instead of hand-wiring per-engine option structs.

#pragma once

#include <string>
#include <variant>
#include <vector>

#include "src/core/designer.h"
#include "src/core/experiments.h"
#include "src/core/scenario.h"
#include "src/core/search.h"
#include "src/hw/lite_derive.h"
#include "src/reliability/mc_sim.h"
#include "src/serve/simulator.h"
#include "src/util/exec_policy.h"
#include "src/util/json.h"

namespace litegpu {

// --- per-study payloads -----------------------------------------------------

struct SearchStudyReport {
  struct Pair {
    std::string model;
    std::string gpu;
    PrefillSearchResult prefill;
    DecodeSearchResult decode;
  };
  std::vector<Pair> pairs;
};

struct Fig3StudyReport {
  std::string title;
  std::vector<Fig3Entry> entries;
};

struct DesignStudyReport {
  // One Table-1 comparison per model in the scenario's (resolved) list.
  struct PerModel {
    std::string model;
    std::vector<ClusterDesignReport> clusters;
  };
  std::vector<PerModel> per_model;
};

struct McSimStudyReport {
  std::string gpu;
  McSimKnobs knobs;
  McSimResult result;
};

struct YieldStudyReport {
  struct Row {
    YieldModel model = YieldModel::kMurphy;
    double yield_full = 0.0;
    double yield_split = 0.0;
    double gain = 0.0;
    // split * KGD(area/split) / KGD(area); 0 when the full die doesn't fit.
    double kgd_cost_ratio = 0.0;
  };
  YieldKnobs knobs;
  std::vector<Row> rows;
};

struct DeriveStudyReport {
  LiteDeriveResult result;
};

// What a serve point and each of its request classes measure alike:
// request counts, latency percentiles and goodput. TTFT percentiles are
// exact, or within one bin width when the point ran sharded (streamed
// into a fixed-bin histogram); TBT percentiles always come from a
// streamed histogram.
struct ServeOutcomeReport {
  int admitted_requests = 0;
  int completed_requests = 0;
  int in_flight_at_horizon = 0;  // admitted but unfinished when the horizon passed
  double ttft_p50_s = 0.0, ttft_p95_s = 0.0, ttft_p99_s = 0.0;
  double tbt_p50_s = 0.0, tbt_p95_s = 0.0, tbt_p99_s = 0.0;
  double goodput_tokens_per_s = 0.0;  // decode tokens/s over the makespan
};

// Per-class slice of a multi-tenant serving result: the class's share of
// the mix, its measured outcome, and whether it met its (possibly
// inherited) SLOs. Present only when the scenario declares request classes
// — single-class reports are unchanged.
struct ServeClassReport : ServeOutcomeReport {
  std::string name;
  double share = 0.0;               // normalized weight, sums to 1 over the mix
  double arrival_rate_per_s = 0.0;  // this class's slice of the offered rate
  double ttft_slo_s = 0.0;          // effective (inherited when the class's is 0)
  double tbt_slo_s = 0.0;
  // Fraction of the class's completed requests whose TTFT met the SLO
  // (request-level attainment; TBT attainment is judged at the p99).
  double ttft_attainment = 0.0;
  bool slo_ok = false;  // completed > 0 && ttft_p99 <= slo && tbt_p99 <= slo
};

// Autoscaler outcome of one simulated serve point, filled only when the
// scenario's autoscaler block is enabled (reports without one are
// byte-identical to the fixed-pool reports). Instance-hours integrate each
// instance's provisioned lifetime — the cost side of "cheapest policy
// meeting the SLOs" — and ttft_attainment is the global request-level SLO
// attainment through the transients (per-class SLOs in a mix).
struct ServeScaleReport {
  bool enabled = false;
  std::string policy;  // "reactive" | "predictive"
  int scale_ups = 0;
  int scale_downs = 0;
  double prefill_instance_hours = 0.0;
  double decode_instance_hours = 0.0;
  double gpu_hours = 0.0;  // instance-hours weighted by GPUs per instance
  int peak_prefill_instances = 0;
  int peak_decode_instances = 0;
  int final_prefill_instances = 0;
  int final_decode_instances = 0;
  double ttft_attainment = 0.0;
  std::vector<ScaleEvent> events;  // in the order they took effect
};

// Per-pool slice of the fault outcome: how often the pool's instances
// failed, how long they stayed down, how much in-flight work each failure
// destroyed (the paper's blast radius, measured on live traffic), and the
// measured availability next to the closed-form prediction from
// src/reliability/failure_model.h — the cross-check the fault engine's
// credibility rests on.
// Per-domain slice of a pool's correlated outages (domains enabled only).
struct ServeFaultDomainReport {
  int domain = 0;
  int failures = 0;           // domain-level outage events
  int instance_failures = 0;  // member instances downed by those outages
  double lost_tokens = 0.0;
  double blast_radius_fraction = 0.0;  // lost / served output tokens
};

struct ServeFaultPoolReport {
  int failures = 0;
  int spare_activations = 0;  // failures masked by a hot spare
  double downtime_s = 0.0;    // summed instance downtime, clipped to the makespan
  double lost_tokens = 0.0;   // in-flight work destroyed by this pool's failures
  // Mean tokens lost per failure over the run's served output tokens: the
  // fraction of the horizon's work one failure destroys. H100-sized and
  // Lite-sized instances differ here even at matched availability.
  double blast_radius_fraction = 0.0;
  double availability_measured = 0.0;   // 1 - downtime / instance-seconds
  double availability_predicted = 0.0;  // InstanceAvailabilityWithSpares
  // --- correlated-domain columns (domains enabled only) ---
  int domain_failures = 0;  // domain-level outage events in this pool
  // Worst single failure event (one independent failure or one domain
  // outage's members at one timestamp): tokens destroyed, and as a
  // fraction of the run's served output tokens. Same domain size in GPUs
  // => more small-die instances per domain => larger worst-event loss.
  double worst_event_lost_tokens = 0.0;
  double worst_event_fraction = 0.0;
  // availability_predicted times the closed-form domain availability
  // (1 - rate*repair / (1 + rate*repair)): what correlated outages cost on
  // top of independent churn.
  double availability_correlated = 0.0;
  // --- degraded-state columns (degraded enabled only) ---
  int degrade_events = 0;
  double degraded_instance_s = 0.0;
  std::vector<ServeFaultDomainReport> domains;  // by domain id
};

// Fault outcome of one simulated serve point, filled only when the
// scenario's faults block is enabled (reports without one are byte-identical
// to the fault-free renderer). goodput_ratio compares against a second
// simulation of the same workload with faults disabled — goodput under
// churn as a fraction of the fault-free baseline.
struct ServeFaultReport {
  bool enabled = false;
  std::string retry_policy;  // "retry" | "drop" | "retry_with_budget"
  // Which robustness axes ran (serialization gates for the new columns:
  // pre-domain reports stay byte-identical when all three are off).
  bool domains_enabled = false;
  bool degraded_enabled = false;
  bool shedding_enabled = false;
  ServeFaultPoolReport prefill;
  ServeFaultPoolReport decode;
  int retried_requests = 0;
  int dropped_requests = 0;
  double lost_tokens = 0.0;
  double goodput_tokens_per_s = 0.0;
  double baseline_goodput_tokens_per_s = 0.0;  // same workload, no faults
  double goodput_ratio = 0.0;
  // --- degraded-state outcome (degraded enabled only) ---
  // Tokens served per degraded decode-instance-second: goodput while
  // throttled, next to the healthy goodput above.
  double degraded_goodput_tokens_per_s = 0.0;
  // --- overload-protection outcome (shedding enabled only) ---
  int shed_requests = 0;
  // Seconds from the largest single outage (by lost tokens) until both
  // queues were empty again; -1 when no outage occurred.
  double time_to_drain_s = -1.0;
  // Stable iff the largest outage's backlog drained within the horizon:
  // largest_outage_time + time_to_drain <= horizon (vacuously true with no
  // outage). A metastable retry storm never drains and fails this.
  bool stable = true;
  std::vector<FaultEvent> events;      // simulated-time order
  std::vector<ShedEvent> shed_events;  // simulated-time order
};

// The searched per-instance configurations a serve deployment runs: each
// phase's best TP degree and batch cap from the PerfModel-backed search,
// and the analytic throughput one instance reaches with them.
struct ServeSearchedConfig {
  int prefill_tp = 0;
  int prefill_batch = 0;
  double prefill_capacity_tok_s = 0.0;  // per instance
  int decode_tp = 0;
  int decode_batch = 0;
  double decode_capacity_tok_s = 0.0;  // per instance
};

// One simulated serve point: what was offered, the deployment simulated,
// and what was measured. Every serve simulation returns one — the serve
// study's single point (ServeStudyReport extends it), each point of a
// serve-sweep, and each fleet candidate's knee — so a point field is
// declared, filled and rendered once.
struct ServePointReport : ServeOutcomeReport {
  // Fraction of the decode pool's analytic capacity: a load grid's value,
  // derived from the rate on a rate grid, 0 when a serve study's rate was
  // set directly or by a trace.
  double load = 0.0;
  double arrival_rate_per_s = 0.0;
  uint64_t seed = 0;  // this point's workload RNG stream
  // The planned deployment: pools auto-sized unless set, clamped into the
  // autoscaler's bounds; total_gpus also counts the hot spares.
  int prefill_instances = 0;
  int decode_instances = 0;
  int total_gpus = 0;
  double analytic_tokens_per_s = 0.0;  // offered decode-token demand
  double capacity_agreement = 0.0;     // goodput / analytic (the cross-check)
  double prefill_utilization = 0.0;
  double decode_utilization = 0.0;
  double mean_decode_batch = 0.0;
  double makespan_s = 0.0;
  // Single-class: ttft_p99 <= ttft_slo && tbt_p99 <= tbt_slo. With a
  // class mix: EVERY class meets its own (possibly inherited) SLOs. Never
  // true for a point that completed nothing.
  bool slo_ok = false;
  // Autoscaler outcome (scale.enabled false for fixed-pool runs).
  ServeScaleReport scale;
  // Fault outcome (faults.enabled false for fault-free runs).
  ServeFaultReport faults;
  // One entry per declared request class (empty in single-class mode).
  std::vector<ServeClassReport> classes;
};

// End-to-end serving study: the PerfModel-backed discrete-event simulation
// of the searched best prefill/decode configurations at one offered load,
// with the analytic capacity cross-check the paper's claim rests on. A
// study that admits no requests is an error, not an all-zero report.
struct ServeStudyReport : ServePointReport {
  std::string model;
  std::string gpu;
  ServeKnobs knobs;
  ServeSearchedConfig searched;
};

// Serve-sweep study: one searched deployment driven over a whole load grid
// as a single study — the bench_validation_serve table as an interactive
// scenario. The search and the step-time table are shared; each point is an
// independent simulation with its own RNG stream, fanned across the thread
// pool with bit-identical results at any thread count.
struct ServeSweepReport {
  std::string model;
  std::string gpu;
  ServeSweepKnobs knobs;
  ServeSearchedConfig searched;  // shared by every point

  // The SLOs the knee is judged against (from the scenario's workload).
  double ttft_slo_s = 0.0;
  double tbt_slo_s = 0.0;

  std::vector<ServePointReport> points;  // grid order

  // Knee: the highest-load point still meeting the SLOs (-1 when none
  // does) — with a class mix, the highest load where every class meets its
  // SLOs. "Highest" by offered arrival rate, so rate grids work too. Under
  // fault injection the verdicts are judged at the faults block's
  // target_attainment quantile instead of the fixed p99, so this
  // generalizes to the highest load still meeting the SLOs under churn.
  int knee_index = -1;
  double knee_load = 0.0;
  double knee_goodput_tokens_per_s = 0.0;

  // With the autoscaler enabled the knee generalizes to cost: the cheapest
  // SLO-meeting point, judged by served tokens per GPU-hour (-1 when no
  // point meets the SLOs). Only computed for autoscaled sweeps.
  int cheapest_index = -1;
  double cheapest_tokens_per_gpu_hour = 0.0;
};

// Fleet-compare study: each catalog candidate's knee on the shared load
// grid (found by scanning the grid from the top and stopping at the first
// SLO-meeting point), joined with the silicon cost and cluster power
// models into $/Mtoken-at-SLO and joules/token — the paper's headline
// knee-vs-knee economics as one report. Candidates have name-derived RNG
// streams, so reordering the catalog (or changing the thread count) never
// changes a candidate's numbers.
struct FleetCompareReport {
  std::string model;
  FleetKnobs knobs;
  // The SLOs every candidate's knee is judged against.
  double ttft_slo_s = 0.0;
  double tbt_slo_s = 0.0;

  struct Candidate {
    std::string name;      // catalog label (also seeds the RNG stream)
    std::string gpu;       // resolved part name (derived parts record the recipe)
    std::string base_gpu;  // catalog base part
    int split = 1;
    uint64_t seed = 0;  // this candidate's derived sweep stream
    // Feasible = a searched config exists AND some grid point met the SLOs.
    bool feasible = false;
    std::string error;  // why infeasible ("" when feasible)
    ServeSearchedConfig searched;  // zero when the part's search failed
    // Knee operating point (valid only when feasible).
    int knee_index = -1;
    double knee_load = 0.0;
    double knee_arrival_rate_per_s = 0.0;
    double knee_goodput_tokens_per_s = 0.0;
    int knee_total_gpus = 0;
    // Analytic decode capacity of the knee's pool — the differential-test
    // anchor the simulated knee goodput is checked against.
    double analytic_capacity_tok_s = 0.0;
    // Economics at the knee (valid only when feasible).
    double gpu_price_usd = 0.0;       // one packaged, street-priced GPU
    double capex_usd = 0.0;           // knee_total_gpus x gpu_price_usd
    double capex_usd_per_hour = 0.0;  // capex / depreciation hours
    double power_watts = 0.0;         // knee pool cluster power (GPU+net+cooling)
    double opex_usd_per_hour = 0.0;   // power priced at the grid rate
    double joules_per_token = 0.0;
    double usd_per_mtoken = 0.0;
    bool on_frontier = false;
  };
  std::vector<Candidate> candidates;  // catalog order

  // Non-dominated feasible candidates over (usd_per_mtoken min,
  // joules_per_token min, knee goodput max), as indices in catalog order.
  std::vector<int> frontier;
  // Frontier member with the lowest $/Mtoken (-1 when nothing is feasible).
  int winner_index = -1;
  // Distinct (model, resolved GPU) serve platforms actually built —
  // candidates sharing a part share one search + step-time table, and the
  // bench gates on this staying equal to the distinct-part count.
  int platform_builds = 0;
  // Grid points simulated across all candidates: each candidate scans its
  // grid in KneeScanOrder and stops at its knee, so this is the knee's scan
  // position + 1 per feasible candidate and the whole grid per infeasible
  // one. The bench's cost counter; never emitted in a report.
  int points_simulated = 0;
};

// --- the uniform result -----------------------------------------------------

struct RunReport {
  std::string scenario_name;
  StudyKind study = StudyKind::kSearch;
  bool ok = false;
  std::string error;  // set when !ok (validation or lookup failure)

  // Tagged union: exactly the alternative matching `study` is engaged when
  // ok (monostate otherwise).
  std::variant<std::monostate, SearchStudyReport, Fig3StudyReport, DesignStudyReport,
               McSimStudyReport, YieldStudyReport, DeriveStudyReport, ServeStudyReport,
               ServeSweepReport, FleetCompareReport>
      payload;

  // Human-readable rendering (the paper-style tables the CLI prints).
  std::string ToText() const;
  // Structured rendering: {"scenario": ..., "study": ..., "ok": ...,
  // "report": {study-specific body}}.
  Json ToJson() const;
};

// --- the runner -------------------------------------------------------------

class Runner {
 public:
  // Validates and dispatches, with the scenario's own ExecPolicy. Never
  // throws; failures come back as ok == false with `error` set.
  RunReport Run(const Scenario& scenario) const;
};

// Runs a batch, fanning the scenarios out across `exec` lanes; with two or
// more scenarios each one's inner sweeps run inline in its lane.
// Reports come back in scenario order, bit-identical at any thread count.
std::vector<RunReport> RunScenarios(const std::vector<Scenario>& scenarios,
                                    const ExecPolicy& exec = {});

}  // namespace litegpu
