// The scenario knob tables: one constexpr row per JSON field of every flat
// knob block. Each row names the JSON key, points at the struct member,
// says when the key is emitted (always, or only off its default), and
// carries the single-field range (or the enum spellings).
//
// Generic code in scenario.cc derives everything else from these rows: the
// strict reader (type checks, did-you-mean on unknown keys and enum names),
// the writer (key order = row order), the allowed-key lists, default
// equality, and the per-field range checks Validate runs. Adding a scalar
// knob to a block is one struct member plus one row here (plus its docs row
// and any cross-field rule). Cross-field rules stay hand-written in
// scenario.cc.
//
// A table is a std::tuple of rows, so the code walking it sees each row's
// exact member type. Everything here is constant-initialized: no row
// allocates or runs code before main().

#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "src/core/scenario.h"

namespace litegpu {

// A single-field bound: [lo, hi], or (lo, hi] when lo_open. Double rows are
// also required to be finite; list rows apply the bound to every entry.
// `note` is appended to the error message ("0 = auto-size").
struct FieldRange {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  const char* note = nullptr;
};

constexpr FieldRange AtLeast(double lo, const char* note = nullptr) {
  return {lo, std::numeric_limits<double>::infinity(), false, note};
}
constexpr FieldRange Positive(const char* note = nullptr) {
  return {0.0, std::numeric_limits<double>::infinity(), true, note};
}
constexpr FieldRange Within(double lo, double hi, bool lo_open = false) {
  return {lo, hi, lo_open, nullptr};
}

enum class Emit {
  kAlways,      // every serialization writes the key
  kIfChanged,   // written only when the value differs from the default
  kIfAboveOne,  // written only when > 1: a count whose 0 and 1 both mean "off"
};

// One row: the JSON key for member `member` of knob struct S. T is one of
// double, int, uint64_t, bool, std::string, std::vector<double>, or an enum
// whose spellings ('|'-separated, indexed by enum value) are in enum_names.
template <typename S, typename T>
struct Field {
  using Struct = S;
  std::string_view name;
  T S::*member;
  FieldRange range;
  Emit emit;
  const char* enum_names;
};

template <typename S, typename T>
constexpr Field<S, T> Row(std::string_view name, T S::*member, FieldRange range = {},
                          Emit emit = Emit::kAlways) {
  static_assert(!std::is_enum_v<T>, "enum rows need their spellings (EnumRow)");
  return {name, member, range, emit, nullptr};
}
template <typename S, typename E>
constexpr Field<S, E> EnumRow(std::string_view name, E S::*member, const char* spellings) {
  static_assert(std::is_enum_v<E>);
  return {name, member, {}, Emit::kAlways, spellings};
}

inline constexpr char kKvPolicyNames[] = "replicate|ideal-shard";
inline constexpr char kYieldModelNames[] = "poisson|murphy|seeds|negative-binomial";
inline constexpr char kAutoscalerPolicyNames[] = "none|reactive|predictive";
inline constexpr char kRetryPolicyNames[] = "retry|drop|retry_with_budget";
inline constexpr char kArrivalKindNames[] = "poisson|diurnal|onoff|trace";

// --- top level -------------------------------------------------------------

// The scalar top-level knobs. The writer places them around the other
// top-level keys by hand; kScenarioBlockKeys lists those other keys.
inline constexpr std::tuple kScenarioFields{
    Row("name", &Scenario::name, {}, Emit::kIfChanged),
    Row("baseline_gpu", &Scenario::baseline_gpu),
    EnumRow("kv_policy", &Scenario::kv_policy, kKvPolicyNames),
    Row("max_batch", &Scenario::max_batch, AtLeast(1)),
};
inline constexpr std::string_view kScenarioBlockKeys[] = {
    "study", "models", "gpus", "workload", "design", "mcsim",
    "yield", "derive", "serve", "sweep", "fleet", "exec"};

inline constexpr std::tuple kWorkloadFields{
    Row("prompt_tokens", &WorkloadParams::prompt_tokens, Positive()),
    Row("output_tokens", &WorkloadParams::output_tokens, Positive()),
    Row("ttft_slo_s", &WorkloadParams::ttft_slo_s, Positive()),
    Row("tbt_slo_s", &WorkloadParams::tbt_slo_s, Positive()),
    Row("enforce_memory_capacity", &WorkloadParams::enforce_memory_capacity),
};

inline constexpr std::tuple kExecFields{
    Row("threads", &ExecPolicy::threads),
};

// --- the classic studies ---------------------------------------------------

inline constexpr std::tuple kDesignFields{
    Row("hbm_usd_per_gb", &DesignKnobs::hbm_usd_per_gb, AtLeast(0)),
    Row("gpu_price_multiplier", &DesignKnobs::gpu_price_multiplier, Positive()),
    Row("amortization_years", &DesignKnobs::amortization_years, Positive()),
    EnumRow("yield_model", &DesignKnobs::yield_model, kYieldModelNames),
};

inline constexpr std::tuple kMcSimFields{
    Row("gpus_per_instance", &McSimKnobs::gpus_per_instance, AtLeast(1)),
    Row("num_instances", &McSimKnobs::num_instances, AtLeast(1)),
    Row("num_spares", &McSimKnobs::num_spares, AtLeast(0)),
    Row("sim_years", &McSimKnobs::sim_years, Positive()),
    Row("seed", &McSimKnobs::seed),
    Row("num_trials", &McSimKnobs::num_trials, AtLeast(1)),
};

inline constexpr std::tuple kYieldFields{
    Row("defect_density_per_cm2", &YieldKnobs::defect_density_per_cm2, AtLeast(0)),
    Row("cluster_alpha", &YieldKnobs::cluster_alpha),
    Row("die_area_mm2", &YieldKnobs::die_area_mm2, Positive()),
    Row("split", &YieldKnobs::split, AtLeast(1)),
};

inline constexpr std::tuple kDeriveFields{
    Row("base_gpu", &DeriveKnobs::base_gpu),
    Row("split", &DeriveKnobs::split, AtLeast(1)),
    Row("mem_bw_multiplier", &DeriveKnobs::mem_bw_multiplier, Positive()),
    Row("net_bw_multiplier", &DeriveKnobs::net_bw_multiplier, Positive()),
    Row("overclock", &DeriveKnobs::overclock, Positive()),
};

// --- the serve studies -----------------------------------------------------

// The class SLOs share one hand-written sign rule (0 = inherit), so their
// rows only require finite values.
inline constexpr std::tuple kRequestClassFields{
    Row("name", &RequestClass::name),
    Row("weight", &RequestClass::weight, Positive()),
    Row("prompt_tokens", &RequestClass::prompt_tokens, Positive()),
    Row("prompt_sigma", &RequestClass::prompt_sigma, AtLeast(0)),
    Row("output_tokens", &RequestClass::output_tokens, Positive()),
    Row("output_sigma", &RequestClass::output_sigma, AtLeast(0)),
    Row("ttft_slo_s", &RequestClass::ttft_slo_s),
    Row("tbt_slo_s", &RequestClass::tbt_slo_s),
};

// One key set per arrival kind; each starts with the `kind` tag itself.
inline constexpr auto kArrivalKindField =
    EnumRow("kind", &ArrivalProcess::kind, kArrivalKindNames);
inline constexpr std::tuple kPoissonFields{kArrivalKindField};
inline constexpr std::tuple kDiurnalFields{
    kArrivalKindField,
    Row("period_s", &ArrivalProcess::period_s, AtLeast(0, "0 = one period per horizon")),
    Row("multipliers", &ArrivalProcess::multipliers, AtLeast(0)),
};
inline constexpr std::tuple kOnOffFields{
    kArrivalKindField,
    Row("on_mean_s", &ArrivalProcess::on_mean_s, Positive()),
    Row("off_mean_s", &ArrivalProcess::off_mean_s, Positive()),
    Row("on_multiplier", &ArrivalProcess::on_multiplier, AtLeast(0)),
    Row("off_multiplier", &ArrivalProcess::off_multiplier, AtLeast(0)),
};
inline constexpr std::tuple kTraceFields{
    kArrivalKindField,
    Row("times_s", &ArrivalProcess::times_s, AtLeast(0)),
};

// Every row is validated only while a policy is set (the disabled block is
// not checked), and max >= min is a cross-field rule.
inline constexpr std::tuple kAutoscalerFields{
    EnumRow("policy", &AutoscalerKnobs::policy, kAutoscalerPolicyNames),
    Row("interval_s", &AutoscalerKnobs::interval_s, Positive()),
    Row("delay_s", &AutoscalerKnobs::delay_s, AtLeast(0)),
    Row("min_prefill_instances", &AutoscalerKnobs::min_prefill_instances, AtLeast(1)),
    Row("max_prefill_instances", &AutoscalerKnobs::max_prefill_instances),
    Row("min_decode_instances", &AutoscalerKnobs::min_decode_instances, AtLeast(1)),
    Row("max_decode_instances", &AutoscalerKnobs::max_decode_instances),
    Row("scale_up_backlog_s", &AutoscalerKnobs::scale_up_backlog_s, Positive()),
    Row("scale_up_utilization", &AutoscalerKnobs::scale_up_utilization, Positive()),
    Row("scale_down_utilization", &AutoscalerKnobs::scale_down_utilization, AtLeast(0)),
    Row("forecast_window_s", &AutoscalerKnobs::forecast_window_s, Positive()),
    Row("headroom", &AutoscalerKnobs::headroom, Positive()),
};

// The keys after target_attainment postdate the block and emit only when
// set, so older faults blocks (and reports echoing them) stay
// byte-identical.
inline constexpr std::tuple kFaultFields{
    Row("afr", &FaultKnobs::afr, AtLeast(0)),
    Row("floor_afr", &FaultKnobs::floor_afr, AtLeast(0)),
    // Repairs, spare activations and degraded windows are scheduled as
    // events, so their durations must stay bounded: 1e6 hours (6e7
    // minutes) is over a century.
    Row("mttr_hours", &FaultKnobs::mttr_hours, Within(0, 1e6, /*lo_open=*/true)),
    Row("spare_activation_minutes", &FaultKnobs::spare_activation_minutes, Within(0, 6e7)),
    Row("hot_spares", &FaultKnobs::hot_spares, AtLeast(0)),
    EnumRow("retry_policy", &FaultKnobs::retry_policy, kRetryPolicyNames),
    Row("retry_budget", &FaultKnobs::retry_budget, AtLeast(0)),
    Row("target_attainment", &FaultKnobs::target_attainment, Within(0, 1, /*lo_open=*/true)),
    Row("domain_gpus", &FaultKnobs::domain_gpus, AtLeast(0), Emit::kIfChanged),
    Row("domain_afr", &FaultKnobs::domain_afr, AtLeast(0), Emit::kIfChanged),
    Row("domain_mttr_hours", &FaultKnobs::domain_mttr_hours,
        {0.0, 1e6, false, "0 = inherit mttr_hours"}, Emit::kIfChanged),
    Row("degrade_afr", &FaultKnobs::degrade_afr, AtLeast(0), Emit::kIfChanged),
    // A degraded step ends multiplier x its step time out, and the run
    // lasts until it does: at 1e9 the chaos example ran over 100x longer,
    // at 1e3 no longer than at 1.8.
    Row("degrade_multiplier", &FaultKnobs::degrade_multiplier, Within(1, 1e3),
        Emit::kIfChanged),
    Row("degrade_minutes", &FaultKnobs::degrade_minutes, Within(0, 6e7), Emit::kIfChanged),
    Row("shed_queue_depth", &FaultKnobs::shed_queue_depth, AtLeast(0), Emit::kIfChanged),
    Row("shed_ttft_deadline_s", &FaultKnobs::shed_ttft_deadline_s, AtLeast(0),
        Emit::kIfChanged),
};

// The per-point scalars the serve and sweep blocks share. The nested
// blocks (kServeBlockKeys) follow them, then kServeShardFields.
inline constexpr std::tuple kServeCommonFields{
    Row("horizon_s", &ServeCommonKnobs::horizon_s, Positive()),
    Row("prefill_instances", &ServeCommonKnobs::prefill_instances, AtLeast(0, "0 = auto-size")),
    Row("decode_instances", &ServeCommonKnobs::decode_instances, AtLeast(1)),
    Row("prompt_sigma", &ServeCommonKnobs::prompt_sigma, AtLeast(0)),
    Row("output_sigma", &ServeCommonKnobs::output_sigma, AtLeast(0)),
    Row("seed", &ServeCommonKnobs::seed),
};
inline constexpr std::string_view kServeBlockKeys[] = {"arrival", "autoscaler", "faults",
                                                  "classes"};
inline constexpr std::tuple kServeShardFields{
    Row("shards", &ServeCommonKnobs::shards, Within(0, 1024), Emit::kIfAboveOne),
};

inline constexpr std::tuple kServeFields{
    Row("load", &ServeKnobs::load, AtLeast(0)),
    Row("arrival_rate_per_s", &ServeKnobs::arrival_rate_per_s, AtLeast(0)),
};

// The grid's positivity is checked on the expanded points (a cross-field
// rule: lo/hi/step only matter when both lists are empty).
inline constexpr std::tuple kServeSweepFields{
    Row("loads", &ServeSweepKnobs::loads, {}, Emit::kIfChanged),
    Row("rates", &ServeSweepKnobs::rates, {}, Emit::kIfChanged),
    Row("load_lo", &ServeSweepKnobs::load_lo),
    Row("load_hi", &ServeSweepKnobs::load_hi),
    Row("load_step", &ServeSweepKnobs::load_step),
};

// --- fleet-compare ---------------------------------------------------------

inline constexpr std::tuple kFleetCandidateFields{
    Row("name", &FleetCandidate::name),
    Row("gpu", &FleetCandidate::gpu),
    Row("split", &FleetCandidate::split, AtLeast(1)),
    Row("mem_bw_multiplier", &FleetCandidate::mem_bw_multiplier, Positive()),
    Row("net_bw_multiplier", &FleetCandidate::net_bw_multiplier, Positive()),
    Row("overclock", &FleetCandidate::overclock, Positive()),
    Row("prefill_instances", &FleetCandidate::prefill_instances, AtLeast(0, "0 = auto-size")),
    Row("decode_instances", &FleetCandidate::decode_instances, AtLeast(1)),
};

// `candidates` (the kFleetCandidateFields list) is written first, then
// these rows.
inline constexpr std::tuple kFleetFields{
    Row("loads", &FleetKnobs::loads, {}, Emit::kIfChanged),
    Row("load_lo", &FleetKnobs::load_lo),
    Row("load_hi", &FleetKnobs::load_hi),
    Row("load_step", &FleetKnobs::load_step),
    Row("horizon_s", &FleetKnobs::horizon_s, Positive()),
    Row("prompt_sigma", &FleetKnobs::prompt_sigma, AtLeast(0)),
    Row("output_sigma", &FleetKnobs::output_sigma, AtLeast(0)),
    Row("seed", &FleetKnobs::seed),
    Row("hbm_usd_per_gb", &FleetKnobs::hbm_usd_per_gb, AtLeast(0)),
    Row("gpu_price_multiplier", &FleetKnobs::gpu_price_multiplier, Positive()),
    Row("depreciation_months", &FleetKnobs::depreciation_months, Positive()),
    Row("electricity_usd_per_kwh", &FleetKnobs::electricity_usd_per_kwh, AtLeast(0)),
    Row("gpu_utilization", &FleetKnobs::gpu_utilization, Within(0, 1, /*lo_open=*/true)),
};
inline constexpr std::string_view kFleetBlockKeys[] = {"candidates"};

}  // namespace litegpu
