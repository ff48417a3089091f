#include "replay.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "src/hw/catalog.h"
#include "src/llm/parallel.h"
#include "src/perf/model.h"
#include "src/perf/step_table.h"
#include "src/power/cluster_energy.h"
#include "src/reliability/failure_model.h"
#include "src/sched/pools.h"
#include "src/serve/knee.h"
#include "src/serve/simulator.h"
#include "src/serve/workload.h"
#include "src/silicon/cost.h"
#include "src/silicon/wafer.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace litebench {

using namespace litegpu;

void ReplayCounters::Add(const ReplayCounters& o) {
  search_calls += o.search_calls;
  table_builds += o.table_builds;
  workload_requests += o.workload_requests;
  sim_calls += o.sim_calls;
  sim_admitted += o.sim_admitted;
  decode_steps += o.decode_steps;
  fault_events += o.fault_events;
  scale_events += o.scale_events;
  pool_tasks += o.pool_tasks;
  pool_lane_s += o.pool_lane_s;
  perf_cache_hits += o.perf_cache_hits;
  perf_cache_misses += o.perf_cache_misses;
}

namespace {

// The searched deployment a serve study simulates (runner.cc ServePlatform).
struct Platform {
  bool ok = false;
  double decode_capacity_tok_s = 0.0;
  InstanceCapacity capacity;
  StepTimeTable table;
  GpuSpec gpu;
};

Platform BuildPlatform(const TransformerSpec& model, const GpuSpec& gpu,
                       const SearchOptions& options, Tracer& tracer,
                       ReplayCounters& counters) {
  Platform platform;
  platform.gpu = gpu;
  PrefillSearchResult prefill;
  DecodeSearchResult decode;
  {
    ScopedSpan span(tracer, "core.search");
    prefill = SearchPrefill(model, gpu, options);
    decode = SearchDecode(model, gpu, options);
    counters.search_calls += 2;
  }
  if (!prefill.found || !decode.found) {
    return platform;
  }
  platform.decode_capacity_tok_s = decode.best.result.tokens_per_s;

  ScopedSpan span(tracer, "perf");
  TpPlan prefill_plan = MakeTpPlan(model, prefill.best.tp_degree, options.kv_policy).value();
  TpPlan decode_plan = MakeTpPlan(model, decode.best.tp_degree, options.kv_policy).value();
  PerfModel prefill_model(model, gpu, prefill_plan, options.workload, options.engine);
  PerfModel decode_model(model, gpu, decode_plan, options.workload, options.engine);
  platform.capacity = CapacityFromPerfModels(prefill_model, prefill.best.batch, decode_model,
                                             decode.best.batch);
  platform.table =
      StepTimeTable::Build(prefill_model, decode_model, prefill.best.batch, decode.best.batch);
  counters.table_builds += 1;
  platform.ok = true;
  return platform;
}

// --- copied from src/core/runner.cc (no public equivalent) -----------------

ServeAutoscalerConfig MakeAutoscalerConfig(const AutoscalerKnobs& knobs,
                                           const InstanceCapacity& capacity) {
  ServeAutoscalerConfig config;
  config.enabled = knobs.enabled();
  config.predictive = knobs.policy == AutoscalerPolicy::kPredictive;
  config.interval_s = knobs.interval_s;
  config.delay_s = knobs.delay_s;
  config.min_prefill_instances = knobs.min_prefill_instances;
  config.max_prefill_instances = knobs.max_prefill_instances;
  config.min_decode_instances = knobs.min_decode_instances;
  config.max_decode_instances = knobs.max_decode_instances;
  config.scale_up_backlog_s = knobs.scale_up_backlog_s;
  config.scale_up_utilization = knobs.scale_up_utilization;
  config.scale_down_utilization = knobs.scale_down_utilization;
  config.forecast_window_s = knobs.forecast_window_s;
  config.headroom = knobs.headroom;
  config.prefill_tokens_per_s = capacity.prefill_tokens_per_s;
  config.decode_tokens_per_s = capacity.decode_tokens_per_s;
  return config;
}

ServeFaultConfig MakeFaultConfig(const FaultKnobs& knobs, const GpuSpec& gpu,
                                 const InstanceCapacity& capacity, uint64_t seed) {
  ServeFaultConfig config;
  config.enabled = knobs.enabled();
  if (!config.enabled) {
    return config;
  }
  FailureParams params;
  params.reference_afr = knobs.afr;
  params.per_device_floor_afr = knobs.floor_afr;
  params.mttr_hours = knobs.mttr_hours;
  params.spare_activation_minutes = knobs.spare_activation_minutes;
  config.prefill_failure_rate_per_s =
      InstanceFailureRatePerSecond(gpu, capacity.prefill_gpus, params);
  config.decode_failure_rate_per_s =
      InstanceFailureRatePerSecond(gpu, capacity.decode_gpus, params);
  config.repair_s = knobs.mttr_hours * 3600.0;
  config.spare_activation_s = knobs.spare_activation_minutes * 60.0;
  config.prefill_spares = knobs.hot_spares;
  config.decode_spares = knobs.hot_spares;
  config.retry_policy = knobs.retry_policy;
  config.retry_budget = knobs.retry_budget;
  constexpr double kSecondsPerYear = 365.0 * 24.0 * 3600.0;
  if (knobs.domain_afr > 0.0 && knobs.domain_gpus > 0.0) {
    double ref_per_gpu = params.reference_die_area_mm2 > 0.0
                             ? gpu.die_area_mm2 / params.reference_die_area_mm2
                             : 1.0;
    auto per_domain = [&](int gpus_per_instance) {
      double per_instance = std::max(1, gpus_per_instance) * ref_per_gpu;
      return std::max(1, static_cast<int>(std::floor(knobs.domain_gpus / per_instance)));
    };
    config.domains.prefill_instances_per_domain = per_domain(capacity.prefill_gpus);
    config.domains.decode_instances_per_domain = per_domain(capacity.decode_gpus);
    config.domains.failure_rate_per_s = knobs.domain_afr / kSecondsPerYear;
    config.domains.repair_s =
        (knobs.domain_mttr_hours > 0.0 ? knobs.domain_mttr_hours : knobs.mttr_hours) *
        3600.0;
  }
  if (knobs.degrade_afr > 0.0) {
    config.degraded.prefill_rate_per_s =
        knobs.degrade_afr * std::max(1, capacity.prefill_gpus) / kSecondsPerYear;
    config.degraded.decode_rate_per_s =
        knobs.degrade_afr * std::max(1, capacity.decode_gpus) / kSecondsPerYear;
    config.degraded.multiplier = knobs.degrade_multiplier;
    config.degraded.mean_duration_s = knobs.degrade_minutes * 60.0;
  }
  config.seed = FaultSubstreamSeed(seed);
  return config;
}

uint64_t FleetCandidateSeed(uint64_t study_seed, const std::string& name) {
  uint64_t h = 1469598103934665603ull;
  for (char ch : name) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ull;
  }
  return SplitMix64(study_seed ^ h).Next();
}

GpuSpec ResolveFleetGpu(const FleetCandidate& c) {
  GpuSpec base = *FindGpu(c.gpu);
  if (c.split <= 1 && c.mem_bw_multiplier == 1.0 && c.net_bw_multiplier == 1.0 &&
      c.overclock == 1.0) {
    return base;
  }
  LiteDeriveOptions options;
  options.split = c.split;
  options.mem_bw_multiplier = c.mem_bw_multiplier;
  options.net_bw_multiplier = c.net_bw_multiplier;
  options.overclock = c.overclock;
  options.max_gpus_multiplier = c.split;
  return DeriveLite(base, options).gpu;
}

// Per-point sweep seeds, masked to 53 bits like the runner's.
std::vector<uint64_t> PointSeeds(uint64_t base, size_t n) {
  std::vector<uint64_t> seeds;
  SplitMix64 stream(base);
  for (size_t i = 0; i < n; ++i) {
    seeds.push_back(stream.Next() & ((uint64_t{1} << 53) - 1));
  }
  return seeds;
}

// --- one serve point (runner.cc SimulateServePoint) -------------------------

struct PointOutcome {
  PointCounts counts;
  ReplayCounters counters;
  double arrival_rate_per_s = 0.0;
  double goodput_tokens_per_s = 0.0;
  double makespan_s = 0.0;
  int total_gpus = 0;
  bool slo_ok = false;
};

double TtftQuantile(const ServeMetrics& m, double q) {
  return m.ttft_streamed ? m.ttft_hist.Quantile(q) : m.ttft_s.Quantile(q);
}

PointOutcome SimulatePoint(const Platform& platform, const Scenario& s,
                           const ServeCommonKnobs& common, double rate, uint64_t seed,
                           Tracer& tracer) {
  ScopedSpan point_span(tracer, "serve.point");
  const std::vector<RequestClass>& classes = common.classes;
  ClassMixSummary mix = SummarizeClassMix(classes);
  double mean_prompt = classes.empty() ? s.workload.prompt_tokens : mix.mean_prompt_tokens;
  double mean_output = classes.empty() ? s.workload.output_tokens : mix.mean_output_tokens;

  ServeDeployment deployment =
      PlanServeDeployment(rate, mean_prompt, mean_output, platform.capacity,
                          common.prefill_instances, common.decode_instances);
  if (common.autoscaler.enabled()) {
    deployment.prefill_instances =
        std::min(std::max(deployment.prefill_instances, common.autoscaler.min_prefill_instances),
                 common.autoscaler.max_prefill_instances);
    deployment.decode_instances =
        std::min(std::max(deployment.decode_instances, common.autoscaler.min_decode_instances),
                 common.autoscaler.max_decode_instances);
    deployment.total_gpus = deployment.prefill_instances * platform.capacity.prefill_gpus +
                            deployment.decode_instances * platform.capacity.decode_gpus;
  }
  if (common.faults.enabled()) {
    deployment = WithHotSpares(deployment, common.faults.hot_spares, common.faults.hot_spares);
  }

  PointOutcome out;
  out.arrival_rate_per_s = rate;
  out.total_gpus = deployment.total_gpus;

  std::vector<Request> requests;
  {
    ScopedSpan span(tracer, "serve.workload");
    if (classes.empty()) {
      WorkloadSpec spec;
      spec.arrival_rate_per_s = rate;
      spec.duration_s = common.horizon_s;
      spec.median_prompt_tokens = s.workload.prompt_tokens;
      spec.prompt_sigma = common.prompt_sigma;
      spec.median_output_tokens = s.workload.output_tokens;
      spec.output_sigma = common.output_sigma;
      spec.seed = seed;
      spec.arrival = common.arrival;
      requests = GenerateWorkload(spec);
    } else {
      MultiClassWorkloadSpec spec;
      spec.duration_s = common.horizon_s;
      spec.seed = seed;
      spec.arrival = common.arrival;
      for (size_t c = 0; c < classes.size(); ++c) {
        ClassWorkload cls;
        cls.arrival_rate_per_s = rate * mix.shares[c];
        cls.median_prompt_tokens = classes[c].prompt_tokens;
        cls.prompt_sigma = classes[c].prompt_sigma;
        cls.median_output_tokens = classes[c].output_tokens;
        cls.output_sigma = classes[c].output_sigma;
        spec.classes.push_back(cls);
      }
      requests = GenerateMultiClassWorkload(spec);
    }
  }
  out.counters.workload_requests += static_cast<int64_t>(requests.size());

  ServeClusterConfig cluster;
  cluster.prefill_instances = deployment.prefill_instances;
  cluster.decode_instances = deployment.decode_instances;
  cluster.horizon_s = common.horizon_s;
  cluster.num_classes = static_cast<int>(classes.size());
  cluster.autoscaler = MakeAutoscalerConfig(common.autoscaler, platform.capacity);
  cluster.faults = MakeFaultConfig(common.faults, platform.gpu, platform.capacity, seed);
  cluster.shedding.max_queue_depth = common.faults.shed_queue_depth;
  cluster.shedding.ttft_deadline_s = common.faults.shed_ttft_deadline_s;

  ServeMetrics metrics;
  {
    ScopedSpan span(tracer, "serve.simulator");
    metrics = RunServeSimulation(requests, cluster, platform.table);
  }
  out.counters.sim_calls += 1;
  out.counters.sim_admitted += metrics.admitted_requests;
  out.counters.decode_steps += static_cast<int64_t>(metrics.tbt_s.count());
  out.counters.fault_events += static_cast<int64_t>(metrics.fault_events.size());
  out.counters.scale_events += static_cast<int64_t>(metrics.scale_events.size());
  if (common.faults.enabled()) {
    ServeClusterConfig baseline_cluster = cluster;
    baseline_cluster.faults = ServeFaultConfig{};
    ScopedSpan span(tracer, "serve.simulator.baseline");
    RunServeSimulation(requests, baseline_cluster, platform.table);
    out.counters.sim_calls += 1;
  }

  out.counts.admitted = metrics.admitted_requests;
  out.counts.completed = metrics.completed_requests;
  const bool shedding_on = cluster.shedding.enabled();
  if (common.faults.enabled() || shedding_on) {
    out.counts.dropped = metrics.dropped_requests;
    out.counts.shed = shedding_on ? metrics.shed_requests : 0;
  }
  if (common.faults.enabled()) {
    out.counts.fault_events = static_cast<int>(metrics.fault_events.size());
  }
  out.goodput_tokens_per_s = metrics.decode_tokens_per_s;
  out.makespan_s = metrics.makespan_s;

  // The percentile reads the runner makes on this point's metrics.
  ScopedSpan span(tracer, "util.stats");
  const double slo_q = common.faults.enabled() ? common.faults.target_attainment : 0.99;
  double ttft_slo = TtftQuantile(metrics, slo_q);
  double tbt_slo = metrics.tbt_s.Quantile(slo_q);
  volatile double sink = TtftQuantile(metrics, 0.5) + TtftQuantile(metrics, 0.95) +
                         TtftQuantile(metrics, 0.99) + metrics.tbt_s.Median() +
                         metrics.tbt_s.P95() + metrics.tbt_s.P99();
  for (const ServeClassMetrics& cm : metrics.per_class) {
    const SampleSet& ttft = cm.ttft_s;
    sink = sink + ttft.Quantile(0.5) + ttft.Quantile(0.95) + ttft.Quantile(0.99) +
           ttft.Quantile(slo_q) + cm.tbt_s.Median() + cm.tbt_s.P95() + cm.tbt_s.P99() +
           cm.tbt_s.Quantile(slo_q);
  }
  out.slo_ok = classes.empty() && out.counts.completed > 0 &&
               ttft_slo <= s.workload.ttft_slo_s && tbt_slo <= s.workload.tbt_slo_s;
  return out;
}

// --- studies ----------------------------------------------------------------

void ReplayServe(const Scenario& s, Tracer& tracer, ReplayResult& result) {
  if (s.serve.shards >= 2) {
    result.supported = false;
    result.unsupported_reason = "sharded serve points are not replayed";
    return;
  }
  Platform platform = BuildPlatform(*FindModel(s.ResolvedModels().front()),
                                    *FindGpu(s.ResolvedGpus().front()), s.MakeSearchOptions(),
                                    tracer, result.counters);
  if (!platform.ok) {
    return;  // the runner reports no point either
  }
  double rate = 0.0;
  if (s.serve.arrival_rate_per_s > 0.0) {
    rate = s.serve.arrival_rate_per_s;
  } else if (s.serve.arrival.kind == ArrivalKind::kTrace) {
    rate = MeanTraceRatePerS(s.serve.arrival, s.serve.horizon_s);
  } else {
    double mean_output = s.serve.classes.empty()
                             ? s.workload.output_tokens
                             : SummarizeClassMix(s.serve.classes).mean_output_tokens;
    rate = s.serve.load * platform.decode_capacity_tok_s * s.serve.decode_instances /
           mean_output;
  }
  PointOutcome point = SimulatePoint(platform, s, s.serve, rate, s.serve.seed, tracer);
  result.points.push_back(point.counts);
  result.counters.Add(point.counters);
}

void ReplayFleet(const Scenario& s, Tracer& tracer, ReplayResult& result) {
  const TransformerSpec model = *FindModel(s.ResolvedModels().front());
  const std::vector<double> grid = s.fleet.GridPoints();
  const WaferSpec wafer;
  const DefectSpec defects;
  const double depreciation_hours = s.fleet.depreciation_months * 730.0;
  std::map<std::string, Platform> platforms;

  struct Row {
    CandidateOutcome outcome;
    double joules_per_token = 0.0;
  };
  std::vector<Row> rows;
  for (const FleetCandidate& c : s.fleet.candidates) {
    Row row;
    uint64_t candidate_seed = FleetCandidateSeed(s.fleet.seed, c.name);
    GpuSpec gpu = ResolveFleetGpu(c);
    auto it = platforms.find(gpu.name);
    if (it == platforms.end()) {
      it = platforms
               .emplace(gpu.name, BuildPlatform(model, gpu, s.MakeSearchOptions(), tracer,
                                                result.counters))
               .first;
      ++result.platform_builds;
    }
    const Platform& platform = it->second;
    if (!platform.ok) {
      rows.push_back(row);
      continue;
    }
    ServeCommonKnobs common;
    common.horizon_s = s.fleet.horizon_s;
    common.prefill_instances = c.prefill_instances;
    common.decode_instances = c.decode_instances;
    common.prompt_sigma = s.fleet.prompt_sigma;
    common.output_sigma = s.fleet.output_sigma;
    common.seed = candidate_seed;
    std::vector<uint64_t> seeds = PointSeeds(candidate_seed, grid.size());
    double pool_capacity_tok_s = platform.decode_capacity_tok_s * c.decode_instances;
    double mean_output_tokens = static_cast<double>(s.workload.output_tokens);

    const int n = static_cast<int>(grid.size());
    const int lanes = std::min(ResolveThreads(s.exec.threads), std::max(n, 1));
    std::vector<PointOutcome> points;
    {
      ScopedSpan fanout(tracer, "util.thread_pool");
      int64_t t0 = NowNs();
      points = ParallelMap<PointOutcome>(s.exec.threads, n, [&](int i) {
        ScopedSpan task(tracer, "pool.task", fanout.id());
        double rate = grid[static_cast<size_t>(i)] * pool_capacity_tok_s / mean_output_tokens;
        return SimulatePoint(platform, s, common, rate, seeds[static_cast<size_t>(i)], tracer);
      });
      result.counters.pool_lane_s += lanes * static_cast<double>(NowNs() - t0) / 1e9;
      result.counters.pool_tasks += n;
    }
    for (const PointOutcome& p : points) {
      result.points.push_back(p.counts);
      result.counters.Add(p.counters);
    }

    ScopedSpan econ(tracer, "econ");
    std::vector<KneePoint> view;
    for (int i = 0; i < n; ++i) {
      const PointOutcome& p = points[static_cast<size_t>(i)];
      KneePoint kp;
      kp.arrival_rate_per_s = p.arrival_rate_per_s;
      kp.load = grid[static_cast<size_t>(i)];
      kp.slo_ok = p.slo_ok;
      kp.goodput_tokens_per_s = p.goodput_tokens_per_s;
      kp.makespan_s = p.makespan_s;
      view.push_back(kp);
    }
    KneeSelection selection = SelectKneeAndCheapest(view, /*autoscaled=*/false);
    if (selection.knee_index < 0) {
      rows.push_back(row);
      continue;
    }
    const PointOutcome& knee = points[static_cast<size_t>(selection.knee_index)];
    row.outcome.feasible = true;
    row.outcome.knee_index = selection.knee_index;
    row.outcome.knee_total_gpus = knee.total_gpus;
    row.outcome.knee_goodput_tokens_per_s = knee.goodput_tokens_per_s;
    double price = PricedGpuUsd(wafer, YieldModel::kMurphy, defects, gpu,
                                s.fleet.hbm_usd_per_gb, s.fleet.gpu_price_multiplier);
    double capex_per_hour = price * knee.total_gpus / depreciation_hours;
    FleetEnergyReport energy =
        FleetEnergyAtKnee(gpu, knee.total_gpus, s.fleet.gpu_utilization,
                          knee.goodput_tokens_per_s, s.fleet.electricity_usd_per_kwh);
    row.joules_per_token = energy.joules_per_token;
    row.outcome.usd_per_mtoken = UsdPerMtokenAtKnee(capex_per_hour, energy.opex_usd_per_hour,
                                                    knee.goodput_tokens_per_s);
    rows.push_back(row);
  }

  // Pareto frontier and winner, as the runner ranks them.
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& a = rows[i];
    if (!a.outcome.feasible) {
      continue;
    }
    bool dominated = false;
    for (size_t j = 0; j < rows.size() && !dominated; ++j) {
      const Row& b = rows[j];
      if (i == j || !b.outcome.feasible) {
        continue;
      }
      bool no_worse =
          b.outcome.usd_per_mtoken <= a.outcome.usd_per_mtoken &&
          b.joules_per_token <= a.joules_per_token &&
          b.outcome.knee_goodput_tokens_per_s >= a.outcome.knee_goodput_tokens_per_s;
      bool strictly_better =
          b.outcome.usd_per_mtoken < a.outcome.usd_per_mtoken ||
          b.joules_per_token < a.joules_per_token ||
          b.outcome.knee_goodput_tokens_per_s > a.outcome.knee_goodput_tokens_per_s;
      dominated = no_worse && strictly_better;
    }
    if (!dominated && (result.winner_index < 0 ||
                       a.outcome.usd_per_mtoken <
                           rows[static_cast<size_t>(result.winner_index)].outcome.usd_per_mtoken)) {
      result.winner_index = static_cast<int>(i);
    }
  }
  for (const Row& row : rows) {
    result.candidates.push_back(row.outcome);
  }
}

}  // namespace

ReplayResult ReplayScenario(const Scenario& scenario, Tracer& tracer) {
  ReplayResult result;
  std::string problem = scenario.Validate();
  if (!problem.empty()) {
    result.supported = false;
    result.unsupported_reason = "invalid scenario: " + problem;
    return result;
  }
  PerfCacheStats before = GlobalPerfCacheStats();
  if (scenario.study == StudyKind::kServe) {
    ReplayServe(scenario, tracer, result);
  } else if (scenario.study == StudyKind::kFleetCompare) {
    ReplayFleet(scenario, tracer, result);
  } else {
    result.supported = false;
    result.unsupported_reason = "study '" + ToString(scenario.study) + "' is not replayed";
  }
  PerfCacheStats after = GlobalPerfCacheStats();
  result.counters.perf_cache_hits = after.hits - before.hits;
  result.counters.perf_cache_misses = after.misses - before.misses;
  return result;
}

ReplayResult FactsFromReport(const RunReport& report) {
  ReplayResult facts;
  if (const auto* serve = std::get_if<ServeStudyReport>(&report.payload)) {
    PointCounts p;
    p.admitted = serve->admitted_requests;
    p.completed = serve->completed_requests;
    p.dropped = serve->faults.dropped_requests;
    p.shed = serve->faults.shed_requests;
    p.fault_events = static_cast<int>(serve->faults.events.size());
    facts.points.push_back(p);
  } else if (const auto* fleet = std::get_if<FleetCompareReport>(&report.payload)) {
    for (const auto& c : fleet->candidates) {
      CandidateOutcome o;
      o.feasible = c.feasible;
      if (c.feasible) {
        o.knee_index = c.knee_index;
        o.knee_total_gpus = c.knee_total_gpus;
        o.knee_goodput_tokens_per_s = c.knee_goodput_tokens_per_s;
        o.usd_per_mtoken = c.usd_per_mtoken;
      }
      facts.candidates.push_back(o);
    }
    facts.platform_builds = fleet->platform_builds;
    facts.winner_index = fleet->winner_index;
  } else {
    facts.supported = false;
    facts.unsupported_reason = "report carries no serve or fleet payload";
  }
  return facts;
}

std::string CompareReplay(const ReplayResult& replay, const ReplayResult& report) {
  if (!replay.supported) {
    return replay.unsupported_reason;
  }
  if (!report.supported) {
    return report.unsupported_reason;
  }
  // A fleet report states no per-point counts; its candidates carry them.
  if (report.candidates.empty() && replay.points != report.points) {
    return "serve point counts differ from the report";
  }
  if (replay.candidates != report.candidates) {
    return "fleet candidate knees/economics differ from the report";
  }
  if (replay.platform_builds != report.platform_builds ||
      replay.winner_index != report.winner_index) {
    return "fleet platform_builds or winner differ from the report";
  }
  return "";
}

}  // namespace litebench
