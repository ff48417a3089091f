#include "src/core/runner.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <new>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "src/hw/catalog.h"
#include "src/perf/model.h"
#include "src/perf/step_table.h"
#include "src/reliability/failure_model.h"
#include "src/power/cluster_energy.h"
#include "src/sched/pools.h"
#include "src/serve/knee.h"
#include "src/serve/simulator.h"
#include "src/serve/workload.h"
#include "src/silicon/cost.h"
#include "src/silicon/wafer.h"
#include "src/util/format.h"
#include "src/util/rng.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"

namespace litegpu {

namespace {

RunReport ErrorReport(const Scenario& scenario, std::string message) {
  RunReport report;
  report.scenario_name = scenario.name;
  report.study = scenario.study;
  report.ok = false;
  report.error = std::move(message);
  return report;
}

SearchStudyReport RunSearchStudy(const Scenario& s) {
  SearchStudyReport out;
  SearchOptions options = s.MakeSearchOptions();
  for (const std::string& model_name : s.ResolvedModels()) {
    for (const std::string& gpu_name : s.ResolvedGpus()) {
      // Names were validated before dispatch.
      TransformerSpec model = *FindModel(model_name);
      GpuSpec gpu = *FindGpu(gpu_name);
      SearchStudyReport::Pair pair;
      pair.model = model_name;
      pair.gpu = gpu_name;
      pair.prefill = SearchPrefill(model, gpu, options);
      pair.decode = SearchDecode(model, gpu, options);
      out.pairs.push_back(std::move(pair));
    }
  }
  return out;
}

Fig3StudyReport RunFig3Study(const Scenario& s, bool prefill) {
  Fig3StudyReport out;
  out.title = prefill ? "Figure 3a: prefill" : "Figure 3b: decode";
  std::vector<TransformerSpec> models;
  for (const std::string& name : s.ResolvedModels()) {
    models.push_back(*FindModel(name));
  }
  std::vector<GpuSpec> gpus;
  for (const std::string& name : s.ResolvedGpus()) {
    gpus.push_back(*FindGpu(name));
  }
  ExperimentOptions options;
  options.search = s.MakeSearchOptions();
  options.exec = s.exec;
  out.entries = prefill ? RunPrefillStudy(models, gpus, options, s.baseline_gpu)
                        : RunDecodeStudy(models, gpus, options, s.baseline_gpu);
  return out;
}

DesignStudyReport RunDesignStudy(const Scenario& s) {
  DesignStudyReport out;
  std::vector<GpuSpec> gpus;
  for (const std::string& name : s.ResolvedGpus()) {
    gpus.push_back(*FindGpu(name));
  }
  for (const std::string& model_name : s.ResolvedModels()) {
    DesignInputs inputs;
    inputs.model = *FindModel(model_name);
    inputs.search = s.MakeSearchOptions();
    inputs.hbm_usd_per_gb = s.design.hbm_usd_per_gb;
    inputs.gpu_price_multiplier = s.design.gpu_price_multiplier;
    inputs.amortization_years = s.design.amortization_years;
    inputs.yield_model = s.design.yield_model;
    inputs.exec = s.exec;
    DesignStudyReport::PerModel per_model;
    per_model.model = model_name;
    per_model.clusters = CompareClusters(gpus, inputs);
    out.per_model.push_back(std::move(per_model));
  }
  return out;
}

McSimStudyReport RunMcSimStudy(const Scenario& s) {
  McSimStudyReport out;
  out.gpu = s.ResolvedGpus().front();
  out.knobs = s.mcsim;
  McSimConfig config;
  config.gpus_per_instance = s.mcsim.gpus_per_instance;
  config.num_instances = s.mcsim.num_instances;
  config.num_spares = s.mcsim.num_spares;
  config.sim_years = s.mcsim.sim_years;
  config.seed = s.mcsim.seed;
  config.num_trials = s.mcsim.num_trials;
  config.exec = s.exec;
  out.result = SimulateAvailability(*FindGpu(out.gpu), config);
  return out;
}

YieldStudyReport RunYieldStudy(const Scenario& s) {
  YieldStudyReport out;
  out.knobs = s.yield;
  WaferSpec wafer;
  DefectSpec defects;
  defects.density_per_cm2 = s.yield.defect_density_per_cm2;
  defects.cluster_alpha = s.yield.cluster_alpha;
  double area = s.yield.die_area_mm2;
  int split = s.yield.split;
  for (auto model : {YieldModel::kPoisson, YieldModel::kMurphy, YieldModel::kSeeds,
                     YieldModel::kNegativeBinomial}) {
    YieldStudyReport::Row row;
    row.model = model;
    row.yield_full = DieYield(model, defects, area);
    row.yield_split = DieYield(model, defects, area / split);
    row.gain = YieldGainFromSplit(model, defects, area, split);
    double big = KnownGoodDieCost(wafer, model, defects, area);
    double small = KnownGoodDieCost(wafer, model, defects, area / split);
    row.kgd_cost_ratio = big > 0.0 ? split * small / big : 0.0;
    out.rows.push_back(row);
  }
  return out;
}

// The searched serving deployment both serve studies simulate: best phase
// configurations, their analytic per-instance capacities, and the owning
// step-time table the simulator's fast path reads. Built once per study —
// a sweep shares one platform (and one immutable, lock-free table) across
// every load point and worker.
struct ServePlatform {
  bool ok = false;
  std::string error;
  ServeSearchedConfig searched;
  InstanceCapacity capacity;
  StepTimeTable table;
  // The resolved GPU spec, kept so fault injection can area-scale its AFR.
  GpuSpec gpu;
};

// A platform build, in two halves. SearchServePlatform runs the
// configuration search on a resolved part (fleet candidates derive parts
// that are not in the catalog, so it takes the GpuSpec itself) and fills
// everything but `capacity` and `table`. TabulateServePlatform then prices
// a found platform's per-instance capacity and step-time table. The fleet
// study runs the searches in a fan-out and tabulates on its own thread.
ServePlatform SearchServePlatform(const TransformerSpec& model, const GpuSpec& gpu,
                                  const SearchOptions& options) {
  ServePlatform platform;
  platform.gpu = gpu;
  PrefillSearchResult prefill = SearchPrefill(model, gpu, options);
  DecodeSearchResult decode = SearchDecode(model, gpu, options);
  if (!prefill.found || !decode.found) {
    platform.error = "no feasible " + std::string(!prefill.found ? "prefill" : "decode") +
                     " configuration for " + model.name + " on " + gpu.name +
                     " under the scenario's SLOs";
    return platform;
  }
  platform.searched = {prefill.best.tp_degree, prefill.best.batch,
                       prefill.best.result.tokens_per_s, decode.best.tp_degree,
                       decode.best.batch, decode.best.result.tokens_per_s};
  platform.ok = true;
  return platform;
}

void TabulateServePlatform(const TransformerSpec& model, const SearchOptions& options,
                           ServePlatform& platform) {
  if (!platform.ok) {
    return;
  }
  const ServeSearchedConfig& c = platform.searched;
  TpPlan prefill_plan = MakeTpPlan(model, c.prefill_tp, options.kv_policy).value();
  TpPlan decode_plan = MakeTpPlan(model, c.decode_tp, options.kv_policy).value();
  PerfModel prefill_model(model, platform.gpu, prefill_plan, options.workload, options.engine);
  PerfModel decode_model(model, platform.gpu, decode_plan, options.workload, options.engine);
  platform.capacity = CapacityFromPerfModels(prefill_model, c.prefill_batch, decode_model,
                                             c.decode_batch);
  // The table owns its step times, so the PerfModels can die here.
  platform.table =
      StepTimeTable::Build(prefill_model, decode_model, c.prefill_batch, c.decode_batch);
}

ServePlatform BuildServePlatform(const std::string& model_name, const std::string& gpu_name,
                                 const SearchOptions& options) {
  const TransformerSpec model = *FindModel(model_name);
  ServePlatform platform = SearchServePlatform(model, *FindGpu(gpu_name), options);
  TabulateServePlatform(model, options, platform);
  return platform;
}

// The class-weighted mean prompt/output lengths a serve study plans
// capacity with: the scenario workload's lengths in single-class mode, the
// mix's weighted means otherwise.
struct MeanWorkload {
  double prompt_tokens = 0.0;
  double output_tokens = 0.0;
};

MeanWorkload MeanFromMix(const WorkloadParams& workload,
                         const std::vector<RequestClass>& classes,
                         const ClassMixSummary& mix) {
  MeanWorkload mean;
  if (classes.empty()) {
    mean.prompt_tokens = workload.prompt_tokens;
    mean.output_tokens = workload.output_tokens;
  } else {
    mean.prompt_tokens = mix.mean_prompt_tokens;
    mean.output_tokens = mix.mean_output_tokens;
  }
  return mean;
}

MeanWorkload MeanWorkloadFor(const Scenario& s, const std::vector<RequestClass>& classes) {
  return MeanFromMix(s.workload, classes, SummarizeClassMix(classes));
}

// Builds the simulator's resolved autoscaler config from the scenario's
// knobs plus the platform's analytic per-instance throughputs.
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

// The reliability-model parameters a faults block implies; shared by the
// injected rates and the closed-form availability prediction so the
// cross-check compares like against like.
FailureParams FaultFailureParams(const FaultKnobs& knobs) {
  FailureParams params;
  params.reference_afr = knobs.afr;
  params.per_device_floor_afr = knobs.floor_afr;
  params.mttr_hours = knobs.mttr_hours;
  params.spare_activation_minutes = knobs.spare_activation_minutes;
  return params;
}

// Builds the simulator's resolved fault config from the scenario's knobs
// plus the platform's GPU spec and per-instance GPU counts: the per-pool
// hazard is the area-scaled per-GPU rate times the instances' GPU count, so
// H100-sized and Lite-sized pools churn differently from the same knobs.
// The fault RNG substream derives from the point's workload seed with a
// distinct mix, so enabling faults never perturbs arrivals or lengths.
ServeFaultConfig MakeFaultConfig(const FaultKnobs& knobs, const GpuSpec& gpu,
                                 const InstanceCapacity& capacity, uint64_t seed) {
  ServeFaultConfig config;
  config.enabled = knobs.enabled();
  if (!config.enabled) {
    return config;
  }
  FailureParams params = FaultFailureParams(knobs);
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
    // Silicon-normalized domain shape: domain_gpus is a budget in
    // reference-area (H100-class) dies, and an instance occupies
    // tp x (die area / reference area) of it — so the same domain packs
    // more small-die instances, which is exactly the correlated-blast-radius
    // asymmetry the study measures.
    double ref_per_gpu =
        params.reference_die_area_mm2 > 0.0
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
    // Degrade hazard scales with instance GPU count like failures do (any
    // member device can start throttling the whole instance).
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

// A run's recorded TTFTs: the whole run's (ServeMetrics) or one class's
// (ServeClassMetrics). They sit in the exact SampleSet normally and in the
// streamed fixed-bin histogram when the point ran sharded (O(bins) memory;
// quantiles and counts within one bin width). Every consumer (the report
// percentiles, the SLO verdicts, the attainment fractions) reads through
// here, so none depends on the execution mode.
struct TtftRead {
  template <typename Metrics>
  TtftRead(const Metrics& m, bool streamed)
      : samples(m.ttft_s), hist(m.ttft_hist), streamed(streamed) {}

  double Quantile(double q) const {
    return streamed ? hist.Quantile(q) : samples.Quantile(q);
  }
  double Count() const {
    return static_cast<double>(streamed ? hist.count() : samples.count());
  }
  // TTFTs at or below `slo`: exact over the samples, bin-interpolated over
  // the histogram.
  double Within(double slo) const {
    if (streamed) {
      return hist.CountAtOrBelow(slo);
    }
    const std::vector<double>& all = samples.samples();
    return static_cast<double>(
        std::count_if(all.begin(), all.end(), [slo](double t) { return t <= slo; }));
  }

  const SampleSet& samples;
  const LatencyHistogram& hist;
  bool streamed;
};

// Fills what a point and a request class measure alike, from the run's or
// the class's metrics.
template <typename Metrics>
void FillOutcome(const Metrics& m, bool ttft_streamed, double goodput_tokens_per_s,
                 ServeOutcomeReport& out) {
  TtftRead ttft(m, ttft_streamed);
  out.admitted_requests = m.admitted_requests;
  out.completed_requests = m.completed_requests;
  out.in_flight_at_horizon = m.in_flight_at_horizon;
  out.ttft_p50_s = ttft.Quantile(0.5);
  out.ttft_p95_s = ttft.Quantile(0.95);
  out.ttft_p99_s = ttft.Quantile(0.99);
  out.tbt_p50_s = m.tbt_s.Median();
  out.tbt_p95_s = m.tbt_s.P95();
  out.tbt_p99_s = m.tbt_s.P99();
  out.goodput_tokens_per_s = goodput_tokens_per_s;
}

// The SLO verdict of a run or of one class, judged at quantile `q`. A run
// that completed nothing proves nothing: its vacuously zero percentiles
// never pass, so an empty point cannot become a knee.
template <typename Metrics>
bool MeetsSlos(const Metrics& m, bool ttft_streamed, double q, double ttft_slo_s,
               double tbt_slo_s) {
  return m.completed_requests > 0 && TtftRead(m, ttft_streamed).Quantile(q) <= ttft_slo_s &&
         m.tbt_s.Quantile(q) <= tbt_slo_s;
}

// Global request-level TTFT SLO attainment: the fraction of completed
// requests whose TTFT met their SLO (each class's own in a mix). The
// transient counterpart of the p99 pass/fail: an autoscaled day can pass
// the steady-state percentiles while a burst misses 10% of requests.
double GlobalTtftAttainment(const ServeMetrics& m, double ttft_slo_s,
                            const std::vector<ServeClassReport>& classes) {
  double total = 0.0;
  double within = 0.0;
  auto add = [&](const TtftRead& ttft, double slo) {
    total += ttft.Count();
    within += ttft.Within(slo);
  };
  if (classes.empty()) {
    add(TtftRead(m, m.ttft_streamed), ttft_slo_s);
  }
  for (size_t c = 0; c < classes.size(); ++c) {
    add(TtftRead(m.per_class[c], m.ttft_streamed), classes[c].ttft_slo_s);
  }
  return total > 0.0 ? within / total : 0.0;
}

// A serve point's offered traffic: its load, arrival rate and workload seed.
struct ServeOffer {
  double load = 0.0;
  double arrival_rate_per_s = 0.0;
  uint64_t seed = 0;
};

// Expands a grid (loads as fractions of the decode pool's analytic
// capacity, or arrival rates when `rate_grid`) into one offer per index.
// The seeds are one SplitMix64 stream drawn serially, one per index, so a
// point's stream depends neither on the thread count nor on which other
// points run. Each is masked to 53 bits so the reported seed survives
// JSON's double-backed numbers exactly: `litegpu serve --rate <reported>
// --seed <reported>` reproduces the point bit-for-bit. The serve-sweep and
// every fleet candidate expand their grids here.
std::vector<ServeOffer> ExpandServeGrid(const std::vector<double>& grid, bool rate_grid,
                                        double pool_capacity_tok_s,
                                        double mean_output_tokens, uint64_t seed) {
  std::vector<ServeOffer> offers(grid.size());
  SplitMix64 seed_stream(seed);
  for (size_t i = 0; i < grid.size(); ++i) {
    ServeOffer& o = offers[i];
    o.seed = seed_stream.Next() & ((uint64_t{1} << 53) - 1);
    if (rate_grid) {
      o.arrival_rate_per_s = grid[i];
      o.load = pool_capacity_tok_s > 0.0
                   ? grid[i] * mean_output_tokens / pool_capacity_tok_s
                   : 0.0;
    } else {
      o.load = grid[i];
      o.arrival_rate_per_s = grid[i] * pool_capacity_tok_s / mean_output_tokens;
    }
  }
  return offers;
}

// Simulates one offered-load point on the platform's step-time table: plan
// the deployment (from the class-weighted mean workload), generate the
// point's workload from its own seed — one substream per request class,
// shaped by the scenario's arrival process — run the fast-path simulation
// (with the autoscaler when the knobs enable one), and summarize globally
// and per class. The single shared body for the serve study, every point
// of a sweep and every point a fleet candidate scans: a load simulated
// standalone and inside a sweep cannot drift apart. The offer's seed is
// the point's own stream, not common.seed.
ServePointReport SimulateServePoint(const ServePlatform& platform, const Scenario& s,
                                    const ServeCommonKnobs& common, const ServeOffer& offer) {
  const std::vector<RequestClass>& classes = common.classes;
  const double arrival_rate_per_s = offer.arrival_rate_per_s;
  const uint64_t seed = offer.seed;
  ServePointReport p;
  p.load = offer.load;
  p.arrival_rate_per_s = arrival_rate_per_s;
  p.seed = seed;
  ClassMixSummary mix = SummarizeClassMix(classes);
  MeanWorkload mean = MeanFromMix(s.workload, classes, mix);
  p.analytic_tokens_per_s = arrival_rate_per_s * mean.output_tokens;

  ServeDeployment deployment = PlanServeDeployment(
      arrival_rate_per_s, mean.prompt_tokens, mean.output_tokens, platform.capacity,
      common.prefill_instances, common.decode_instances);
  if (common.autoscaler.enabled()) {
    // The planned deployment is only the initial pool; clamp it into the
    // policy's bounds and recompute the GPU count accordingly.
    deployment.prefill_instances =
        std::min(std::max(deployment.prefill_instances,
                          common.autoscaler.min_prefill_instances),
                 common.autoscaler.max_prefill_instances);
    deployment.decode_instances =
        std::min(std::max(deployment.decode_instances,
                          common.autoscaler.min_decode_instances),
                 common.autoscaler.max_decode_instances);
    deployment.total_gpus =
        deployment.prefill_instances * platform.capacity.prefill_gpus +
        deployment.decode_instances * platform.capacity.decode_gpus;
  }
  if (common.faults.enabled()) {
    // Hot spares are real devices the deployment pays for.
    deployment = WithHotSpares(deployment, common.faults.hot_spares,
                               common.faults.hot_spares);
  }
  p.prefill_instances = deployment.prefill_instances;
  p.decode_instances = deployment.decode_instances;
  p.total_gpus = deployment.total_gpus;

  // The point's workload over the full horizon from the point's seed; a
  // classless point is a one-class mix. Every run of the point pulls its
  // own RequestStream over it.
  MultiClassWorkloadSpec workload;
  workload.duration_s = common.horizon_s;
  workload.seed = seed;
  workload.arrival = common.arrival;
  if (classes.empty()) {
    ClassWorkload cls;
    cls.arrival_rate_per_s = arrival_rate_per_s;
    cls.median_prompt_tokens = s.workload.prompt_tokens;
    cls.prompt_sigma = common.prompt_sigma;
    cls.median_output_tokens = s.workload.output_tokens;
    cls.output_sigma = common.output_sigma;
    workload.classes.push_back(cls);
  }
  for (size_t c = 0; c < classes.size(); ++c) {
    ClassWorkload cls;
    cls.arrival_rate_per_s = arrival_rate_per_s * mix.shares[c];
    cls.median_prompt_tokens = classes[c].prompt_tokens;
    cls.prompt_sigma = classes[c].prompt_sigma;
    cls.median_output_tokens = classes[c].output_tokens;
    cls.output_sigma = classes[c].output_sigma;
    workload.classes.push_back(cls);
  }

  ServeClusterConfig cluster;
  cluster.prefill_instances = deployment.prefill_instances;
  cluster.decode_instances = deployment.decode_instances;
  cluster.horizon_s = common.horizon_s;
  cluster.num_classes = static_cast<int>(classes.size());
  cluster.autoscaler = MakeAutoscalerConfig(common.autoscaler, platform.capacity);
  cluster.faults =
      MakeFaultConfig(common.faults, platform.gpu, platform.capacity, seed);
  // Admission control works with or without fault injection (overload can
  // be purely traffic-driven), so it lives on the cluster, not the fault
  // config.
  cluster.shedding.max_queue_depth = common.faults.shed_queue_depth;
  cluster.shedding.ttft_deadline_s = common.faults.shed_ttft_deadline_s;

  ServeMetrics metrics;
  if (common.shards >= 2) {
    // Sharded execution: split the horizon into `shards` independent
    // sub-horizon replications of the same stationary process, run them
    // across the thread pool, and merge in shard-index order. Scenario
    // validation already rejected everything time-inhomogeneous
    // (autoscaler, faults, diurnal/trace arrivals). TTFTs stream into
    // fixed-bin histograms so a shard's memory is O(bins), not
    // O(requests); every shard uses the same full-horizon histogram range
    // so the merged bins line up. Shard i draws its sub-horizon from its
    // own SplitMix64 substream.
    const int n = common.shards;
    cluster.horizon_s = common.horizon_s / static_cast<double>(n);
    cluster.stream_ttft = true;
    std::vector<ServeMetrics> shard_metrics = ParallelMap<ServeMetrics>(
        s.exec.threads, n, [&](int i) {
          MultiClassWorkloadSpec shard = workload;
          shard.duration_s = cluster.horizon_s;
          shard.seed = ShardSubstreamSeed(seed, static_cast<size_t>(i));
          RequestStream stream(shard);
          return RunServeSimulation(stream, cluster, platform.table);
        });
    metrics = MergeServeShardMetrics(cluster, shard_metrics);
  } else {
    RequestStream stream(workload);
    metrics = RunServeSimulation(stream, cluster, platform.table);
  }

  const bool shedding_on = cluster.shedding.enabled();
  if (common.faults.enabled() || shedding_on) {
    ServeFaultReport& f = p.faults;
    f.enabled = common.faults.enabled();
    f.domains_enabled = cluster.faults.domains.enabled();
    f.degraded_enabled = cluster.faults.degraded.enabled();
    f.shedding_enabled = shedding_on;
    f.retry_policy = ToString(common.faults.retry_policy);
    f.retried_requests = metrics.retried_requests;
    f.dropped_requests = metrics.dropped_requests;
    f.lost_tokens = metrics.lost_tokens;
    f.goodput_tokens_per_s = metrics.decode_tokens_per_s;
    if (shedding_on) {
      f.shed_requests = metrics.shed_requests;
      f.shed_events = std::move(metrics.shed_events);
    }
    // Stability verdict: the largest outage's backlog drained inside the
    // horizon (vacuously stable when nothing was lost). A metastable retry
    // storm keeps the queues non-empty to the end of the run and fails it.
    f.time_to_drain_s = metrics.time_to_drain_s;
    f.stable = metrics.largest_outage_time_s < 0.0 ||
               (metrics.time_to_drain_s >= 0.0 &&
                metrics.largest_outage_time_s + metrics.time_to_drain_s <=
                    common.horizon_s);
  }
  if (common.faults.enabled()) {
    // Goodput under churn needs a fault-free yardstick: the same requests
    // on the same (initial) pools with injection off (shedding kept, so
    // the comparison isolates the faults). A second stream over the same
    // spec regenerates them from the seed, in the same order.
    ServeClusterConfig baseline_cluster = cluster;
    baseline_cluster.faults = ServeFaultConfig{};
    RequestStream replay(workload);
    ServeMetrics baseline = RunServeSimulation(replay, baseline_cluster, platform.table);

    ServeFaultReport& f = p.faults;
    f.baseline_goodput_tokens_per_s = baseline.decode_tokens_per_s;
    f.goodput_ratio = f.baseline_goodput_tokens_per_s > 0.0
                          ? f.goodput_tokens_per_s / f.baseline_goodput_tokens_per_s
                          : 0.0;
    // One pass over the time-ordered fault log fills the per-pool counters
    // and the correlated-domain aggregates. A domain outage appears as
    // consecutive kFailure entries sharing (time, pool, domain); the group
    // is ONE event for the worst-single-event and per-domain columns.
    std::map<int, ServeFaultDomainReport> prefill_domains, decode_domains;
    double group_lost = 0.0;
    double group_time = -1.0;
    int group_domain = -1;
    ScalePool group_pool = ScalePool::kPrefill;
    auto flush_group = [&]() {
      if (group_domain < 0) {
        return;
      }
      ServeFaultPoolReport& pool =
          group_pool == ScalePool::kPrefill ? f.prefill : f.decode;
      pool.domain_failures += 1;
      if (group_lost > pool.worst_event_lost_tokens) {
        pool.worst_event_lost_tokens = group_lost;
      }
      auto& dmap =
          group_pool == ScalePool::kPrefill ? prefill_domains : decode_domains;
      ServeFaultDomainReport& dr = dmap[group_domain];
      dr.domain = group_domain;
      dr.failures += 1;
      dr.lost_tokens += group_lost;
      group_domain = -1;
      group_lost = 0.0;
    };
    for (const FaultEvent& e : metrics.fault_events) {
      ServeFaultPoolReport& pool =
          e.pool == ScalePool::kPrefill ? f.prefill : f.decode;
      if (e.kind == FaultEventKind::kFailure) {
        pool.failures += 1;
        pool.lost_tokens += e.lost_tokens;
        if (e.domain >= 0) {
          if (e.domain != group_domain || e.time_s != group_time ||
              e.pool != group_pool) {
            flush_group();
            group_domain = e.domain;
            group_time = e.time_s;
            group_pool = e.pool;
          }
          group_lost += e.lost_tokens;
          auto& dmap =
              e.pool == ScalePool::kPrefill ? prefill_domains : decode_domains;
          ServeFaultDomainReport& dr = dmap[e.domain];
          dr.domain = e.domain;
          dr.instance_failures += 1;
        } else {
          flush_group();
          if (e.lost_tokens > pool.worst_event_lost_tokens) {
            pool.worst_event_lost_tokens = e.lost_tokens;
          }
        }
      } else {
        if (e.kind == FaultEventKind::kSpareActivation) {
          pool.spare_activations += 1;
        } else if (e.kind == FaultEventKind::kDegradeStart) {
          pool.degrade_events += 1;
        }
        flush_group();
      }
    }
    flush_group();
    f.prefill.downtime_s = metrics.prefill_fault_downtime_s;
    f.decode.downtime_s = metrics.decode_fault_downtime_s;
    // Blast radius: mean tokens of in-flight work one failure destroys,
    // as a fraction of the output tokens the run actually served.
    for (ServeFaultPoolReport* pool : {&f.prefill, &f.decode}) {
      if (pool->failures > 0 && metrics.output_tokens > 0.0) {
        pool->blast_radius_fraction =
            pool->lost_tokens / pool->failures / metrics.output_tokens;
      }
      if (metrics.output_tokens > 0.0) {
        pool->worst_event_fraction =
            pool->worst_event_lost_tokens / metrics.output_tokens;
      }
    }
    if (f.domains_enabled && metrics.output_tokens > 0.0) {
      for (auto* dmap : {&prefill_domains, &decode_domains}) {
        ServeFaultPoolReport& pool =
            dmap == &prefill_domains ? f.prefill : f.decode;
        for (auto& [id, dr] : *dmap) {
          dr.blast_radius_fraction = dr.lost_tokens / metrics.output_tokens;
          pool.domains.push_back(dr);
        }
      }
    }
    f.prefill.availability_measured =
        metrics.prefill_instance_seconds > 0.0
            ? 1.0 - f.prefill.downtime_s / metrics.prefill_instance_seconds
            : 1.0;
    f.decode.availability_measured =
        metrics.decode_instance_seconds > 0.0
            ? 1.0 - f.decode.downtime_s / metrics.decode_instance_seconds
            : 1.0;
    FailureParams params = FaultFailureParams(common.faults);
    f.prefill.availability_predicted = InstanceAvailabilityWithSpares(
        platform.gpu, platform.capacity.prefill_gpus, p.prefill_instances,
        common.faults.hot_spares, params);
    f.decode.availability_predicted = InstanceAvailabilityWithSpares(
        platform.gpu, platform.capacity.decode_gpus, p.decode_instances,
        common.faults.hot_spares, params);
    if (f.domains_enabled) {
      // Correlated availability: the independent-churn closed form times
      // the steady-state up fraction of a domain member,
      // 1 / (1 + rate * repair) per the usual M/M availability argument.
      double ratio = cluster.faults.domains.failure_rate_per_s *
                     cluster.faults.domains.repair_s;
      double domain_up = 1.0 / (1.0 + ratio);
      f.prefill.availability_correlated = f.prefill.availability_predicted * domain_up;
      f.decode.availability_correlated = f.decode.availability_predicted * domain_up;
    }
    if (f.degraded_enabled) {
      f.prefill.degraded_instance_s = metrics.prefill_degraded_instance_s;
      f.decode.degraded_instance_s = metrics.decode_degraded_instance_s;
      f.degraded_goodput_tokens_per_s =
          metrics.decode_degraded_instance_s > 0.0
              ? metrics.degraded_output_tokens / metrics.decode_degraded_instance_s
              : 0.0;
    }
    f.events = std::move(metrics.fault_events);
  }

  const bool streamed = metrics.ttft_streamed;
  FillOutcome(metrics, streamed, metrics.decode_tokens_per_s, p);
  p.capacity_agreement = p.analytic_tokens_per_s > 0.0
                             ? p.goodput_tokens_per_s / p.analytic_tokens_per_s
                             : 0.0;
  p.prefill_utilization = metrics.prefill_utilization;
  p.decode_utilization = metrics.decode_utilization;
  p.mean_decode_batch = metrics.mean_decode_batch;
  p.makespan_s = metrics.makespan_s;

  // SLO verdicts are judged at p99 normally; under fault injection, at the
  // faults block's target_attainment quantile — "meets the SLOs under
  // churn" at the declared percentile. The default 0.99 makes the two
  // criteria coincide, so fault-free sweeps are unchanged bit-for-bit.
  // With a class mix the point meets its SLOs only when EVERY class does.
  const double slo_q =
      common.faults.enabled() ? common.faults.target_attainment : 0.99;
  p.slo_ok = classes.empty() ? MeetsSlos(metrics, streamed, slo_q, s.workload.ttft_slo_s,
                                         s.workload.tbt_slo_s)
                             : p.completed_requests > 0;
  for (size_t c = 0; c < classes.size(); ++c) {
    const ServeClassMetrics& cm = metrics.per_class[c];
    ServeClassReport cls;
    cls.name = classes[c].name;
    cls.share = mix.shares[c];
    cls.arrival_rate_per_s = arrival_rate_per_s * mix.shares[c];
    cls.ttft_slo_s =
        classes[c].ttft_slo_s > 0.0 ? classes[c].ttft_slo_s : s.workload.ttft_slo_s;
    cls.tbt_slo_s =
        classes[c].tbt_slo_s > 0.0 ? classes[c].tbt_slo_s : s.workload.tbt_slo_s;
    FillOutcome(cm, streamed,
                metrics.makespan_s > 0.0 ? cm.output_tokens / metrics.makespan_s : 0.0, cls);
    TtftRead ttft(cm, streamed);
    cls.ttft_attainment =
        ttft.Count() > 0.0 ? ttft.Within(cls.ttft_slo_s) / ttft.Count() : 0.0;
    cls.slo_ok = MeetsSlos(cm, streamed, slo_q, cls.ttft_slo_s, cls.tbt_slo_s);
    p.slo_ok = p.slo_ok && cls.slo_ok;
    p.classes.push_back(std::move(cls));
  }

  if (common.autoscaler.enabled()) {
    p.scale.enabled = true;
    p.scale.policy = ToString(common.autoscaler.policy);
    for (const ScaleEvent& event : metrics.scale_events) {
      (event.delta > 0 ? p.scale.scale_ups : p.scale.scale_downs) += 1;
    }
    p.scale.prefill_instance_hours = metrics.prefill_instance_seconds / 3600.0;
    p.scale.decode_instance_hours = metrics.decode_instance_seconds / 3600.0;
    p.scale.gpu_hours =
        (metrics.prefill_instance_seconds * platform.capacity.prefill_gpus +
         metrics.decode_instance_seconds * platform.capacity.decode_gpus) /
        3600.0;
    p.scale.peak_prefill_instances = metrics.peak_prefill_instances;
    p.scale.peak_decode_instances = metrics.peak_decode_instances;
    p.scale.final_prefill_instances = metrics.final_prefill_instances;
    p.scale.final_decode_instances = metrics.final_decode_instances;
    p.scale.ttft_attainment =
        GlobalTtftAttainment(metrics, s.workload.ttft_slo_s, p.classes);
    p.scale.events = std::move(metrics.scale_events);
  }
  return p;
}

// Runs the end-to-end serving simulation for the scenario's (model, GPU)
// pair: search the best phase configurations, build the step-time table,
// and simulate one point at the offered load. Fails (non-empty *error)
// when no feasible configuration exists under the SLOs, or when the
// horizon admits no request: an all-zero report would read as a result.
ServeStudyReport RunServeStudy(const Scenario& s, std::string* error) {
  ServeStudyReport out;
  out.model = s.ResolvedModels().front();
  out.gpu = s.ResolvedGpus().front();
  out.knobs = s.serve;

  ServePlatform platform = BuildServePlatform(out.model, out.gpu, s.MakeSearchOptions());
  if (!platform.ok) {
    *error = platform.error;
    return out;
  }
  out.searched = platform.searched;

  // Offered load: explicit rate, or `load` x the decode pool's analytic
  // capacity converted to requests/s via the (class-weighted) mean output
  // length. A trace replay's effective rate comes from the trace itself —
  // arrivals over the horizon — so planning and reporting see the demand
  // the replay actually offers.
  ServeOffer offer;
  offer.seed = s.serve.seed;
  if (s.serve.arrival_rate_per_s > 0.0) {
    offer.arrival_rate_per_s = s.serve.arrival_rate_per_s;
  } else if (s.serve.arrival.kind == ArrivalKind::kTrace) {
    offer.arrival_rate_per_s = MeanTraceRatePerS(s.serve.arrival, s.serve.horizon_s);
  } else {
    offer.load = s.serve.load;
    offer.arrival_rate_per_s = s.serve.load * out.searched.decode_capacity_tok_s *
                               s.serve.decode_instances /
                               MeanWorkloadFor(s, s.serve.classes).output_tokens;
  }

  ServePointReport& point = out;
  point = SimulateServePoint(platform, s, s.serve, offer);
  if (out.admitted_requests == 0) {
    std::ostringstream message;
    message << "the serve study admitted no requests: serve.horizon_s = " << s.serve.horizon_s
            << " s at " << offer.arrival_rate_per_s
            << " req/s; lengthen the horizon or raise the offered load";
    *error = message.str();
  }
  return out;
}

// Runs the serve-sweep study: one BuildServePlatform, then every grid point
// as an independent simulation fanned across the thread pool. The grid's
// offers (seeds included) expand serially up front, and workers write only
// their own point slot, so the report is bit-identical at any thread count.
ServeSweepReport RunServeSweepStudy(const Scenario& s, std::string* error) {
  ServeSweepReport out;
  out.model = s.ResolvedModels().front();
  out.gpu = s.ResolvedGpus().front();
  out.knobs = s.sweep;
  out.ttft_slo_s = s.workload.ttft_slo_s;
  out.tbt_slo_s = s.workload.tbt_slo_s;

  ServePlatform platform = BuildServePlatform(out.model, out.gpu, s.MakeSearchOptions());
  if (!platform.ok) {
    *error = platform.error;
    return out;
  }
  out.searched = platform.searched;

  const std::vector<ServeOffer> offers =
      ExpandServeGrid(s.sweep.GridPoints(), s.sweep.IsRateGrid(),
                      out.searched.decode_capacity_tok_s * s.sweep.decode_instances,
                      MeanWorkloadFor(s, s.sweep.classes).output_tokens, s.sweep.seed);
  out.points = ParallelMap<ServePointReport>(
      s.exec.threads, static_cast<int>(offers.size()), [&](int i) {
        return SimulateServePoint(platform, s, s.sweep, offers[static_cast<size_t>(i)]);
      });

  // Knee + (autoscaled) cheapest selection via the shared helper, so the
  // sweep report and the fleet-compare study pick by the same rule.
  std::vector<KneePoint> knee_view;
  knee_view.reserve(out.points.size());
  for (const auto& p : out.points) {
    KneePoint kp;
    kp.arrival_rate_per_s = p.arrival_rate_per_s;
    kp.load = p.load;
    kp.slo_ok = p.slo_ok;
    kp.goodput_tokens_per_s = p.goodput_tokens_per_s;
    kp.makespan_s = p.makespan_s;
    kp.gpu_hours = p.scale.gpu_hours;
    knee_view.push_back(kp);
  }
  KneeSelection selection =
      SelectKneeAndCheapest(knee_view, s.sweep.autoscaler.enabled());
  out.knee_index = selection.knee_index;
  out.knee_load = selection.knee_load;
  out.knee_goodput_tokens_per_s = selection.knee_goodput_tokens_per_s;
  out.cheapest_index = selection.cheapest_index;
  out.cheapest_tokens_per_gpu_hour = selection.cheapest_tokens_per_gpu_hour;
  return out;
}

DeriveStudyReport RunDeriveStudy(const Scenario& s) {
  DeriveStudyReport out;
  LiteDeriveOptions options;
  options.split = s.derive.split;
  options.mem_bw_multiplier = s.derive.mem_bw_multiplier;
  options.net_bw_multiplier = s.derive.net_bw_multiplier;
  options.overclock = s.derive.overclock;
  options.max_gpus_multiplier = s.derive.split;
  out.result = DeriveLite(*FindGpu(s.derive.base_gpu), options);
  return out;
}

// A candidate's sweep-stream base: the study seed mixed with an FNV-1a
// hash of the candidate's (unique) name. Name-derived, not index-derived,
// so reordering the catalog leaves every candidate's points bit-identical
// — the Pareto set cannot depend on catalog order.
uint64_t FleetCandidateSeed(uint64_t study_seed, const std::string& name) {
  uint64_t h = 1469598103934665603ull;
  for (char ch : name) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ull;
  }
  return SplitMix64(study_seed ^ h).Next();
}

// The candidate's resolved part: the catalog base as-is, or the DeriveLite
// derivation the candidate's split/multipliers describe (the derive
// study's exact recipe, max cluster size scaling with the split).
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

// A resolved part's identity for platform sharing: every GpuSpec field, so
// two candidates share a search and a step-time table only when their specs
// are equal. The name alone is not enough: DeriveLite names a part with
// rounded multipliers, so 2.24x and 2.25x memory bandwidth would collide.
using FleetPartKey = std::tuple<std::string, double, int, double, double, double, double, int,
                                double, int, double, double, int>;

FleetPartKey MakeFleetPartKey(const GpuSpec& g) {
  return {g.name,
          g.flops,
          g.sm_count,
          g.clock_ghz,
          g.mem_capacity_bytes,
          g.mem_bw_bytes_per_s,
          g.net_bw_bytes_per_s,
          g.max_gpus,
          g.die_area_mm2,
          g.dies_per_package,
          g.tdp_watts,
          g.transistors_billion,
          g.year};
}

// One fleet candidate's knee scan: the first SLO-meeting point in the
// grid's KneeScanOrder (knee_index -1 when none is) and how many points it
// simulated to find it.
struct FleetKneeScan {
  int knee_index = -1;
  ServePointReport knee;
  int points_simulated = 0;
};

// Runs the fleet-compare study: each candidate's knee on the shared load
// grid (candidates resolving to the same part share one platform build),
// joined with the silicon-cost and cluster-power models, then the Pareto
// frontier over ($/Mtok, J/token, goodput). Three phases, one fan-out each
// at most:
//   1. resolve, serially: each candidate's part, deduplicated on the whole
//      GpuSpec (MakeFleetPartKey), in first-seen order;
//   2. search the distinct parts in one ParallelMap, each search pinned
//      serial (src/util/exec_policy.h: a parallel driver forces the sweeps
//      inside it serial), then tabulate each found part's step times;
//   3. scan the candidates in one ParallelMap, each serially from the top
//      of KneeScanOrder, stopping at its first SLO-meeting point: every
//      point keeps its own per-index seed, so a point's result does not
//      depend on which other points ran, and the first SLO-meeting point
//      in the scan is the knee a full-grid sweep would pick. An infeasible
//      candidate simulates its whole grid.
// Workers write only their own slot, so the report is bit-identical at any
// thread count.
FleetCompareReport RunFleetCompareStudy(const Scenario& s) {
  FleetCompareReport out;
  out.model = s.ResolvedModels().front();
  out.knobs = s.fleet;
  out.ttft_slo_s = s.workload.ttft_slo_s;
  out.tbt_slo_s = s.workload.tbt_slo_s;

  const TransformerSpec model = *FindModel(out.model);
  const std::vector<double> grid = s.fleet.GridPoints();
  const WaferSpec wafer;
  const DefectSpec defects;
  const double depreciation_hours = s.fleet.depreciation_months * 730.0;
  const double mean_output_tokens = static_cast<double>(s.workload.output_tokens);
  const std::vector<FleetCandidate>& candidates = s.fleet.candidates;

  // Candidates resolving to the same part share one search + step-time
  // table; the report counts the builds so tests and the bench can gate
  // the sharing.
  std::map<FleetPartKey, size_t> part_index;
  std::vector<GpuSpec> parts;
  std::vector<size_t> candidate_part;
  for (const FleetCandidate& c : candidates) {
    GpuSpec gpu = ResolveFleetGpu(c);
    auto [it, added] = part_index.emplace(MakeFleetPartKey(gpu), parts.size());
    if (added) {
      parts.push_back(std::move(gpu));
    }
    candidate_part.push_back(it->second);
  }
  out.platform_builds = static_cast<int>(parts.size());
  SearchOptions search = s.MakeSearchOptions();
  search.exec.threads = 1;
  std::vector<ServePlatform> platforms = ParallelMap<ServePlatform>(
      s.exec.threads, static_cast<int>(parts.size()),
      [&](int i) { return SearchServePlatform(model, parts[static_cast<size_t>(i)], search); });
  // The tables live until the scans end, so they are priced here rather
  // than in the workers: memory a worker allocates stays in its thread's
  // heap arena, beside the simulations that arena later serves, which
  // raises the study's peak RSS. A table costs one evaluation per batch.
  for (ServePlatform& platform : platforms) {
    TabulateServePlatform(model, search, platform);
  }
  auto platform_of = [&](size_t ci) -> const ServePlatform& {
    return platforms[candidate_part[ci]];
  };

  for (size_t ci = 0; ci < candidates.size(); ++ci) {
    const FleetCandidate& c = candidates[ci];
    const ServePlatform& platform = platform_of(ci);
    FleetCompareReport::Candidate row;
    row.name = c.name;
    row.base_gpu = c.gpu;
    row.split = c.split;
    row.seed = FleetCandidateSeed(s.fleet.seed, c.name);
    row.gpu = platform.gpu.name;
    if (platform.ok) {
      row.searched = platform.searched;
    } else {
      row.error = platform.error;
    }
    out.candidates.push_back(std::move(row));
  }

  std::vector<FleetKneeScan> scans = ParallelMap<FleetKneeScan>(
      s.exec.threads, static_cast<int>(candidates.size()), [&](int ci) {
        FleetKneeScan scan;
        const FleetCandidate& c = candidates[static_cast<size_t>(ci)];
        const ServePlatform& platform = platform_of(static_cast<size_t>(ci));
        if (!platform.ok) {
          return scan;
        }
        // The candidate's sweep shape: stationary single-class Poisson
        // with fixed pools — the study compares hardware, not traffic.
        ServeCommonKnobs common;
        common.horizon_s = s.fleet.horizon_s;
        common.prefill_instances = c.prefill_instances;
        common.decode_instances = c.decode_instances;
        common.prompt_sigma = s.fleet.prompt_sigma;
        common.output_sigma = s.fleet.output_sigma;
        common.seed = out.candidates[static_cast<size_t>(ci)].seed;

        const std::vector<ServeOffer> offers = ExpandServeGrid(
            grid, /*rate_grid=*/false,
            platform.searched.decode_capacity_tok_s * c.decode_instances,
            mean_output_tokens, common.seed);
        std::vector<double> rates;
        for (const ServeOffer& offer : offers) {
          rates.push_back(offer.arrival_rate_per_s);
        }
        for (int i : KneeScanOrder(rates, grid)) {
          ServePointReport p =
              SimulateServePoint(platform, s, common, offers[static_cast<size_t>(i)]);
          ++scan.points_simulated;
          if (p.slo_ok) {
            scan.knee_index = i;
            scan.knee = std::move(p);
            break;
          }
        }
        return scan;
      });

  for (size_t ci = 0; ci < candidates.size(); ++ci) {
    FleetCompareReport::Candidate& row = out.candidates[ci];
    const FleetKneeScan& scan = scans[ci];
    out.points_simulated += scan.points_simulated;
    if (!platform_of(ci).ok) {
      continue;
    }
    if (scan.knee_index < 0) {
      row.error = "no grid point meets the SLOs";
      continue;
    }
    const ServePointReport& knee = scan.knee;
    row.feasible = true;
    row.knee_index = scan.knee_index;
    row.knee_load = knee.load;
    row.knee_arrival_rate_per_s = knee.arrival_rate_per_s;
    row.knee_goodput_tokens_per_s = knee.goodput_tokens_per_s;
    row.knee_total_gpus = knee.total_gpus;
    row.analytic_capacity_tok_s =
        row.searched.decode_capacity_tok_s * candidates[ci].decode_instances;

    // The economics join: price the knee pool's silicon, amortize it, add
    // the knee pool's power priced at the grid rate.
    const GpuSpec& gpu = platform_of(ci).gpu;
    row.gpu_price_usd = PricedGpuUsd(wafer, YieldModel::kMurphy, defects, gpu,
                                     s.fleet.hbm_usd_per_gb, s.fleet.gpu_price_multiplier);
    row.capex_usd = row.gpu_price_usd * knee.total_gpus;
    row.capex_usd_per_hour = row.capex_usd / depreciation_hours;
    FleetEnergyReport energy = FleetEnergyAtKnee(
        gpu, knee.total_gpus, s.fleet.gpu_utilization, knee.goodput_tokens_per_s,
        s.fleet.electricity_usd_per_kwh);
    row.power_watts = energy.power.TotalWatts();
    row.opex_usd_per_hour = energy.opex_usd_per_hour;
    row.joules_per_token = energy.joules_per_token;
    row.usd_per_mtoken = UsdPerMtokenAtKnee(row.capex_usd_per_hour,
                                            row.opex_usd_per_hour,
                                            knee.goodput_tokens_per_s);
  }

  // Pareto frontier among feasible candidates: i is dominated when some j
  // is no worse on all of ($/Mtok, J/token, goodput) and strictly better
  // on at least one. Identical candidates co-exist on the frontier.
  for (size_t i = 0; i < out.candidates.size(); ++i) {
    const auto& a = out.candidates[i];
    if (!a.feasible) {
      continue;
    }
    bool dominated = false;
    for (size_t j = 0; j < out.candidates.size() && !dominated; ++j) {
      const auto& b = out.candidates[j];
      if (i == j || !b.feasible) {
        continue;
      }
      bool no_worse = b.usd_per_mtoken <= a.usd_per_mtoken &&
                      b.joules_per_token <= a.joules_per_token &&
                      b.knee_goodput_tokens_per_s >= a.knee_goodput_tokens_per_s;
      bool strictly_better = b.usd_per_mtoken < a.usd_per_mtoken ||
                             b.joules_per_token < a.joules_per_token ||
                             b.knee_goodput_tokens_per_s > a.knee_goodput_tokens_per_s;
      dominated = no_worse && strictly_better;
    }
    if (!dominated) {
      out.candidates[i].on_frontier = true;
      out.frontier.push_back(static_cast<int>(i));
    }
  }
  for (int idx : out.frontier) {
    if (out.winner_index < 0 ||
        out.candidates[static_cast<size_t>(idx)].usd_per_mtoken <
            out.candidates[static_cast<size_t>(out.winner_index)].usd_per_mtoken) {
      out.winner_index = idx;
    }
  }
  return out;
}

// Dispatches a validated scenario to its study.
RunReport RunValidated(const Scenario& s) {
  RunReport report;
  report.scenario_name = s.name;
  report.study = s.study;
  report.ok = true;
  switch (s.study) {
    case StudyKind::kSearch:
      report.payload = RunSearchStudy(s);
      break;
    case StudyKind::kFig3a:
      report.payload = RunFig3Study(s, /*prefill=*/true);
      break;
    case StudyKind::kFig3b:
      report.payload = RunFig3Study(s, /*prefill=*/false);
      break;
    case StudyKind::kDesign:
      report.payload = RunDesignStudy(s);
      break;
    case StudyKind::kMcSim:
      report.payload = RunMcSimStudy(s);
      break;
    case StudyKind::kYield:
      report.payload = RunYieldStudy(s);
      break;
    case StudyKind::kDerive:
      report.payload = RunDeriveStudy(s);
      break;
    case StudyKind::kServe: {
      std::string serve_error;
      ServeStudyReport serve = RunServeStudy(s, &serve_error);
      if (!serve_error.empty()) {
        return ErrorReport(s, serve_error);
      }
      report.payload = std::move(serve);
      break;
    }
    case StudyKind::kServeSweep: {
      std::string sweep_error;
      ServeSweepReport sweep = RunServeSweepStudy(s, &sweep_error);
      if (!sweep_error.empty()) {
        return ErrorReport(s, sweep_error);
      }
      report.payload = std::move(sweep);
      break;
    }
    case StudyKind::kFleetCompare:
      // Per-candidate failures become infeasible rows, not study errors —
      // one broken derivation must not hide the rest of the catalog.
      report.payload = RunFleetCompareStudy(s);
      break;
  }
  return report;
}

}  // namespace

RunReport Runner::Run(const Scenario& scenario) const {
  Scenario s = scenario;
  if (override_exec_) {
    s.exec = exec_;
  }
  std::string problem = s.Validate();
  if (!problem.empty()) {
    return ErrorReport(s, problem);
  }
  // A valid scenario can still ask for more memory than the host has (a
  // huge serve horizon or load sizes the workload before any run starts),
  // or for a container larger than the library can address
  // (std::length_error). Any escaping exception becomes an error report
  // that names it, never an abort.
  try {
    return RunValidated(s);
  } catch (const std::bad_alloc&) {
    return ErrorReport(s, "ran out of memory: it needs more than this host can allocate; "
                          "shrink its horizon, load or pool sizes");
  } catch (const std::length_error& e) {
    return ErrorReport(s, std::string("needs a container larger than this host can address "
                                      "(std::length_error: ") +
                              e.what() +
                              "); shrink its horizon, load, arrival multipliers or pool sizes");
  } catch (const std::exception& e) {
    return ErrorReport(s, std::string("failed: ") + e.what());
  }
}

std::vector<RunReport> RunScenarios(const std::vector<Scenario>& scenarios,
                                    const ExecPolicy& exec) {
  // One worker per scenario; sweeps inside each scenario run serial so
  // nested fan-outs don't each spin up a hardware-wide pool (see the
  // nesting note in src/util/exec_policy.h). Reports collect in scenario
  // order, so the batch is bit-identical at any thread count.
  return ParallelMap<RunReport>(
      exec.threads, static_cast<int>(scenarios.size()), [&](int i) {
        Scenario serial = scenarios[static_cast<size_t>(i)];
        serial.exec.threads = 1;
        return Runner().Run(serial);
      });
}

// --- rendering --------------------------------------------------------------

namespace {

std::string SearchStudyToText(const SearchStudyReport& report) {
  std::ostringstream os;
  for (const auto& pair : report.pairs) {
    os << pair.model << " on " << pair.gpu << ":\n";
    if (pair.prefill.found) {
      os << "  prefill: TP=" << pair.prefill.best.tp_degree
         << " batch=" << pair.prefill.best.batch
         << " TTFT=" << HumanTime(pair.prefill.best.result.ttft_s) << " -> "
         << FormatDouble(pair.prefill.best.result.tokens_per_s_per_sm, 2)
         << " tokens/s/SM\n";
    } else {
      os << "  prefill: no feasible configuration\n";
    }
    if (pair.decode.found) {
      os << "  decode:  TP=" << pair.decode.best.tp_degree
         << " batch=" << pair.decode.best.batch
         << " TBT=" << HumanTime(pair.decode.best.result.tbt_s) << " -> "
         << FormatDouble(pair.decode.best.result.tokens_per_s_per_sm, 2)
         << " tokens/s/SM\n";
      os << "  per-degree frontier:\n";
      for (const auto& p : pair.decode.per_degree) {
        os << "    TP=" << p.tp_degree << " batch=" << p.batch
           << " TBT=" << HumanTime(p.result.tbt_s) << " "
           << FormatDouble(p.result.tokens_per_s_per_sm, 2) << " tokens/s/SM\n";
      }
    } else {
      os << "  decode:  no feasible configuration\n";
    }
  }
  return os.str();
}

Json SearchStudyToJson(const SearchStudyReport& report) {
  Json pairs = Json::Array();
  for (const auto& pair : report.pairs) {
    Json j = Json::Object();
    j.Set("model", pair.model)
        .Set("gpu", pair.gpu)
        .Set("prefill", ToJson(pair.prefill))
        .Set("decode", ToJson(pair.decode));
    pairs.Append(std::move(j));
  }
  Json j = Json::Object();
  j.Set("pairs", std::move(pairs));
  return j;
}

std::string DesignStudyToText(const DesignStudyReport& report) {
  std::ostringstream os;
  for (const auto& per_model : report.per_model) {
    os << "=== " << per_model.model << " decode serving ===\n"
       << ClusterComparisonToText(per_model.clusters);
  }
  return os.str();
}

Json DesignStudyToJson(const DesignStudyReport& report) {
  Json models = Json::Array();
  for (const auto& per_model : report.per_model) {
    Json j = ClusterComparisonToJson(per_model.clusters);
    j.Set("model", per_model.model);
    models.Append(std::move(j));
  }
  Json j = Json::Object();
  j.Set("models", std::move(models));
  return j;
}

std::string McSimStudyToText(const McSimStudyReport& report) {
  std::ostringstream os;
  os << "Monte-Carlo availability: " << report.gpu << ", "
     << report.knobs.num_instances << " instances x " << report.knobs.gpus_per_instance
     << " GPUs, " << report.knobs.num_spares << " spares, "
     << FormatDouble(report.knobs.sim_years, 1) << " years x " << report.knobs.num_trials
     << " trials\n";
  os << "  instance availability: " << FormatDouble(report.result.instance_availability, 6)
     << "\n  capacity fraction:     " << FormatDouble(report.result.capacity_fraction, 6)
     << "\n  failures:              " << report.result.num_failures << " ("
     << report.result.unmasked_failures << " unmasked, "
     << FormatDouble(report.result.failures_per_year, 3) << "/year)\n";
  return os.str();
}

Json McSimStudyToJson(const McSimStudyReport& report) {
  Json config = Json::Object();
  config.Set("gpus_per_instance", report.knobs.gpus_per_instance)
      .Set("num_instances", report.knobs.num_instances)
      .Set("num_spares", report.knobs.num_spares)
      .Set("sim_years", report.knobs.sim_years)
      .Set("seed", report.knobs.seed)
      .Set("num_trials", report.knobs.num_trials);
  Json j = Json::Object();
  j.Set("gpu", report.gpu)
      .Set("config", std::move(config))
      .Set("result", ToJson(report.result));
  return j;
}

std::string YieldStudyToText(const YieldStudyReport& report) {
  const auto& k = report.knobs;
  Table table({"Model", "Yield(full)", "Yield(1/" + std::to_string(k.split) + ")", "Gain",
               "KGD cost ratio"});
  for (const auto& row : report.rows) {
    table.AddRow({ToString(row.model), FormatDouble(row.yield_full, 3),
                  FormatDouble(row.yield_split, 3), FormatDouble(row.gain, 2) + "x",
                  row.kgd_cost_ratio > 0.0 ? FormatDouble(row.kgd_cost_ratio, 3) : "-"});
  }
  std::ostringstream os;
  os << "die " << FormatDouble(k.die_area_mm2, 1) << " mm^2, d0 "
     << FormatDouble(k.defect_density_per_cm2, 2) << "/cm^2, split " << k.split << "\n"
     << table.ToText();
  return os.str();
}

Json YieldStudyToJson(const YieldStudyReport& report) {
  const auto& k = report.knobs;
  Json rows = Json::Array();
  for (const auto& row : report.rows) {
    Json r = Json::Object();
    r.Set("model", ToString(row.model))
        .Set("yield_full", row.yield_full)
        .Set("yield_split", row.yield_split)
        .Set("gain", row.gain)
        .Set("kgd_cost_ratio", row.kgd_cost_ratio);
    rows.Append(std::move(r));
  }
  Json j = Json::Object();
  j.Set("die_area_mm2", k.die_area_mm2)
      .Set("defect_density_per_cm2", k.defect_density_per_cm2)
      .Set("split", k.split)
      .Set("rows", std::move(rows));
  return j;
}

// Per-class rendering shared by the serve report and the sweep's knee
// summary. Only called for multi-tenant runs.
std::string ClassTableToText(const std::vector<ServeClassReport>& classes) {
  Table table({"Class", "Share", "Req/s", "TTFT p50/p99", "TBT p50/p99",
               "Goodput tok/s", "Attain", "SLO"});
  for (const auto& c : classes) {
    table.AddRow({c.name, HumanPercent(c.share, 0), FormatDouble(c.arrival_rate_per_s, 2),
                  HumanTime(c.ttft_p50_s) + " / " + HumanTime(c.ttft_p99_s),
                  HumanTime(c.tbt_p50_s) + " / " + HumanTime(c.tbt_p99_s),
                  FormatDouble(c.goodput_tokens_per_s, 0),
                  HumanPercent(c.ttft_attainment, 1), c.slo_ok ? "ok" : "MISS"});
  }
  return table.ToText();
}

// The report keys a point and a request class share, in report order.
void WriteOutcome(Json& j, const ServeOutcomeReport& o) {
  Json latency = Json::Object();
  latency.Set("ttft_p50_s", o.ttft_p50_s)
      .Set("ttft_p95_s", o.ttft_p95_s)
      .Set("ttft_p99_s", o.ttft_p99_s)
      .Set("tbt_p50_s", o.tbt_p50_s)
      .Set("tbt_p95_s", o.tbt_p95_s)
      .Set("tbt_p99_s", o.tbt_p99_s);
  j.Set("admitted_requests", o.admitted_requests)
      .Set("completed_requests", o.completed_requests)
      .Set("in_flight_at_horizon", o.in_flight_at_horizon)
      .Set("latency", std::move(latency))
      .Set("goodput_tokens_per_s", o.goodput_tokens_per_s);
}

Json SloToJson(double ttft_slo_s, double tbt_slo_s) {
  Json slo = Json::Object();
  slo.Set("ttft_p99_s", ttft_slo_s).Set("tbt_p99_s", tbt_slo_s);
  return slo;
}

std::string SlosToText(double ttft_slo_s, double tbt_slo_s) {
  return "  SLOs: TTFT p99 <= " + HumanTime(ttft_slo_s) + ", TBT p99 <= " +
         HumanTime(tbt_slo_s) + "\n";
}

Json ClassReportsToJson(const std::vector<ServeClassReport>& classes) {
  Json arr = Json::Array();
  for (const auto& c : classes) {
    Json j = Json::Object();
    j.Set("name", c.name)
        .Set("share", c.share)
        .Set("arrival_rate_per_s", c.arrival_rate_per_s)
        .Set("slo", SloToJson(c.ttft_slo_s, c.tbt_slo_s));
    WriteOutcome(j, c);
    j.Set("ttft_attainment", c.ttft_attainment).Set("slo_ok", c.slo_ok);
    arr.Append(std::move(j));
  }
  return arr;
}

Json ScaleReportToJson(const ServeScaleReport& scale) {
  Json events = Json::Array();
  for (const ScaleEvent& e : scale.events) {
    Json event = Json::Object();
    event.Set("time_s", e.time_s)
        .Set("pool", std::string(ToString(e.pool)))
        .Set("delta", e.delta)
        .Set("instances_after", e.instances_after)
        .Set("reason", e.reason);
    events.Append(std::move(event));
  }
  Json j = Json::Object();
  j.Set("policy", scale.policy)
      .Set("scale_ups", scale.scale_ups)
      .Set("scale_downs", scale.scale_downs)
      .Set("prefill_instance_hours", scale.prefill_instance_hours)
      .Set("decode_instance_hours", scale.decode_instance_hours)
      .Set("gpu_hours", scale.gpu_hours)
      .Set("peak_prefill_instances", scale.peak_prefill_instances)
      .Set("peak_decode_instances", scale.peak_decode_instances)
      .Set("final_prefill_instances", scale.final_prefill_instances)
      .Set("final_decode_instances", scale.final_decode_instances)
      .Set("ttft_attainment", scale.ttft_attainment)
      .Set("events", std::move(events));
  return j;
}

// New PR-9 keys (domains, degradation, shedding) are gated on their axis's
// enabled flag so reports from scenarios that predate them stay byte-identical.
Json FaultPoolToJson(const ServeFaultPoolReport& pool, bool domains_enabled,
                     bool degraded_enabled) {
  Json j = Json::Object();
  j.Set("failures", pool.failures)
      .Set("spare_activations", pool.spare_activations)
      .Set("downtime_s", pool.downtime_s)
      .Set("lost_tokens", pool.lost_tokens)
      .Set("blast_radius_fraction", pool.blast_radius_fraction)
      .Set("availability_measured", pool.availability_measured)
      .Set("availability_predicted", pool.availability_predicted);
  if (domains_enabled) {
    Json domains = Json::Array();
    for (const ServeFaultDomainReport& d : pool.domains) {
      Json dj = Json::Object();
      dj.Set("domain", d.domain)
          .Set("failures", d.failures)
          .Set("instance_failures", d.instance_failures)
          .Set("lost_tokens", d.lost_tokens)
          .Set("blast_radius_fraction", d.blast_radius_fraction);
      domains.Append(std::move(dj));
    }
    j.Set("domain_failures", pool.domain_failures)
        .Set("worst_event_lost_tokens", pool.worst_event_lost_tokens)
        .Set("worst_event_fraction", pool.worst_event_fraction)
        .Set("availability_correlated", pool.availability_correlated)
        .Set("domains", std::move(domains));
  }
  if (degraded_enabled) {
    j.Set("degrade_events", pool.degrade_events)
        .Set("degraded_instance_s", pool.degraded_instance_s);
  }
  return j;
}

Json FaultReportToJson(const ServeFaultReport& f) {
  Json events = Json::Array();
  for (const FaultEvent& e : f.events) {
    Json event = Json::Object();
    event.Set("time_s", e.time_s)
        .Set("kind", std::string(ToString(e.kind)))
        .Set("pool", std::string(ToString(e.pool)))
        .Set("instance", e.instance);
    if (e.domain >= 0) {
      event.Set("domain", e.domain);
    }
    event.Set("killed_requests", e.killed_requests)
        .Set("lost_tokens", e.lost_tokens)
        .Set("spares_free", e.spares_free);
    events.Append(std::move(event));
  }
  Json j = Json::Object();
  j.Set("retry_policy", f.retry_policy)
      .Set("prefill", FaultPoolToJson(f.prefill, f.domains_enabled, f.degraded_enabled))
      .Set("decode", FaultPoolToJson(f.decode, f.domains_enabled, f.degraded_enabled))
      .Set("retried_requests", f.retried_requests)
      .Set("dropped_requests", f.dropped_requests)
      .Set("lost_tokens", f.lost_tokens)
      .Set("goodput_tokens_per_s", f.goodput_tokens_per_s)
      .Set("baseline_goodput_tokens_per_s", f.baseline_goodput_tokens_per_s)
      .Set("goodput_ratio", f.goodput_ratio);
  if (f.degraded_enabled) {
    j.Set("degraded_goodput_tokens_per_s", f.degraded_goodput_tokens_per_s);
  }
  if (f.shedding_enabled) {
    Json shed = Json::Array();
    for (const ShedEvent& e : f.shed_events) {
      Json ev = Json::Object();
      ev.Set("time_s", e.time_s)
          .Set("request", e.request)
          .Set("reason", std::string(ToString(e.reason)));
      shed.Append(std::move(ev));
    }
    j.Set("shed_requests", f.shed_requests).Set("shed_events", std::move(shed));
  }
  if (f.domains_enabled || f.degraded_enabled || f.shedding_enabled) {
    j.Set("time_to_drain_s", f.time_to_drain_s).Set("stable", f.stable);
  }
  j.Set("events", std::move(events));
  return j;
}

std::string FaultSummaryToText(const ServeFaultReport& f) {
  std::ostringstream os;
  if (!f.enabled) {
    // Shedding can run without fault injection; report just that slice.
    if (f.shedding_enabled) {
      os << "shedding: " << f.shed_requests << " requests shed, "
         << (f.stable ? "stable" : "UNSTABLE") << "\n";
    }
    return os.str();
  }
  os << "faults (" << f.retry_policy << "): " << f.prefill.failures << "p+"
     << f.decode.failures << "d failures ("
     << f.prefill.spare_activations + f.decode.spare_activations
     << " spare-masked), " << f.retried_requests << " retried / "
     << f.dropped_requests << " dropped requests, "
     << FormatDouble(f.lost_tokens, 0) << " tokens lost\n"
     << "  availability: prefill "
     << HumanPercent(f.prefill.availability_measured, 2) << " measured / "
     << HumanPercent(f.prefill.availability_predicted, 2)
     << " predicted, decode " << HumanPercent(f.decode.availability_measured, 2)
     << " measured / " << HumanPercent(f.decode.availability_predicted, 2)
     << " predicted\n"
     << "  blast radius: prefill "
     << HumanPercent(f.prefill.blast_radius_fraction, 3) << " / decode "
     << HumanPercent(f.decode.blast_radius_fraction, 3)
     << " of served tokens per failure\n"
     << "  goodput under churn: " << HumanPercent(f.goodput_ratio, 1)
     << " of the fault-free baseline ("
     << FormatDouble(f.goodput_tokens_per_s, 0) << " vs "
     << FormatDouble(f.baseline_goodput_tokens_per_s, 0) << " tok/s)\n";
  if (f.domains_enabled) {
    os << "  domains: " << f.prefill.domain_failures << "p+"
       << f.decode.domain_failures << "d correlated outages, worst single event "
       << HumanPercent(std::max(f.prefill.worst_event_fraction,
                                f.decode.worst_event_fraction),
                       3)
       << " of served tokens, correlated availability prefill "
       << HumanPercent(f.prefill.availability_correlated, 2) << " / decode "
       << HumanPercent(f.decode.availability_correlated, 2) << "\n";
  }
  if (f.degraded_enabled) {
    os << "  degraded: " << f.prefill.degrade_events + f.decode.degrade_events
       << " slowdown windows, "
       << FormatDouble(f.prefill.degraded_instance_s + f.decode.degraded_instance_s, 0)
       << " instance-s throttled, goodput while degraded "
       << FormatDouble(f.degraded_goodput_tokens_per_s, 0) << " tok/s/inst\n";
  }
  if (f.shedding_enabled) {
    os << "  shedding: " << f.shed_requests << " requests shed\n";
  }
  if (f.domains_enabled || f.degraded_enabled || f.shedding_enabled) {
    os << "  stability: ";
    if (f.time_to_drain_s >= 0.0) {
      os << "backlog drained " << HumanTime(f.time_to_drain_s)
         << " after the largest outage, ";
    }
    os << (f.stable ? "stable" : "UNSTABLE (backlog never drained)") << "\n";
  }
  return os.str();
}

std::string ScaleSummaryToText(const ServeScaleReport& scale) {
  std::ostringstream os;
  os << "autoscaler (" << scale.policy << "): " << scale.scale_ups << " up / "
     << scale.scale_downs << " down, peak " << scale.peak_prefill_instances << "p+"
     << scale.peak_decode_instances << "d, final " << scale.final_prefill_instances
     << "p+" << scale.final_decode_instances << "d, "
     << FormatDouble(scale.gpu_hours, 3) << " GPU-hours, TTFT attainment "
     << HumanPercent(scale.ttft_attainment, 1) << "\n";
  return os.str();
}

// Closes a point's JSON with the blocks of the axes it ran.
void WritePointBlocks(Json& j, const ServePointReport& p) {
  if (p.scale.enabled) {
    j.Set("autoscaler", ScaleReportToJson(p.scale));
  }
  if (p.faults.enabled || p.faults.shedding_enabled) {
    j.Set("faults", FaultReportToJson(p.faults));
  }
  if (!p.classes.empty()) {
    j.Set("classes", ClassReportsToJson(p.classes));
  }
}

// The config-echo keys the serve and sweep reports share, after each
// study's own.
void WriteServeEcho(Json& config, const ServeCommonKnobs& knobs) {
  config.Set("horizon_s", knobs.horizon_s)
      .Set("prompt_sigma", knobs.prompt_sigma)
      .Set("output_sigma", knobs.output_sigma)
      .Set("seed", knobs.seed);
  WriteServeOptionalBlocks(config, knobs);
}

// One phase of the searched configuration; callers add its pool's keys.
Json PhaseToJson(int tp, int batch, double capacity_tok_s) {
  Json phase = Json::Object();
  phase.Set("tp_degree", tp).Set("batch", batch).Set("capacity_tokens_per_s", capacity_tok_s);
  return phase;
}

// The searched configuration as two lines, each pool suffix after its
// phase's per-instance capacity.
std::string SearchedToText(const ServeSearchedConfig& c, const std::string& prefill_pool,
                           const std::string& decode_pool) {
  std::ostringstream os;
  os << "  prefill: TP=" << c.prefill_tp << " batch<=" << c.prefill_batch << " ("
     << FormatDouble(c.prefill_capacity_tok_s, 0) << " tok/s/inst)" << prefill_pool << "\n"
     << "  decode:  TP=" << c.decode_tp << " batch<=" << c.decode_batch << " ("
     << FormatDouble(c.decode_capacity_tok_s, 0) << " tok/s/inst)" << decode_pool << "\n";
  return os.str();
}

std::string ServeStudyToText(const ServeStudyReport& r) {
  std::ostringstream os;
  os << "Serving simulation: " << r.model << " on " << r.gpu << "\n"
     << SearchedToText(r.searched, " x " + std::to_string(r.prefill_instances) + " instances",
                       " x " + std::to_string(r.knobs.decode_instances) + " instances  [" +
                           std::to_string(r.total_gpus) + " GPUs total]")
     << "  offered: " << FormatDouble(r.arrival_rate_per_s, 2) << " req/s over "
     << HumanTime(r.knobs.horizon_s) << " horizon ("
     << FormatDouble(r.analytic_tokens_per_s, 0) << " decode tok/s analytic)\n";
  Table table({"Requests", "Completed", "In-flight@H", "TTFT p50/p99", "TBT p50/p99",
               "Goodput tok/s", "Analytic", "Ratio", "Util p/d", "Mean batch"});
  table.AddRow({std::to_string(r.admitted_requests), std::to_string(r.completed_requests),
                std::to_string(r.in_flight_at_horizon),
                HumanTime(r.ttft_p50_s) + " / " + HumanTime(r.ttft_p99_s),
                HumanTime(r.tbt_p50_s) + " / " + HumanTime(r.tbt_p99_s),
                FormatDouble(r.goodput_tokens_per_s, 0),
                FormatDouble(r.analytic_tokens_per_s, 0),
                FormatDouble(r.capacity_agreement, 3),
                FormatDouble(r.prefill_utilization, 2) + " / " +
                    FormatDouble(r.decode_utilization, 2),
                FormatDouble(r.mean_decode_batch, 0)});
  os << table.ToText();
  if (r.scale.enabled) {
    os << ScaleSummaryToText(r.scale);
  }
  os << FaultSummaryToText(r.faults);
  if (!r.classes.empty()) {
    os << "per-class (" << r.classes.size() << " request classes):\n"
       << ClassTableToText(r.classes);
  }
  return os.str();
}

Json ServeStudyToJson(const ServeStudyReport& r) {
  Json config = Json::Object();
  config.Set("load", r.knobs.load).Set("arrival_rate_per_s", r.arrival_rate_per_s);
  WriteServeEcho(config, r.knobs);
  const ServeSearchedConfig& c = r.searched;
  Json prefill = PhaseToJson(c.prefill_tp, c.prefill_batch, c.prefill_capacity_tok_s);
  prefill.Set("instances", r.prefill_instances).Set("utilization", r.prefill_utilization);
  // The configured decode pool, where prefill and total_gpus report the
  // planned deployment (the two differ when autoscaler bounds clamp it).
  Json decode = PhaseToJson(c.decode_tp, c.decode_batch, c.decode_capacity_tok_s);
  decode.Set("instances", r.knobs.decode_instances)
      .Set("utilization", r.decode_utilization)
      .Set("mean_batch", r.mean_decode_batch);
  Json j = Json::Object();
  j.Set("model", r.model)
      .Set("gpu", r.gpu)
      .Set("config", std::move(config))
      .Set("prefill", std::move(prefill))
      .Set("decode", std::move(decode))
      .Set("total_gpus", r.total_gpus);
  WriteOutcome(j, r);
  j.Set("analytic_tokens_per_s", r.analytic_tokens_per_s)
      .Set("capacity_agreement", r.capacity_agreement)
      .Set("makespan_s", r.makespan_s);
  WritePointBlocks(j, r);
  return j;
}

std::string ServeSweepToText(const ServeSweepReport& r) {
  std::ostringstream os;
  os << "Serve sweep: " << r.model << " on " << r.gpu << " — " << r.points.size()
     << " load points over " << HumanTime(r.knobs.horizon_s) << " horizon\n"
     << SearchedToText(r.searched, "",
                       " x " + std::to_string(r.knobs.decode_instances) + " instances")
     << SlosToText(r.ttft_slo_s, r.tbt_slo_s);
  Table table({"Load", "Req/s", "Prefill inst", "TTFT p50/p99", "TBT p50/p99",
               "Goodput tok/s", "Ratio", "Util p/d", "SLO"});
  for (const auto& p : r.points) {
    table.AddRow({HumanPercent(p.load, 0), FormatDouble(p.arrival_rate_per_s, 2),
                  std::to_string(p.prefill_instances),
                  HumanTime(p.ttft_p50_s) + " / " + HumanTime(p.ttft_p99_s),
                  HumanTime(p.tbt_p50_s) + " / " + HumanTime(p.tbt_p99_s),
                  FormatDouble(p.goodput_tokens_per_s, 0),
                  FormatDouble(p.capacity_agreement, 3),
                  FormatDouble(p.prefill_utilization, 2) + " / " +
                      FormatDouble(p.decode_utilization, 2),
                  p.slo_ok ? "ok" : "MISS"});
  }
  os << table.ToText();
  bool multi_class = !r.knobs.classes.empty();
  // Under fault injection the verdicts behind the knee are judged at the
  // target attainment quantile, so say so.
  std::string churn_suffix =
      r.knobs.faults.enabled()
          ? " at the p" +
                FormatDouble(r.knobs.faults.target_attainment * 100.0, 0) +
                " attainment target under churn"
          : "";
  if (r.knee_index >= 0) {
    const auto& knee = r.points[static_cast<size_t>(r.knee_index)];
    os << "knee: " << HumanPercent(knee.load, 0) << " load ("
       << FormatDouble(knee.arrival_rate_per_s, 2) << " req/s, "
       << FormatDouble(knee.goodput_tokens_per_s, 0) << " tok/s goodput) — "
       << (multi_class ? "highest load where every class meets its SLOs"
                       : "highest load meeting both SLOs")
       << churn_suffix << "\n"
       << FaultSummaryToText(knee.faults);
    if (multi_class) {
      os << "per-class at the knee:\n" << ClassTableToText(knee.classes);
    }
  } else {
    os << (multi_class ? "knee: no load point lets every class meet its SLOs\n"
                       : "knee: no load point meets the SLOs\n");
  }
  if (r.knobs.autoscaler.enabled()) {
    if (r.cheapest_index >= 0) {
      const auto& cheapest = r.points[static_cast<size_t>(r.cheapest_index)];
      os << "cheapest: " << HumanPercent(cheapest.load, 0) << " load ("
         << FormatDouble(r.cheapest_tokens_per_gpu_hour, 0)
         << " tok/GPU-hour) — cheapest autoscaled point meeting the SLOs\n";
      os << ScaleSummaryToText(cheapest.scale);
    } else {
      os << "cheapest: no autoscaled point meets the SLOs\n";
    }
  }
  return os.str();
}

Json ServeSweepToJson(const ServeSweepReport& r) {
  Json config = Json::Object();
  for (const auto& [key, values] : {std::make_pair("loads", &r.knobs.loads),
                                    std::make_pair("rates", &r.knobs.rates)}) {
    if (!values->empty()) {
      Json arr = Json::Array();
      for (double value : *values) {
        arr.Append(value);
      }
      config.Set(key, std::move(arr));
    }
  }
  config.Set("load_lo", r.knobs.load_lo)
      .Set("load_hi", r.knobs.load_hi)
      .Set("load_step", r.knobs.load_step);
  WriteServeEcho(config, r.knobs);
  const ServeSearchedConfig& c = r.searched;
  Json decode = PhaseToJson(c.decode_tp, c.decode_batch, c.decode_capacity_tok_s);
  decode.Set("instances", r.knobs.decode_instances);
  Json points = Json::Array();
  for (const auto& p : r.points) {
    Json point = Json::Object();
    point.Set("load", p.load)
        .Set("arrival_rate_per_s", p.arrival_rate_per_s)
        .Set("seed", p.seed)
        .Set("prefill_instances", p.prefill_instances)
        .Set("decode_instances", p.decode_instances)
        .Set("total_gpus", p.total_gpus);
    WriteOutcome(point, p);
    point.Set("analytic_tokens_per_s", p.analytic_tokens_per_s)
        .Set("capacity_agreement", p.capacity_agreement)
        .Set("prefill_utilization", p.prefill_utilization)
        .Set("decode_utilization", p.decode_utilization)
        .Set("mean_decode_batch", p.mean_decode_batch)
        .Set("makespan_s", p.makespan_s)
        .Set("slo_ok", p.slo_ok);
    WritePointBlocks(point, p);
    points.Append(std::move(point));
  }
  Json knee = Json::Object();
  knee.Set("found", r.knee_index >= 0)
      .Set("index", r.knee_index)
      .Set("load", r.knee_load)
      .Set("goodput_tokens_per_s", r.knee_goodput_tokens_per_s);
  Json j = Json::Object();
  j.Set("model", r.model)
      .Set("gpu", r.gpu)
      .Set("config", std::move(config))
      .Set("prefill", PhaseToJson(c.prefill_tp, c.prefill_batch, c.prefill_capacity_tok_s))
      .Set("decode", std::move(decode))
      .Set("slo", SloToJson(r.ttft_slo_s, r.tbt_slo_s))
      .Set("points", std::move(points))
      .Set("knee", std::move(knee));
  if (r.knobs.autoscaler.enabled()) {
    Json cheapest = Json::Object();
    cheapest.Set("found", r.cheapest_index >= 0)
        .Set("index", r.cheapest_index)
        .Set("load",
             r.cheapest_index >= 0
                 ? r.points[static_cast<size_t>(r.cheapest_index)].load
                 : 0.0)
        .Set("tokens_per_gpu_hour", r.cheapest_tokens_per_gpu_hour);
    j.Set("cheapest", std::move(cheapest));
  }
  return j;
}

std::string FleetCompareToText(const FleetCompareReport& r) {
  std::ostringstream os;
  os << "Fleet compare: " << r.model << " — " << r.candidates.size()
     << " candidates, " << r.knobs.GridPoints().size() << " load points over "
     << HumanTime(r.knobs.horizon_s) << " horizon\n"
     << SlosToText(r.ttft_slo_s, r.tbt_slo_s)
     << "  economics: " << FormatDouble(r.knobs.depreciation_months, 0)
     << "-month depreciation, $" << FormatDouble(r.knobs.electricity_usd_per_kwh, 2)
     << "/kWh, " << HumanPercent(r.knobs.gpu_utilization, 0) << " utilization\n";
  Table table({"Candidate", "GPU", "Knee load", "Req/s", "Goodput tok/s", "GPUs",
               "Capex $/h", "Opex $/h", "$ / Mtok", "J/token", "Frontier"});
  for (const auto& c : r.candidates) {
    if (!c.feasible) {
      table.AddRow({c.name, c.gpu, "-", "-", "-", "-", "-", "-", "-", "-",
                    "infeasible"});
      continue;
    }
    table.AddRow({c.name, c.gpu, HumanPercent(c.knee_load, 0),
                  FormatDouble(c.knee_arrival_rate_per_s, 2),
                  FormatDouble(c.knee_goodput_tokens_per_s, 0),
                  std::to_string(c.knee_total_gpus),
                  FormatDouble(c.capex_usd_per_hour, 2),
                  FormatDouble(c.opex_usd_per_hour, 2),
                  FormatDouble(c.usd_per_mtoken, 3),
                  FormatDouble(c.joules_per_token, 2),
                  c.on_frontier ? "yes" : "-"});
  }
  os << table.ToText();
  if (r.winner_index >= 0) {
    const auto& w = r.candidates[static_cast<size_t>(r.winner_index)];
    os << "winner: " << w.name << " ($" << FormatDouble(w.usd_per_mtoken, 3)
       << "/Mtok at the knee) — cheapest frontier candidate\n";
  } else {
    os << "winner: none (no candidate meets the SLOs)\n";
  }
  for (const auto& c : r.candidates) {
    if (!c.feasible) {
      os << "  " << c.name << ": " << c.error << "\n";
    }
  }
  return os.str();
}

Json FleetCompareToJson(const FleetCompareReport& r) {
  Json candidates = Json::Array();
  for (const auto& c : r.candidates) {
    Json row = Json::Object();
    row.Set("name", c.name)
        .Set("gpu", c.gpu)
        .Set("base_gpu", c.base_gpu)
        .Set("split", c.split)
        .Set("seed", c.seed)
        .Set("feasible", c.feasible);
    if (!c.feasible) {
      row.Set("error", c.error);
      candidates.Append(std::move(row));
      continue;
    }
    Json knee = Json::Object();
    knee.Set("index", c.knee_index)
        .Set("load", c.knee_load)
        .Set("arrival_rate_per_s", c.knee_arrival_rate_per_s)
        .Set("goodput_tokens_per_s", c.knee_goodput_tokens_per_s)
        .Set("total_gpus", c.knee_total_gpus)
        .Set("analytic_capacity_tokens_per_s", c.analytic_capacity_tok_s);
    Json economics = Json::Object();
    economics.Set("gpu_price_usd", c.gpu_price_usd)
        .Set("capex_usd", c.capex_usd)
        .Set("capex_usd_per_hour", c.capex_usd_per_hour)
        .Set("power_watts", c.power_watts)
        .Set("opex_usd_per_hour", c.opex_usd_per_hour)
        .Set("usd_per_mtoken", c.usd_per_mtoken)
        .Set("joules_per_token", c.joules_per_token);
    row.Set("prefill_tp", c.searched.prefill_tp)
        .Set("decode_tp", c.searched.decode_tp)
        .Set("decode_capacity_tokens_per_s", c.searched.decode_capacity_tok_s)
        .Set("knee", std::move(knee))
        .Set("economics", std::move(economics))
        .Set("on_frontier", c.on_frontier);
    candidates.Append(std::move(row));
  }
  Json frontier = Json::Array();
  for (int idx : r.frontier) {
    frontier.Append(idx);
  }
  Json j = Json::Object();
  j.Set("model", r.model)
      .Set("config", FleetKnobsToJson(r.knobs))
      .Set("slo", SloToJson(r.ttft_slo_s, r.tbt_slo_s))
      .Set("candidates", std::move(candidates))
      .Set("frontier", std::move(frontier))
      .Set("winner_index", r.winner_index)
      .Set("platform_builds", r.platform_builds);
  return j;
}

}  // namespace

std::string RunReport::ToText() const {
  std::ostringstream os;
  if (!scenario_name.empty()) {
    os << "# scenario: " << scenario_name << " (" << litegpu::ToString(study) << ")\n";
  }
  if (!ok) {
    os << "error: " << error << "\n";
    return os.str();
  }
  switch (study) {
    case StudyKind::kSearch:
      os << SearchStudyToText(std::get<SearchStudyReport>(payload));
      break;
    case StudyKind::kFig3a:
    case StudyKind::kFig3b: {
      const auto& fig3 = std::get<Fig3StudyReport>(payload);
      os << Fig3ToText(fig3.entries, fig3.title);
      break;
    }
    case StudyKind::kDesign:
      os << DesignStudyToText(std::get<DesignStudyReport>(payload));
      break;
    case StudyKind::kMcSim:
      os << McSimStudyToText(std::get<McSimStudyReport>(payload));
      break;
    case StudyKind::kYield:
      os << YieldStudyToText(std::get<YieldStudyReport>(payload));
      break;
    case StudyKind::kDerive:
      os << std::get<DeriveStudyReport>(payload).result.ToString() << "\n";
      break;
    case StudyKind::kServe:
      os << ServeStudyToText(std::get<ServeStudyReport>(payload));
      break;
    case StudyKind::kServeSweep:
      os << ServeSweepToText(std::get<ServeSweepReport>(payload));
      break;
    case StudyKind::kFleetCompare:
      os << FleetCompareToText(std::get<FleetCompareReport>(payload));
      break;
  }
  return os.str();
}

Json RunReport::ToJson() const {
  Json j = Json::Object();
  j.Set("scenario", scenario_name).Set("study", litegpu::ToString(study)).Set("ok", ok);
  if (!ok) {
    j.Set("error", error);
    return j;
  }
  switch (study) {
    case StudyKind::kSearch:
      j.Set("report", SearchStudyToJson(std::get<SearchStudyReport>(payload)));
      break;
    case StudyKind::kFig3a:
    case StudyKind::kFig3b: {
      const auto& fig3 = std::get<Fig3StudyReport>(payload);
      j.Set("report", Fig3ToJson(fig3.entries, fig3.title));
      break;
    }
    case StudyKind::kDesign:
      j.Set("report", DesignStudyToJson(std::get<DesignStudyReport>(payload)));
      break;
    case StudyKind::kMcSim:
      j.Set("report", McSimStudyToJson(std::get<McSimStudyReport>(payload)));
      break;
    case StudyKind::kYield:
      j.Set("report", YieldStudyToJson(std::get<YieldStudyReport>(payload)));
      break;
    case StudyKind::kDerive:
      j.Set("report", std::get<DeriveStudyReport>(payload).result.ToJson());
      break;
    case StudyKind::kServe:
      j.Set("report", ServeStudyToJson(std::get<ServeStudyReport>(payload)));
      break;
    case StudyKind::kServeSweep:
      j.Set("report", ServeSweepToJson(std::get<ServeSweepReport>(payload)));
      break;
    case StudyKind::kFleetCompare:
      j.Set("report", FleetCompareToJson(std::get<FleetCompareReport>(payload)));
      break;
  }
  return j;
}

}  // namespace litegpu
