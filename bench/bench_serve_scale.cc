// Serve-scale benchmark: how fast the serving simulator's hot path is, and
// whether the production core still matches the reference core.
//
// Measurements on the Llama3-70B / H100 validation deployment, all driven
// by one StepTimeTable built from the searched configurations:
//   1. Full simulation at the high-load validation point (95% of analytic
//      decode capacity): wall clock, and the zero-AFR step budget — the
//      run has the fault, degrade and shedding branches compiled in but
//      disabled, and its ns per decode step must stay inside an absolute
//      budget, so bookkeeping creeping onto the disabled hot path fails
//      instead of rotting. The three-axis metrics fields must be exactly
//      zero.
//   2. A 20-point load sweep through the serve-sweep study (wall clock,
//      for the perf trajectory).
//   3. Reference-core identity: the pre-rewrite simulator is kept verbatim
//      (RunServeSimulationReference) and the rewritten core — calendar
//      event queue, SoA hot state, completion-heap decode scheduling —
//      must match it exactly (metrics plus scale, fault and shed logs) on
//      four points: the plain point above, a non-stationary autoscaled
//      point (on/off bursts + reactive policy), a fault-injected point
//      (accelerated churn, hot spares, retries), and a chaos point
//      (failure domains + degraded states + shedding on top of the churn).
//      The two fault points draw varied output lengths, so a core that
//      requeued a failed instance's victims in another order would fail.
//      Each point also reports the new core's event-queue pops per decode
//      step; decode macro-steps (one event per batch change) must keep the
//      autoscaled and chaos points below one pop per step, gated.
//   4. A million-request point (32 decode instances at 95% load): workload
//      generation wall time and bytes per request of the generated
//      records, then reference core vs new core with exact metric identity,
//      both reading the same records.
//      The speedup must be > 1 (hard gate); the target is >= 5x. Then the
//      same point streamed: the generator feeds the engine request by
//      request, nothing materialized; it must match the records run exactly
//      (gated), and reports its wall time (generation included) and the
//      widest live span the engine held. Also times the same point sharded
//      8 ways through the merge path.
//   5. The checked-in 19-point load grid (10%..100%, 30 s horizon), each
//      point run on both cores: summed reference wall vs summed new wall,
//      exact per-point identity, speedup > 1 gated, target >= 2x.
//   6. A fleet-compare catalog where candidates share resolved parts: the
//      study must build exactly one ServePlatform (search + StepTimeTable)
//      per distinct (model, GPU) pair — `platform_builds` equals the
//      distinct part count, gated — and a candidate that only widens the
//      pool must see exactly proportional analytic capacity. Each candidate
//      scans its grid from the top of KneeScanOrder and stops at its knee:
//      `points_simulated` must equal the count recomputed from the
//      reported knees (scan position + 1 per feasible candidate, the whole
//      grid per infeasible one), gated, next to `points_grid`.
//
// `--json` emits one JSON object (CI tees it into BENCH_serve_scale.json)
// and the exit code gates regressions: nonzero when any speedup gate is
// not > 1, any identity check fails, the macro-step pop gate fails, or the
// zero-AFR step budget blows.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "src/core/runner.h"
#include "src/core/scenario.h"
#include "src/core/search.h"
#include "src/hw/catalog.h"
#include "src/perf/model.h"
#include "src/perf/step_table.h"
#include "src/serve/knee.h"
#include "src/serve/simulator.h"
#include "src/serve/simulator_reference.h"
#include "src/serve/workload.h"
#include "src/util/json.h"
#include "src/util/thread_pool.h"

namespace {

using namespace litegpu;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Exact equality on every summary metric two fault-free runs of the same
// workload must share — the reference-vs-new gates ride on this.
bool MetricsIdentical(const ServeMetrics& a, const ServeMetrics& b) {
  return a.completed_requests == b.completed_requests &&
         a.admitted_requests == b.admitted_requests &&
         a.in_flight_at_horizon == b.in_flight_at_horizon &&
         a.output_tokens == b.output_tokens &&
         a.decode_tokens_per_s == b.decode_tokens_per_s &&
         a.makespan_s == b.makespan_s &&
         a.prefill_utilization == b.prefill_utilization &&
         a.decode_utilization == b.decode_utilization &&
         a.mean_decode_batch == b.mean_decode_batch &&
         a.ttft_s.count() == b.ttft_s.count() &&
         a.ttft_s.Median() == b.ttft_s.Median() &&
         a.ttft_s.P95() == b.ttft_s.P95() &&
         a.ttft_s.P99() == b.ttft_s.P99() &&
         a.tbt_s.count() == b.tbt_s.count() &&
         a.tbt_s.Median() == b.tbt_s.Median() &&
         a.tbt_s.P99() == b.tbt_s.P99();
}

bool ScaleLogsIdentical(const ServeMetrics& a, const ServeMetrics& b) {
  if (a.scale_events.size() != b.scale_events.size()) {
    return false;
  }
  for (size_t i = 0; i < a.scale_events.size(); ++i) {
    const ScaleEvent& x = a.scale_events[i];
    const ScaleEvent& y = b.scale_events[i];
    if (x.time_s != y.time_s || x.pool != y.pool || x.delta != y.delta ||
        x.instances_after != y.instances_after || x.reason != y.reason) {
      return false;
    }
  }
  return a.prefill_instance_seconds == b.prefill_instance_seconds &&
         a.decode_instance_seconds == b.decode_instance_seconds;
}

// Element-wise fault and shed logs (domain ids included) plus the
// kill/retry, degrade and drain accounting.
// Event-queue pops per simulated decode step (the TBT sample count).
double PopsPerStep(const ServeMetrics& m) {
  return m.tbt_s.count() > 0
             ? static_cast<double>(m.events_popped) / static_cast<double>(m.tbt_s.count())
             : 0.0;
}

bool FaultLogsIdentical(const ServeMetrics& a, const ServeMetrics& b) {
  if (a.fault_events.size() != b.fault_events.size() ||
      a.shed_events.size() != b.shed_events.size()) {
    return false;
  }
  for (size_t i = 0; i < a.fault_events.size(); ++i) {
    const FaultEvent& x = a.fault_events[i];
    const FaultEvent& y = b.fault_events[i];
    if (x.time_s != y.time_s || x.kind != y.kind || x.pool != y.pool ||
        x.instance != y.instance || x.domain != y.domain ||
        x.killed_requests != y.killed_requests || x.lost_tokens != y.lost_tokens ||
        x.spares_free != y.spares_free) {
      return false;
    }
  }
  for (size_t i = 0; i < a.shed_events.size(); ++i) {
    if (a.shed_events[i].time_s != b.shed_events[i].time_s ||
        a.shed_events[i].request != b.shed_events[i].request ||
        a.shed_events[i].reason != b.shed_events[i].reason) {
      return false;
    }
  }
  return a.retried_requests == b.retried_requests &&
         a.dropped_requests == b.dropped_requests && a.lost_tokens == b.lost_tokens &&
         a.prefill_fault_downtime_s == b.prefill_fault_downtime_s &&
         a.decode_fault_downtime_s == b.decode_fault_downtime_s &&
         a.shed_requests == b.shed_requests && a.degrade_windows == b.degrade_windows &&
         a.prefill_degraded_instance_s == b.prefill_degraded_instance_s &&
         a.decode_degraded_instance_s == b.decode_degraded_instance_s &&
         a.degraded_output_tokens == b.degraded_output_tokens &&
         a.time_to_drain_s == b.time_to_drain_s;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      std::fprintf(stderr, "usage: bench_serve_scale [--json]\n");
      return 64;
    }
  }

  TransformerSpec model = Llama3_70B();
  GpuSpec gpu = H100();
  SearchOptions options;
  PrefillSearchResult prefill = SearchPrefill(model, gpu, options);
  DecodeSearchResult decode = SearchDecode(model, gpu, options);
  if (!prefill.found || !decode.found) {
    std::fprintf(stderr, "bench_serve_scale: no feasible configuration\n");
    return 1;
  }
  TpPlan prefill_plan = MakeTpPlan(model, prefill.best.tp_degree).value();
  TpPlan decode_plan = MakeTpPlan(model, decode.best.tp_degree).value();
  PerfModel prefill_model(model, gpu, prefill_plan, options.workload, options.engine);
  PerfModel decode_model(model, gpu, decode_plan, options.workload, options.engine);
  StepTimeTable table = StepTimeTable::Build(prefill_model, decode_model,
                                             prefill.best.batch, decode.best.batch);

  // --- 1. full simulation at the high-load validation point ----------------
  WorkloadSpec spec;
  spec.arrival_rate_per_s =
      0.95 * decode.best.result.tokens_per_s / spec.median_output_tokens;
  spec.duration_s = 60.0;
  std::vector<Request> requests = GenerateWorkload(spec);
  ServeClusterConfig cluster;
  double prefill_demand = spec.arrival_rate_per_s * spec.median_prompt_tokens;
  cluster.prefill_instances = std::max(
      1, static_cast<int>(std::ceil(1.25 * prefill_demand / prefill.best.result.tokens_per_s)));
  cluster.decode_instances = 1;

  // Best of three: the first run also pays the thread-local scratch
  // arena's first allocations.
  ServeMetrics plain;
  double plain_sim_s = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    plain = RunServeSimulation(requests, cluster, table);
    plain_sim_s = std::min(plain_sim_s, SecondsSince(t0));
  }
  // Zero-AFR overhead gate: a generous absolute budget (~10x the expected
  // cost) on the disabled-fault hot path.
  const double kZeroAfrStepBudgetNs = 2000.0;
  double zero_afr_ns_per_step =
      plain.tbt_s.count() > 0
          ? 1e9 * plain_sim_s / static_cast<double>(plain.tbt_s.count())
          : 0.0;
  bool zero_afr_within_budget =
      zero_afr_ns_per_step > 0.0 && zero_afr_ns_per_step <= kZeroAfrStepBudgetNs;

  // --- 2. the 20-point sweep study -----------------------------------------
  ServeSweepKnobs knobs;
  knobs.load_lo = 0.05;
  knobs.load_hi = 1.00;
  knobs.load_step = 0.05;
  knobs.horizon_s = 60.0;
  Scenario sweep_scenario = *ScenarioBuilder(StudyKind::kServeSweep).ServeSweep(knobs).Build();
  auto t0 = std::chrono::steady_clock::now();
  RunReport sweep_report = Runner().Run(sweep_scenario);
  double sweep_s = SecondsSince(t0);
  int sweep_points =
      sweep_report.ok
          ? static_cast<int>(std::get<ServeSweepReport>(sweep_report.payload).points.size())
          : 0;

  // --- 3. reference core vs new core ---------------------------------------
  // The plain point above.
  ServeMetrics ref_plain = RunServeSimulationReference(requests, cluster, table);
  bool ref_plain_identical = MetricsIdentical(ref_plain, plain);

  // A non-stationary autoscaled point: on/off bursts + reactive policy
  // cover the event kinds the autoscaler adds to the loop.
  WorkloadSpec bursty = spec;
  bursty.arrival_rate_per_s = 0.7 * decode.best.result.tokens_per_s /
                              static_cast<double>(spec.median_output_tokens);
  bursty.duration_s = 30.0;
  bursty.arrival.kind = ArrivalKind::kOnOff;
  bursty.arrival.on_mean_s = 6.0;
  bursty.arrival.off_mean_s = 6.0;
  bursty.arrival.on_multiplier = 2.0;
  bursty.arrival.off_multiplier = 0.2;
  std::vector<Request> bursty_requests = GenerateWorkload(bursty);
  ServeClusterConfig scaled = cluster;
  scaled.autoscaler.enabled = true;
  scaled.autoscaler.interval_s = 2.0;
  scaled.autoscaler.delay_s = 4.0;
  scaled.autoscaler.prefill_tokens_per_s = prefill.best.result.tokens_per_s;
  scaled.autoscaler.decode_tokens_per_s = decode.best.result.tokens_per_s;
  ServeMetrics scaled_new = RunServeSimulation(bursty_requests, scaled, table);
  ServeMetrics scaled_ref = RunServeSimulationReference(bursty_requests, scaled, table);
  bool ref_scaled_identical = !scaled_new.scale_events.empty() &&
                              ScaleLogsIdentical(scaled_ref, scaled_new) &&
                              MetricsIdentical(scaled_ref, scaled_new);

  // A fault-injected point: accelerated churn (the serve_faulty.json
  // regime) — several failures per pool over the minute, hot spares
  // masking some, killed batches retried. Its workload draws lognormal
  // output lengths: with one constant length every request is
  // interchangeable, and the order a failed instance requeues its victims
  // in could not show in any metric.
  WorkloadSpec varied = spec;
  varied.output_sigma = 0.3;
  std::vector<Request> varied_requests = GenerateWorkload(varied);
  ServeClusterConfig faulty = cluster;
  // Failures inject over the admission horizon only; leaving the default
  // (effectively infinite) horizon would reschedule failures forever.
  faulty.horizon_s = spec.duration_s;
  faulty.faults.enabled = true;
  faulty.faults.prefill_failure_rate_per_s = 0.05;
  faulty.faults.decode_failure_rate_per_s = 0.1;
  faulty.faults.repair_s = 10.0;
  faulty.faults.spare_activation_s = 1.0;
  faulty.faults.prefill_spares = 1;
  faulty.faults.decode_spares = 1;
  faulty.faults.seed = FaultSubstreamSeed(0xC0FFEE);
  ServeMetrics faulty_new = RunServeSimulation(varied_requests, faulty, table);
  ServeMetrics faulty_ref = RunServeSimulationReference(varied_requests, faulty, table);
  bool ref_faulty_identical = !faulty_new.fault_events.empty() &&
                              FaultLogsIdentical(faulty_ref, faulty_new) &&
                              MetricsIdentical(faulty_ref, faulty_new);
  // Axes-off null effect: with domains, degradation and shedding left at
  // defaults, the plain and fault-injected runs' three-axis fields must be
  // exactly zero.
  bool axes_off_zeroed = plain.shed_requests == 0 && plain.shed_events.empty() &&
                         plain.degrade_windows == 0 &&
                         plain.prefill_degraded_instance_s == 0.0 &&
                         plain.decode_degraded_instance_s == 0.0 &&
                         plain.time_to_drain_s == -1.0 && faulty_new.shed_requests == 0 &&
                         faulty_new.degrade_windows == 0;

  // A chaos point: domains + degradation + shedding on top of the churn.
  ServeClusterConfig chaos = faulty;
  chaos.faults.domains.prefill_instances_per_domain = 2;
  chaos.faults.domains.decode_instances_per_domain = 1;
  chaos.faults.domains.failure_rate_per_s = 0.05;
  chaos.faults.domains.repair_s = 5.0;
  chaos.faults.degraded.prefill_rate_per_s = 0.05;
  chaos.faults.degraded.decode_rate_per_s = 0.1;
  chaos.faults.degraded.multiplier = 2.0;
  chaos.faults.degraded.mean_duration_s = 2.0;
  chaos.shedding.max_queue_depth = 128;
  ServeMetrics chaos_new = RunServeSimulation(varied_requests, chaos, table);
  ServeMetrics chaos_ref = RunServeSimulationReference(varied_requests, chaos, table);
  bool chaos_has_domains = false;
  for (const FaultEvent& e : chaos_new.fault_events) {
    if (e.domain >= 0) {
      chaos_has_domains = true;
      break;
    }
  }
  bool ref_chaos_identical = chaos_has_domains && chaos_new.degrade_windows > 0 &&
                             FaultLogsIdentical(chaos_ref, chaos_new) &&
                             MetricsIdentical(chaos_ref, chaos_new);
  bool reference_identical = ref_plain_identical && ref_scaled_identical &&
                             ref_faulty_identical && ref_chaos_identical;
  // Macro-step gate: fewer pops than decode steps where pools are wide
  // enough for runs to span many steps.
  bool macro_steps_ok = scaled_new.events_popped < scaled_new.tbt_s.count() &&
                        chaos_new.events_popped < chaos_new.tbt_s.count();

  // --- 4. the million-request point ----------------------------------------
  // 32 decode instances at 95% of their summed analytic capacity; the
  // horizon is whatever makes the expected arrival count one million. This
  // is the regime the rewrite targets: the reference core walks every
  // active slot every step (cost ~ total generated tokens, ~256M here);
  // the new core pays per step plus a heap push/pop per request.
  const int kMillionDecode = 32;
  const double kMillionRequests = 1e6;
  WorkloadSpec mspec;
  mspec.arrival_rate_per_s = 0.95 * kMillionDecode * decode.best.result.tokens_per_s /
                             static_cast<double>(mspec.median_output_tokens);
  mspec.duration_s = kMillionRequests / mspec.arrival_rate_per_s;
  t0 = std::chrono::steady_clock::now();
  std::vector<Request> million_requests = GenerateWorkload(mspec);
  double million_gen_s = SecondsSince(t0);
  const size_t million_record_bytes = million_requests.capacity() * sizeof(Request);
  ServeClusterConfig mcluster;
  mcluster.prefill_instances = std::max(
      1, static_cast<int>(std::ceil(1.25 * mspec.arrival_rate_per_s *
                                    mspec.median_prompt_tokens /
                                    prefill.best.result.tokens_per_s)));
  mcluster.decode_instances = kMillionDecode;
  t0 = std::chrono::steady_clock::now();
  ServeMetrics million_ref = RunServeSimulationReference(million_requests, mcluster, table);
  double million_ref_s = SecondsSince(t0);
  t0 = std::chrono::steady_clock::now();
  ServeMetrics million_new = RunServeSimulation(million_requests, mcluster, table);
  double million_new_s = SecondsSince(t0);
  bool million_identical = MetricsIdentical(million_ref, million_new);
  double million_speedup = million_new_s > 0.0 ? million_ref_s / million_new_s : 0.0;
  // The same point streamed straight from the generator into the engine.
  t0 = std::chrono::steady_clock::now();
  RequestStream million_stream(OneClassMix(mspec));
  ServeMetrics million_streamed = RunServeSimulation(million_stream, mcluster, table);
  double million_streamed_s = SecondsSince(t0);
  bool streamed_identical =
      MetricsIdentical(million_new, million_streamed) &&
      million_new.ttft_s.samples() == million_streamed.ttft_s.samples() &&
      million_new.events_popped == million_streamed.events_popped &&
      million_new.peak_live_requests == million_streamed.peak_live_requests;
  // The same point sharded 8 ways as the runner shards it: streamed
  // sub-horizon replications on SplitMix64 substreams, TTFTs streamed,
  // merged in shard order.
  const int kMillionShards = 8;
  ServeClusterConfig shard_cluster = mcluster;
  shard_cluster.horizon_s = mspec.duration_s / kMillionShards;
  shard_cluster.stream_ttft = true;
  t0 = std::chrono::steady_clock::now();
  std::vector<ServeMetrics> shard_runs = ParallelMap<ServeMetrics>(
      0, kMillionShards, [&](int i) {
        WorkloadSpec shard_spec = mspec;
        shard_spec.duration_s = shard_cluster.horizon_s;
        shard_spec.seed = ShardSubstreamSeed(mspec.seed, static_cast<size_t>(i));
        RequestStream shard_stream(OneClassMix(shard_spec));
        return RunServeSimulation(shard_stream, shard_cluster, table);
      });
  ServeMetrics million_sharded = MergeServeShardMetrics(shard_cluster, shard_runs);
  double million_shard_s = SecondsSince(t0);
  // Sanity, not identity: shards draw different substreams, so only the
  // scale of the merged run is checkable.
  bool shard_sane =
      million_sharded.completed_requests > 0.9 * million_new.completed_requests &&
      million_sharded.completed_requests < 1.1 * million_new.completed_requests;

  // --- 5. the 19-point load grid, reference core vs new core ---------------
  // The checked-in sweep grid (10%..100% in 5% steps, 30 s horizon, one
  // decode instance), every point run on both cores back to back.
  double grid_ref_s = 0.0;
  double grid_new_s = 0.0;
  int grid_points = 0;
  bool grid_identical = true;
  for (int i = 0; i <= 18; ++i) {
    double load = 0.10 + 0.05 * i;
    WorkloadSpec gspec;
    gspec.arrival_rate_per_s = load * decode.best.result.tokens_per_s /
                               static_cast<double>(gspec.median_output_tokens);
    gspec.duration_s = 30.0;
    gspec.seed = 1000 + static_cast<uint64_t>(i);
    std::vector<Request> grid_requests = GenerateWorkload(gspec);
    ServeClusterConfig gcluster;
    gcluster.prefill_instances = std::max(
        1, static_cast<int>(std::ceil(1.25 * gspec.arrival_rate_per_s *
                                      gspec.median_prompt_tokens /
                                      prefill.best.result.tokens_per_s)));
    gcluster.decode_instances = 1;
    t0 = std::chrono::steady_clock::now();
    ServeMetrics g_ref = RunServeSimulationReference(grid_requests, gcluster, table);
    grid_ref_s += SecondsSince(t0);
    t0 = std::chrono::steady_clock::now();
    ServeMetrics g_new = RunServeSimulation(grid_requests, gcluster, table);
    grid_new_s += SecondsSince(t0);
    grid_identical = grid_identical && MetricsIdentical(g_ref, g_new);
    ++grid_points;
  }
  double grid_speedup = grid_new_s > 0.0 ? grid_ref_s / grid_new_s : 0.0;

  // --- 6. fleet-compare catalog: one platform build per distinct part -----
  // Four candidates over two distinct resolved parts: the H100 base and its
  // split-4 Lite derivative, each with 1- and 2-instance decode pools. The
  // fleet study must amortize the expensive part of the sweep — the config
  // search plus the StepTimeTable build — across candidates that share a
  // part (platform_builds == 2, not 4), and a candidate that only widens
  // the pool must see exactly 2x the analytic decode capacity.
  FleetKnobs fleet_knobs;
  fleet_knobs.load_lo = 0.25;
  fleet_knobs.load_hi = 1.0;
  fleet_knobs.load_step = 0.25;
  fleet_knobs.horizon_s = 15.0;
  auto fleet_candidate = [](const char* name, int split, int decode_instances) {
    FleetCandidate c;
    c.name = name;
    c.split = split;
    c.decode_instances = decode_instances;
    return c;
  };
  fleet_knobs.candidates = {
      fleet_candidate("H100-pool1", 1, 1), fleet_candidate("H100-pool2", 1, 2),
      fleet_candidate("Lite4-pool1", 4, 1), fleet_candidate("Lite4-pool2", 4, 2)};
  Scenario fleet_scenario =
      *ScenarioBuilder(StudyKind::kFleetCompare).Fleet(fleet_knobs).Build();
  t0 = std::chrono::steady_clock::now();
  RunReport fleet_run = Runner().Run(fleet_scenario);
  double fleet_s = SecondsSince(t0);
  const std::vector<double> fleet_grid = fleet_knobs.GridPoints();
  const int fleet_points_grid =
      static_cast<int>(fleet_knobs.candidates.size() * fleet_grid.size());
  int fleet_platform_builds = 0;
  int fleet_feasible = 0;
  int fleet_points_simulated = 0;
  int fleet_points_expected = 0;
  bool fleet_shared_builds = false;
  bool fleet_capacity_scales = false;
  if (fleet_run.ok) {
    const auto& fleet = std::get<FleetCompareReport>(fleet_run.payload);
    fleet_platform_builds = fleet.platform_builds;
    fleet_points_simulated = fleet.points_simulated;
    for (const FleetCompareReport::Candidate& c : fleet.candidates) {
      if (c.feasible) {
        ++fleet_feasible;
        std::vector<double> rates;
        for (double load : fleet_grid) {
          rates.push_back(load * c.analytic_capacity_tok_s /
                          static_cast<double>(fleet_scenario.workload.output_tokens));
        }
        std::vector<int> order = KneeScanOrder(rates, fleet_grid);
        fleet_points_expected += static_cast<int>(
            std::find(order.begin(), order.end(), c.knee_index) - order.begin() + 1);
      } else if (c.searched.decode_tp > 0) {
        fleet_points_expected += static_cast<int>(fleet_grid.size());
      }
    }
    fleet_shared_builds = fleet.platform_builds == 2;
    fleet_capacity_scales =
        fleet.candidates.size() == 4 &&
        fleet.candidates[1].analytic_capacity_tok_s ==
            2.0 * fleet.candidates[0].analytic_capacity_tok_s &&
        fleet.candidates[3].analytic_capacity_tok_s ==
            2.0 * fleet.candidates[2].analytic_capacity_tok_s;
  }
  const bool fleet_scan_counted = fleet_points_simulated == fleet_points_expected;
  bool fleet_ok = fleet_run.ok && fleet_feasible == 4 && fleet_shared_builds &&
                  fleet_capacity_scales && fleet_scan_counted;

  bool pass = zero_afr_within_budget && axes_off_zeroed && sweep_report.ok &&
              reference_identical && macro_steps_ok && million_identical &&
              million_speedup > 1.0 && streamed_identical &&
              shard_sane && grid_identical && grid_speedup > 1.0 && fleet_ok;

  if (json) {
    Json sim = Json::Object();
    sim.Set("load", 0.95)
        .Set("horizon_s", spec.duration_s)
        .Set("decode_steps", static_cast<uint64_t>(plain.tbt_s.count()))
        .Set("table_path_s", plain_sim_s);
    Json sweep = Json::Object();
    sweep.Set("points", sweep_points).Set("wall_s", sweep_s);
    Json autoscale = Json::Object();
    autoscale.Set("scale_events", static_cast<int>(scaled_new.scale_events.size()))
        .Set("peak_decode_instances", scaled_new.peak_decode_instances)
        .Set("decode_instance_seconds", scaled_new.decode_instance_seconds);
    Json faults_json = Json::Object();
    faults_json.Set("fault_events", static_cast<int>(faulty_new.fault_events.size()))
        .Set("retried_requests", faulty_new.retried_requests)
        .Set("lost_tokens", faulty_new.lost_tokens)
        .Set("zero_afr_ns_per_step", zero_afr_ns_per_step)
        .Set("zero_afr_step_budget_ns", kZeroAfrStepBudgetNs)
        .Set("zero_afr_within_budget", zero_afr_within_budget);
    Json reference = Json::Object();
    reference.Set("plain_identical", ref_plain_identical)
        .Set("autoscaled_identical", ref_scaled_identical)
        .Set("faulty_identical", ref_faulty_identical)
        .Set("chaos_identical", ref_chaos_identical)
        .Set("plain_pops_per_step", PopsPerStep(plain))
        .Set("autoscaled_pops_per_step", PopsPerStep(scaled_new))
        .Set("faulty_pops_per_step", PopsPerStep(faulty_new))
        .Set("chaos_pops_per_step", PopsPerStep(chaos_new))
        .Set("macro_steps_ok", macro_steps_ok);
    Json workload_gen = Json::Object();
    workload_gen.Set("requests", static_cast<uint64_t>(million_requests.size()))
        .Set("wall_s", million_gen_s)
        .Set("requests_per_s",
             million_gen_s > 0.0 ? million_requests.size() / million_gen_s : 0.0)
        .Set("bytes_per_request",
             million_requests.empty() ? 0.0
                                      : static_cast<double>(million_record_bytes) /
                                            static_cast<double>(million_requests.size()));
    Json million = Json::Object();
    million.Set("requests", static_cast<uint64_t>(million_requests.size()))
        .Set("decode_instances", kMillionDecode)
        .Set("horizon_s", mspec.duration_s)
        .Set("reference_core_s", million_ref_s)
        .Set("new_core_s", million_new_s)
        .Set("speedup", million_speedup)
        .Set("speedup_target", 5.0)
        .Set("identity", million_identical)
        .Set("streamed_s", million_streamed_s)
        .Set("streamed_identity", streamed_identical)
        .Set("peak_live_requests", million_streamed.peak_live_requests)
        .Set("shards", kMillionShards)
        .Set("sharded_s", million_shard_s)
        .Set("sharded_completed_sane", shard_sane);
    Json robustness = Json::Object();
    robustness.Set("fault_events", static_cast<int>(chaos_new.fault_events.size()))
        .Set("shed_requests", chaos_new.shed_requests)
        .Set("degrade_windows", chaos_new.degrade_windows)
        .Set("axes_off_zeroed", axes_off_zeroed);
    Json fleet_json = Json::Object();
    fleet_json.Set("candidates", static_cast<int>(fleet_knobs.candidates.size()))
        .Set("distinct_parts", 2)
        .Set("platform_builds", fleet_platform_builds)
        .Set("feasible", fleet_feasible)
        .Set("shared_builds", fleet_shared_builds)
        .Set("capacity_scales_with_pool", fleet_capacity_scales)
        .Set("points_simulated", fleet_points_simulated)
        .Set("points_grid", fleet_points_grid)
        .Set("points_simulated_matches_knees", fleet_scan_counted)
        .Set("wall_s", fleet_s);
    Json sweep_core = Json::Object();
    sweep_core.Set("points", grid_points)
        .Set("reference_core_s", grid_ref_s)
        .Set("new_core_s", grid_new_s)
        .Set("speedup", grid_speedup)
        .Set("speedup_target", 2.0)
        .Set("identity", grid_identical);
    Json j = Json::Object();
    j.Set("full_sim", std::move(sim))
        .Set("sweep", std::move(sweep))
        .Set("autoscale", std::move(autoscale))
        .Set("faults", std::move(faults_json))
        .Set("reference_identity", std::move(reference))
        .Set("workload_gen", std::move(workload_gen))
        .Set("million_point", std::move(million))
        .Set("robustness", std::move(robustness))
        .Set("fleet", std::move(fleet_json))
        .Set("sweep_core", std::move(sweep_core))
        .Set("pass", pass);
    std::printf("%s\n", j.Dump().c_str());
  } else {
    std::printf("=== Serve-scale: simulator hot path and reference-core identity ===\n\n");
    std::printf("full simulation (load 0.95, %.0f s horizon, %zu decode steps): %.3f s\n"
                "  zero-AFR: %.0f ns/decode-step (budget %.0f): %s   "
                "axes-off fields zeroed: %s\n\n",
                spec.duration_s, plain.tbt_s.count(), plain_sim_s, zero_afr_ns_per_step,
                kZeroAfrStepBudgetNs, zero_afr_within_budget ? "OK" : "FAILED",
                axes_off_zeroed ? "OK" : "FAILED");
    std::printf("serve-sweep study (%d points, %.0f s horizon each): %.3f s wall\n\n",
                sweep_points, knobs.horizon_s, sweep_s);
    std::printf("reference core vs new core identity (new core's queue pops per decode step):\n"
                "  plain: %s (%.3f pops/step)\n"
                "  autoscaled on/off (%zu scale events, peak %d decode inst): %s "
                "(%.3f pops/step)\n"
                "  fault-injected (%zu fault events, %d retried): %s (%.3f pops/step)\n"
                "  chaos (%zu fault events, %d shed, %d degrade windows): %s "
                "(%.3f pops/step)\n"
                "  fewer pops than steps on the autoscaled and chaos points: %s\n\n",
                ref_plain_identical ? "OK" : "FAILED", PopsPerStep(plain),
                scaled_new.scale_events.size(), scaled_new.peak_decode_instances,
                ref_scaled_identical ? "OK" : "FAILED", PopsPerStep(scaled_new),
                faulty_new.fault_events.size(), faulty_new.retried_requests,
                ref_faulty_identical ? "OK" : "FAILED", PopsPerStep(faulty_new),
                chaos_new.fault_events.size(), chaos_new.shed_requests,
                chaos_new.degrade_windows, ref_chaos_identical ? "OK" : "FAILED",
                PopsPerStep(chaos_new), macro_steps_ok ? "OK" : "FAILED");
    std::printf("million-request point (%zu requests, %d decode inst, %.0f s horizon):\n"
                "  workload generation: %.3f s (%.1fM req/s)\n"
                "  reference core: %.3f s   new core: %.3f s   speedup: %.2fx "
                "(target 5x)   identity: %s\n"
                "  streamed (generation included): %.3f s   identity: %s   "
                "peak live requests: %llu\n"
                "  sharded x%d (merged): %.3f s\n\n",
                million_requests.size(), kMillionDecode, mspec.duration_s,
                million_gen_s,
                million_gen_s > 0.0 ? million_requests.size() / million_gen_s / 1e6 : 0.0,
                million_ref_s, million_new_s, million_speedup,
                million_identical ? "OK" : "FAILED", million_streamed_s,
                streamed_identical ? "OK" : "FAILED",
                static_cast<unsigned long long>(million_streamed.peak_live_requests),
                kMillionShards, million_shard_s);
    std::printf("fleet-compare catalog (%zu candidates over 2 distinct parts): %.3f s wall\n"
                "  platform builds: %d (expect 2): %s   feasible: %d/4   "
                "pool capacity scaling: %s\n"
                "  points simulated: %d of %d grid points (expect %d from the knees): %s\n\n",
                fleet_knobs.candidates.size(), fleet_s, fleet_platform_builds,
                fleet_shared_builds ? "OK" : "FAILED", fleet_feasible,
                fleet_capacity_scales ? "OK" : "FAILED", fleet_points_simulated,
                fleet_points_grid, fleet_points_expected,
                fleet_scan_counted ? "OK" : "FAILED");
    std::printf("19-point load grid, reference vs new core:\n"
                "  reference: %.3f s   new: %.3f s   speedup: %.2fx (target 2x)   "
                "identity: %s\n",
                grid_ref_s, grid_new_s, grid_speedup,
                grid_identical ? "OK" : "FAILED");
  }
  return pass ? 0 : 1;
}
