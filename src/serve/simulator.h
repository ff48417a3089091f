// Discrete-event simulator for a phase-split LLM serving cluster.
//
// Prefill instances batch queued prompts and run one prefill pass at a time;
// completed prompts hand off to decode instances, which run continuous
// batching: every step emits one token per active sequence, new sequences
// join at step boundaries, finished sequences leave. Step/pass latencies
// come from a StepTimeTable: a flat array load per simulated step, built
// once from the analytic PerfModel layer (StepTimeTable::Build) or from
// synthetic per-batch times in tests.
//
// Requests arrive through a RequestStream (src/serve/workload.h), pulled
// when each one falls due; the engine keeps per-request state only over the
// live span from the oldest unfinished request to the newest arrival. A
// generated stream therefore runs in memory O(live span) plus the exact
// TTFT samples (8 bytes per admitted request); record inputs are read
// through a stream over them, with identical results. A fault point's
// fault-free baseline pulls a second stream over the same spec, which
// makes the same requests in the same order.
//
// Event ordering is fully specified: simultaneous events process in
// (time, kind, instance) order — prefill completions before decode step
// completions, then provisioned instances coming up, then autoscaler
// decision ticks (which read the post-completion state), lower instance /
// sequence number first — so results never depend on the event heap's
// internal layout.
//
// With ServeAutoscalerConfig::enabled the pools grow and shrink
// mid-horizon: scale-ups take effect after a provisioning delay, and
// scale-downs drain (the instance stops taking work and retires when its
// in-flight requests finish). Everything stays single-threaded and
// deterministic — autoscaled runs are bit-identical at any thread count
// just like fixed-pool runs.

#pragma once

#include <cstdint>
#include <string>

#include "src/perf/step_table.h"
#include "src/serve/faults.h"
#include "src/serve/workload.h"
#include "src/util/stats.h"

namespace litegpu {

// One autoscaler action, in the order it took effect. Scale-ups are
// recorded when the provisioned instance comes online (after the delay);
// scale-downs when the drained instance actually retires.
struct ScaleEvent {
  double time_s = 0.0;
  ScalePool pool = ScalePool::kPrefill;
  int delta = 0;            // +1 instance added, -1 instance retired
  int instances_after = 0;  // provisioned count in the pool afterwards
  std::string reason;       // "backlog" | "utilization" | "forecast"
};

// Mid-horizon autoscaling, resolved from the scenario's AutoscalerKnobs
// plus the platform's analytic per-instance throughputs (which convert
// queued tokens and forecast demand into instance counts). Disabled (the
// default) runs none of the autoscaler code: fixed-pool metrics stay
// bit-identical to the pre-autoscaler simulator.
struct ServeAutoscalerConfig {
  bool enabled = false;
  bool predictive = false;  // false = reactive thresholds only
  double interval_s = 5.0;  // decision cadence
  double delay_s = 10.0;    // provisioning delay for scale-ups
  int min_prefill_instances = 1;
  int max_prefill_instances = 64;
  int min_decode_instances = 1;
  int max_decode_instances = 64;
  double scale_up_backlog_s = 2.0;
  double scale_up_utilization = 0.9;
  double scale_down_utilization = 0.35;
  double forecast_window_s = 30.0;
  double headroom = 1.1;
  // Analytic per-instance throughputs (tokens/s), from the planned
  // deployment's InstanceCapacity.
  double prefill_tokens_per_s = 0.0;
  double decode_tokens_per_s = 0.0;
};

struct ServeClusterConfig {
  int prefill_instances = 1;
  int decode_instances = 1;
  // Stop admitting new work after this simulated time; in-flight requests
  // drain (and are counted in ServeMetrics::in_flight_at_horizon so goodput
  // accounting stays honest).
  double horizon_s = 1e9;
  // Number of request classes to track per-class metrics for. 0 (the
  // default) keeps the classless fast path: no per-class bookkeeping is
  // allocated or updated, and metrics are bit-identical to the pre-class
  // simulator. With N >= 1 (even a declared single-class mix), requests'
  // class_id values (expected in [0, N)) index ServeMetrics::per_class.
  int num_classes = 0;
  // Mid-horizon pool autoscaling; prefill_instances/decode_instances above
  // are the initial pool sizes.
  ServeAutoscalerConfig autoscaler;
  // Fault injection (src/serve/faults.h): instances fail mid-batch over
  // [0, horizon_s], recover via hot spares or repairs, and in-flight work
  // is retried or dropped per the retry policy. Disabled (the default)
  // skips every fault branch: metrics stay bit-identical to the pre-fault
  // simulator.
  ServeFaultConfig faults;
  // Overload protection (src/serve/faults.h): arrivals are shed when the
  // prefill queue is over the depth cap or the estimated TTFT misses the
  // deadline. Works with or without fault injection; disabled (the
  // default) skips the admission check entirely, so metrics stay
  // bit-identical to the pre-shedding simulator.
  SheddingPolicy shedding;
  // Stream TTFT samples into a fixed-bin LatencyHistogram (ttft_hist)
  // instead of the exact SampleSet, making per-point memory O(bins) rather
  // than O(requests). Off by default: exact samples keep every report
  // byte-identical. The Runner forces it on for sharded points (histograms
  // merge deterministically; sample sets would need O(requests) memory per
  // shard anyway) and callers may opt in for million-request horizons.
  // This is an internal execution knob, not a scenario field.
  bool stream_ttft = false;
};

// Per-class slice of a multi-tenant simulation. TTFT keeps exact samples
// like the global set; TBT streams into a LatencyHistogram where each
// decode step contributes one sample per active sequence of the class (a
// class's tokens all experience the shared step's duration).
struct ServeClassMetrics {
  SampleSet ttft_s;
  LatencyHistogram tbt_s;
  // Streamed TTFT (ServeClusterConfig::stream_ttft); 1-bin placeholder
  // until the simulator arms it, so unstreamed runs don't pay the bins.
  LatencyHistogram ttft_hist{1.0, 1};
  int admitted_requests = 0;
  int completed_requests = 0;
  int in_flight_at_horizon = 0;
  double output_tokens = 0.0;
};

struct ServeMetrics {
  // Queue wait + prefill pass, per request. Exact samples, 8 bytes per
  // admitted request: a streamed run's only O(requests) memory.
  SampleSet ttft_s;
  // Decode step durations. One sample per simulated step — O(tokens) of
  // them — so this streams into a fixed-bin histogram: count/min/max/mean
  // are exact, percentiles are within one bin width (~61 us at the default
  // 16384 bins over [0, 1s)) of the exact sample quantile.
  LatencyHistogram tbt_s;
  int completed_requests = 0;
  int admitted_requests = 0;
  // Admitted before the horizon but still unfinished when it passed (they
  // drain and appear in completed_requests, but their tail tokens landed
  // after the horizon).
  int in_flight_at_horizon = 0;
  double output_tokens = 0.0;
  double makespan_s = 0.0;     // last completion time
  double decode_tokens_per_s = 0.0;
  double prefill_utilization = 0.0;  // busy time / (instances * makespan)
  double decode_utilization = 0.0;
  double mean_decode_batch = 0.0;    // time-weighted
  // One entry per class when ServeClusterConfig::num_classes >= 1; empty
  // for classless runs.
  std::vector<ServeClassMetrics> per_class;
  // Autoscaler outcome, filled only when the autoscaler is enabled (all
  // zero/empty otherwise). Instance-seconds integrate each instance's
  // provisioned lifetime over [0, makespan] — the cost side of the
  // "cheapest policy meeting SLOs" question — and utilization denominators
  // switch from instances*makespan to these integrals.
  std::vector<ScaleEvent> scale_events;
  double prefill_instance_seconds = 0.0;
  double decode_instance_seconds = 0.0;
  int peak_prefill_instances = 0;
  int peak_decode_instances = 0;
  int final_prefill_instances = 0;
  int final_decode_instances = 0;
  // Fault outcome, filled only when ServeFaultConfig::enabled (all
  // zero/empty otherwise). The event log is ordered by simulated time and
  // bit-identical across the two cores and thread counts. Downtime
  // is per pool, clipped to [0, makespan]; lost_tokens counts discarded
  // work (generated-so-far decode tokens, which are also subtracted from
  // output_tokens so goodput stays honest, plus killed prompt tokens).
  // When faults are enabled the instance-seconds integrals above are
  // filled even without the autoscaler, so availability can be measured
  // as 1 - downtime / provisioned instance-seconds.
  std::vector<FaultEvent> fault_events;
  int retried_requests = 0;
  int dropped_requests = 0;
  double lost_tokens = 0.0;
  double prefill_fault_downtime_s = 0.0;
  double decode_fault_downtime_s = 0.0;
  // Degraded-state outcome (ServeFaultConfig::degraded): instance-seconds
  // spent throttled per pool, the number of degrade windows entered, and
  // the decode tokens emitted by steps completing on a degraded instance.
  double prefill_degraded_instance_s = 0.0;
  double decode_degraded_instance_s = 0.0;
  int degrade_windows = 0;
  double degraded_output_tokens = 0.0;
  // Shedding outcome (ServeClusterConfig::shedding): shed arrivals count as
  // admitted but never enter the prefill queue. The log is ordered by
  // simulated time and bit-identical across the two cores and thread
  // counts, like fault_events.
  int shed_requests = 0;
  std::vector<ShedEvent> shed_events;
  // Recovery tracking (fault runs only): the largest single outage is the
  // failure event group — one independent failure, or one domain outage's
  // members — that discarded the most tokens; time_to_drain_s measures
  // from that instant until both queues next become empty (so a backlog
  // that only drains because admissions ended shows up as a drain time
  // reaching past the horizon). -1 when no in-flight work was ever killed.
  double largest_outage_time_s = -1.0;
  double largest_outage_lost_tokens = 0.0;
  double time_to_drain_s = -1.0;
  // Raw busy-time aggregates behind the utilization / mean-batch ratios.
  // Ratios of sums are not sums of ratios, so the shard merge needs the
  // numerators and denominators separately.
  double prefill_busy_s = 0.0;
  double decode_busy_s = 0.0;
  double decode_batch_time_product = 0.0;
  // Streamed TTFT (ServeClusterConfig::stream_ttft): ttft_streamed says
  // which of ttft_s / ttft_hist carries the distribution. The placeholder
  // histogram has one bin so unstreamed metrics don't allocate 16k bins.
  bool ttft_streamed = false;
  LatencyHistogram ttft_hist{1.0, 1};
  // High-water mark of the predictive autoscaler's pruned demand window —
  // the regression guard that long horizons keep O(rate * window) entries,
  // not O(admitted requests). 0 unless the predictive path ran.
  size_t peak_demand_entries = 0;
  // Event-queue pops, stale ones included — the cost counter behind the
  // decode macro-step gate (fewer pops than decode steps). Summed by the
  // shard merge; never emitted in a report.
  uint64_t events_popped = 0;
  // Widest live span of the run: request ids from the oldest unfinished one
  // to the newest arrival, the per-request state the engine holds. The
  // regression guard that streamed runs stay O(requests in flight), not
  // O(requests). The shard merge takes the max; never emitted in a report.
  uint64_t peak_live_requests = 0;
};

// Runs the event loop with step times served from the dense table — a
// bounds-checked array load per query, lock-free, so one immutable table
// can drive any number of concurrent sweep workers. Metrics are
// bit-identical to RunServeSimulationReference (simulator_reference.h) on
// the same table: tested in serve_test and serve_faults_test, gated in
// bench_serve_scale. Drains `stream`; the same requests give the same
// metrics whether the stream generates them or reads records.
ServeMetrics RunServeSimulation(RequestStream& stream, const ServeClusterConfig& config,
                                const StepTimeTable& table);
// Runs a stream over materialized records.
ServeMetrics RunServeSimulation(const std::vector<Request>& requests,
                                const ServeClusterConfig& config,
                                const StepTimeTable& table);

// Deterministically folds per-shard metrics (independent sub-horizon
// replications of `config`, shard i seeded with ShardSubstreamSeed) into
// one ServeMetrics, in shard-index order regardless of completion order or
// thread count. Counts, token totals, and busy-time integrals sum;
// makespan is the summed sub-horizon makespan; rates and utilizations are
// recomputed as ratios of the summed aggregates; TTFT/TBT histograms merge
// bin-wise (every streamed TTFT histogram spans the same fixed range, so
// shards always share bins). Shards must be single-pool-shape runs: the
// Runner's validation rejects shards with the autoscaler, faults, or
// time-inhomogeneous arrivals, so scale/fault event logs are empty by
// construction.
ServeMetrics MergeServeShardMetrics(const ServeClusterConfig& config,
                                    const std::vector<ServeMetrics>& shards);

}  // namespace litegpu
