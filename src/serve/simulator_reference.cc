#include "src/serve/simulator_reference.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

namespace litegpu {

namespace {

// Simultaneous events process in a fully specified order: domain outages
// first (they expand to member failures at one timestamp), then independent
// failures (a completion at the same instant loses the race and is killed),
// then degrade transitions (a dispatch at the same instant sees the new
// multiplier), then completions, then instances coming up
// (autoscaler-provisioned capacity, fault recoveries, spare returns), then
// autoscaler decision ticks — so a decision at time T sees every completion
// and recovery at T, and results never depend on the event heap's internal
// layout. With faults disabled no fault kinds are ever scheduled, so the
// relative order of the pre-fault kinds (and every metric) is unchanged.
// Must match ServeEventKind's order exactly: the two paths are
// element-wise-compared on their fault and shed logs.
enum class EventKind {
  kPrefillDomainFail,
  kDecodeDomainFail,
  kPrefillFail,
  kDecodeFail,
  kPrefillDegradeStart,
  kDecodeDegradeStart,
  kPrefillDegradeEnd,
  kDecodeDegradeEnd,
  kPrefillDone,
  kDecodeStepDone,
  kPrefillUp,
  kDecodeUp,
  kPrefillRecover,
  kDecodeRecover,
  kPrefillSpareReturn,
  kDecodeSpareReturn,
  kAutoscaleTick,
};

struct Event {
  double time_s = 0.0;
  EventKind kind = EventKind::kPrefillDone;
  int instance = 0;
  // Instance lifecycle epoch at scheduling time (fault runs only): a
  // failure bumps its instance's epoch, so completion and failure events
  // scheduled before it are discarded as stale on pop. Always 0 with
  // faults disabled; deliberately not part of the ordering.
  int epoch = 0;
  // Full ordering so simultaneous events pop in a specified order —
  // (time, kind, instance/sequence) — instead of the heap's internal
  // layout (which standard libraries are free to differ on).
  bool operator>(const Event& other) const {
    if (time_s != other.time_s) {
      return time_s > other.time_s;
    }
    if (kind != other.kind) {
      return kind > other.kind;
    }
    return instance > other.instance;
  }
};

// Instance lifecycle (only the autoscaler moves instances out of the
// initial active state): active+!draining take new work; draining finish
// their in-flight work and retire; retired (!active) instances stay in the
// vector so indices in scheduled events remain stable.
struct PrefillInstance {
  bool busy = false;
  std::vector<int> batch;  // request indices being prefilled
  double busy_time = 0.0;
  bool active = true;
  bool draining = false;
  double up_time = 0.0;
  double down_time = -1.0;  // < 0 while provisioned
  const char* drain_reason = "";
  // Fault state (ServeFaultConfig::enabled runs only).
  bool down = false;       // failed, waiting on spare activation / repair
  bool via_spare = false;  // current outage is masked by a hot spare
  int epoch = 0;           // bumped per failure; stale events are discarded
  double pass_started = 0.0;  // for refunding a killed pass's busy time
  double pass_duration = 0.0;
  // Degraded-state window (applies to new dispatches only).
  double degrade_mult = 1.0;
  double degrade_since = -1.0;  // < 0 while healthy
};

struct DecodeInstance {
  std::vector<int> remaining;      // output tokens left per active sequence
  std::vector<int> request_index;  // parallel array for bookkeeping
  double current_step_started = 0.0;
  double current_step_duration = 0.0;
  bool stepping = false;
  double busy_time = 0.0;
  double batch_time_product = 0.0;  // integral of batch over busy time
  bool active = true;
  bool draining = false;
  double up_time = 0.0;
  double down_time = -1.0;
  const char* drain_reason = "";
  // Fault state (ServeFaultConfig::enabled runs only).
  bool down = false;
  bool via_spare = false;
  int epoch = 0;
  // Degraded-state window (applies to new dispatches only).
  double degrade_mult = 1.0;
  double degrade_since = -1.0;  // < 0 while healthy
};

ServeMetrics RunSimulation(const std::vector<Request>& requests,
                           const ServeClusterConfig& config, const StepTimeTable& table) {
  ServeMetrics metrics;
  if (table.empty() || config.prefill_instances <= 0 || config.decode_instances <= 0) {
    return metrics;
  }

  std::vector<PrefillInstance> prefill(config.prefill_instances);
  std::vector<DecodeInstance> decode(config.decode_instances);
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;
  std::deque<int> prefill_queue;  // request indices
  std::deque<int> decode_queue;   // request indices (prefilled, awaiting decode)

  // --- autoscaler state (dormant unless cfg.enabled) ---
  const ServeAutoscalerConfig& scaler = config.autoscaler;
  int active_prefill = config.prefill_instances;  // provisioned (incl. draining)
  int active_decode = config.decode_instances;
  int pending_prefill_ups = 0;
  int pending_decode_ups = 0;
  std::deque<const char*> prefill_up_reasons;  // FIFO-matched to up events
  std::deque<const char*> decode_up_reasons;
  int up_seq = 0;    // ordering sequence for simultaneous up events
  int tick_seq = 0;  // and for ticks
  double prev_tick_time = 0.0;
  double prev_prefill_busy = 0.0;
  double prev_decode_busy = 0.0;
  // Admitted demand for the predictive forecast: (time, class, tokens).
  struct Demand {
    double t;
    double prompt_tokens;
    double output_tokens;
    int cls;
  };
  std::deque<Demand> demand_history;
  if (scaler.enabled) {
    metrics.peak_prefill_instances = active_prefill;
    metrics.peak_decode_instances = active_decode;
    events.push({scaler.interval_s, EventKind::kAutoscaleTick, tick_seq++});
  }

  // --- fault-injection state (dormant unless faults.enabled) ---
  const ServeFaultConfig& faults = config.faults;
  const bool faults_enabled = faults.enabled;
  const FaultDomainConfig& domains = faults.domains;
  const bool domains_enabled = faults_enabled && domains.enabled();
  const DegradedStateConfig& degraded = faults.degraded;
  const bool degrade_enabled = faults_enabled && degraded.enabled();
  const SheddingPolicy& shedding = config.shedding;
  const bool shed_enabled = shedding.enabled();
  const double shed_pass_s = table.PrefillTime(table.max_prefill_batch());
  std::optional<FaultStreams> fault_streams;
  int prefill_spares_free = faults.prefill_spares;
  int decode_spares_free = faults.decode_spares;
  std::vector<uint8_t> ttft_recorded;  // first prefill completion per request
  std::vector<int> retry_counts;       // kRetryWithBudget kills per request
  auto schedule_next_failure = [&](ScalePool pool, int slot, double from_t, int epoch) {
    double rate = pool == ScalePool::kPrefill ? faults.prefill_failure_rate_per_s
                                              : faults.decode_failure_rate_per_s;
    if (rate <= 0.0) {
      return;
    }
    // Failures are injected over the admission horizon only; the drain
    // tail past it runs fault-free, which also bounds the event stream.
    double t = from_t + fault_streams->NextFailureGap(pool, slot, rate);
    if (t <= config.horizon_s) {
      events.push({t,
                   pool == ScalePool::kPrefill ? EventKind::kPrefillFail
                                               : EventKind::kDecodeFail,
                   slot, epoch});
    }
  };
  // Domain outage streams: one per failure domain, keyed by (seed, pool,
  // domain), injected over the admission horizon like instance failures.
  // Domains are discovered as the pool grows — domain d covers instances
  // [d*ipd, (d+1)*ipd) — and each domain's gap sequence depends only on its
  // id, never on when its first member appeared.
  int prefill_domains_scheduled = 0;
  int decode_domains_scheduled = 0;
  auto schedule_next_domain_failure = [&](ScalePool pool, int domain, double from_t) {
    double t =
        from_t + fault_streams->NextDomainFailureGap(pool, domain, domains.failure_rate_per_s);
    if (t <= config.horizon_s) {
      events.push({t,
                   pool == ScalePool::kPrefill ? EventKind::kPrefillDomainFail
                                               : EventKind::kDecodeDomainFail,
                   domain});
    }
  };
  auto schedule_new_domains = [&](ScalePool pool, double from_t) {
    if (!domains_enabled) {
      return;
    }
    bool is_prefill = pool == ScalePool::kPrefill;
    int ipd = is_prefill ? domains.prefill_instances_per_domain
                         : domains.decode_instances_per_domain;
    if (ipd <= 0) {
      return;
    }
    int n = static_cast<int>(is_prefill ? prefill.size() : decode.size());
    int want = (n + ipd - 1) / ipd;
    int& scheduled = is_prefill ? prefill_domains_scheduled : decode_domains_scheduled;
    while (scheduled < want) {
      schedule_next_domain_failure(pool, scheduled++, from_t);
    }
  };
  // Degrade streams: per (pool, slot) like failures; a failure clears the
  // degraded state (epoch bump stales the pending end event) and the
  // recovery reschedules the slot's stream.
  auto schedule_next_degrade = [&](ScalePool pool, int slot, double from_t, int epoch) {
    double rate = pool == ScalePool::kPrefill ? degraded.prefill_rate_per_s
                                              : degraded.decode_rate_per_s;
    if (rate <= 0.0) {
      return;
    }
    double t = from_t + fault_streams->NextDegradeGap(pool, slot, rate);
    if (t <= config.horizon_s) {
      events.push({t,
                   pool == ScalePool::kPrefill ? EventKind::kPrefillDegradeStart
                                               : EventKind::kDecodeDegradeStart,
                   slot, epoch});
    }
  };
  if (faults_enabled) {
    fault_streams.emplace(faults.seed);
    for (int i = 0; i < static_cast<int>(prefill.size()); ++i) {
      schedule_next_failure(ScalePool::kPrefill, i, 0.0, 0);
    }
    for (int i = 0; i < static_cast<int>(decode.size()); ++i) {
      schedule_next_failure(ScalePool::kDecode, i, 0.0, 0);
    }
    schedule_new_domains(ScalePool::kPrefill, 0.0);
    schedule_new_domains(ScalePool::kDecode, 0.0);
    if (degrade_enabled) {
      for (int i = 0; i < static_cast<int>(prefill.size()); ++i) {
        schedule_next_degrade(ScalePool::kPrefill, i, 0.0, 0);
      }
      for (int i = 0; i < static_cast<int>(decode.size()); ++i) {
        schedule_next_degrade(ScalePool::kDecode, i, 0.0, 0);
      }
    }
    ttft_recorded.assign(requests.size(), 0);
  }

  // Per-class bookkeeping only exists when the caller asked for it, so
  // single-class runs pay nothing and stay bit-identical to the pre-class
  // simulator. Out-of-range class ids fold into class 0 rather than
  // indexing out of bounds (the Runner validates them upstream).
  const bool track_classes = config.num_classes > 0;
  if (track_classes) {
    metrics.per_class.resize(static_cast<size_t>(config.num_classes));
  }
  std::vector<size_t> step_class_counts(track_classes ? config.num_classes : 0, 0);
  auto class_of = [&](int req) {
    int cid = requests[static_cast<size_t>(req)].class_id;
    return (cid >= 0 && cid < config.num_classes) ? cid : 0;
  };

  size_t next_arrival = 0;
  double now = 0.0;
  // Workload progress time: arrivals and completions, NOT autoscaler
  // ticks/ups — the final makespan must not stretch to a trailing decision
  // tick that did no work.
  double progress_now = 0.0;

  // Close an instance's open throttled window (degrade end, failure, or
  // retirement), banking the degraded instance-seconds.
  auto close_degrade_prefill = [&](int i) {
    if (prefill[i].degrade_since >= 0.0) {
      metrics.prefill_degraded_instance_s += now - prefill[i].degrade_since;
      prefill[i].degrade_since = -1.0;
      prefill[i].degrade_mult = 1.0;
    }
  };
  auto close_degrade_decode = [&](int i) {
    if (decode[i].degrade_since >= 0.0) {
      metrics.decode_degraded_instance_s += now - decode[i].degrade_since;
      decode[i].degrade_since = -1.0;
      decode[i].degrade_mult = 1.0;
    }
  };

  // Recovery tracking: the largest single failure group (one independent
  // failure or one domain outage's members) by discarded tokens; the loop
  // then watches for the first instant both queues are empty again.
  bool drain_pending = false;
  auto note_outage = [&](double lost) {
    if (lost > metrics.largest_outage_lost_tokens) {
      metrics.largest_outage_lost_tokens = lost;
      metrics.largest_outage_time_s = now;
      metrics.time_to_drain_s = -1.0;
      drain_pending = true;
    }
  };

  auto try_start_prefill = [&](double t) {
    for (int i = 0; i < static_cast<int>(prefill.size()); ++i) {
      if (!prefill[i].active || prefill[i].draining || prefill[i].down ||
          prefill[i].busy || prefill_queue.empty()) {
        continue;
      }
      int batch = std::min<int>(table.max_prefill_batch(),
                                static_cast<int>(prefill_queue.size()));
      prefill[i].batch.clear();
      for (int b = 0; b < batch; ++b) {
        prefill[i].batch.push_back(prefill_queue.front());
        prefill_queue.pop_front();
      }
      double duration = table.PrefillTime(batch);
      if (degrade_enabled) {
        // Dispatch-only throttling: a pass keeps the duration it started
        // with even if the window closes mid-pass.
        duration *= prefill[i].degrade_mult;
      }
      prefill[i].busy = true;
      prefill[i].busy_time += duration;
      prefill[i].pass_started = t;
      prefill[i].pass_duration = duration;
      events.push({t + duration, EventKind::kPrefillDone, i, prefill[i].epoch});
    }
  };

  auto try_start_decode_step = [&](double t) {
    for (int i = 0; i < static_cast<int>(decode.size()); ++i) {
      DecodeInstance& inst = decode[i];
      if (inst.stepping || !inst.active || inst.down) {
        continue;
      }
      // Admit waiting sequences at the step boundary (draining instances
      // only finish what they already hold).
      if (!inst.draining) {
        while (!decode_queue.empty() &&
               static_cast<int>(inst.remaining.size()) < table.max_decode_batch()) {
          int req = decode_queue.front();
          decode_queue.pop_front();
          inst.remaining.push_back(std::max(1, requests[req].output_tokens));
          inst.request_index.push_back(req);
        }
      }
      if (inst.remaining.empty()) {
        continue;
      }
      int batch = static_cast<int>(inst.remaining.size());
      double duration = table.DecodeStepTime(batch);
      if (degrade_enabled) {
        duration *= inst.degrade_mult;
      }
      inst.stepping = true;
      inst.current_step_started = t;
      inst.current_step_duration = duration;
      inst.busy_time += duration;
      inst.batch_time_product += batch * duration;
      events.push({t + duration, EventKind::kDecodeStepDone, i, inst.epoch});
    }
  };

  // --- autoscaler actions ---
  auto retire_prefill = [&](int i, const char* reason) {
    if (degrade_enabled) {
      close_degrade_prefill(i);
    }
    prefill[i].active = false;
    prefill[i].draining = false;
    prefill[i].down_time = now;
    --active_prefill;
    metrics.scale_events.push_back({now, ScalePool::kPrefill, -1, active_prefill, reason});
  };
  auto retire_decode = [&](int i, const char* reason) {
    if (degrade_enabled) {
      close_degrade_decode(i);
    }
    decode[i].active = false;
    decode[i].draining = false;
    decode[i].down_time = now;
    --active_decode;
    metrics.scale_events.push_back({now, ScalePool::kDecode, -1, active_decode, reason});
  };
  // Pick the highest-index live instance: the most recently provisioned
  // capacity leaves first, keeping the initial pool stable.
  auto drain_one_prefill = [&](const char* reason) {
    for (int i = static_cast<int>(prefill.size()) - 1; i >= 0; --i) {
      if (prefill[i].active && !prefill[i].draining && !prefill[i].down) {
        if (!prefill[i].busy) {
          retire_prefill(i, reason);
        } else {
          prefill[i].draining = true;
          prefill[i].drain_reason = reason;
        }
        return;
      }
    }
  };
  auto drain_one_decode = [&](const char* reason) {
    for (int i = static_cast<int>(decode.size()) - 1; i >= 0; --i) {
      if (decode[i].active && !decode[i].draining && !decode[i].down) {
        if (decode[i].remaining.empty() && !decode[i].stepping) {
          retire_decode(i, reason);
        } else {
          decode[i].draining = true;
          decode[i].drain_reason = reason;
        }
        return;
      }
    }
  };

  // --- fault actions ---
  // What happens to a request whose instance died under it.
  auto requeue_or_drop = [&](int req) {
    bool retry = faults.retry_policy == FaultRetryPolicy::kRetry;
    if (faults.retry_policy == FaultRetryPolicy::kRetryWithBudget) {
      if (retry_counts.empty()) {
        retry_counts.assign(requests.size(), 0);
      }
      retry = retry_counts[static_cast<size_t>(req)] < faults.retry_budget;
      if (retry) {
        ++retry_counts[static_cast<size_t>(req)];
      }
    }
    if (retry) {
      // The KV cache died with the instance: back of the prefill queue.
      prefill_queue.push_back(req);
      ++metrics.retried_requests;
    } else {
      ++metrics.dropped_requests;
    }
  };

  // An instance failure kills its in-flight work (refunding the busy time
  // the unfinished pass/step had claimed up front), requeues or drops the
  // victims per the retry policy, and takes the instance down for the
  // spare-activation delay (consuming a free spare whose repaired device
  // returns later) or the full repair. A draining instance that fails
  // simply retires — the autoscaler wanted it gone anyway. domain >= 0
  // marks a member of a correlated domain outage: it bypasses hot spares
  // (a rack outage is not maskable by a spare device) and waits out the
  // domain repair instead of the instance repair.
  auto fail_prefill = [&](int i, int domain) {
    PrefillInstance& inst = prefill[i];
    if (degrade_enabled) {
      close_degrade_prefill(i);
    }
    ++inst.epoch;
    int killed = 0;
    double lost = 0.0;
    if (inst.busy) {
      inst.busy_time -= inst.pass_started + inst.pass_duration - now;
      killed = static_cast<int>(inst.batch.size());
      for (int req : inst.batch) {
        lost += requests[static_cast<size_t>(req)].prompt_tokens;
        requeue_or_drop(req);
      }
      inst.batch.clear();
      inst.busy = false;
    }
    metrics.lost_tokens += lost;
    if (inst.draining) {
      metrics.fault_events.push_back({now, FaultEventKind::kFailure, ScalePool::kPrefill,
                                      i, killed, lost, prefill_spares_free, domain});
      retire_prefill(i, inst.drain_reason);
      return;
    }
    inst.down = true;
    inst.via_spare = false;
    double delay = faults.repair_s;
    if (domain >= 0) {
      delay = domains.repair_s;
    } else if (prefill_spares_free > 0) {
      --prefill_spares_free;
      inst.via_spare = true;
      delay = faults.spare_activation_s;
      events.push({now + faults.repair_s, EventKind::kPrefillSpareReturn, i});
    }
    metrics.fault_events.push_back({now, FaultEventKind::kFailure, ScalePool::kPrefill, i,
                                    killed, lost, prefill_spares_free, domain});
    events.push({now + delay, EventKind::kPrefillRecover, i, inst.epoch});
  };

  auto fail_decode = [&](int i, int domain) {
    DecodeInstance& inst = decode[i];
    if (degrade_enabled) {
      close_degrade_decode(i);
    }
    ++inst.epoch;
    int killed = static_cast<int>(inst.remaining.size());
    double lost = 0.0;
    if (inst.stepping) {
      double unfinished = inst.current_step_started + inst.current_step_duration - now;
      inst.busy_time -= unfinished;
      inst.batch_time_product -=
          static_cast<double>(inst.remaining.size()) * unfinished;
      inst.stepping = false;
    }
    // Victims requeue (or drop) oldest first: request index is arrival
    // order, whatever order earlier completions left the slots in.
    std::vector<std::pair<int, int>> victims;  // (request index, remaining)
    for (size_t s = 0; s < inst.remaining.size(); ++s) {
      victims.emplace_back(inst.request_index[s], inst.remaining[s]);
    }
    std::sort(victims.begin(), victims.end());
    for (const auto& [req, remaining] : victims) {
      // Generated-so-far tokens die with the KV cache: they are not
      // horizon goodput, so back them out of the token counts.
      double generated = static_cast<double>(
          std::max(1, requests[static_cast<size_t>(req)].output_tokens) - remaining);
      lost += generated;
      metrics.output_tokens -= generated;
      if (track_classes) {
        metrics.per_class[static_cast<size_t>(class_of(req))].output_tokens -= generated;
      }
      requeue_or_drop(req);
    }
    inst.remaining.clear();
    inst.request_index.clear();
    metrics.lost_tokens += lost;
    if (inst.draining) {
      metrics.fault_events.push_back({now, FaultEventKind::kFailure, ScalePool::kDecode,
                                      i, killed, lost, decode_spares_free, domain});
      retire_decode(i, inst.drain_reason);
      return;
    }
    inst.down = true;
    inst.via_spare = false;
    double delay = faults.repair_s;
    if (domain >= 0) {
      delay = domains.repair_s;
    } else if (decode_spares_free > 0) {
      --decode_spares_free;
      inst.via_spare = true;
      delay = faults.spare_activation_s;
      events.push({now + faults.repair_s, EventKind::kDecodeSpareReturn, i});
    }
    metrics.fault_events.push_back({now, FaultEventKind::kFailure, ScalePool::kDecode, i,
                                    killed, lost, decode_spares_free, domain});
    events.push({now + delay, EventKind::kDecodeRecover, i, inst.epoch});
  };

  // One autoscaler decision: reactive thresholds on backlog/utilization, or
  // a per-class demand forecast (predictive) with the backlog trigger kept
  // as a safety net. Applied per pool, at most one scale-down per tick.
  auto autoscale_tick = [&]() {
    double window = now - prev_tick_time;
    int live_prefill = 0;
    int live_decode = 0;
    double prefill_busy = 0.0;
    double decode_busy = 0.0;
    // Down (failed) instances are not live: the autoscaler sees the
    // reduced pool and can provision replacements while repairs run.
    for (const auto& p : prefill) {
      if (p.active && !p.draining && !p.down) {
        ++live_prefill;
      }
      prefill_busy += p.busy_time;
    }
    for (const auto& d : decode) {
      if (d.active && !d.draining && !d.down) {
        ++live_decode;
      }
      decode_busy += d.busy_time;
    }
    double queued_prompt_tokens = 0.0;
    for (int req : prefill_queue) {
      queued_prompt_tokens += requests[static_cast<size_t>(req)].prompt_tokens;
    }
    double queued_output_tokens = 0.0;
    for (int req : decode_queue) {
      queued_output_tokens += requests[static_cast<size_t>(req)].output_tokens;
    }

    // Predictive forecast: per-class token demand over two half-windows,
    // linearly extrapolated half a window ahead, clamped at zero per class
    // so one collapsing class does not mask another's growth.
    double forecast_prompt_rate = 0.0;
    double forecast_output_rate = 0.0;
    if (scaler.predictive) {
      double half = scaler.forecast_window_s / 2.0;
      while (!demand_history.empty() &&
             demand_history.front().t < now - scaler.forecast_window_s) {
        demand_history.pop_front();
      }
      size_t ncls = static_cast<size_t>(std::max(1, config.num_classes));
      std::vector<double> recent_prompt(ncls, 0.0), old_prompt(ncls, 0.0);
      std::vector<double> recent_output(ncls, 0.0), old_output(ncls, 0.0);
      for (const Demand& d : demand_history) {
        size_t c = (d.cls >= 0 && d.cls < static_cast<int>(ncls))
                       ? static_cast<size_t>(d.cls)
                       : 0;
        if (d.t >= now - half) {
          recent_prompt[c] += d.prompt_tokens;
          recent_output[c] += d.output_tokens;
        } else {
          old_prompt[c] += d.prompt_tokens;
          old_output[c] += d.output_tokens;
        }
      }
      for (size_t c = 0; c < ncls; ++c) {
        forecast_prompt_rate += std::max(0.0, 2.0 * recent_prompt[c] - old_prompt[c]) / half;
        forecast_output_rate += std::max(0.0, 2.0 * recent_output[c] - old_output[c]) / half;
      }
    }

    auto plan_pool = [&](ScalePool pool) {
      bool is_prefill = pool == ScalePool::kPrefill;
      int live = is_prefill ? live_prefill : live_decode;
      int& pending = is_prefill ? pending_prefill_ups : pending_decode_ups;
      auto& up_reasons = is_prefill ? prefill_up_reasons : decode_up_reasons;
      double per_instance = is_prefill ? scaler.prefill_tokens_per_s : scaler.decode_tokens_per_s;
      double queued_tokens = is_prefill ? queued_prompt_tokens : queued_output_tokens;
      double busy_delta =
          is_prefill ? prefill_busy - prev_prefill_busy : decode_busy - prev_decode_busy;
      int min_n = is_prefill ? scaler.min_prefill_instances : scaler.min_decode_instances;
      int max_n = is_prefill ? scaler.max_prefill_instances : scaler.max_decode_instances;
      double utilization =
          (window > 0.0 && live > 0) ? busy_delta / (live * window) : 0.0;
      double backlog_s = per_instance > 0.0
                             ? queued_tokens / (std::max(1, live) * per_instance)
                             : 0.0;
      int target = live + pending;

      auto schedule_up = [&](const char* reason) {
        events.push({now + scaler.delay_s, is_prefill ? EventKind::kPrefillUp : EventKind::kDecodeUp,
                     up_seq++});
        up_reasons.push_back(reason);
        ++pending;
        ++target;
      };

      if (scaler.predictive) {
        double forecast_rate = is_prefill ? forecast_prompt_rate : forecast_output_rate;
        int desired = live;
        if (per_instance > 0.0) {
          desired = static_cast<int>(std::ceil(scaler.headroom * forecast_rate / per_instance));
        }
        desired = std::min(std::max(desired, min_n), max_n);
        while (target < desired) {
          schedule_up("forecast");
        }
        if (backlog_s > scaler.scale_up_backlog_s && target < max_n) {
          schedule_up("backlog");  // reactive safety net under forecast misses
        }
        if (pending == 0 && target > desired && queued_tokens <= 0.0 && target > min_n) {
          if (is_prefill) {
            drain_one_prefill("forecast");
          } else {
            drain_one_decode("forecast");
          }
        }
        return;
      }

      const char* up_reason = nullptr;
      if (backlog_s > scaler.scale_up_backlog_s) {
        up_reason = "backlog";
      } else if (utilization > scaler.scale_up_utilization) {
        up_reason = "utilization";
      }
      if (up_reason != nullptr) {
        if (target < max_n) {
          schedule_up(up_reason);
        }
      } else if (pending == 0 && target > min_n &&
                 utilization < scaler.scale_down_utilization && queued_tokens <= 0.0) {
        if (is_prefill) {
          drain_one_prefill("utilization");
        } else {
          drain_one_decode("utilization");
        }
      }
    };
    plan_pool(ScalePool::kPrefill);
    plan_pool(ScalePool::kDecode);

    prev_tick_time = now;
    prev_prefill_busy = prefill_busy;
    prev_decode_busy = decode_busy;

    // Keep ticking only while there is anything left to manage; otherwise
    // the tick stream would keep the event loop alive forever (the default
    // horizon is effectively infinite).
    bool work_left = next_arrival < requests.size() || !prefill_queue.empty() ||
                     !decode_queue.empty() || pending_prefill_ups > 0 ||
                     pending_decode_ups > 0;
    if (!work_left) {
      for (const auto& p : prefill) {
        if (p.busy) {
          work_left = true;
          break;
        }
      }
    }
    if (!work_left) {
      for (const auto& d : decode) {
        if (d.stepping || !d.remaining.empty()) {
          work_left = true;
          break;
        }
      }
    }
    if (work_left) {
      events.push({now + scaler.interval_s, EventKind::kAutoscaleTick, tick_seq++});
    }
  };

  for (;;) {
    // First instant both queues are empty after the largest outage: the
    // check runs at the top of every iteration (after the previous item
    // fully processed), gated on drain_pending so fault-free runs never
    // pay it.
    if (drain_pending && prefill_queue.empty() && decode_queue.empty()) {
      metrics.time_to_drain_s = now - metrics.largest_outage_time_s;
      drain_pending = false;
    }
    double arrival_t = next_arrival < requests.size() ? requests[next_arrival].arrival_s
                                                      : std::numeric_limits<double>::max();
    double event_t =
        events.empty() ? std::numeric_limits<double>::max() : events.top().time_s;
    if (arrival_t == std::numeric_limits<double>::max() &&
        event_t == std::numeric_limits<double>::max()) {
      break;
    }

    if (arrival_t <= event_t) {
      now = arrival_t;
      progress_now = now;
      if (now <= config.horizon_s) {
        // Admission control: a shed request reached the cluster (it counts
        // as admitted, globally and per class) but never enters the
        // prefill queue, so admitted = completed + dropped + shed once the
        // run drains.
        bool shed = false;
        ShedReason shed_reason = ShedReason::kQueueDepth;
        if (shed_enabled) {
          if (shedding.max_queue_depth > 0 &&
              static_cast<int>(prefill_queue.size()) >= shedding.max_queue_depth) {
            shed = true;
          } else if (shedding.ttft_deadline_s > 0.0) {
            int live = 0;
            for (const auto& p : prefill) {
              if (p.active && !p.draining && !p.down) {
                ++live;
              }
            }
            if (live == 0) {
              shed = true;
              shed_reason = ShedReason::kDeadline;
            } else {
              double waves = std::ceil(
                  (static_cast<double>(prefill_queue.size()) + 1.0) /
                  (static_cast<double>(table.max_prefill_batch()) * live));
              if (waves * shed_pass_s > shedding.ttft_deadline_s) {
                shed = true;
                shed_reason = ShedReason::kDeadline;
              }
            }
          }
        }
        ++metrics.admitted_requests;
        if (track_classes) {
          ++metrics.per_class[static_cast<size_t>(class_of(static_cast<int>(next_arrival)))]
                .admitted_requests;
        }
        if (shed) {
          ++metrics.shed_requests;
          metrics.shed_events.push_back(
              {now, static_cast<int>(next_arrival), shed_reason});
        } else {
          prefill_queue.push_back(static_cast<int>(next_arrival));
          if (scaler.enabled && scaler.predictive) {
            const Request& r = requests[next_arrival];
            demand_history.push_back({now, static_cast<double>(r.prompt_tokens),
                                      static_cast<double>(r.output_tokens), r.class_id});
          }
        }
      }
      ++next_arrival;
      try_start_prefill(now);
      continue;
    }

    Event event = events.top();
    events.pop();
    now = event.time_s;

    if (event.kind == EventKind::kAutoscaleTick) {
      autoscale_tick();
      continue;
    }
    if (event.kind == EventKind::kPrefillFail || event.kind == EventKind::kDecodeFail) {
      bool is_prefill = event.kind == EventKind::kPrefillFail;
      bool live = is_prefill ? (prefill[event.instance].active &&
                                event.epoch == prefill[event.instance].epoch)
                             : (decode[event.instance].active &&
                                event.epoch == decode[event.instance].epoch);
      if (live) {
        double lost_before = metrics.lost_tokens;
        if (is_prefill) {
          fail_prefill(event.instance, /*domain=*/-1);
        } else {
          fail_decode(event.instance, /*domain=*/-1);
        }
        note_outage(metrics.lost_tokens - lost_before);
        // Retried victims queue for prefill; surviving instances pick
        // them up immediately.
        try_start_prefill(now);
      }
      continue;
    }
    if (event.kind == EventKind::kPrefillDomainFail ||
        event.kind == EventKind::kDecodeDomainFail) {
      // One domain outage downs every live member at this timestamp, in
      // ascending instance order; the whole group is one outage for the
      // blast-radius / drain accounting.
      bool is_prefill = event.kind == EventKind::kPrefillDomainFail;
      int d = event.instance;
      int ipd = is_prefill ? domains.prefill_instances_per_domain
                           : domains.decode_instances_per_domain;
      int n = static_cast<int>(is_prefill ? prefill.size() : decode.size());
      int lo = d * ipd;
      int hi = std::min(n, lo + ipd);
      double lost_before = metrics.lost_tokens;
      for (int i = lo; i < hi; ++i) {
        bool up = is_prefill ? (prefill[i].active && !prefill[i].down)
                             : (decode[i].active && !decode[i].down);
        if (!up) {
          continue;  // retired or already down: nothing left to kill
        }
        if (is_prefill) {
          fail_prefill(i, d);
        } else {
          fail_decode(i, d);
        }
      }
      note_outage(metrics.lost_tokens - lost_before);
      schedule_next_domain_failure(is_prefill ? ScalePool::kPrefill : ScalePool::kDecode,
                                   d, now);
      try_start_prefill(now);
      continue;
    }
    if (event.kind == EventKind::kPrefillDegradeStart ||
        event.kind == EventKind::kDecodeDegradeStart) {
      bool is_prefill = event.kind == EventKind::kPrefillDegradeStart;
      int i = event.instance;
      bool live = is_prefill ? (prefill[i].active && event.epoch == prefill[i].epoch)
                             : (decode[i].active && event.epoch == decode[i].epoch);
      if (!live) {
        continue;
      }
      ScalePool pool = is_prefill ? ScalePool::kPrefill : ScalePool::kDecode;
      // The slot's stream yields gap, duration, gap, duration, ... in event
      // order; failures stale pending windows via the epoch (the recovery
      // reschedules the stream), so every draw happens at a deterministic
      // simulated time regardless of thread count.
      double duration = fault_streams->NextDegradeDuration(pool, i, degraded.mean_duration_s);
      if (is_prefill) {
        prefill[i].degrade_mult = degraded.multiplier;
        prefill[i].degrade_since = now;
      } else {
        decode[i].degrade_mult = degraded.multiplier;
        decode[i].degrade_since = now;
      }
      ++metrics.degrade_windows;
      metrics.fault_events.push_back({now, FaultEventKind::kDegradeStart, pool, i, 0, 0.0,
                                      is_prefill ? prefill_spares_free : decode_spares_free});
      events.push({now + duration,
                   is_prefill ? EventKind::kPrefillDegradeEnd
                              : EventKind::kDecodeDegradeEnd,
                   i, event.epoch});
      continue;
    }
    if (event.kind == EventKind::kPrefillDegradeEnd ||
        event.kind == EventKind::kDecodeDegradeEnd) {
      bool is_prefill = event.kind == EventKind::kPrefillDegradeEnd;
      int i = event.instance;
      bool live = is_prefill ? (prefill[i].active && event.epoch == prefill[i].epoch)
                             : (decode[i].active && event.epoch == decode[i].epoch);
      if (!live) {
        continue;  // a failure already cleared the window
      }
      if (is_prefill) {
        close_degrade_prefill(i);
      } else {
        close_degrade_decode(i);
      }
      ScalePool pool = is_prefill ? ScalePool::kPrefill : ScalePool::kDecode;
      metrics.fault_events.push_back({now, FaultEventKind::kDegradeEnd, pool, i, 0, 0.0,
                                      is_prefill ? prefill_spares_free : decode_spares_free});
      schedule_next_degrade(pool, i, now, event.epoch);
      continue;
    }
    if (event.kind == EventKind::kPrefillRecover || event.kind == EventKind::kDecodeRecover) {
      if (event.kind == EventKind::kPrefillRecover) {
        PrefillInstance& inst = prefill[event.instance];
        if (!inst.active || event.epoch != inst.epoch) {
          continue;  // retired while down
        }
        inst.down = false;
        metrics.fault_events.push_back({now,
                                        inst.via_spare ? FaultEventKind::kSpareActivation
                                                       : FaultEventKind::kRepair,
                                        ScalePool::kPrefill, event.instance, 0, 0.0,
                                        prefill_spares_free});
        schedule_next_failure(ScalePool::kPrefill, event.instance, now, inst.epoch);
        schedule_next_degrade(ScalePool::kPrefill, event.instance, now, inst.epoch);
        try_start_prefill(now);
      } else {
        DecodeInstance& inst = decode[event.instance];
        if (!inst.active || event.epoch != inst.epoch) {
          continue;
        }
        inst.down = false;
        metrics.fault_events.push_back({now,
                                        inst.via_spare ? FaultEventKind::kSpareActivation
                                                       : FaultEventKind::kRepair,
                                        ScalePool::kDecode, event.instance, 0, 0.0,
                                        decode_spares_free});
        schedule_next_failure(ScalePool::kDecode, event.instance, now, inst.epoch);
        schedule_next_degrade(ScalePool::kDecode, event.instance, now, inst.epoch);
        try_start_decode_step(now);
      }
      continue;
    }
    if (event.kind == EventKind::kPrefillSpareReturn ||
        event.kind == EventKind::kDecodeSpareReturn) {
      bool is_prefill = event.kind == EventKind::kPrefillSpareReturn;
      int& spares_free = is_prefill ? prefill_spares_free : decode_spares_free;
      ++spares_free;
      metrics.fault_events.push_back({now, FaultEventKind::kSpareReturn,
                                      is_prefill ? ScalePool::kPrefill : ScalePool::kDecode,
                                      event.instance, 0, 0.0, spares_free});
      continue;
    }
    if (event.kind == EventKind::kPrefillUp || event.kind == EventKind::kDecodeUp) {
      if (event.kind == EventKind::kPrefillUp) {
        PrefillInstance fresh;
        fresh.up_time = now;
        prefill.push_back(std::move(fresh));
        --pending_prefill_ups;
        ++active_prefill;
        metrics.peak_prefill_instances =
            std::max(metrics.peak_prefill_instances, active_prefill);
        const char* reason = prefill_up_reasons.front();
        prefill_up_reasons.pop_front();
        metrics.scale_events.push_back(
            {now, ScalePool::kPrefill, +1, active_prefill, reason});
        if (faults_enabled) {
          int slot = static_cast<int>(prefill.size()) - 1;
          schedule_next_failure(ScalePool::kPrefill, slot, now, 0);
          schedule_new_domains(ScalePool::kPrefill, now);
          schedule_next_degrade(ScalePool::kPrefill, slot, now, 0);
        }
        try_start_prefill(now);
      } else {
        DecodeInstance fresh;
        fresh.up_time = now;
        decode.push_back(std::move(fresh));
        --pending_decode_ups;
        ++active_decode;
        metrics.peak_decode_instances =
            std::max(metrics.peak_decode_instances, active_decode);
        const char* reason = decode_up_reasons.front();
        decode_up_reasons.pop_front();
        metrics.scale_events.push_back(
            {now, ScalePool::kDecode, +1, active_decode, reason});
        if (faults_enabled) {
          int slot = static_cast<int>(decode.size()) - 1;
          schedule_next_failure(ScalePool::kDecode, slot, now, 0);
          schedule_new_domains(ScalePool::kDecode, now);
          schedule_next_degrade(ScalePool::kDecode, slot, now, 0);
        }
        try_start_decode_step(now);
      }
      continue;
    }

    if (event.kind == EventKind::kPrefillDone) {
      PrefillInstance& inst = prefill[event.instance];
      if (faults_enabled && event.epoch != inst.epoch) {
        continue;  // the pass was killed by a failure before it finished
      }
      progress_now = now;
      for (int req : inst.batch) {
        // A retried request's first token was delivered by its first
        // successful prefill; later re-prefills don't re-record TTFT.
        if (!faults_enabled || !ttft_recorded[static_cast<size_t>(req)]) {
          metrics.ttft_s.Add(now - requests[req].arrival_s);
          if (track_classes) {
            metrics.per_class[static_cast<size_t>(class_of(req))].ttft_s.Add(
                now - requests[req].arrival_s);
          }
          if (faults_enabled) {
            ttft_recorded[static_cast<size_t>(req)] = 1;
          }
        }
        decode_queue.push_back(req);
      }
      inst.batch.clear();
      inst.busy = false;
      if (inst.draining) {
        retire_prefill(event.instance, inst.drain_reason);
      }
      try_start_prefill(now);
      try_start_decode_step(now);
    } else {
      DecodeInstance& inst = decode[event.instance];
      if (faults_enabled && event.epoch != inst.epoch) {
        continue;  // the step was killed by a failure before it finished
      }
      progress_now = now;
      metrics.tbt_s.Add(inst.current_step_duration);
      inst.stepping = false;
      // Every active sequence emitted one token this step.
      metrics.output_tokens += static_cast<double>(inst.remaining.size());
      if (degrade_enabled && inst.degrade_since >= 0.0) {
        metrics.degraded_output_tokens += static_cast<double>(inst.remaining.size());
      }
      if (track_classes) {
        // Each active sequence of a class experienced this step's duration
        // as one inter-token gap: one weighted histogram add per class.
        std::fill(step_class_counts.begin(), step_class_counts.end(), 0);
        for (int req : inst.request_index) {
          ++step_class_counts[static_cast<size_t>(class_of(req))];
        }
        for (size_t c = 0; c < step_class_counts.size(); ++c) {
          if (step_class_counts[c] > 0) {
            metrics.per_class[c].tbt_s.Add(inst.current_step_duration,
                                           step_class_counts[c]);
            metrics.per_class[c].output_tokens +=
                static_cast<double>(step_class_counts[c]);
          }
        }
      }
      for (size_t s = 0; s < inst.remaining.size();) {
        if (--inst.remaining[s] == 0) {
          ++metrics.completed_requests;
          if (track_classes) {
            ++metrics.per_class[static_cast<size_t>(class_of(inst.request_index[s]))]
                  .completed_requests;
          }
          if (now > config.horizon_s) {
            // Admitted before the horizon, finished after it: the request
            // drains but its tail tokens are not horizon goodput.
            ++metrics.in_flight_at_horizon;
            if (track_classes) {
              ++metrics.per_class[static_cast<size_t>(class_of(inst.request_index[s]))]
                    .in_flight_at_horizon;
            }
          }
          metrics.makespan_s = now;
          inst.remaining[s] = inst.remaining.back();
          inst.remaining.pop_back();
          inst.request_index[s] = inst.request_index.back();
          inst.request_index.pop_back();
        } else {
          ++s;
        }
      }
      if (inst.draining && inst.remaining.empty()) {
        retire_decode(event.instance, inst.drain_reason);
      }
      try_start_decode_step(now);
    }
  }

  metrics.makespan_s = std::max(metrics.makespan_s, progress_now);
  if (metrics.makespan_s > 0.0) {
    metrics.decode_tokens_per_s = metrics.output_tokens / metrics.makespan_s;
    double prefill_busy = 0.0;
    for (const auto& p : prefill) {
      prefill_busy += p.busy_time;
    }
    double decode_busy = 0.0;
    double batch_product = 0.0;
    for (const auto& d : decode) {
      decode_busy += d.busy_time;
      batch_product += d.batch_time_product;
    }
    if (scaler.enabled || faults_enabled) {
      // Provisioned instance-seconds over [0, makespan]: each instance
      // contributes its up..down (or up..end) lifetime, clamped so retires
      // recorded by trailing decision ticks don't overrun the makespan.
      // Fault runs fill these even with a fixed pool, so measured
      // availability has its 1 - downtime / provisioned denominator.
      for (const auto& p : prefill) {
        double end = p.down_time >= 0.0 ? std::min(p.down_time, metrics.makespan_s)
                                        : metrics.makespan_s;
        metrics.prefill_instance_seconds += std::max(0.0, end - p.up_time);
      }
      for (const auto& d : decode) {
        double end = d.down_time >= 0.0 ? std::min(d.down_time, metrics.makespan_s)
                                        : metrics.makespan_s;
        metrics.decode_instance_seconds += std::max(0.0, end - d.up_time);
      }
      metrics.prefill_utilization = metrics.prefill_instance_seconds > 0.0
                                        ? prefill_busy / metrics.prefill_instance_seconds
                                        : 0.0;
      metrics.decode_utilization = metrics.decode_instance_seconds > 0.0
                                       ? decode_busy / metrics.decode_instance_seconds
                                       : 0.0;
      metrics.final_prefill_instances = active_prefill;
      metrics.final_decode_instances = active_decode;
    } else {
      metrics.prefill_utilization =
          prefill_busy / (config.prefill_instances * metrics.makespan_s);
      metrics.decode_utilization =
          decode_busy / (config.decode_instances * metrics.makespan_s);
    }
    metrics.mean_decode_batch = decode_busy > 0.0 ? batch_product / decode_busy : 0.0;
    metrics.prefill_busy_s = prefill_busy;
    metrics.decode_busy_s = decode_busy;
    metrics.decode_batch_time_product = batch_product;
    if (faults_enabled) {
      // Per-pool downtime over [0, makespan], replayed from the event log:
      // each failure opens an interval its spare-activation/repair closes.
      // An interval left open by a retired-while-draining instance (no
      // recovery was scheduled) contributes nothing — the retirement is
      // already accounted in the instance-seconds integral.
      std::vector<double> down_since_prefill(prefill.size(), -1.0);
      std::vector<double> down_since_decode(decode.size(), -1.0);
      for (const FaultEvent& e : metrics.fault_events) {
        bool is_prefill = e.pool == ScalePool::kPrefill;
        std::vector<double>& down_since =
            is_prefill ? down_since_prefill : down_since_decode;
        double& downtime = is_prefill ? metrics.prefill_fault_downtime_s
                                      : metrics.decode_fault_downtime_s;
        size_t i = static_cast<size_t>(e.instance);
        if (e.kind == FaultEventKind::kFailure) {
          down_since[i] = e.time_s;
        } else if (e.kind == FaultEventKind::kSpareActivation ||
                   e.kind == FaultEventKind::kRepair) {
          downtime += std::min(e.time_s, metrics.makespan_s) -
                      std::min(down_since[i], metrics.makespan_s);
          down_since[i] = -1.0;
        }
      }
      for (size_t i = 0; i < down_since_prefill.size(); ++i) {
        if (down_since_prefill[i] >= 0.0 && prefill[i].active) {
          metrics.prefill_fault_downtime_s +=
              metrics.makespan_s - std::min(down_since_prefill[i], metrics.makespan_s);
        }
      }
      for (size_t i = 0; i < down_since_decode.size(); ++i) {
        if (down_since_decode[i] >= 0.0 && decode[i].active) {
          metrics.decode_fault_downtime_s +=
              metrics.makespan_s - std::min(down_since_decode[i], metrics.makespan_s);
        }
      }
    }
  }
  if (degrade_enabled) {
    // Close windows still open at the end of the run, clipped to makespan.
    for (const auto& p : prefill) {
      if (p.degrade_since >= 0.0) {
        metrics.prefill_degraded_instance_s +=
            std::max(0.0, metrics.makespan_s - p.degrade_since);
      }
    }
    for (const auto& d : decode) {
      if (d.degrade_since >= 0.0) {
        metrics.decode_degraded_instance_s +=
            std::max(0.0, metrics.makespan_s - d.degrade_since);
      }
    }
  }
  if (drain_pending) {
    // The queues never emptied again after the largest outage: the drain
    // took the rest of the run.
    metrics.time_to_drain_s =
        std::max(0.0, metrics.makespan_s - metrics.largest_outage_time_s);
  }
  return metrics;
}

}  // namespace

ServeMetrics RunServeSimulationReference(const std::vector<Request>& requests,
                                         const ServeClusterConfig& config,
                                         const StepTimeTable& table) {
  return RunSimulation(requests, config, table);
}

}  // namespace litegpu
