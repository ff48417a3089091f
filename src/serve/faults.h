// Fault-injection engine for the serving simulator (paper Section 3,
// "Fault-tolerance"): derives per-instance failure / repair / hot-spare
// event streams from the reliability model's area-scaled AFR and injects
// them into the deterministic serve event loop, so blast radius is measured
// on live traffic instead of in isolation. H100-sized and Lite-sized pools
// naturally get different churn — the per-instance hazard is the per-GPU
// rate times the instance's GPU count.
//
// Determinism: every failure gap comes from a dedicated per-(pool, slot)
// xoshiro substream seeded by SplitMix64 over (fault seed, pool, slot).
// A slot's stream depends only on those three values — never on when the
// slot was first asked or what other slots drew — so fault schedules are
// bit-identical at any thread count and never perturb the workload
// substreams (the fault seed itself is derived from the scenario seed via a
// distinct SplitMix64 mix in the Runner).
//
// Spares are GPU-level, per pool: a failure consumes a free spare when one
// is available (the instance returns after the activation delay and the
// failed device rejoins the spare pool once repaired) and otherwise waits
// out the full repair. This matches InstanceAvailabilityWithSpares'
// Erlang-loss approximation, which SimulateFaultAvailability cross-checks.

#pragma once

#include <cstdint>
#include <vector>

#include "src/util/rng.h"

namespace litegpu {

// Which serving pool an event touched (shared with the autoscaler's
// ScaleEvent; defined here so the fault types don't depend on simulator.h).
enum class ScalePool { kPrefill, kDecode };
const char* ToString(ScalePool pool);

// What happens to a failed instance's in-flight requests.
//   kRetry           — requeue at the back of the prefill queue (the KV
//                      cache died with the instance, so they restart).
//   kDrop            — discard them; they count as dropped, not completed.
//   kRetryWithBudget — retry until a request has been killed retry_budget
//                      times, then drop it.
enum class FaultRetryPolicy { kRetry, kDrop, kRetryWithBudget };
const char* ToString(FaultRetryPolicy policy);

enum class FaultEventKind {
  kFailure,          // instance went down (in-flight work killed)
  kSpareActivation,  // instance back up on a hot spare after the delay
  kRepair,           // instance back up after a full repair (no spare free)
  kSpareReturn,      // a repaired device rejoined the pool's spare set
  kDegradeStart,     // instance entered a throttled (slowed) state
  kDegradeEnd,       // instance left the throttled state
};
const char* ToString(FaultEventKind kind);

// One entry of the fault event log, in simulated-time order. The log is
// part of the bit-identity contract: the production and reference cores
// must produce element-wise identical logs at any thread count.
struct FaultEvent {
  double time_s = 0.0;
  FaultEventKind kind = FaultEventKind::kFailure;
  ScalePool pool = ScalePool::kPrefill;
  int instance = 0;
  // kFailure only: in-flight requests killed and tokens of work discarded
  // (generated-so-far tokens for decode, prompt tokens for prefill).
  int killed_requests = 0;
  double lost_tokens = 0.0;
  // Free spares in the pool after this event took effect.
  int spares_free = 0;
  // Failure-domain id when this failure was part of a correlated domain
  // outage; -1 (the default) for independent per-instance events. A domain
  // outage at time T appears as one kFailure entry per live member, all at
  // time T with the same domain id (see FaultDomainConfig).
  int domain = -1;
};

// Correlated failure domains (rack power, ToR switch, firmware rollout):
// each pool's instances are mapped onto domains by index —
// domain(i) = i / instances_per_domain — and a domain-level failure stream
// downs every live member at one timestamp. Domain outages bypass hot
// spares (a rack outage is not maskable by a spare device) and every
// member waits out the full domain repair. The per-pool member counts are
// resolved by the Runner from one silicon-normalized domain size, so H100
// and Lite pools pack the same silicon into different domain shapes.
struct FaultDomainConfig {
  int prefill_instances_per_domain = 0;  // 0 = no domains for the pool
  int decode_instances_per_domain = 0;
  double failure_rate_per_s = 0.0;  // per-domain outage hazard
  double repair_s = 0.0;            // domain outage duration (no spares)
  bool enabled() const {
    return failure_rate_per_s > 0.0 && (prefill_instances_per_domain > 0 ||
                                        decode_instances_per_domain > 0);
  }
};

// Transient degraded states (ECC storms, thermal throttling): instead of
// killing an instance, a degrade event multiplies its step/pass times by
// `multiplier` for an exponentially-distributed window. In-flight steps
// keep the duration they were dispatched with; the multiplier applies on
// dispatch only, so completion-heap accounting stays exact. A failure
// clears the degraded state (the repaired/replaced instance comes back
// fresh).
struct DegradedStateConfig {
  double prefill_rate_per_s = 0.0;  // per-instance degrade-event hazard
  double decode_rate_per_s = 0.0;
  double multiplier = 1.0;       // step-time multiplier while degraded
  double mean_duration_s = 0.0;  // mean throttled-window length
  bool enabled() const {
    return (prefill_rate_per_s > 0.0 || decode_rate_per_s > 0.0) &&
           multiplier > 1.0 && mean_duration_s > 0.0;
  }
};

// Overload protection / admission control: arrivals are shed at the door
// instead of queuing without bound, so failure-triggered retry storms
// cannot go metastable. Shed requests count as admitted (they reached the
// cluster) but never enter the prefill queue:
//   admitted = completed + dropped + shed  once a run fully drains.
struct SheddingPolicy {
  // Shed an arrival when the prefill queue already holds this many
  // requests. 0 = no depth cap.
  int max_queue_depth = 0;
  // Shed an arrival whose estimated TTFT exceeds this deadline. The
  // estimate is ceil((depth + 1) / (max_prefill_batch * live_instances))
  // full-batch prefill passes, where live excludes down/draining/inactive
  // instances (zero live instances sheds unconditionally). 0 = no deadline.
  double ttft_deadline_s = 0.0;
  bool enabled() const { return max_queue_depth > 0 || ttft_deadline_s > 0.0; }
};

enum class ShedReason { kQueueDepth, kDeadline };
const char* ToString(ShedReason reason);

// One shed arrival, in simulated-time order. Like the fault log, the shed
// log is part of the bit-identity contract: the production and reference
// cores must produce element-wise identical logs at any thread count.
struct ShedEvent {
  double time_s = 0.0;
  int request = 0;  // request id (index in arrival order)
  ShedReason reason = ShedReason::kQueueDepth;
};

// Resolved fault-injection parameters for one simulation, produced from the
// scenario's FaultKnobs + the planned deployment's GPU counts by the Runner
// (rates = GpuAfr x GPUs-per-instance / seconds-per-year). Disabled (the
// default) runs none of the fault code: metrics stay bit-identical to the
// pre-fault simulator.
struct ServeFaultConfig {
  bool enabled = false;
  // Whole-instance failure rates: any member GPU failing downs the instance.
  double prefill_failure_rate_per_s = 0.0;
  double decode_failure_rate_per_s = 0.0;
  double repair_s = 24.0 * 3600.0;
  double spare_activation_s = 300.0;
  // Hot-spare GPUs per pool (each failure consumes/returns one device).
  int prefill_spares = 0;
  int decode_spares = 0;
  FaultRetryPolicy retry_policy = FaultRetryPolicy::kRetry;
  int retry_budget = 3;
  // Correlated failure domains and transient degraded states; both default
  // to disabled so pre-domain fault runs stay bit-identical.
  FaultDomainConfig domains;
  DegradedStateConfig degraded;
  // Dedicated substream seed (derive from the scenario seed with a distinct
  // mix; see FaultSubstreamSeed).
  uint64_t seed = 0;
};

// The fault-injection RNG seed for scenario seed `seed`: a SplitMix64 mix
// disjoint from ClassSubstreamSeed's stream, so enabling faults never
// perturbs arrivals or request lengths.
uint64_t FaultSubstreamSeed(uint64_t seed);

// Per-(pool, slot) exponential failure-gap streams. Slots are instance
// indices within a pool; streams are created lazily but seeded only by
// (seed, pool, slot), so autoscaled instances appearing mid-run draw the
// same schedule regardless of when they appear. Domain outages and degrade
// windows draw from their own tagged substream families — keyed by
// (seed, pool, domain) and (seed, pool, slot) respectively — so enabling
// one axis never perturbs another axis's schedule.
class FaultStreams {
 public:
  explicit FaultStreams(uint64_t seed) : seed_(seed) {}

  // Seconds from "now" until `slot`'s next failure, exponential with the
  // given per-second rate. rate_per_s must be > 0.
  double NextFailureGap(ScalePool pool, int slot, double rate_per_s);
  // Seconds from "now" until failure domain `domain`'s next outage.
  double NextDomainFailureGap(ScalePool pool, int domain, double rate_per_s);
  // Seconds from "now" until `slot`'s next degrade window, and the length
  // of a window once entered. Both draw from the slot's one degrade
  // stream, in the order the event loop consumes them.
  double NextDegradeGap(ScalePool pool, int slot, double rate_per_s);
  double NextDegradeDuration(ScalePool pool, int slot, double mean_s);

 private:
  Rng& Slot(std::vector<Rng>& slots, uint64_t tag, int slot);

  uint64_t seed_;
  std::vector<Rng> prefill_slots_;
  std::vector<Rng> decode_slots_;
  std::vector<Rng> prefill_domains_;
  std::vector<Rng> decode_domains_;
  std::vector<Rng> prefill_degrade_;
  std::vector<Rng> decode_degrade_;
};

// Steady-state outcome of a no-traffic fault run (SimulateFaultAvailability).
struct FaultAvailabilityStats {
  // 1 - instance downtime / (num_instances * duration).
  double availability = 0.0;
  int failures = 0;
  int spare_masked = 0;  // failures that found a free spare
};

// Runs the fault engine alone — no requests, one pool of `num_instances`
// identical instances sharing `num_spares` hot-spare devices — and measures
// steady-state availability. This is the serve-path cross-check against the
// closed forms in src/reliability/failure_model.h: the same event semantics
// the serve loop injects, so agreement here validates the integration the
// way StepTimeTable is golden-checked against PerfModel.
FaultAvailabilityStats SimulateFaultAvailability(double failure_rate_per_s,
                                                 double repair_s,
                                                 double spare_activation_s,
                                                 int num_spares, int num_instances,
                                                 double duration_s, uint64_t seed);

}  // namespace litegpu
