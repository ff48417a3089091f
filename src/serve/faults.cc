#include "src/serve/faults.h"

#include <algorithm>
#include <queue>

namespace litegpu {

const char* ToString(ScalePool pool) {
  return pool == ScalePool::kPrefill ? "prefill" : "decode";
}

const char* ToString(FaultRetryPolicy policy) {
  switch (policy) {
    case FaultRetryPolicy::kRetry:
      return "retry";
    case FaultRetryPolicy::kDrop:
      return "drop";
    case FaultRetryPolicy::kRetryWithBudget:
      return "retry_with_budget";
  }
  return "retry";
}

const char* ToString(FaultEventKind kind) {
  switch (kind) {
    case FaultEventKind::kFailure:
      return "failure";
    case FaultEventKind::kSpareActivation:
      return "spare_activation";
    case FaultEventKind::kRepair:
      return "repair";
    case FaultEventKind::kSpareReturn:
      return "spare_return";
    case FaultEventKind::kDegradeStart:
      return "degrade_start";
    case FaultEventKind::kDegradeEnd:
      return "degrade_end";
  }
  return "failure";
}

const char* ToString(ShedReason reason) {
  return reason == ShedReason::kQueueDepth ? "queue_depth" : "deadline";
}

uint64_t FaultSubstreamSeed(uint64_t seed) {
  // A constant XOR before the SplitMix64 walk lands this stream away from
  // ClassSubstreamSeed's (which draws consecutive values from
  // SplitMix64(seed)), so fault gaps and workload draws never collide.
  return SplitMix64(seed ^ 0xFA17C0DEFA17C0DEULL).Next();
}

namespace {
// Tags land each substream family away from the others (and from
// ClassSubstreamSeed / ShardSubstreamSeed): per-slot failure gaps, per-domain
// outage gaps, and per-slot degrade gap+duration pairs never collide.
constexpr uint64_t kFailPrefillTag = 0x9E6BB5F86BDCF4ULL;
constexpr uint64_t kFailDecodeTag = 0xD1B54A32D192EDULL;
constexpr uint64_t kDomainPrefillTag = 0xB4C7A9E2D15F31ULL;
constexpr uint64_t kDomainDecodeTag = 0xC8D3B7F4E26A42ULL;
constexpr uint64_t kDegradePrefillTag = 0xD9E4C8A5F37B53ULL;
constexpr uint64_t kDegradeDecodeTag = 0xEAF5D9B6A48C64ULL;
}  // namespace

Rng& FaultStreams::Slot(std::vector<Rng>& slots, uint64_t tag, int slot) {
  while (static_cast<int>(slots.size()) <= slot) {
    // Seed depends only on (seed_, tag, slot index): two mixing rounds so
    // neighbouring slots land far apart in SplitMix64 space.
    uint64_t base = SplitMix64(seed_ ^ tag).Next();
    slots.emplace_back(
        SplitMix64(base + 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(slots.size() + 1))
            .Next());
  }
  return slots[static_cast<size_t>(slot)];
}

double FaultStreams::NextFailureGap(ScalePool pool, int slot, double rate_per_s) {
  std::vector<Rng>& slots =
      pool == ScalePool::kPrefill ? prefill_slots_ : decode_slots_;
  uint64_t tag = pool == ScalePool::kPrefill ? kFailPrefillTag : kFailDecodeTag;
  return Slot(slots, tag, slot).Exponential(rate_per_s);
}

double FaultStreams::NextDomainFailureGap(ScalePool pool, int domain,
                                          double rate_per_s) {
  std::vector<Rng>& slots =
      pool == ScalePool::kPrefill ? prefill_domains_ : decode_domains_;
  uint64_t tag = pool == ScalePool::kPrefill ? kDomainPrefillTag : kDomainDecodeTag;
  return Slot(slots, tag, domain).Exponential(rate_per_s);
}

double FaultStreams::NextDegradeGap(ScalePool pool, int slot, double rate_per_s) {
  std::vector<Rng>& slots =
      pool == ScalePool::kPrefill ? prefill_degrade_ : decode_degrade_;
  uint64_t tag = pool == ScalePool::kPrefill ? kDegradePrefillTag : kDegradeDecodeTag;
  return Slot(slots, tag, slot).Exponential(rate_per_s);
}

double FaultStreams::NextDegradeDuration(ScalePool pool, int slot, double mean_s) {
  std::vector<Rng>& slots =
      pool == ScalePool::kPrefill ? prefill_degrade_ : decode_degrade_;
  uint64_t tag = pool == ScalePool::kPrefill ? kDegradePrefillTag : kDegradeDecodeTag;
  return Slot(slots, tag, slot).Exponential(1.0 / mean_s);
}

FaultAvailabilityStats SimulateFaultAvailability(double failure_rate_per_s,
                                                 double repair_s,
                                                 double spare_activation_s,
                                                 int num_spares, int num_instances,
                                                 double duration_s, uint64_t seed) {
  FaultAvailabilityStats stats;
  if (failure_rate_per_s <= 0.0 || num_instances <= 0 || duration_s <= 0.0) {
    stats.availability = 1.0;
    return stats;
  }
  // Same mechanics as the serve loop's injection, minus traffic: each
  // instance alternates exponential up-gaps with a downtime of either the
  // spare-activation delay (spare free: consume it, device returns to the
  // spare set once repaired) or the full repair.
  enum class Kind { kFail, kRecover, kSpareReturn };
  struct Ev {
    double t;
    Kind kind;
    int instance;
    bool operator>(const Ev& other) const {
      if (t != other.t) {
        return t > other.t;
      }
      if (kind != other.kind) {
        return kind > other.kind;
      }
      return instance > other.instance;
    }
  };
  FaultStreams streams(seed);
  std::priority_queue<Ev, std::vector<Ev>, std::greater<Ev>> events;
  int spares_free = std::max(num_spares, 0);
  double downtime = 0.0;
  std::vector<double> down_since(static_cast<size_t>(num_instances), -1.0);
  for (int i = 0; i < num_instances; ++i) {
    double t = streams.NextFailureGap(ScalePool::kPrefill, i, failure_rate_per_s);
    if (t <= duration_s) {
      events.push({t, Kind::kFail, i});
    }
  }
  while (!events.empty()) {
    Ev ev = events.top();
    events.pop();
    if (ev.kind == Kind::kSpareReturn) {
      ++spares_free;
      continue;
    }
    if (ev.kind == Kind::kFail) {
      ++stats.failures;
      down_since[static_cast<size_t>(ev.instance)] = ev.t;
      double delay = repair_s;
      if (spares_free > 0) {
        --spares_free;
        ++stats.spare_masked;
        delay = spare_activation_s;
        events.push({ev.t + repair_s, Kind::kSpareReturn, ev.instance});
      }
      events.push({ev.t + delay, Kind::kRecover, ev.instance});
      continue;
    }
    // kRecover: accumulate the down interval clipped to the horizon, then
    // draw the next gap.
    double& since = down_since[static_cast<size_t>(ev.instance)];
    downtime += std::min(ev.t, duration_s) - std::min(since, duration_s);
    since = -1.0;
    double next =
        ev.t + streams.NextFailureGap(ScalePool::kPrefill, ev.instance, failure_rate_per_s);
    if (next <= duration_s) {
      events.push({next, Kind::kFail, ev.instance});
    }
  }
  for (double since : down_since) {
    if (since >= 0.0) {
      downtime += duration_s - std::min(since, duration_s);
    }
  }
  stats.availability = 1.0 - downtime / (static_cast<double>(num_instances) * duration_s);
  return stats;
}

}  // namespace litegpu
