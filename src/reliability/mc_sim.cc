#include "src/reliability/mc_sim.h"

#include <algorithm>
#include <queue>
#include <vector>

#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace litegpu {

namespace {

constexpr double kHoursPerYear = 8766.0;

enum class EventKind { kRepairDone, kActivationDone };

struct Event {
  double time_h = 0.0;
  EventKind kind = EventKind::kRepairDone;
  int instance = -1;  // for activation events
  bool operator>(const Event& other) const { return time_h > other.time_h; }
};

struct TrialResult {
  double up_time_weighted = 0.0;
  uint64_t num_failures = 0;
  uint64_t unmasked_failures = 0;
};

// One independent cluster replica simulated over the full horizon with its
// own RNG stream. Pure function of (gpu, config, seed): trials can run on
// any worker in any order and aggregate deterministically.
TrialResult RunTrial(const GpuSpec& gpu, const McSimConfig& config, uint64_t seed) {
  TrialResult result;
  Rng rng(seed);

  const double lambda = GpuAfr(gpu, config.failure) / kHoursPerYear;  // per GPU-hour
  const double repair_rate = 1.0 / config.failure.mttr_hours;
  const double activation_h = config.failure.spare_activation_minutes / 60.0;
  const double horizon_h = config.sim_years * kHoursPerYear;

  // Per-instance count of unhealthy member slots (0 == instance up).
  std::vector<int> missing(config.num_instances, 0);
  // Instance indices waiting for a spare (FIFO).
  std::queue<int> waiting;
  int free_spares = config.num_spares;
  int healthy_members = config.gpus_per_instance * config.num_instances;
  int instances_up = config.num_instances;

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;

  double now = 0.0;
  double up_time_weighted = 0.0;

  auto advance_to = [&](double t) {
    up_time_weighted += (t - now) * instances_up;
    now = t;
  };

  auto assign_spare = [&](int instance, double t) {
    --free_spares;
    events.push({t + activation_h, EventKind::kActivationDone, instance});
  };

  while (now < horizon_h) {
    // Next failure among currently healthy members (memoryless resample).
    double next_failure =
        healthy_members > 0 ? now + rng.Exponential(lambda * healthy_members)
                            : horizon_h + 1.0;
    double next_event = events.empty() ? horizon_h + 1.0 : events.top().time_h;

    if (next_failure >= horizon_h && next_event >= horizon_h) {
      advance_to(horizon_h);
      break;
    }

    if (next_failure < next_event) {
      advance_to(next_failure);
      ++result.num_failures;
      // Pick a random healthy member; instance weight = its healthy count.
      int victim = -1;
      uint64_t pick = rng.NextBelow(static_cast<uint64_t>(healthy_members));
      for (int i = 0; i < config.num_instances; ++i) {
        uint64_t healthy_here =
            static_cast<uint64_t>(config.gpus_per_instance - missing[i]);
        if (pick < healthy_here) {
          victim = i;
          break;
        }
        pick -= healthy_here;
      }
      if (missing[victim] == 0) {
        --instances_up;
      }
      ++missing[victim];
      --healthy_members;
      events.push({now + rng.Exponential(repair_rate), EventKind::kRepairDone, -1});
      if (free_spares > 0) {
        assign_spare(victim, now);
      } else {
        ++result.unmasked_failures;
        waiting.push(victim);
      }
    } else {
      Event event = events.top();
      events.pop();
      advance_to(event.time_h);
      if (event.kind == EventKind::kRepairDone) {
        // Repaired device rejoins the spare pool (or goes straight to a
        // waiting instance).
        ++free_spares;
        if (!waiting.empty()) {
          int instance = waiting.front();
          waiting.pop();
          assign_spare(instance, now);
        }
      } else {
        // Spare activated: one missing slot of this instance is healthy.
        --missing[event.instance];
        ++healthy_members;
        if (missing[event.instance] == 0) {
          ++instances_up;
        }
      }
    }
  }

  result.up_time_weighted = up_time_weighted;
  return result;
}

}  // namespace

McSimResult SimulateAvailability(const GpuSpec& gpu, const McSimConfig& config) {
  int num_trials = std::max(config.num_trials, 1);
  // Trial 0 keeps config.seed so the single-trial default matches the
  // original serial simulator bit for bit; later trials re-mix through
  // SplitMix64 (a plain additive step would hand 3 of trial i's 4 xoshiro
  // state words to trial i+1, correlating "independent" replicas).
  std::vector<TrialResult> trials = ParallelMap<TrialResult>(
      config.exec.threads, num_trials, [&](int i) {
        uint64_t seed =
            i == 0 ? config.seed
                   : SplitMix64(config.seed ^ (0xA3EC647659359ACDULL *
                                               static_cast<uint64_t>(i))).Next();
        return RunTrial(gpu, config, seed);
      });

  McSimResult result;
  double up_time_weighted = 0.0;
  for (const TrialResult& trial : trials) {
    up_time_weighted += trial.up_time_weighted;
    result.num_failures += trial.num_failures;
    result.unmasked_failures += trial.unmasked_failures;
  }
  const double horizon_h = config.sim_years * kHoursPerYear;
  double denom = horizon_h * config.num_instances * num_trials;
  result.instance_availability = denom > 0.0 ? up_time_weighted / denom : 0.0;
  result.capacity_fraction = result.instance_availability;
  double total_years = config.sim_years * num_trials;
  result.failures_per_year =
      total_years > 0.0 ? static_cast<double>(result.num_failures) / total_years : 0.0;
  return result;
}

Json ToJson(const McSimResult& result) {
  Json j = Json::Object();
  j.Set("instance_availability", result.instance_availability)
      .Set("capacity_fraction", result.capacity_fraction)
      .Set("num_failures", result.num_failures)
      .Set("unmasked_failures", result.unmasked_failures)
      .Set("failures_per_year", result.failures_per_year);
  return j;
}

}  // namespace litegpu
