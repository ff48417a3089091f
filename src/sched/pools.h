// Splitwise-style phase-split pool sizing (paper Sections 3-4: different
// inference phases run on differently-customized clusters). Given a request
// rate and the measured per-instance capacities, size the prefill and decode
// pools, quantified at H100 vs Lite granularity.

#pragma once

namespace litegpu {

class PerfModel;

struct PoolDemand {
  double requests_per_s = 10.0;
  // Mean tokens per request. Doubles, not ints: a multi-tenant mix plans
  // capacity from the class-weighted mean workload (e.g. 0.7*256 + 0.3*900
  // output tokens), which is fractional.
  double prompt_tokens = 1500.0;
  double output_tokens = 256.0;
  // Headroom multiplier over the mean demand (burst absorption).
  double provisioning_headroom = 1.25;
};

struct InstanceCapacity {
  // Best-config throughput of ONE instance (from core::ConfigSearch).
  double prefill_tokens_per_s = 0.0;
  double decode_tokens_per_s = 0.0;
  int prefill_gpus = 0;  // GPUs per prefill instance
  int decode_gpus = 0;   // GPUs per decode instance
};

struct PoolPlan {
  int prefill_instances = 0;
  int decode_instances = 0;
  int prefill_gpus = 0;
  int decode_gpus = 0;
  int total_gpus = 0;
  // Provisioned / demanded capacity per pool (>= headroom by construction;
  // larger means quantization waste).
  double prefill_overprovision = 0.0;
  double decode_overprovision = 0.0;
};

// Sizes both pools for the demand; instance counts round up.
PoolPlan SizePools(const PoolDemand& demand, const InstanceCapacity& capacity);

// Derives the per-instance capacities from the analytic PerfModels of the
// chosen prefill/decode configurations (the searched best batches). This is
// how the serve study and the examples feed SizePools without re-wiring
// roofline calls by hand.
InstanceCapacity CapacityFromPerfModels(const PerfModel& prefill_model, int prefill_batch,
                                        const PerfModel& decode_model, int decode_batch);

// The deployment a serve study actually simulates at one offered load
// point: explicitly requested instance counts are taken as-is, a requested
// count of 0 auto-sizes that pool from the analytic capacities via
// SizePools (never below one instance). Shared by the serve and serve-sweep
// studies so every point of a sweep sizes its prefill pool the same way a
// standalone serve run would. For multi-tenant mixes the token counts are
// the class-weighted means, so the pools are sized for the blended demand.
struct ServeDeployment {
  int prefill_instances = 0;
  int decode_instances = 0;
  // Hot-spare GPUs provisioned alongside the pools (0 without fault
  // injection). Spares are real devices the deployment pays for, so
  // total_gpus includes them.
  int spare_gpus = 0;
  int total_gpus = 0;
};

ServeDeployment PlanServeDeployment(double arrival_rate_per_s, double prompt_tokens,
                                    double output_tokens, const InstanceCapacity& capacity,
                                    int requested_prefill_instances,
                                    int requested_decode_instances);

// Accounts per-pool hot-spare GPUs into the deployment's cost: spare_gpus
// and total_gpus grow by prefill_spares + decode_spares. The serve studies
// call this when fault injection provisions hot spares, so the reported GPU
// count (the denominator of any cost-per-token claim) reflects the idle
// silicon that buys the availability.
ServeDeployment WithHotSpares(ServeDeployment deployment, int prefill_spares,
                              int decode_spares);

}  // namespace litegpu
