#include "src/sched/pools.h"

#include <algorithm>
#include <cmath>

#include "src/perf/model.h"

namespace litegpu {

InstanceCapacity CapacityFromPerfModels(const PerfModel& prefill_model, int prefill_batch,
                                        const PerfModel& decode_model, int decode_batch) {
  InstanceCapacity capacity;
  capacity.prefill_tokens_per_s = prefill_model.Prefill(prefill_batch).tokens_per_s;
  capacity.prefill_gpus = prefill_model.plan().degree;
  capacity.decode_tokens_per_s = decode_model.Decode(decode_batch).tokens_per_s;
  capacity.decode_gpus = decode_model.plan().degree;
  return capacity;
}

ServeDeployment PlanServeDeployment(double arrival_rate_per_s, double prompt_tokens,
                                    double output_tokens, const InstanceCapacity& capacity,
                                    int requested_prefill_instances,
                                    int requested_decode_instances) {
  ServeDeployment deployment;
  PoolDemand demand;
  demand.requests_per_s = arrival_rate_per_s;
  demand.prompt_tokens = prompt_tokens;
  demand.output_tokens = output_tokens;
  PoolPlan plan = SizePools(demand, capacity);
  deployment.prefill_instances = requested_prefill_instances > 0
                                     ? requested_prefill_instances
                                     : std::max(1, plan.prefill_instances);
  deployment.decode_instances = requested_decode_instances > 0
                                    ? requested_decode_instances
                                    : std::max(1, plan.decode_instances);
  deployment.total_gpus = deployment.prefill_instances * capacity.prefill_gpus +
                          deployment.decode_instances * capacity.decode_gpus;
  return deployment;
}

ServeDeployment WithHotSpares(ServeDeployment deployment, int prefill_spares,
                              int decode_spares) {
  int spares = std::max(prefill_spares, 0) + std::max(decode_spares, 0);
  deployment.spare_gpus += spares;
  deployment.total_gpus += spares;
  return deployment;
}

PoolPlan SizePools(const PoolDemand& demand, const InstanceCapacity& capacity) {
  PoolPlan plan;
  if (capacity.prefill_tokens_per_s <= 0.0 || capacity.decode_tokens_per_s <= 0.0) {
    return plan;
  }
  double prefill_demand =
      demand.requests_per_s * demand.prompt_tokens * demand.provisioning_headroom;
  double decode_demand =
      demand.requests_per_s * demand.output_tokens * demand.provisioning_headroom;

  plan.prefill_instances =
      std::max(1, static_cast<int>(std::ceil(prefill_demand / capacity.prefill_tokens_per_s)));
  plan.decode_instances =
      std::max(1, static_cast<int>(std::ceil(decode_demand / capacity.decode_tokens_per_s)));
  plan.prefill_gpus = plan.prefill_instances * capacity.prefill_gpus;
  plan.decode_gpus = plan.decode_instances * capacity.decode_gpus;
  plan.total_gpus = plan.prefill_gpus + plan.decode_gpus;
  plan.prefill_overprovision =
      plan.prefill_instances * capacity.prefill_tokens_per_s /
      (demand.requests_per_s * demand.prompt_tokens);
  plan.decode_overprovision = plan.decode_instances * capacity.decode_tokens_per_s /
                              (demand.requests_per_s * demand.output_tokens);
  return plan;
}

}  // namespace litegpu
