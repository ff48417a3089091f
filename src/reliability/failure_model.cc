#include "src/reliability/failure_model.h"

#include <algorithm>
#include <cmath>

#include "src/util/units.h"

namespace litegpu {

namespace {

constexpr double kHoursPerYear = 8766.0;

// Erlang-B blocking probability for `servers` servers at offered load rho.
double ErlangB(int servers, double rho) {
  double b = 1.0;
  for (int j = 1; j <= servers; ++j) {
    b = rho * b / (j + rho * b);
  }
  return b;
}

}  // namespace

double GpuAfr(const GpuSpec& gpu, const FailureParams& params) {
  double area_component = (params.reference_afr - params.per_device_floor_afr) *
                          (gpu.die_area_mm2 / params.reference_die_area_mm2);
  return params.per_device_floor_afr + std::max(area_component, 0.0);
}

double GpuFailureRatePerHour(const GpuSpec& gpu, const FailureParams& params) {
  return GpuAfr(gpu, params) / kHoursPerYear;
}

double InstanceFailureRatePerSecond(const GpuSpec& gpu, int gpus_per_instance,
                                    const FailureParams& params) {
  return GpuFailureRatePerHour(gpu, params) * std::max(gpus_per_instance, 0) / 3600.0;
}

double ClusterFailuresPerYear(const GpuSpec& gpu, int num_gpus, const FailureParams& params) {
  return GpuAfr(gpu, params) * num_gpus;
}

double BlastRadiusFraction(int num_gpus) {
  return num_gpus > 0 ? 1.0 / num_gpus : 0.0;
}

double InstanceAvailabilityNoSpares(const GpuSpec& gpu, int gpus_per_instance,
                                    const FailureParams& params) {
  double lambda_per_hour = GpuAfr(gpu, params) / kHoursPerYear;
  double per_gpu = 1.0 / (1.0 + lambda_per_hour * params.mttr_hours);
  return std::pow(per_gpu, gpus_per_instance);
}

double InstanceAvailabilityWithSpares(const GpuSpec& gpu, int gpus_per_instance,
                                      int num_instances, int num_spares,
                                      const FailureParams& params) {
  if (num_spares <= 0) {
    return InstanceAvailabilityNoSpares(gpu, gpus_per_instance, params);
  }
  double lambda_per_hour = GpuAfr(gpu, params) / kHoursPerYear;
  int active_gpus = gpus_per_instance * num_instances;
  // Devices concurrently in repair form an M/G/inf-ish pool; spares block
  // when more than num_spares are in repair.
  double rho = active_gpus * lambda_per_hour * params.mttr_hours;
  double blocked = ErlangB(num_spares, rho);
  double activation_hours = params.spare_activation_minutes / 60.0;
  double effective_downtime = activation_hours + blocked * params.mttr_hours;
  double per_gpu = 1.0 / (1.0 + lambda_per_hour * effective_downtime);
  return std::pow(per_gpu, gpus_per_instance);
}

}  // namespace litegpu
