// Failure and blast-radius models (paper Section 3, "Fault-tolerance"):
// smaller GPUs mean a failure takes out less compute/memory, and cheap spare
// Lite-GPUs make hot-sparing affordable — but more devices mean more
// failure events. Closed forms here; the Monte-Carlo simulator in mc_sim.h
// validates them and handles the policies closed forms cannot.

#pragma once

#include "src/hw/gpu_spec.h"

namespace litegpu {

struct FailureParams {
  // Annualized failure rate of one H100-class package (GPU + HBM); public
  // fleet studies land in the 2-9% range for busy training fleets.
  double reference_afr = 0.04;
  double reference_die_area_mm2 = 814.0;
  // Failure rate scales with silicon area (defect-driven) plus a per-device
  // floor (board, connectors, firmware) that does NOT shrink with the die.
  double per_device_floor_afr = 0.005;
  // Mean time to repair/replace a failed device (hours).
  double mttr_hours = 24.0;
  // Mean time to activate a hot spare (minutes matter: reload weights).
  double spare_activation_minutes = 5.0;
};

// AFR of one GPU of the given spec under the area-scaling model.
double GpuAfr(const GpuSpec& gpu, const FailureParams& params = {});

// Failure rate of one GPU in failures/hour (the AFR spread over the year).
double GpuFailureRatePerHour(const GpuSpec& gpu, const FailureParams& params = {});

// Combined failure rate (failures/second) of a model instance spanning
// `gpus_per_instance` GPUs: any member failing takes the instance down, so
// the rates add. This is the per-instance hazard the serve-path fault
// injector (src/serve/faults.h) draws its exponential gaps from.
double InstanceFailureRatePerSecond(const GpuSpec& gpu, int gpus_per_instance,
                                    const FailureParams& params = {});

// Expected failures per year in a cluster of `num_gpus`.
double ClusterFailuresPerYear(const GpuSpec& gpu, int num_gpus,
                              const FailureParams& params = {});

// Fraction of cluster FLOPS lost while one device is down (the paper's
// "blast radius" per failure), for a cluster of `num_gpus`.
double BlastRadiusFraction(int num_gpus);

// Steady-state availability of a model instance spanning `gpus_per_instance`
// GPUs with NO spares: the instance is down while any member is being
// repaired (series system, exponential failures/repairs).
double InstanceAvailabilityNoSpares(const GpuSpec& gpu, int gpus_per_instance,
                                    const FailureParams& params = {});

// Availability with hot spares: failures are masked after the spare
// activation delay as long as a spare is free; with `num_spares` shared
// across `num_instances` instances of `gpus_per_instance` GPUs each.
// Approximation: spare exhaustion treated via Erlang-loss on concurrent
// repairs (validated against the simulator in tests).
double InstanceAvailabilityWithSpares(const GpuSpec& gpu, int gpus_per_instance,
                                      int num_instances, int num_spares,
                                      const FailureParams& params = {});

}  // namespace litegpu
