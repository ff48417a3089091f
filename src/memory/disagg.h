// Disaggregated-memory model for Lite-GPU clusters (paper Section 3,
// "Memory management"): each Lite-GPU has only a fraction of a large GPU's
// HBM, so workloads that need capacity (decode KV caches above all) may
// spill into a network-attached memory pool. This model quantifies the
// trade: remote capacity relieves the batch-size ceiling, but every decode
// step must stream the remote slice of the KV cache over the fabric.

#pragma once

#include "src/hw/gpu_spec.h"
#include "src/llm/footprint.h"
#include "src/llm/model.h"
#include "src/llm/parallel.h"
#include "src/roofline/inference.h"

namespace litegpu {

struct MemoryPoolSpec {
  // Capacity the pool grants each attached GPU.
  double capacity_per_gpu_bytes = 80e9;
  // Per-GPU bandwidth into the pool (shares or extends the NIC; CXL-class
  // or network-attached HBM).
  double bw_bytes_per_s = 50e9;
  // One-way access latency (fabric + controller).
  double latency_s = 2e-6;
  // If true, pool traffic contends with the GPU's collective traffic on the
  // same NIC; if false it rides a dedicated port.
  bool shares_nic = false;
};

struct DisaggPlacement {
  // Fraction of each sequence's KV cache resident in local HBM; the rest
  // lives in the pool. 1.0 = no disaggregation.
  double local_fraction = 1.0;
};

struct DisaggDecodeResult {
  bool feasible = false;
  bool meets_slo = false;
  double tbt_s = 0.0;
  double tokens_per_s = 0.0;
  double tokens_per_s_per_sm = 0.0;
  // Where the step time went.
  double local_memory_s = 0.0;
  double remote_memory_s = 0.0;
  double network_s = 0.0;
  // Footprints.
  double local_bytes_per_gpu = 0.0;
  double remote_bytes_per_gpu = 0.0;
};

// Decode step with the given KV placement. Local HBM must hold weights +
// the local KV slice; the pool must hold the remote slice. The remote slice
// is streamed once per step (decode reads the whole cache).
DisaggDecodeResult EvaluateDisaggDecode(const TransformerSpec& model, const GpuSpec& gpu,
                                        const TpPlan& plan, int batch,
                                        const MemoryPoolSpec& pool,
                                        const DisaggPlacement& placement,
                                        const WorkloadParams& workload,
                                        const EngineParams& engine);

// Largest batch servable at the given placement (local + pool capacity).
int MaxBatchWithPool(const TransformerSpec& model, const TpPlan& plan, const GpuSpec& gpu,
                     const MemoryPoolSpec& pool, const DisaggPlacement& placement,
                     int max_context);

}  // namespace litegpu
