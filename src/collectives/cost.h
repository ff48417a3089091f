// Alpha-beta cost models for the collectives used by tensor-parallel
// inference. The paper's Lite clusters move previously in-silicon traffic
// onto the optical network; these models price that move.
//
// Conventions: `payload_bytes` is the full logical vector size S (the tensor
// being reduced/gathered); `n` is the number of participating GPUs; the link
// model is the per-GPU injection bandwidth (unidirectional) plus a per-step
// latency alpha that covers serialization, switching, and flight time.

#pragma once

#include <string>

namespace litegpu {

struct LinkModel {
  double bandwidth_bytes_per_s = 0.0;
  // Per-algorithm-step latency: NVLink-class ~0.7us; optical circuit +
  // transceiver ~1-2us. Default models the paper's co-packaged-optics
  // fabric.
  double latency_s = 1.5e-6;
};

enum class CollectiveAlgo {
  kRing,
  kRecursiveHalvingDoubling,
  // Pick the cheaper of the two for the given payload/n (NCCL-style).
  kAuto,
};

std::string ToString(CollectiveAlgo algo);

// Time for an all-reduce of a payload of S bytes across n GPUs.
//   ring:              2(n-1) steps, 2(n-1)/n * S bytes on the wire per GPU
//   halving-doubling:  2*ceil(log2 n) steps (+1 round if n not a power of
//                      two), same 2(n-1)/n * S bandwidth term
double AllReduceTime(double payload_bytes, int n, const LinkModel& link,
                     CollectiveAlgo algo = CollectiveAlgo::kAuto);

// All-gather where each GPU contributes S/n and ends with all S bytes.
double AllGatherTime(double payload_bytes, int n, const LinkModel& link,
                     CollectiveAlgo algo = CollectiveAlgo::kAuto);

// Reduce-scatter of S bytes (each GPU ends with S/n reduced bytes).
double ReduceScatterTime(double payload_bytes, int n, const LinkModel& link,
                         CollectiveAlgo algo = CollectiveAlgo::kAuto);

}  // namespace litegpu
