// Cluster resource allocation at GPU granularity (paper Section 3,
// "Finer-granularity of resource management"): with Lite-GPUs the allocation
// quantum shrinks from one H100-equivalent to a quarter, cutting the
// rounding waste when job demands are not multiples of the quantum, at the
// cost of more devices to track.

#pragma once

#include <string>
#include <vector>

namespace litegpu {

enum class FitPolicy { kFirstFit, kBestFit };

// A request for compute expressed in H100-equivalents (can be fractional:
// a small model may need 0.4 of an H100).
struct AllocationRequest {
  int id = 0;
  double h100_equivalents = 1.0;
};

struct Allocation {
  int request_id = 0;
  int units = 0;  // allocation quanta granted
  bool satisfied = false;
};

// A homogeneous cluster with `total_units` allocation quanta, each worth
// `unit_h100_equiv` H100-equivalents (1.0 for H100 clusters, 0.25 for
// 4x-split Lite clusters).
class ClusterAllocator {
 public:
  ClusterAllocator(int total_units, double unit_h100_equiv);

  // Grants ceil(demand / unit) quanta if available.
  Allocation Allocate(const AllocationRequest& request);

  int used_units() const { return used_units_; }

  // Capacity actually demanded / capacity granted, over current allocations
  // (1.0 = no rounding waste).
  double AllocationEfficiency() const;

 private:
  int total_units_;
  double unit_h100_equiv_;
  int used_units_ = 0;
  double demanded_h100_ = 0.0;  // sum of satisfied requests' true demand
  double granted_h100_ = 0.0;   // sum of granted quanta worth
};

struct GranularityComparison {
  double coarse_efficiency = 0.0;  // H100-granularity allocation efficiency
  double fine_efficiency = 0.0;    // Lite-granularity
  int coarse_jobs_packed = 0;
  int fine_jobs_packed = 0;
};

// Packs the same request stream into two equal-capacity clusters that differ
// only in quantum size; used by the Section-3 resource-management bench.
GranularityComparison CompareGranularity(const std::vector<AllocationRequest>& requests,
                                         int h100_count, int split);

}  // namespace litegpu
