#include "src/sched/allocator.h"

#include <cmath>

namespace litegpu {

ClusterAllocator::ClusterAllocator(int total_units, double unit_h100_equiv)
    : total_units_(total_units), unit_h100_equiv_(unit_h100_equiv) {}

Allocation ClusterAllocator::Allocate(const AllocationRequest& request) {
  Allocation out;
  out.request_id = request.id;
  if (request.h100_equivalents <= 0.0 || unit_h100_equiv_ <= 0.0) {
    return out;
  }
  int units = static_cast<int>(std::ceil(request.h100_equivalents / unit_h100_equiv_ - 1e-9));
  if (units <= 0) {
    units = 1;
  }
  if (used_units_ + units > total_units_) {
    return out;
  }
  used_units_ += units;
  demanded_h100_ += request.h100_equivalents;
  granted_h100_ += units * unit_h100_equiv_;
  out.units = units;
  out.satisfied = true;
  return out;
}

double ClusterAllocator::AllocationEfficiency() const {
  return granted_h100_ > 0.0 ? demanded_h100_ / granted_h100_ : 1.0;
}

GranularityComparison CompareGranularity(const std::vector<AllocationRequest>& requests,
                                         int h100_count, int split) {
  GranularityComparison out;
  ClusterAllocator coarse(h100_count, 1.0);
  ClusterAllocator fine(h100_count * split, 1.0 / split);
  for (const auto& request : requests) {
    if (coarse.Allocate(request).satisfied) {
      ++out.coarse_jobs_packed;
    }
    if (fine.Allocate(request).satisfied) {
      ++out.fine_jobs_packed;
    }
  }
  out.coarse_efficiency = coarse.AllocationEfficiency();
  out.fine_efficiency = fine.AllocationEfficiency();
  return out;
}

}  // namespace litegpu
