#include "src/collectives/hierarchical.h"

#include <algorithm>

namespace litegpu {

double HierarchicalAllReduceTime(double payload_bytes, int n,
                                 const HierarchicalFabric& fabric, CollectiveAlgo algo) {
  if (n <= 1 || payload_bytes <= 0.0) {
    return 0.0;
  }
  int g = fabric.group_size;
  if (g <= 1 || n % g != 0 || n / g < 1) {
    return AllReduceTime(payload_bytes, n, fabric.global_link, algo);
  }
  int groups = n / g;
  if (groups == 1) {
    // Single group: the whole collective runs on local links.
    return AllReduceTime(payload_bytes, g, fabric.local_link, algo);
  }
  double phase1 = ReduceScatterTime(payload_bytes, g, fabric.local_link, algo);
  double phase2 =
      AllReduceTime(payload_bytes / g, groups, fabric.global_link, algo);
  double phase3 = AllGatherTime(payload_bytes, g, fabric.local_link, algo);
  return phase1 + phase2 + phase3;
}

}  // namespace litegpu
