// Hierarchical all-reduce for grouped fabrics.
//
// The paper's direct-connect option wires the Lite-GPUs that replace one
// large GPU into a full mesh and keeps the pre-existing network between
// groups. The natural collective is then hierarchical: reduce-scatter
// inside the group (fast local links), all-reduce across group leaders
// (slow global links), all-gather inside the group.

#pragma once

#include "src/collectives/cost.h"

namespace litegpu {

struct HierarchicalFabric {
  int group_size = 4;       // GPUs per direct-connect group
  LinkModel local_link;     // intra-group links (short-reach, cheap)
  LinkModel global_link;    // inter-group links (the scale-out network)
};

// All-reduce of `payload_bytes` across `n` GPUs organized in groups of
// `fabric.group_size` (n must be a multiple of the group size; n not a
// multiple falls back to a flat all-reduce on the global link).
//   phase 1: reduce-scatter within each group  (payload, group links)
//   phase 2: all-reduce of payload/group_size across the n/group leaders
//   phase 3: all-gather within each group
double HierarchicalAllReduceTime(double payload_bytes, int n,
                                 const HierarchicalFabric& fabric,
                                 CollectiveAlgo algo = CollectiveAlgo::kAuto);

}  // namespace litegpu
