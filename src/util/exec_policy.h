// ExecPolicy: the one shared knob for how design-space sweeps execute.
//
// Every parallel surface in the library (per-TP-degree search, the Figure-3
// catalog studies, CompareClusters, the Monte-Carlo trials, the serve
// studies, the fleet-compare study, and RunScenarios batches) takes its
// lane count from an embedded ExecPolicy.
// This file is the single place that documents the semantics:
//
//   * `threads <= 0`  — use the hardware concurrency (the default).
//   * `threads == 1`  — the exact serial path, inline on the caller.
//   * `threads >= 2`  — that many lanes.
//   Results are bit-identical at any thread count (sweeps write only
//   per-index slots and combine in index order).
//
// Nesting: a fan-out over two or more indices runs every sweep inside it
// inline, whatever that sweep's own ExecPolicy says, so only the outermost
// policy starts lanes. ParallelFor (src/util/thread_pool.h) owns the rule.

#pragma once

namespace litegpu {

struct ExecPolicy {
  // Lanes for the sweep fan-out. <= 0 uses the hardware concurrency; 1
  // restores the serial path.
  int threads = 0;
};

}  // namespace litegpu
