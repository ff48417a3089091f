// ExecPolicy: the one shared knob for how design-space sweeps execute.
//
// Every parallel surface in the library (per-TP-degree search, the Figure-3
// catalog studies, CompareClusters, the Monte-Carlo trials, the serve
// studies, the fleet-compare study, and RunScenarios batches) takes its
// worker count from an embedded ExecPolicy.
// This file is the single place that documents the semantics:
//
//   * `threads <= 0`  — use the hardware concurrency (the default).
//   * `threads == 1`  — the exact serial path, no pool.
//   * `threads >= 2`  — that many workers.
//   Results are bit-identical at any thread count (sweeps write only
//   per-index slots and combine in index order).
//
// Nesting: a parallel driver forces the sweeps *inside* its fan-out serial
// (e.g. CompareClusters runs one worker per GPU and pins each inner
// search's threads to 1) — not for determinism, which holds regardless, but
// so nested sweeps don't each spin up a transient hardware-wide pool. So
// for the composite drivers exactly one ExecPolicy governs:
// `ExperimentOptions::exec` for the studies (the embedded
// `SearchOptions::exec` is overridden to serial per pair),
// `DesignInputs::exec` for CompareClusters (`DesignInputs::search.exec`
// only applies when DesignCluster is called directly), `Scenario::exec`
// for the fleet-compare study (one fan-out over its distinct parts with
// each part's search pinned serial, then one over its candidates' knee
// scans), and the RunScenarios argument for scenario batches.
//
// (The PR-2 deprecated `int threads` alias fields on the options structs
// are gone; ExecPolicy is the only spelling.)

#pragma once

namespace litegpu {

struct ExecPolicy {
  // Worker threads for the sweep fan-out. <= 0 uses the hardware
  // concurrency; 1 restores the serial path.
  int threads = 0;
};

// The worker count an options struct's policy resolves to.
inline int EffectiveThreads(const ExecPolicy& exec) { return exec.threads; }

}  // namespace litegpu
