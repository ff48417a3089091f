// The previous serving simulator core, kept as a golden reference. Its one
// change since the rewrite is policy, shared with the production core: a
// failed decode instance's victims requeue in ascending request index.
//
// The production core (simulator.cc) was rebuilt around a calendar event
// queue, SoA hot state, and an O(completions)-per-step decode scheduler.
// This file preserves the previous std::priority_queue + array-of-structs
// implementation so the bench and tests can (a) assert the new core's
// metrics are bit-identical on every scenario shape, and (b) measure the
// speedup against the real old code rather than a synthetic stand-in. Not
// used by any production path; only bench_serve_scale and tests link it.

#pragma once

#include <string>

#include "src/serve/simulator.h"

namespace litegpu {

ServeMetrics RunServeSimulationReference(const std::vector<Request>& requests,
                                         const ServeClusterConfig& config,
                                         const StepTimeTable& table);

// Serve-core identity: the one definition of "bit-identical" the tests and
// bench_serve_scale hold the two cores to. Returns the name of the first
// field where `a` and `b` differ (e.g. "pools[decode].peak_instances",
// "fault_events[3].lost_tokens"), or "" when they are identical. It reads
// every outcome field, and the raw accumulators that decode macro-steps
// regroup (busy time and batch-time product, token totals, degraded
// accounting, each histogram's count, min, max and quantiles), so a
// regrouping that only happens to round to the same ratio still differs.
// TTFT sample sets compare by count and quantiles, so the order samples
// were added in does not matter. The engine's cost counters
// (events_popped, peak_live_requests, peak_demand_entries) are left out:
// the reference core does not keep them.
std::string FirstServeMetricsDifference(const ServeMetrics& a, const ServeMetrics& b);

}  // namespace litegpu
