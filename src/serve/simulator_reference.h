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

#include "src/serve/simulator.h"

namespace litegpu {

ServeMetrics RunServeSimulationReference(const std::vector<Request>& requests,
                                         const ServeClusterConfig& config,
                                         const StepTimeTable& table);

}  // namespace litegpu
