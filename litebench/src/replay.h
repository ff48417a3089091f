// Traced replay of the runner's serve and fleet-compare pipelines.
//
// The replay re-executes what Runner::Run does for a scenario by calling
// each layer's public functions inside spans: config search (core.search),
// PerfModel + StepTimeTable build (perf), workload generation
// (serve.workload), the event loop and its fault-free baseline rerun
// (serve.simulator), percentile extraction (util.stats), the point fan-out
// (util.thread_pool), and the knee/cost/energy join (econ). Runner steps
// with no public equivalent (fault and autoscaler config resolution, fleet
// part resolution, candidate seeding) are copied from src/core/runner.cc.
// Its counts are checked against the runner's report; a replay that does
// not match measures nothing.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/runner.h"
#include "src/core/scenario.h"
#include "trace.h"

namespace litebench {

// One simulated serve point as both the replay and a report can state it.
struct PointCounts {
  int admitted = 0;
  int completed = 0;
  int dropped = 0;
  int shed = 0;
  int fault_events = 0;
  bool operator==(const PointCounts& o) const {
    return admitted == o.admitted && completed == o.completed && dropped == o.dropped &&
           shed == o.shed && fault_events == o.fault_events;
  }
  // Every admitted request completes, is dropped after a kill, or is shed.
  bool Conserved() const { return admitted == completed + dropped + shed; }
};

// A fleet candidate's verdict, compared exactly against the report.
struct CandidateOutcome {
  bool feasible = false;
  int knee_index = -1;
  int knee_total_gpus = 0;
  double knee_goodput_tokens_per_s = 0.0;
  double usd_per_mtoken = 0.0;
  bool operator==(const CandidateOutcome& o) const {
    return feasible == o.feasible && knee_index == o.knee_index &&
           knee_total_gpus == o.knee_total_gpus &&
           knee_goodput_tokens_per_s == o.knee_goodput_tokens_per_s &&
           usd_per_mtoken == o.usd_per_mtoken;
  }
};

// Work the replay did, counted where it happened.
struct ReplayCounters {
  int64_t search_calls = 0;      // SearchPrefill + SearchDecode
  int64_t table_builds = 0;      // StepTimeTable::Build
  int64_t workload_requests = 0; // requests generated
  int64_t sim_calls = 0;         // RunServeSimulation, baselines included
  int64_t sim_admitted = 0;      // admitted requests of the non-baseline runs
  int64_t decode_steps = 0;      // tbt_s.count() of the non-baseline runs
  int64_t fault_events = 0;
  int64_t scale_events = 0;
  int64_t pool_tasks = 0;        // points fanned out through ParallelMap
  double pool_lane_s = 0.0;      // sum of lanes x fan-out wall
  uint64_t perf_cache_hits = 0;  // GlobalPerfCacheStats delta
  uint64_t perf_cache_misses = 0;

  void Add(const ReplayCounters& o);
};

// What one scenario's replay reproduced.
struct ReplayResult {
  bool supported = true;
  std::string unsupported_reason;
  std::vector<PointCounts> points;             // every serve point, report order
  std::vector<CandidateOutcome> candidates;    // fleet-compare only
  int platform_builds = 0;                     // fleet-compare only
  int winner_index = -1;                       // fleet-compare only
  ReplayCounters counters;
};

// Replays Runner::Run(s) for a serve or fleet-compare scenario. Other
// study kinds, and sharded serve points, come back unsupported.
ReplayResult ReplayScenario(const litegpu::Scenario& s, Tracer& tracer);

// The same facts read off the runner's report.
ReplayResult FactsFromReport(const litegpu::RunReport& report);

// "" when the replay reproduced the report, else the first difference.
std::string CompareReplay(const ReplayResult& replay, const ReplayResult& report);

}  // namespace litebench
