// Knee extraction for swept serving studies: given one SLO verdict per
// load point, pick the knee (the highest offered rate still meeting the
// SLOs) and, for autoscaled sweeps, the cheapest SLO-meeting point by
// served tokens per GPU-hour.
//
// Factored out of the serve-sweep runner so every consumer selects by the
// same rule and cannot drift: the sweep report picks the first SLO-meeting
// point of KneeScanOrder after simulating every point, and the
// fleet-compare study simulates its candidates' points in that order and
// stops at the first one that meets the SLOs. The view is deliberately
// tiny: callers copy the five fields out of whatever point struct they
// carry.

#pragma once

#include <vector>

namespace litegpu {

// One swept point as the knee selector sees it.
struct KneePoint {
  double arrival_rate_per_s = 0.0;
  double load = 0.0;  // fraction of the pool's analytic capacity
  bool slo_ok = false;
  double goodput_tokens_per_s = 0.0;
  double makespan_s = 0.0;
  // Autoscaled GPU-hours over the horizon; <= 0 excludes the point from
  // the cheapest selection (fixed-pool points don't integrate one).
  double gpu_hours = 0.0;
};

struct KneeSelection {
  // The first slo_ok point in KneeScanOrder (-1 when none is): the
  // highest offered arrival rate, rate ties broken toward the lowest load,
  // then the earliest index.
  int knee_index = -1;
  double knee_load = 0.0;
  double knee_goodput_tokens_per_s = 0.0;
  // Cheapest slo_ok point by goodput * makespan / gpu_hours; only computed
  // when the caller asks (autoscaled sweeps), -1 otherwise or when no
  // point qualifies.
  int cheapest_index = -1;
  double cheapest_tokens_per_gpu_hour = 0.0;
};

// The knee-preference order of a grid: indices sorted by offered rate
// descending, then load ascending (the same demand met with less
// provisioned headroom), then index ascending. The knee is the first
// slo_ok point in this order. `rates` and `loads` have one entry per
// point.
std::vector<int> KneeScanOrder(const std::vector<double>& rates,
                               const std::vector<double>& loads);

KneeSelection SelectKneeAndCheapest(const std::vector<KneePoint>& points,
                                    bool autoscaled);

}  // namespace litegpu
