// ClusterDesigner: the whole-paper roll-up. For a GPU type and a workload,
// combine the Figure-3 performance search with the silicon cost model,
// the network topology model, the power/cooling model, and the reliability
// model into one comparable report — the "performance per $-cost, which is
// the primary metric for cloud operators" analysis the paper sketches in
// Section 4.

#pragma once

#include <string>
#include <vector>

#include "src/core/search.h"
#include "src/hw/gpu_spec.h"
#include "src/net/topology.h"
#include "src/power/cluster_energy.h"
#include "src/reliability/failure_model.h"
#include "src/silicon/cost.h"

namespace litegpu {

struct DesignInputs {
  TransformerSpec model;
  SearchOptions search;
  // Silicon economics.
  WaferSpec wafer;
  DefectSpec defects;
  YieldModel yield_model = YieldModel::kMurphy;
  double hbm_usd_per_gb = 12.0;
  // Market price over manufacturing cost. Vendor gross margins put street
  // prices ~8x the silicon+memory+packaging BOM (H100 BOM ~$2.4k vs ~$20k
  // street); the paper's "networking is a small fraction of GPU costs"
  // claim is about market prices, so the designer compares at that level.
  double gpu_price_multiplier = 8.0;
  // Network: instances small enough to sit in one chassis use copper
  // (today's NVLink domain); larger Lite instances exceed copper reach and
  // use this optical link technology over the configured switch.
  LinkTechSpec link = CpoLink();
  LinkTechSpec scale_up_link = CopperLink();
  int copper_reach_max_gpus = 8;
  SwitchTechSpec fabric_switch = CircuitSwitch();
  // Power & reliability.
  ClusterPowerParams power;
  FailureParams failure;
  // Deployment horizon for amortizing capex into $/token.
  double amortization_years = 4.0;
};

struct ClusterDesignReport {
  std::string gpu_name;
  bool feasible = false;

  // Performance (decode phase, the serving-capacity driver).
  int tp_degree = 0;
  int batch = 0;
  double tokens_per_s = 0.0;
  double tokens_per_s_per_sm = 0.0;

  // Economics (per serving instance of tp_degree GPUs).
  double gpu_capex_usd = 0.0;      // all GPUs in the instance
  double network_capex_usd = 0.0;  // fabric share for the instance
  double total_capex_usd = 0.0;

  // Power.
  ClusterPowerBreakdown power;
  double joules_per_token = 0.0;

  // Reliability.
  double instance_afr = 0.0;            // failures/year hitting the instance
  double blast_radius_fraction = 0.0;   // capacity lost per single failure
  double availability_no_spares = 0.0;
  double availability_one_spare = 0.0;

  // Headline: amortized $ per million tokens (capex only; energy priced
  // separately via joules_per_token).
  double usd_per_mtok = 0.0;
};

// Designs a decode-serving instance of `gpu` for the workload in `inputs`.
ClusterDesignReport DesignCluster(const GpuSpec& gpu, const DesignInputs& inputs);

// Runs DesignCluster for several GPU types, one lane per type at
// inputs.search.exec, and renders a comparison.
std::vector<ClusterDesignReport> CompareClusters(const std::vector<GpuSpec>& gpus,
                                                 const DesignInputs& inputs);
std::string ClusterComparisonToText(const std::vector<ClusterDesignReport>& reports);

// Structured forms of the designer output.
Json ToJson(const ClusterDesignReport& report);
Json ClusterComparisonToJson(const std::vector<ClusterDesignReport>& reports);

}  // namespace litegpu
