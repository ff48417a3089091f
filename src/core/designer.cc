#include "src/core/designer.h"

#include "src/util/format.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"
#include "src/util/units.h"

namespace litegpu {

ClusterDesignReport DesignCluster(const GpuSpec& gpu, const DesignInputs& inputs) {
  ClusterDesignReport report;
  report.gpu_name = gpu.name;

  DecodeSearchResult search = SearchDecode(inputs.model, gpu, inputs.search);
  if (!search.found) {
    return report;
  }
  report.feasible = true;
  report.tp_degree = search.best.tp_degree;
  report.batch = search.best.batch;
  report.tokens_per_s = search.best.result.tokens_per_s;
  report.tokens_per_s_per_sm = search.best.result.tokens_per_s_per_sm;

  // --- economics ---
  double per_gpu_cost = PricedGpuUsd(inputs.wafer, inputs.yield_model, inputs.defects, gpu,
                                     inputs.hbm_usd_per_gb, inputs.gpu_price_multiplier);
  report.gpu_capex_usd = per_gpu_cost * report.tp_degree;

  FabricRequirements fabric;
  fabric.num_gpus = report.tp_degree;
  fabric.per_gpu_bw_bytes_per_s = gpu.net_bw_bytes_per_s;
  const LinkTechSpec& link =
      report.tp_degree <= inputs.copper_reach_max_gpus ? inputs.scale_up_link : inputs.link;
  TopologyReport topo =
      report.tp_degree > 1
          ? BuildFlatCircuitSwitched(fabric, inputs.fabric_switch, link)
          : TopologyReport{};
  report.network_capex_usd = topo.capex_usd;
  report.total_capex_usd = report.gpu_capex_usd + report.network_capex_usd;

  // --- power ---
  report.power = ClusterPower(gpu, report.tp_degree, inputs.power);
  report.power.network_watts += topo.power_watts;
  report.joules_per_token = EnergyPerToken(report.power, report.tokens_per_s);

  // --- reliability ---
  report.instance_afr =
      ClusterFailuresPerYear(gpu, report.tp_degree, inputs.failure);
  report.blast_radius_fraction = BlastRadiusFraction(report.tp_degree);
  report.availability_no_spares =
      InstanceAvailabilityNoSpares(gpu, report.tp_degree, inputs.failure);
  report.availability_one_spare =
      InstanceAvailabilityWithSpares(gpu, report.tp_degree, 1, 1, inputs.failure);

  // --- $/Mtok ---
  double seconds = inputs.amortization_years * kYear;
  double lifetime_tokens = report.tokens_per_s * seconds * report.availability_no_spares;
  if (lifetime_tokens > 0.0) {
    report.usd_per_mtok = report.total_capex_usd / (lifetime_tokens / 1e6);
  }
  return report;
}

std::vector<ClusterDesignReport> CompareClusters(const std::vector<GpuSpec>& gpus,
                                                 const DesignInputs& inputs) {
  return ParallelMap<ClusterDesignReport>(
      inputs.search.exec.threads, static_cast<int>(gpus.size()),
      [&](int i) { return DesignCluster(gpus[static_cast<size_t>(i)], inputs); });
}

std::string ClusterComparisonToText(const std::vector<ClusterDesignReport>& reports) {
  Table table({"GPU type", "TP", "Batch", "Tokens/s", "Tok/s/SM", "Capex $", "Net $",
               "Power", "J/token", "AFR/inst", "Avail (0/1 spare)", "$ / Mtok"});
  for (const auto& r : reports) {
    if (!r.feasible) {
      table.AddRow({r.gpu_name, "-", "-", "-", "-", "-", "-", "-", "-", "-", "-", "-"});
      continue;
    }
    table.AddRow({r.gpu_name, std::to_string(r.tp_degree), std::to_string(r.batch),
                  FormatDouble(r.tokens_per_s, 0), FormatDouble(r.tokens_per_s_per_sm, 2),
                  FormatDouble(r.total_capex_usd, 0), FormatDouble(r.network_capex_usd, 0),
                  HumanPower(r.power.TotalWatts()), FormatDouble(r.joules_per_token, 3),
                  FormatDouble(r.instance_afr, 3),
                  FormatDouble(r.availability_no_spares, 5) + " / " +
                      FormatDouble(r.availability_one_spare, 5),
                  FormatDouble(r.usd_per_mtok, 3)});
  }
  return table.ToText();
}

Json ToJson(const ClusterDesignReport& r) {
  Json j = Json::Object();
  j.Set("gpu", r.gpu_name).Set("feasible", r.feasible);
  if (!r.feasible) {
    return j;
  }
  j.Set("tp_degree", r.tp_degree)
      .Set("batch", r.batch)
      .Set("tokens_per_s", r.tokens_per_s)
      .Set("tokens_per_s_per_sm", r.tokens_per_s_per_sm)
      .Set("gpu_capex_usd", r.gpu_capex_usd)
      .Set("network_capex_usd", r.network_capex_usd)
      .Set("total_capex_usd", r.total_capex_usd);
  Json power = Json::Object();
  power.Set("gpu_watts", r.power.gpu_watts)
      .Set("network_watts", r.power.network_watts)
      .Set("cooling_watts", r.power.cooling_watts)
      .Set("total_watts", r.power.TotalWatts());
  j.Set("power", std::move(power))
      .Set("joules_per_token", r.joules_per_token)
      .Set("instance_afr", r.instance_afr)
      .Set("blast_radius_fraction", r.blast_radius_fraction)
      .Set("availability_no_spares", r.availability_no_spares)
      .Set("availability_one_spare", r.availability_one_spare)
      .Set("usd_per_mtok", r.usd_per_mtok);
  return j;
}

Json ClusterComparisonToJson(const std::vector<ClusterDesignReport>& reports) {
  Json rows = Json::Array();
  for (const auto& r : reports) {
    rows.Append(ToJson(r));
  }
  Json j = Json::Object();
  j.Set("clusters", std::move(rows));
  return j;
}

}  // namespace litegpu
