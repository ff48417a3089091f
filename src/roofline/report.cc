#include "src/roofline/report.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/util/format.h"
#include "src/util/table.h"

namespace litegpu {

double RidgeIntensity(const GpuSpec& gpu, const EngineParams& params) {
  double flops = gpu.flops * params.compute_efficiency;
  double bw = gpu.mem_bw_bytes_per_s * params.memory_efficiency;
  return bw > 0.0 ? flops / bw : 0.0;
}

std::vector<RooflinePoint> AnalyzePass(const ModelWork& work, const GpuSpec& gpu,
                                       int tp_degree, const EngineParams& params) {
  PassTiming pass = EvaluatePass(work, gpu, tp_degree, params);
  double peak = gpu.flops * params.compute_efficiency;
  double bw = gpu.mem_bw_bytes_per_s * params.memory_efficiency;

  std::vector<RooflinePoint> points;
  auto add = [&](const StageWork& stage, const StageTiming& timing, double repeat) {
    RooflinePoint p;
    p.stage = std::string(stage.name);
    p.operational_intensity = stage.OperationalIntensity();
    p.attainable_flops = std::min(peak, p.operational_intensity * bw);
    p.achieved_flops = timing.total_s > 0.0 ? stage.flops / timing.total_s : 0.0;
    p.efficiency = peak > 0.0 ? p.achieved_flops / peak : 0.0;
    p.bound = timing.bound;
    p.time_share = pass.total_s > 0.0 ? timing.total_s * repeat / pass.total_s : 0.0;
    points.push_back(p);
  };

  for (size_t i = 0; i < work.layer_stages.size(); ++i) {
    StageTiming timing = EvaluateStage(work.layer_stages[i], gpu, tp_degree, params);
    add(work.layer_stages[i], timing, work.num_layers);
  }
  add(work.embedding, EvaluateStage(work.embedding, gpu, tp_degree, params), 1.0);
  add(work.lm_head, EvaluateStage(work.lm_head, gpu, tp_degree, params), 1.0);
  return points;
}

std::string RooflineReportToText(const std::vector<RooflinePoint>& points,
                                 const GpuSpec& gpu, const EngineParams& params) {
  std::ostringstream os;
  double ridge = RidgeIntensity(gpu, params);
  os << gpu.name << " roofline (ridge at " << FormatDouble(ridge, 1) << " FLOP/B):\n";

  Table table({"Stage", "OI (FLOP/B)", "Attainable", "Achieved", "Peak eff.", "Bound",
               "Time share"});
  for (const auto& p : points) {
    table.AddRow({p.stage, FormatDouble(p.operational_intensity, 2),
                  HumanFlops(p.attainable_flops, 1), HumanFlops(p.achieved_flops, 1),
                  HumanPercent(p.efficiency, 1), ToString(p.bound),
                  HumanPercent(p.time_share, 1)});
  }
  os << table.ToText();

  // ASCII sketch: stages placed on a log OI axis against the roofline.
  os << "\n  log10(OI) axis, '^'=ridge, letters=stages:\n  ";
  const double lo = -1.0;
  const double hi = 4.0;
  const int width = 64;
  std::string axis(width, '-');
  auto place = [&](double oi, char c) {
    if (oi <= 0.0) {
      return;
    }
    double x = (std::log10(oi) - lo) / (hi - lo);
    int idx = std::clamp(static_cast<int>(x * (width - 1)), 0, width - 1);
    axis[idx] = c;
  };
  place(ridge, '^');
  char label = 'a';
  for (const auto& p : points) {
    place(p.operational_intensity, label);
    ++label;
  }
  os << axis << "\n  ";
  label = 'a';
  for (const auto& p : points) {
    os << label++ << "=" << p.stage << " ";
  }
  os << "(left of ^: memory-bound)\n";
  return os.str();
}

}  // namespace litegpu
