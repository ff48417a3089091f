#include "src/serve/knee.h"

#include <algorithm>
#include <cstddef>
#include <numeric>

namespace litegpu {

std::vector<int> KneeScanOrder(const std::vector<double>& rates,
                               const std::vector<double>& loads) {
  std::vector<int> order(rates.size());
  std::iota(order.begin(), order.end(), 0);
  // A stable sort keeps equal (rate, load) points in index order.
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    std::size_t i = static_cast<std::size_t>(a), j = static_cast<std::size_t>(b);
    if (rates[i] != rates[j]) {
      return rates[i] > rates[j];
    }
    return loads[i] < loads[j];
  });
  return order;
}

KneeSelection SelectKneeAndCheapest(const std::vector<KneePoint>& points,
                                    bool autoscaled) {
  KneeSelection out;
  std::vector<double> rates, loads;
  rates.reserve(points.size());
  loads.reserve(points.size());
  for (const KneePoint& p : points) {
    rates.push_back(p.arrival_rate_per_s);
    loads.push_back(p.load);
  }
  for (int i : KneeScanOrder(rates, loads)) {
    if (points[static_cast<std::size_t>(i)].slo_ok) {
      out.knee_index = i;
      break;
    }
  }
  if (out.knee_index >= 0) {
    const KneePoint& knee = points[static_cast<std::size_t>(out.knee_index)];
    out.knee_load = knee.load;
    out.knee_goodput_tokens_per_s = knee.goodput_tokens_per_s;
  }
  if (autoscaled) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      const KneePoint& p = points[i];
      if (!p.slo_ok || p.gpu_hours <= 0.0) {
        continue;
      }
      double tokens_per_gpu_hour =
          p.goodput_tokens_per_s * p.makespan_s / p.gpu_hours;
      if (out.cheapest_index < 0 ||
          tokens_per_gpu_hour > out.cheapest_tokens_per_gpu_hour) {
        out.cheapest_index = static_cast<int>(i);
        out.cheapest_tokens_per_gpu_hour = tokens_per_gpu_hour;
      }
    }
  }
  return out;
}

}  // namespace litegpu
