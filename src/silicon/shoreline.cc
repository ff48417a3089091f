#include "src/silicon/shoreline.h"

#include <cmath>

#include "src/util/units.h"

namespace litegpu {

double DiePerimeterMm(double die_area_mm2) {
  if (die_area_mm2 <= 0.0) {
    return 0.0;
  }
  return 4.0 * std::sqrt(die_area_mm2);
}

double SplitPerimeterMm(double area_mm2, int split) {
  if (split <= 0) {
    return 0.0;
  }
  return static_cast<double>(split) *
         DiePerimeterMm(area_mm2 / static_cast<double>(split));
}

double ShorelineGain(int split) {
  if (split <= 0) {
    return 0.0;
  }
  return std::sqrt(static_cast<double>(split));
}

bool BandwidthFeasible(double die_area_mm2, double mem_bw_bytes_per_s,
                       double net_bw_bytes_per_s, const ShorelineTech& tech,
                       double usable_fraction) {
  double perimeter = DiePerimeterMm(die_area_mm2);
  if (perimeter <= 0.0) {
    return false;
  }
  double hbm_mm = (mem_bw_bytes_per_s / kGB) / tech.hbm_gbps_per_mm;
  double net_mm = (net_bw_bytes_per_s / kGB) / tech.cpo_gbps_per_mm;
  return hbm_mm + net_mm <= perimeter * usable_fraction;
}

}  // namespace litegpu
