// Shoreline (die-perimeter I/O) model.
//
// A die's off-chip bandwidth is limited by its perimeter ("shoreline"):
// HBM PHYs and network SerDes/optical engines all compete for edge length.
// Area grows with side^2 but shoreline with side, so splitting one die of
// area A into N dies of area A/N multiplies aggregate shoreline by sqrt(N) —
// quartering doubles it, which is the paper's "2x bandwidth-to-compute"
// argument and the source of the Lite+MemBW / Lite+NetBW design points.

#pragma once

namespace litegpu {

// Edge length of a square die of the given area, in mm.
double DiePerimeterMm(double die_area_mm2);

// Aggregate perimeter of `split` equal square dies totalling `area_mm2`.
double SplitPerimeterMm(double area_mm2, int split);

// Multiplier on aggregate shoreline from splitting one die into `split`
// (sqrt(split) for square dies).
double ShorelineGain(int split);

// Bandwidth each mm of shoreline can carry, by interface technology. These
// set the *budget*; a GpuSpec chooses how to spend it.
struct ShorelineTech {
  // HBM: an HBM3e site is ~11 mm of beachfront for ~1.2 TB/s -> ~110 GB/s/mm.
  double hbm_gbps_per_mm = 110.0;
  // Co-packaged optics: ~200 Gb/s/lambda, dense fiber coupling; public CPO
  // demos land around 25-50 GB/s per mm of beachfront.
  double cpo_gbps_per_mm = 40.0;
  // Electrical SerDes (NVLink-class): ~20 GB/s per mm.
  double serdes_gbps_per_mm = 20.0;
};

// True if the requested bandwidths fit on the die's shoreline with the given
// technologies (any split). Used to validate customized Lite-GPU configs.
bool BandwidthFeasible(double die_area_mm2, double mem_bw_bytes_per_s,
                       double net_bw_bytes_per_s, const ShorelineTech& tech,
                       double usable_fraction = 0.85);

}  // namespace litegpu
