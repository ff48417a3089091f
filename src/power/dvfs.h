// DVFS (dynamic voltage and frequency scaling) power model.
//
// Supports the paper's Section-3 power-management arguments: down-clocking
// granularity (whole large GPU vs individual Lite-GPUs) and overclocking
// headroom from easier cooling. Dynamic power scales ~f*V^2 with V roughly
// linear in f over the usable range, i.e. P_dyn ~ f^3; static (leakage)
// power does not scale with f.

#pragma once

namespace litegpu {

struct DvfsModel {
  double nominal_power_watts = 700.0;  // at frequency_scale = 1
  // Fraction of nominal power that is static (leakage, HBM refresh, fans).
  double static_fraction = 0.25;
  // Dynamic-power exponent in frequency (3.0 = classic fV^2; silicon fits
  // land between 2 and 3).
  double frequency_exponent = 3.0;
  double min_frequency_scale = 0.4;  // below this, clock gating/off only
  double max_frequency_scale = 1.25;
};

// Power at the given frequency scale (clamped to the model's range):
//   P = P_nom * (static + (1-static) * f^exponent)
double PowerAtFrequency(const DvfsModel& model, double frequency_scale);

// Frequency scale that serves `load_fraction` of nominal throughput
// (clamped to the model range; load 0 returns min frequency).
double FrequencyForLoad(const DvfsModel& model, double load_fraction);

// Energy efficiency (throughput per watt) relative to nominal, at the given
// frequency scale; > 1 below nominal because of the super-linear power law.
double RelativeEfficiency(const DvfsModel& model, double frequency_scale);

}  // namespace litegpu
