#include "src/power/dvfs.h"

#include <algorithm>
#include <cmath>

namespace litegpu {

double PowerAtFrequency(const DvfsModel& model, double frequency_scale) {
  double f = std::clamp(frequency_scale, model.min_frequency_scale, model.max_frequency_scale);
  double dynamic = (1.0 - model.static_fraction) * std::pow(f, model.frequency_exponent);
  return model.nominal_power_watts * (model.static_fraction + dynamic);
}

double FrequencyForLoad(const DvfsModel& model, double load_fraction) {
  return std::clamp(load_fraction, model.min_frequency_scale, model.max_frequency_scale);
}

double RelativeEfficiency(const DvfsModel& model, double frequency_scale) {
  double f = std::clamp(frequency_scale, model.min_frequency_scale, model.max_frequency_scale);
  double power = PowerAtFrequency(model, f);
  double nominal = PowerAtFrequency(model, 1.0);
  if (power <= 0.0 || f <= 0.0) {
    return 0.0;
  }
  return (f / 1.0) / (power / nominal);
}

}  // namespace litegpu
