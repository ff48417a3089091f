#include "src/util/format.h"

#include <array>
#include <cmath>
#include <cstdio>

namespace litegpu {

namespace {

// Scales `value` into [1, 1000) using the given prefix ladder and returns
// "<scaled> <prefix><suffix>".
std::string ScaleWithPrefixes(double value, const char* const* prefixes, int num_prefixes,
                              const char* suffix, int digits) {
  double magnitude = std::fabs(value);
  int index = 0;
  while (magnitude >= 1000.0 && index < num_prefixes - 1) {
    magnitude /= 1000.0;
    value /= 1000.0;
    ++index;
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f %s%s", digits, value, prefixes[index], suffix);
  return buffer;
}

}  // namespace

std::string FormatDouble(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  std::string result = buffer;
  if (result == "-0" || result.rfind("-0.", 0) == 0) {
    bool all_zero = true;
    for (char c : result) {
      if (c != '-' && c != '0' && c != '.') {
        all_zero = false;
        break;
      }
    }
    if (all_zero) {
      result.erase(result.begin());  // drop the '-'
    }
  }
  return result;
}

std::string HumanBytes(double bytes, int digits) {
  static const char* kPrefixes[] = {"", "K", "M", "G", "T", "P", "E"};
  return ScaleWithPrefixes(bytes, kPrefixes, 7, "B", digits);
}

std::string HumanBandwidth(double bytes_per_second, int digits) {
  static const char* kPrefixes[] = {"", "K", "M", "G", "T", "P", "E"};
  return ScaleWithPrefixes(bytes_per_second, kPrefixes, 7, "B/s", digits);
}

std::string HumanFlops(double flops_per_second, int digits) {
  static const char* kPrefixes[] = {"", "K", "M", "G", "T", "P", "E"};
  return ScaleWithPrefixes(flops_per_second, kPrefixes, 7, "FLOPS", digits);
}

std::string HumanTime(double seconds, int digits) {
  char buffer[64];
  double magnitude = std::fabs(seconds);
  if (magnitude >= 1.0 || magnitude == 0.0) {
    std::snprintf(buffer, sizeof(buffer), "%.*f s", digits, seconds);
  } else if (magnitude >= 1e-3) {
    std::snprintf(buffer, sizeof(buffer), "%.*f ms", digits, seconds * 1e3);
  } else if (magnitude >= 1e-6) {
    std::snprintf(buffer, sizeof(buffer), "%.*f us", digits, seconds * 1e6);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.*f ns", digits, seconds * 1e9);
  }
  return buffer;
}

std::string HumanPower(double watts, int digits) {
  static const char* kPrefixes[] = {"", "k", "M", "G"};
  return ScaleWithPrefixes(watts, kPrefixes, 4, "W", digits);
}

std::string HumanPercent(double fraction, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f%%", digits, fraction * 100.0);
  return buffer;
}

}  // namespace litegpu
