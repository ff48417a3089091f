// Human-readable formatting helpers for report/bench output.

#pragma once

#include <string>

namespace litegpu {

// Formats a double with `digits` significant decimal places, trimming noise
// like "-0.00". Examples: FormatDouble(3.14159, 2) == "3.14".
std::string FormatDouble(double value, int digits = 2);

// Bytes with decimal prefixes: 3.352e12 -> "3.35 TB".
std::string HumanBytes(double bytes, int digits = 2);

// Bytes/second with decimal prefixes: 4.5e11 -> "450.00 GB/s".
std::string HumanBandwidth(double bytes_per_second, int digits = 2);

// FLOP/s: 2e15 -> "2.00 PFLOPS".
std::string HumanFlops(double flops_per_second, int digits = 2);

// Seconds with an auto-selected unit: 0.00031 -> "310.00 us".
std::string HumanTime(double seconds, int digits = 2);

// Watts with an auto-selected unit: 35000 -> "35.00 kW".
std::string HumanPower(double watts, int digits = 2);

// Percent: 0.1234 -> "12.34%".
std::string HumanPercent(double fraction, int digits = 2);

}  // namespace litegpu
