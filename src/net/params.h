// Link and switch technology parameters for the network-management study
// (paper Section 3, "Network management").
//
// Absolute dollar/pJ figures are parametric with public-estimate defaults;
// the paper's claims are about ratios (e.g. circuit switching's ">50% better
// energy efficiency" than packet switching).

#pragma once

#include <string>

namespace litegpu {

enum class LinkTech {
  kCopper,           // electrical SerDes, in-rack reach
  kPluggableOptics,  // face-plate pluggable modules
  kCpo,              // co-packaged optics (the paper's enabler)
};

std::string ToString(LinkTech tech);

struct LinkTechSpec {
  LinkTech tech = LinkTech::kCpo;
  double max_reach_m = 50.0;
  // Energy per transferred bit, one link end (SerDes/laser/driver).
  double pj_per_bit = 5.0;
  // Cost per Gb/s of unidirectional bandwidth, one link end.
  double usd_per_gbps = 0.5;
};

LinkTechSpec CopperLink();     // ~2 m reach, cheap, power-hungry per meter
LinkTechSpec PluggableLink();  // ~100 m reach, expensive, high pJ/bit
LinkTechSpec CpoLink();        // 10s of m reach, low pJ/bit (paper Section 1)

enum class SwitchTech {
  kPacket,   // electrical packet switch (Ethernet/IB class)
  kCircuit,  // optical circuit switch (Sirius-class, paper ref [6])
};

struct SwitchTechSpec {
  SwitchTech tech = SwitchTech::kPacket;
  int radix = 64;                  // ports per switch
  double port_bw_bytes_per_s = 0;  // max per-port bandwidth
  // Switching energy per bit through the fabric (excludes link ends).
  double pj_per_bit = 5.0;
  double usd_per_port = 500.0;
  // Port-to-port forwarding latency.
  double latency_s = 500e-9;
  // Reconfiguration time (circuit switches only; 0 for packet).
  double reconfig_s = 0.0;
};

SwitchTechSpec PacketSwitch();
// Circuit switch per the paper's citation of Sirius [6]: more ports at high
// bandwidth, >50% better energy efficiency, lower latency, but needs
// reconfiguration between circuits.
SwitchTechSpec CircuitSwitch();

}  // namespace litegpu
