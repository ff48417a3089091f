#include "src/net/params.h"

#include "src/util/units.h"

namespace litegpu {

std::string ToString(LinkTech tech) {
  switch (tech) {
    case LinkTech::kCopper:
      return "copper";
    case LinkTech::kPluggableOptics:
      return "pluggable-optics";
    case LinkTech::kCpo:
      return "co-packaged-optics";
  }
  return "unknown";
}

LinkTechSpec CopperLink() {
  LinkTechSpec s;
  s.tech = LinkTech::kCopper;
  s.max_reach_m = 2.0;
  s.pj_per_bit = 4.0;
  s.usd_per_gbps = 0.25;
  return s;
}

LinkTechSpec PluggableLink() {
  LinkTechSpec s;
  s.tech = LinkTech::kPluggableOptics;
  s.max_reach_m = 100.0;
  s.pj_per_bit = 18.0;
  s.usd_per_gbps = 1.2;
  return s;
}

LinkTechSpec CpoLink() {
  LinkTechSpec s;
  s.tech = LinkTech::kCpo;
  s.max_reach_m = 50.0;
  s.pj_per_bit = 5.0;
  s.usd_per_gbps = 0.6;
  return s;
}

SwitchTechSpec PacketSwitch() {
  SwitchTechSpec s;
  s.tech = SwitchTech::kPacket;
  s.radix = 64;
  s.port_bw_bytes_per_s = 100.0 * kGBps;
  s.pj_per_bit = 6.0;
  s.usd_per_port = 600.0;
  s.latency_s = 500e-9;
  s.reconfig_s = 0.0;
  return s;
}

SwitchTechSpec CircuitSwitch() {
  SwitchTechSpec s;
  s.tech = SwitchTech::kCircuit;
  // "(iii) more ports at high bandwidth, which allows for larger and
  // flatter networks" [6].
  s.radix = 256;
  s.port_bw_bytes_per_s = 200.0 * kGBps;
  // "(i) more than 50% better energy efficiency": passive optical path;
  // only the (amortized) control plane draws power.
  s.pj_per_bit = 2.0;
  s.usd_per_port = 300.0;
  // "(ii) lower latency": no buffering/arbitration in the data path.
  s.latency_s = 50e-9;
  s.reconfig_s = 3.7e-9;  // Sirius-class nanosecond reconfiguration
  return s;
}

}  // namespace litegpu
