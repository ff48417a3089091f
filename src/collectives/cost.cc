#include "src/collectives/cost.h"

#include <algorithm>
#include <cmath>

namespace litegpu {

namespace {

bool IsPowerOfTwo(int n) { return n > 0 && (n & (n - 1)) == 0; }

int CeilLog2(int n) {
  int log = 0;
  int value = 1;
  while (value < n) {
    value <<= 1;
    ++log;
  }
  return log;
}

double RingAllReduce(double payload, int n, const LinkModel& link) {
  if (n <= 1) {
    return 0.0;
  }
  double steps = 2.0 * (n - 1);
  double wire_bytes = 2.0 * (n - 1) / n * payload;
  return steps * link.latency_s + wire_bytes / link.bandwidth_bytes_per_s;
}

double HalvingDoublingAllReduce(double payload, int n, const LinkModel& link) {
  if (n <= 1) {
    return 0.0;
  }
  double steps = 2.0 * CeilLog2(n);
  if (!IsPowerOfTwo(n)) {
    steps += 2.0;  // pre/post rounds folding the non-power-of-two remainder
  }
  double wire_bytes = 2.0 * (n - 1) / n * payload;
  return steps * link.latency_s + wire_bytes / link.bandwidth_bytes_per_s;
}

}  // namespace

std::string ToString(CollectiveAlgo algo) {
  switch (algo) {
    case CollectiveAlgo::kRing:
      return "ring";
    case CollectiveAlgo::kRecursiveHalvingDoubling:
      return "halving-doubling";
    case CollectiveAlgo::kAuto:
      return "auto";
  }
  return "unknown";
}

double AllReduceTime(double payload_bytes, int n, const LinkModel& link, CollectiveAlgo algo) {
  if (n <= 1 || payload_bytes <= 0.0) {
    return 0.0;
  }
  switch (algo) {
    case CollectiveAlgo::kRing:
      return RingAllReduce(payload_bytes, n, link);
    case CollectiveAlgo::kRecursiveHalvingDoubling:
      return HalvingDoublingAllReduce(payload_bytes, n, link);
    case CollectiveAlgo::kAuto:
      return std::min(RingAllReduce(payload_bytes, n, link),
                      HalvingDoublingAllReduce(payload_bytes, n, link));
  }
  return 0.0;
}

double AllGatherTime(double payload_bytes, int n, const LinkModel& link, CollectiveAlgo algo) {
  if (n <= 1 || payload_bytes <= 0.0) {
    return 0.0;
  }
  double wire_bytes = (n - 1.0) / n * payload_bytes;
  double ring = (n - 1.0) * link.latency_s + wire_bytes / link.bandwidth_bytes_per_s;
  double steps = CeilLog2(n) + (IsPowerOfTwo(n) ? 0 : 1);
  double tree = steps * link.latency_s + wire_bytes / link.bandwidth_bytes_per_s;
  switch (algo) {
    case CollectiveAlgo::kRing:
      return ring;
    case CollectiveAlgo::kRecursiveHalvingDoubling:
      return tree;
    case CollectiveAlgo::kAuto:
      return std::min(ring, tree);
  }
  return 0.0;
}

double ReduceScatterTime(double payload_bytes, int n, const LinkModel& link,
                         CollectiveAlgo algo) {
  // Symmetric to all-gather under alpha-beta.
  return AllGatherTime(payload_bytes, n, link, algo);
}

}  // namespace litegpu
