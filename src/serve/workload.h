// Synthetic request workload generator. Substitutes for the production
// traces the paper's SLOs come from (Splitwise [40]): Poisson arrivals and
// lognormal prompt/output lengths with the paper's median prompt of 1500
// tokens. Multi-tenant mixes generate one independent Poisson substream per
// request class and merge them into a single arrival-ordered trace.
//
// Arrivals need not be stationary: an ArrivalProcess modulates the Poisson
// rate over time (diurnal curve, on/off bursts) or replays a recorded
// trace. Non-stationary kinds reuse the same per-class substreams, so a
// scenario that omits the block is bit-identical to the legacy generator.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace litegpu {

struct Request {
  int id = 0;
  // Index into the generating mix's class list; 0 for single-class
  // workloads. The simulator threads it through to per-class metrics.
  int class_id = 0;
  double arrival_s = 0.0;
  int prompt_tokens = 1500;
  int output_tokens = 256;
};

// A request stream as the generator writes it and the simulator reads it:
// one column per field. The simulator's hot loop touches arrival times,
// token counts, and class ids in separate passes, so parallel vectors keep
// each pass within a contiguous stride, and the stream is held once, at
// 20 bytes per request. Index i across all four vectors is request i in
// arrival order (ties already resolved by the generator), which is also its
// id. `Request` records are only a view for callers that want them:
// ToRequests/FromRequests convert between the two.
struct RequestSoA {
  std::vector<double> arrival_s;
  std::vector<int> prompt_tokens;
  std::vector<int> output_tokens;
  std::vector<int> class_id;

  size_t size() const { return arrival_s.size(); }
  bool empty() const { return arrival_s.empty(); }
  void Reserve(size_t n);
  void Clear();
  void PushBack(double arrival, int prompt, int output, int cls);

  // Request i gets id i.
  std::vector<Request> ToRequests() const;
  static RequestSoA FromRequests(const std::vector<Request>& requests);
};

// How request arrivals are distributed over the horizon. kPoisson is the
// stationary legacy process; the other kinds modulate or replace it:
//   kDiurnal — inhomogeneous Poisson whose rate is the base rate times a
//     piecewise-linear multiplier curve (thinning keeps substreams stable).
//   kOnOff   — MMPP-style bursts: alternating exponentially-distributed on
//     and off phases, each scaling the base rate by its own multiplier.
//   kTrace   — replay of recorded arrival times; lengths are still sampled
//     from the class's distributions.
enum class ArrivalKind {
  kPoisson,
  kDiurnal,
  kOnOff,
  kTrace,
};

struct ArrivalProcess {
  ArrivalKind kind = ArrivalKind::kPoisson;
  // diurnal: multiplier curve control points, evenly spaced over one
  // period and interpolated linearly (wrapping back to the first point).
  // period_s of 0 stretches one period over the whole horizon.
  double period_s = 0.0;
  std::vector<double> multipliers;
  // onoff: mean phase durations and the rate multiplier inside each phase.
  // The process starts in the on phase.
  double on_mean_s = 30.0;
  double off_mean_s = 30.0;
  double on_multiplier = 2.0;
  double off_multiplier = 0.25;
  // trace: ascending arrival timestamps (seconds from horizon start).
  std::vector<double> times_s;
};

// The diurnal rate multiplier at time t (1.0 for every other kind).
// duration_s substitutes for period_s when the latter is 0.
double ArrivalRateMultiplier(const ArrivalProcess& process, double duration_s, double t);

// The peak rate multiplier over the horizon — the thinning envelope for
// diurnal, max(on, off) for onoff, 1.0 otherwise.
double PeakRateMultiplier(const ArrivalProcess& process);

// Mean arrival rate of a trace over [0, horizon): replayed-count / horizon.
// Used to plan pools and report loads for trace scenarios; 0 for an empty
// window.
double MeanTraceRatePerS(const ArrivalProcess& process, double horizon_s);

struct WorkloadSpec {
  double arrival_rate_per_s = 10.0;
  double duration_s = 300.0;
  int median_prompt_tokens = 1500;   // paper: reported production median
  double prompt_sigma = 0.0;         // lognormal sigma; 0 = constant (paper)
  int median_output_tokens = 256;
  double output_sigma = 0.0;
  uint64_t seed = 0xC0FFEE;
  ArrivalProcess arrival;            // default: stationary Poisson
};

// Requests sorted by arrival time, generated straight into columns.
RequestSoA GenerateWorkloadSoA(const WorkloadSpec& spec);
// The same stream as records: GenerateWorkloadSoA(spec).ToRequests().
std::vector<Request> GenerateWorkload(const WorkloadSpec& spec);

// One request class of a multi-tenant mix: its own absolute arrival rate
// and prompt/output length distributions. Rates are absolute (requests/s),
// not shares — the caller splits the offered load across classes, so a
// class's arrival process is fully determined by its own entry.
struct ClassWorkload {
  double arrival_rate_per_s = 10.0;
  int median_prompt_tokens = 1500;
  double prompt_sigma = 0.0;
  int median_output_tokens = 256;
  double output_sigma = 0.0;
};

struct MultiClassWorkloadSpec {
  std::vector<ClassWorkload> classes;
  double duration_s = 300.0;
  uint64_t seed = 0xC0FFEE;
  // Shared arrival process shape; each class modulates its own rate by it.
  // For kTrace the recorded times are split across classes by rate share,
  // which couples the split to the full rate vector — appending a class
  // redistributes trace arrivals (unlike the independent-substream kinds,
  // which never perturb existing classes).
  ArrivalProcess arrival;
};

// The RNG seed for class `index`'s substream. Class 0 inherits the base
// seed, so a one-class mix is bit-identical to GenerateWorkload with the
// same spec; later classes draw consecutive values from one SplitMix64
// stream over the base seed. Seeds depend only on (seed, index), so
// APPENDING a class never perturbs an existing class's arrivals or lengths.
uint64_t ClassSubstreamSeed(uint64_t seed, size_t index);

// The RNG seed for sub-horizon shard `shard` of a sharded serve point.
// Shard 0 inherits the base seed, so a one-shard run is bit-identical to
// the unsharded path; later shards draw from a SplitMix64 walk over a
// tagged mix of the base seed, landing far from both ClassSubstreamSeed's
// stream (consecutive values of SplitMix64(seed)) and FaultSubstreamSeed's.
// Seeds depend only on (seed, shard), so raising the shard count never
// perturbs an existing shard's workload.
uint64_t ShardSubstreamSeed(uint64_t seed, size_t shard);

// Generates every class's substream independently and merges by arrival
// time (ties break by class index, then per-class order). A one-class mix
// is its substream, with no merge copy. Row i of the result is request i;
// class_id is the index into spec.classes.
RequestSoA GenerateMultiClassWorkloadSoA(const MultiClassWorkloadSpec& spec);
// The same stream as records, ids in merged order:
// GenerateMultiClassWorkloadSoA(spec).ToRequests().
std::vector<Request> GenerateMultiClassWorkload(const MultiClassWorkloadSpec& spec);

// Totals used for capacity planning.
double TotalPromptTokens(const std::vector<Request>& requests);
double TotalOutputTokens(const std::vector<Request>& requests);

}  // namespace litegpu
