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
//
// There is one generator: RequestStream, a pull-based cursor that draws
// each request when the caller asks for it. The simulator pulls from it as
// arrivals fall due, so a fault-free serve point never holds its request
// stream; the column forms (RequestSoA, vector<Request>) are that cursor
// drained, for callers that must replay the same requests twice.

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
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

// A materialized request stream, one column per field, at 20 bytes per
// request: what a caller keeps when it must replay the same requests (a
// fault point's fault-free baseline) or inspect them. Index i across all
// four vectors is request i in arrival order (ties already resolved by the
// generator), which is also its id. The simulator reads columns through a
// RequestStream over them. `Request` records are only a view for callers
// that want them: ToRequests/FromRequests convert between the two.
struct RequestSoA {
  std::vector<double> arrival_s;
  std::vector<int> prompt_tokens;
  std::vector<int> output_tokens;
  std::vector<int> class_id;

  size_t size() const { return arrival_s.size(); }
  bool empty() const { return arrival_s.empty(); }
  void Reserve(size_t n);
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

// Requests sorted by arrival time: OneClassMix(spec) drained into columns.
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

// A classless workload as the one-class mix that generates the same
// requests: class 0 inherits the seed, and a one-class mix replays a trace
// whole.
MultiClassWorkloadSpec OneClassMix(const WorkloadSpec& spec);

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

// A request stream pulled one request at a time, in arrival order. Built
// from a mix, it generates on demand: one cursor per class makes that
// class's draws in the generator's order (inter-arrival, then prompt, then
// output), and a k-way merge on (arrival, class index) interleaves them, so
// ties break by class index, then per-class order. A one-class mix skips
// the merge. Built from columns, it reads them in row order; the columns
// must outlive the stream. Either way the request with id i is the i-th
// one Next() returns. Requests are drawn a block at a time, so generation
// runs in a hot loop and memory stays O(classes + block): pulling one
// request per Next() instead ran steady_poisson ~12% slower (GCC 12,
// x86-64). The first request is drawn at the first done(), not at
// construction, so a caller can size its outputs from ExpectedCount()
// before a stream too dense to generate starts drawing.
class RequestStream {
 public:
  explicit RequestStream(const MultiClassWorkloadSpec& spec);
  explicit RequestStream(const RequestSoA& columns);
  ~RequestStream();
  RequestStream(const RequestStream&) = delete;
  RequestStream& operator=(const RequestStream&) = delete;

  // True once every request has been returned.
  bool done() {
    if (next_ == block_.size() && !exhausted_) {
      Refill();
    }
    return next_ == block_.size();
  }
  // Arrival time of the request Next() returns. Requires !done().
  double PeekArrival() const { return block_[next_].arrival_s; }
  // Returns the next request and advances. Requires !done().
  Request Next() { return block_[next_++]; }
  // How many requests the stream should yield: exact for columns; for a
  // generated mix, its expected arrival count plus a few sigma of headroom
  // (a trace never more than its recorded times inside the horizon). Used
  // to pre-size per-request outputs so long streams append without
  // reallocating.
  size_t ExpectedCount() const { return expected_; }

 private:
  struct ClassCursor;
  // Requests drawn per refill: enough to keep the generator's loop hot in
  // cache, few enough that the stream's memory stays constant.
  static constexpr size_t kBlock = 256;

  // Draws the next block; the first refill also draws every class's first
  // request.
  void Refill();
  // Draws the stream's next request into *out; false once exhausted.
  bool Draw(Request* out);

  MultiClassWorkloadSpec spec_;
  std::vector<ClassCursor> cursors_;
  // Min-heap on (pending arrival, class index) over the classes that still
  // hold a pending request; only mixes of two or more classes use it.
  std::vector<std::pair<double, size_t>> heads_;
  const RequestSoA* columns_ = nullptr;
  std::vector<Request> block_;
  size_t next_ = 0;      // index in block_ of the request Next() returns
  size_t position_ = 0;  // id of the next request drawn
  size_t expected_ = 0;
  bool primed_ = false;
  bool exhausted_ = false;
};

// The mix's RequestStream drained into columns. Row i of the result is
// request i; class_id is the index into spec.classes.
RequestSoA GenerateMultiClassWorkloadSoA(const MultiClassWorkloadSpec& spec);
// The same stream as records, ids in merged order:
// GenerateMultiClassWorkloadSoA(spec).ToRequests().
std::vector<Request> GenerateMultiClassWorkload(const MultiClassWorkloadSpec& spec);

// Totals used for capacity planning.
double TotalPromptTokens(const std::vector<Request>& requests);
double TotalOutputTokens(const std::vector<Request>& requests);

}  // namespace litegpu
