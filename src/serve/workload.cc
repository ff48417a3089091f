#include "src/serve/workload.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <utility>

#include "src/util/rng.h"

namespace litegpu {

void RequestSoA::Reserve(size_t n) {
  arrival_s.reserve(n);
  prompt_tokens.reserve(n);
  output_tokens.reserve(n);
  class_id.reserve(n);
}

void RequestSoA::Clear() {
  arrival_s.clear();
  prompt_tokens.clear();
  output_tokens.clear();
  class_id.clear();
}

void RequestSoA::PushBack(double arrival, int prompt, int output, int cls) {
  arrival_s.push_back(arrival);
  prompt_tokens.push_back(prompt);
  output_tokens.push_back(output);
  class_id.push_back(cls);
}

RequestSoA RequestSoA::FromRequests(const std::vector<Request>& requests) {
  RequestSoA soa;
  soa.Reserve(requests.size());
  for (const Request& r : requests) {
    soa.PushBack(r.arrival_s, r.prompt_tokens, r.output_tokens, r.class_id);
  }
  return soa;
}

std::vector<Request> RequestSoA::ToRequests() const {
  std::vector<Request> requests(size());
  for (size_t i = 0; i < requests.size(); ++i) {
    Request& r = requests[i];
    r.id = static_cast<int>(i);
    r.class_id = class_id[i];
    r.arrival_s = arrival_s[i];
    r.prompt_tokens = prompt_tokens[i];
    r.output_tokens = output_tokens[i];
  }
  return requests;
}

double ArrivalRateMultiplier(const ArrivalProcess& process, double duration_s, double t) {
  if (process.kind != ArrivalKind::kDiurnal || process.multipliers.empty()) {
    return 1.0;
  }
  double period = process.period_s > 0.0 ? process.period_s : duration_s;
  if (period <= 0.0) {
    return process.multipliers.front();
  }
  double phase = std::fmod(t, period);
  if (phase < 0.0) {
    phase = 0.0;
  }
  size_t n = process.multipliers.size();
  double pos = phase / period * static_cast<double>(n);
  size_t i = static_cast<size_t>(pos);
  if (i >= n) {
    i = n - 1;
  }
  double frac = pos - static_cast<double>(i);
  double a = process.multipliers[i];
  double b = process.multipliers[(i + 1) % n];  // the curve wraps
  return a + frac * (b - a);
}

double PeakRateMultiplier(const ArrivalProcess& process) {
  switch (process.kind) {
    case ArrivalKind::kDiurnal: {
      // Piecewise-linear, so the max sits on a control point.
      double peak = 0.0;
      for (double m : process.multipliers) {
        peak = std::max(peak, m);
      }
      return peak;
    }
    case ArrivalKind::kOnOff:
      return std::max(process.on_multiplier, process.off_multiplier);
    case ArrivalKind::kPoisson:
    case ArrivalKind::kTrace:
      return 1.0;
  }
  return 1.0;
}

double MeanTraceRatePerS(const ArrivalProcess& process, double horizon_s) {
  if (process.kind != ArrivalKind::kTrace || horizon_s <= 0.0) {
    return 0.0;
  }
  size_t count = 0;
  for (double t : process.times_s) {
    if (t < horizon_s) {
      ++count;
    }
  }
  return static_cast<double>(count) / horizon_s;
}

namespace {

// One request length: `median` itself when sigma is 0, else a lognormal
// draw around it. `log_median` is std::log(median), hoisted out of the
// per-request loop by the caller.
int SampleLength(Rng& rng, int median, double log_median, double sigma) {
  if (sigma <= 0.0) {
    return median;
  }
  double value = rng.LogNormal(log_median, sigma);
  return std::max(1, static_cast<int>(std::lround(value)));
}

// Expected arrival count for one class, used to pre-size the output columns
// so million-request streams append without reallocating. Overshooting a
// little is fine (the extra capacity is freed with the columns); a few sigma
// of headroom covers nearly every draw. A trace reserves only the recorded
// times inside the horizon, thinned by the class's share, and never more
// than that window holds.
size_t ExpectedArrivals(const ClassWorkload& cls, double duration_s,
                        const ArrivalProcess& arrival, double trace_share) {
  auto with_headroom = [](double expected) {
    return static_cast<size_t>(expected + 4.0 * std::sqrt(expected) + 16.0);
  };
  if (arrival.kind == ArrivalKind::kTrace) {
    const std::vector<double>& times = arrival.times_s;
    size_t window = static_cast<size_t>(
        std::lower_bound(times.begin(), times.end(), duration_s) - times.begin());
    return std::min(window, with_headroom(static_cast<double>(window) * trace_share));
  }
  double rate = std::max(0.0, cls.arrival_rate_per_s);
  double mean_mult = 1.0;
  if (arrival.kind == ArrivalKind::kDiurnal && !arrival.multipliers.empty()) {
    // Piecewise-linear and wrapping, so the mean over a full period is the
    // mean of the control points; horizons covering partial periods still
    // land near it.
    double sum = 0.0;
    for (double m : arrival.multipliers) {
      sum += m;
    }
    mean_mult = sum / static_cast<double>(arrival.multipliers.size());
  } else if (arrival.kind == ArrivalKind::kOnOff) {
    double span = arrival.on_mean_s + arrival.off_mean_s;
    mean_mult = span > 0.0 ? (arrival.on_mean_s * arrival.on_multiplier +
                              arrival.off_mean_s * arrival.off_multiplier) /
                                 span
                           : 1.0;
  }
  return with_headroom(rate * std::max(0.0, duration_s) * std::max(0.0, mean_mult));
}

// One class's arrival substream. The stationary Poisson path keeps the
// exact legacy sampling order (inter-arrival, prompt, output per request),
// so a single-class mix reproduces the legacy generator bit-for-bit and a
// scenario without an `arrival` block is unchanged. The non-stationary
// kinds draw from the same per-class RNG:
//   diurnal — Lewis thinning against the peak-rate envelope, which keeps
//     each class's stream independent of every other class.
//   onoff   — walks on/off phases sequentially; overshooting a phase
//     boundary discards the inter-arrival draw and redraws at the new
//     phase's rate (memorylessness makes that exact).
//   trace   — replays the recorded times; `trace_share` is this class's
//     rate share, applied by thinning (share 1.0 skips the draw so a
//     one-class mix replays the trace exactly).
RequestSoA GenerateClassStream(const ClassWorkload& cls, int class_id, double duration_s,
                               uint64_t seed, const ArrivalProcess& arrival,
                               double trace_share) {
  RequestSoA requests;
  requests.Reserve(ExpectedArrivals(cls, duration_s, arrival, trace_share));
  Rng rng(seed);
  const double log_prompt = std::log(static_cast<double>(cls.median_prompt_tokens));
  const double log_output = std::log(static_cast<double>(cls.median_output_tokens));
  auto emit = [&](double t) {
    // Named locals pin the draw order: prompt, then output.
    int prompt = SampleLength(rng, cls.median_prompt_tokens, log_prompt, cls.prompt_sigma);
    int output = SampleLength(rng, cls.median_output_tokens, log_output, cls.output_sigma);
    requests.PushBack(t, prompt, output, class_id);
  };
  if (arrival.kind == ArrivalKind::kTrace) {
    if (trace_share <= 0.0) {
      return requests;
    }
    for (double t : arrival.times_s) {
      if (t >= duration_s) {
        break;  // validated ascending
      }
      if (trace_share < 1.0 && !(rng.NextDouble() < trace_share)) {
        continue;
      }
      emit(t);
    }
    return requests;
  }
  if (cls.arrival_rate_per_s <= 0.0) {
    return requests;
  }
  double t = 0.0;
  switch (arrival.kind) {
    case ArrivalKind::kPoisson: {
      for (;;) {
        t += rng.Exponential(cls.arrival_rate_per_s);
        if (t >= duration_s) {
          break;
        }
        emit(t);
      }
      break;
    }
    case ArrivalKind::kDiurnal: {
      double peak = PeakRateMultiplier(arrival);
      if (peak <= 0.0) {
        break;  // validation rejects all-zero curves; belt and braces
      }
      for (;;) {
        t += rng.Exponential(cls.arrival_rate_per_s * peak);
        if (t >= duration_s) {
          break;
        }
        // Accept with probability mult(t)/peak. One uniform per candidate
        // keeps the draw count independent of the curve shape.
        double u = rng.NextDouble();
        if (u * peak < ArrivalRateMultiplier(arrival, duration_s, t)) {
          emit(t);
        }
      }
      break;
    }
    case ArrivalKind::kOnOff: {
      bool on = true;
      double phase_end = rng.Exponential(1.0 / arrival.on_mean_s);
      for (;;) {
        double mult = on ? arrival.on_multiplier : arrival.off_multiplier;
        double dt = mult > 0.0 ? rng.Exponential(cls.arrival_rate_per_s * mult) : -1.0;
        if (dt >= 0.0 && t + dt < phase_end) {
          t += dt;
          if (t >= duration_s) {
            break;
          }
          emit(t);
          continue;
        }
        t = phase_end;
        if (t >= duration_s) {
          break;
        }
        on = !on;
        phase_end = t + rng.Exponential(1.0 / (on ? arrival.on_mean_s : arrival.off_mean_s));
      }
      break;
    }
    case ArrivalKind::kTrace:
      break;  // handled above
  }
  return requests;
}

}  // namespace

RequestSoA GenerateWorkloadSoA(const WorkloadSpec& spec) {
  ClassWorkload cls;
  cls.arrival_rate_per_s = spec.arrival_rate_per_s;
  cls.median_prompt_tokens = spec.median_prompt_tokens;
  cls.prompt_sigma = spec.prompt_sigma;
  cls.median_output_tokens = spec.median_output_tokens;
  cls.output_sigma = spec.output_sigma;
  return GenerateClassStream(cls, /*class_id=*/0, spec.duration_s, spec.seed, spec.arrival,
                             /*trace_share=*/1.0);
}

std::vector<Request> GenerateWorkload(const WorkloadSpec& spec) {
  return GenerateWorkloadSoA(spec).ToRequests();
}

uint64_t ClassSubstreamSeed(uint64_t seed, size_t index) {
  if (index == 0) {
    return seed;
  }
  SplitMix64 stream(seed);
  uint64_t derived = 0;
  for (size_t i = 0; i < index; ++i) {
    derived = stream.Next();
  }
  return derived;
}

RequestSoA GenerateMultiClassWorkloadSoA(const MultiClassWorkloadSpec& spec) {
  double total_rate = 0.0;
  for (const ClassWorkload& cls : spec.classes) {
    total_rate += std::max(0.0, cls.arrival_rate_per_s);
  }
  std::vector<RequestSoA> streams;
  streams.reserve(spec.classes.size());
  size_t total = 0;
  for (size_t c = 0; c < spec.classes.size(); ++c) {
    double share = total_rate > 0.0
                       ? std::max(0.0, spec.classes[c].arrival_rate_per_s) / total_rate
                       : 0.0;
    if (spec.classes.size() == 1) {
      share = 1.0;  // one-class mixes replay a trace exactly, like classless
    }
    streams.push_back(GenerateClassStream(spec.classes[c], static_cast<int>(c),
                                          spec.duration_s, ClassSubstreamSeed(spec.seed, c),
                                          spec.arrival, share));
    total += streams.back().size();
  }
  if (streams.size() == 1) {
    return std::move(streams.front());
  }
  // k-way merge of the arrival-sorted substreams on (arrival, class): the
  // earliest head goes first, a tie goes to the lower class index, and a
  // class's next request enters only after its previous one left, so each
  // class keeps its own order.
  using Head = std::pair<double, size_t>;
  std::priority_queue<Head, std::vector<Head>, std::greater<Head>> heads;
  std::vector<size_t> next(streams.size(), 0);
  for (size_t c = 0; c < streams.size(); ++c) {
    if (!streams[c].empty()) {
      heads.push({streams[c].arrival_s[0], c});
    }
  }
  RequestSoA merged;
  merged.Reserve(total);
  while (!heads.empty()) {
    size_t c = heads.top().second;
    heads.pop();
    const RequestSoA& stream = streams[c];
    size_t i = next[c]++;
    merged.PushBack(stream.arrival_s[i], stream.prompt_tokens[i], stream.output_tokens[i],
                    stream.class_id[i]);
    if (i + 1 < stream.size()) {
      heads.push({stream.arrival_s[i + 1], c});
    }
  }
  return merged;
}

std::vector<Request> GenerateMultiClassWorkload(const MultiClassWorkloadSpec& spec) {
  return GenerateMultiClassWorkloadSoA(spec).ToRequests();
}

uint64_t ShardSubstreamSeed(uint64_t seed, size_t shard) {
  if (shard == 0) {
    return seed;
  }
  // A tagged XOR before the SplitMix64 walk keeps the shard stream away
  // from ClassSubstreamSeed's (consecutive values of SplitMix64(seed)) and
  // FaultSubstreamSeed's (a differently-tagged walk), so shard workloads
  // never collide with class or fault draws.
  SplitMix64 stream(seed ^ 0x5A4D5A4DC0DE5EEDULL);
  uint64_t derived = 0;
  for (size_t i = 0; i < shard; ++i) {
    derived = stream.Next();
  }
  return derived;
}

double TotalPromptTokens(const std::vector<Request>& requests) {
  double total = 0.0;
  for (const auto& r : requests) {
    total += r.prompt_tokens;
  }
  return total;
}

double TotalOutputTokens(const std::vector<Request>& requests) {
  double total = 0.0;
  for (const auto& r : requests) {
    total += r.output_tokens;
  }
  return total;
}

}  // namespace litegpu
