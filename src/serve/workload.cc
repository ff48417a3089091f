#include "src/serve/workload.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>

#include "src/util/rng.h"

namespace litegpu {

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

// Expected arrival count for one class, used to pre-size per-request
// outputs so million-request streams append without reallocating. Overshooting a
// little is fine (the extra capacity is freed with the outputs); a few sigma
// of headroom covers nearly every draw. A trace reserves only the recorded
// times inside the horizon, thinned by the class's share, and never more
// than that window holds.
size_t ExpectedArrivals(const ClassWorkload& cls, double duration_s,
                        const ArrivalProcess& arrival, double trace_share) {
  auto with_headroom = [](double expected) {
    double n = expected + 4.0 * std::sqrt(expected) + 16.0;
    // Saturate instead of converting an out-of-range double: a count this
    // large only makes the caller's reservation fail.
    return n < 9e18 ? static_cast<size_t>(n) : std::numeric_limits<size_t>::max();
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

}  // namespace

// One class's arrival substream as a cursor: Advance() makes exactly the
// draws the class's next request needs and leaves it pending. The
// stationary Poisson path keeps the legacy sampling order (inter-arrival,
// prompt, output per request), so a single-class mix reproduces the legacy
// generator bit-for-bit and a scenario without an `arrival` block is
// unchanged. The non-stationary kinds draw from the same per-class RNG:
//   diurnal — Lewis thinning against the peak-rate envelope, which keeps
//     each class's stream independent of every other class.
//   onoff   — walks on/off phases sequentially; overshooting a phase
//     boundary discards the inter-arrival draw and redraws at the new
//     phase's rate (memorylessness makes that exact).
//   trace   — replays the recorded times; `share` is this class's rate
//     share, applied by thinning (share 1.0 skips the draw so a one-class
//     mix replays the trace exactly).
struct RequestStream::ClassCursor {
  ClassCursor(const ClassWorkload& workload, uint64_t seed, const ArrivalProcess& arrival,
              double trace_share)
      : cls(workload),
        rng(seed),
        log_prompt(std::log(static_cast<double>(workload.median_prompt_tokens))),
        log_output(std::log(static_cast<double>(workload.median_output_tokens))),
        share(trace_share),
        peak(PeakRateMultiplier(arrival)) {
    if (arrival.kind == ArrivalKind::kTrace) {
      exhausted = share <= 0.0;
    } else if (cls.arrival_rate_per_s <= 0.0) {
      exhausted = true;
    } else if (arrival.kind == ArrivalKind::kDiurnal) {
      exhausted = peak <= 0.0;  // validation rejects all-zero curves
    } else if (arrival.kind == ArrivalKind::kOnOff) {
      phase_end = rng.Exponential(1.0 / arrival.on_mean_s);  // starts on
    }
  }

  // Draws the class's next request into (arrival_s, prompt, output); false
  // once the class has no request left before duration_s.
  bool Advance(const ArrivalProcess& arrival, double duration_s) {
    if (exhausted) {
      return false;
    }
    switch (arrival.kind) {
      case ArrivalKind::kTrace:
        while (trace_next < arrival.times_s.size()) {
          double at = arrival.times_s[trace_next++];
          if (at >= duration_s) {
            break;  // validated ascending
          }
          if (share < 1.0 && !(rng.NextDouble() < share)) {
            continue;
          }
          return Emit(at);
        }
        break;
      case ArrivalKind::kPoisson:
        t += rng.Exponential(cls.arrival_rate_per_s);
        if (t < duration_s) {
          return Emit(t);
        }
        break;
      case ArrivalKind::kDiurnal:
        for (;;) {
          t += rng.Exponential(cls.arrival_rate_per_s * peak);
          if (t >= duration_s) {
            break;
          }
          // Accept with probability mult(t)/peak. One uniform per candidate
          // keeps the draw count independent of the curve shape.
          double u = rng.NextDouble();
          if (u * peak < ArrivalRateMultiplier(arrival, duration_s, t)) {
            return Emit(t);
          }
        }
        break;
      case ArrivalKind::kOnOff:
        for (;;) {
          double mult = on ? arrival.on_multiplier : arrival.off_multiplier;
          double dt = mult > 0.0 ? rng.Exponential(cls.arrival_rate_per_s * mult) : -1.0;
          if (dt >= 0.0 && t + dt < phase_end) {
            t += dt;
            if (t >= duration_s) {
              break;
            }
            return Emit(t);
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
    exhausted = true;
    return false;
  }

  bool Emit(double at) {
    arrival_s = at;
    // Separate statements pin the draw order: prompt, then output.
    prompt = SampleLength(rng, cls.median_prompt_tokens, log_prompt, cls.prompt_sigma);
    output = SampleLength(rng, cls.median_output_tokens, log_output, cls.output_sigma);
    return true;
  }

  ClassWorkload cls;
  Rng rng;
  double log_prompt;
  double log_output;
  double share;
  double peak;
  bool exhausted = false;
  double t = 0.0;          // poisson, diurnal and onoff clock
  bool on = true;          // onoff phase
  double phase_end = 0.0;  // onoff phase boundary
  size_t trace_next = 0;   // next recorded time to replay
  // The pending request.
  double arrival_s = 0.0;
  int prompt = 0;
  int output = 0;
};

RequestStream::RequestStream(const MultiClassWorkloadSpec& spec) : spec_(spec) {
  double total_rate = 0.0;
  for (const ClassWorkload& cls : spec_.classes) {
    total_rate += std::max(0.0, cls.arrival_rate_per_s);
  }
  cursors_.reserve(spec_.classes.size());
  for (size_t c = 0; c < spec_.classes.size(); ++c) {
    const ClassWorkload& cls = spec_.classes[c];
    double share = total_rate > 0.0 ? std::max(0.0, cls.arrival_rate_per_s) / total_rate : 0.0;
    if (spec_.classes.size() == 1) {
      share = 1.0;  // one-class mixes replay a trace exactly, like classless
    }
    cursors_.emplace_back(cls, ClassSubstreamSeed(spec_.seed, c), spec_.arrival, share);
    size_t n = ExpectedArrivals(cls, spec_.duration_s, spec_.arrival, share);
    expected_ = n > std::numeric_limits<size_t>::max() - expected_
                    ? std::numeric_limits<size_t>::max()
                    : expected_ + n;
  }
  if (spec_.arrival.kind == ArrivalKind::kTrace) {
    const std::vector<double>& times = spec_.arrival.times_s;
    expected_ = std::min(expected_, static_cast<size_t>(
        std::lower_bound(times.begin(), times.end(), spec_.duration_s) - times.begin()));
  }
}

RequestStream::RequestStream(const std::vector<Request>& records)
    : records_(&records), expected_(records.size()) {}

RequestStream::~RequestStream() = default;

void RequestStream::Refill() {
  if (!primed_) {
    primed_ = true;
    block_.reserve(kBlock);
    if (cursors_.size() >= 2) {
      for (size_t c = 0; c < cursors_.size(); ++c) {
        if (cursors_[c].Advance(spec_.arrival, spec_.duration_s)) {
          heads_.push_back({cursors_[c].arrival_s, c});
        }
      }
      std::make_heap(heads_.begin(), heads_.end(), std::greater<>());
    }
  }
  block_.clear();
  next_ = 0;
  Request r;
  while (block_.size() < kBlock) {
    if (!Draw(&r)) {
      exhausted_ = true;
      break;
    }
    block_.push_back(r);
  }
}

bool RequestStream::Draw(Request* out) {
  if (records_ != nullptr) {
    if (position_ >= records_->size()) {
      return false;
    }
    *out = (*records_)[position_];
  } else {
    size_t c = 0;
    if (cursors_.size() == 1) {
      if (!cursors_[0].Advance(spec_.arrival, spec_.duration_s)) {
        return false;
      }
    } else {
      // The earliest pending head goes first, a tie to the lower class
      // index; its class's next request enters the heap only after it
      // left, so each class keeps its own order.
      if (heads_.empty()) {
        return false;
      }
      std::pop_heap(heads_.begin(), heads_.end(), std::greater<>());
      c = heads_.back().second;
      heads_.pop_back();
    }
    ClassCursor& cursor = cursors_[c];
    out->class_id = static_cast<int>(c);
    out->arrival_s = cursor.arrival_s;
    out->prompt_tokens = cursor.prompt;
    out->output_tokens = cursor.output;
    if (cursors_.size() >= 2 && cursor.Advance(spec_.arrival, spec_.duration_s)) {
      heads_.push_back({cursor.arrival_s, c});
      std::push_heap(heads_.begin(), heads_.end(), std::greater<>());
    }
  }
  out->id = static_cast<int>(position_++);
  return true;
}

MultiClassWorkloadSpec OneClassMix(const WorkloadSpec& spec) {
  MultiClassWorkloadSpec mix;
  mix.duration_s = spec.duration_s;
  mix.seed = spec.seed;
  mix.arrival = spec.arrival;
  ClassWorkload cls;
  cls.arrival_rate_per_s = spec.arrival_rate_per_s;
  cls.median_prompt_tokens = spec.median_prompt_tokens;
  cls.prompt_sigma = spec.prompt_sigma;
  cls.median_output_tokens = spec.median_output_tokens;
  cls.output_sigma = spec.output_sigma;
  mix.classes.push_back(cls);
  return mix;
}

std::vector<Request> GenerateWorkload(const WorkloadSpec& spec) {
  return GenerateMultiClassWorkload(OneClassMix(spec));
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

std::vector<Request> GenerateMultiClassWorkload(const MultiClassWorkloadSpec& spec) {
  RequestStream stream(spec);
  std::vector<Request> requests;
  requests.reserve(stream.ExpectedCount());
  while (!stream.done()) {
    requests.push_back(stream.Next());
  }
  return requests;
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

}  // namespace litegpu
