// In-memory span recorder for the traced replay.
//
// A span is one call into a library layer, timed on the host's steady
// clock: name, start, end, the span that caused it, the replay repetition it
// belongs to, and the recording thread. Spans stay in memory while the
// benchmark runs and are written once, at exit, as Chrome trace-event JSON
// (load it in chrome://tracing or Perfetto). A disabled tracer records
// nothing, so untraced replays pay one branch per span site.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace litebench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // string literal; spans never own their names
  int64_t start_ns = 0;
  int64_t end_ns = -1;  // -1 while open
  int parent = -1;      // index of the causing span, -1 for a root
  int rep = -1;         // replay repetition id
  int tid = 0;          // small per-thread id, in order of first use
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Tags every span opened from now on, on any thread, with `rep`.
  void SetRep(int rep) { rep_.store(rep, std::memory_order_relaxed); }

  // Opens a span and returns its id (-1 when disabled). `parent` is the
  // causing span's id; kInherit takes the calling thread's innermost open
  // span, which is what every same-thread call wants.
  static constexpr int kInherit = -2;
  int Begin(const char* name, int parent = kInherit);
  void End(int id);

  // Copy of the recorded spans; call once every worker has joined.
  std::vector<Span> spans() const;

  // Writes {"traceEvents": [...]} with one complete ("X") event per span of
  // repetitions below `max_reps` (set-up spans, rep -1, included), ts/dur
  // in microseconds from the first span. False on I/O error.
  bool WriteChromeTrace(const std::string& path, int max_reps) const;

 private:
  bool enabled_;
  std::atomic<int> rep_{-1};
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

// Opens a span for the enclosing scope and makes it the thread's innermost
// open span, so calls made inside it nest under it.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int parent = Tracer::kInherit);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
  int saved_current_;
};

// Per-name totals over one repetition's spans.
struct LayerTime {
  double total_s = 0.0;  // summed span durations
  double self_s = 0.0;   // durations minus the time child spans cover
};

// Self time of every span: its duration minus the union of its children's
// intervals (children on other threads included, clipped to the span).
std::vector<double> SelfSeconds(const std::vector<Span>& spans);

// Totals by span name, one map per repetition in [0, reps).
std::vector<std::map<std::string, LayerTime>> LayerTimes(const std::vector<Span>& spans,
                                                         const std::vector<double>& self_s,
                                                         int reps);

}  // namespace litebench
