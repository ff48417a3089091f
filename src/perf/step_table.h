// StepTimeTable: dense, immutable per-batch step-time tables for the
// serving simulator's hot loop.
//
// The table is the simulator's only source of step times. It is built
// once per (prefill, decode) PerfModel pair up to the batch caps and owns
// flat arrays of step times, so the simulator's inner loop is a
// bounds-checked array load: no indirect call, no lock, no tree walk — and,
// being immutable after Build, a single table is safely shared by every
// worker of a sweep. Build prices each batch once, straight from the models'
// bound parameters; it does not go through their memo caches (every entry
// would miss). Entries are bit-identical to the memoized PerfModel values
// (tested in perf_model_test), and because the table owns its values it can
// outlive the models that built it.

#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace litegpu {

class PerfModel;

class StepTimeTable {
 public:
  // An empty table; not runnable (the simulator returns empty metrics).
  StepTimeTable() = default;

  // Synthetic shapes for tests: entry b-1 is the time for batch b.
  StepTimeTable(std::vector<double> prefill_s, std::vector<double> decode_s)
      : prefill_s_(std::move(prefill_s)), decode_s_(std::move(decode_s)) {}

  // Prices batches 1..max_*_batch on the models' bound parameters (one
  // roofline evaluation per batch, bypassing the models' caches: prefill
  // passes at the workload's prompt length, decode steps at the worst-case
  // final context, matching the search's SLO accounting); the models are
  // free to die afterwards.
  static StepTimeTable Build(const PerfModel& prefill_model, const PerfModel& decode_model,
                             int max_prefill_batch, int max_decode_batch);

  bool empty() const { return prefill_s_.empty() || decode_s_.empty(); }
  int max_prefill_batch() const { return static_cast<int>(prefill_s_.size()); }
  int max_decode_batch() const { return static_cast<int>(decode_s_.size()); }

  // Seconds for one prefill pass over `batch` prompts / one decode step at
  // the given running batch. Out-of-range batches clamp to [1, cap] (the
  // simulator never exceeds the caps by construction). Must not be called
  // on an empty table.
  double PrefillTime(int batch) const { return prefill_s_[ClampIndex(batch, prefill_s_)]; }
  double DecodeStepTime(int batch) const { return decode_s_[ClampIndex(batch, decode_s_)]; }

 private:
  static size_t ClampIndex(int batch, const std::vector<double>& times) {
    if (batch < 1) {
      return 0;
    }
    size_t index = static_cast<size_t>(batch) - 1;
    return index < times.size() ? index : times.size() - 1;
  }

  std::vector<double> prefill_s_;  // entry b-1: pass time at batch b
  std::vector<double> decode_s_;   // entry b-1: step time at batch b
};

}  // namespace litegpu
