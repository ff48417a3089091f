#include "src/perf/step_table.h"

#include <algorithm>

#include "src/perf/model.h"

namespace litegpu {

StepTimeTable StepTimeTable::Build(const PerfModel& prefill_model,
                                   const PerfModel& decode_model, int max_prefill_batch,
                                   int max_decode_batch) {
  std::vector<double> prefill_s;
  std::vector<double> decode_s;
  prefill_s.reserve(static_cast<size_t>(std::max(0, max_prefill_batch)));
  decode_s.reserve(static_cast<size_t>(std::max(0, max_decode_batch)));
  // Every batch is priced once, so the models' memo caches could only miss:
  // evaluate on their bound parameters directly (the values PerfModel::Prefill
  // / Decode would cache) and skip the lock, the map insert and the copies.
  const PerfModel& p = prefill_model;
  for (int batch = 1; batch <= max_prefill_batch; ++batch) {
    prefill_s.push_back(
        EvaluatePrefill(p.model(), p.gpu(), p.plan(), batch, p.workload(), p.engine()).ttft_s);
  }
  const PerfModel& d = decode_model;
  for (int batch = 1; batch <= max_decode_batch; ++batch) {
    decode_s.push_back(
        EvaluateDecode(d.model(), d.gpu(), d.plan(), batch, d.workload(), d.engine()).tbt_s);
  }
  return StepTimeTable(std::move(prefill_s), std::move(decode_s));
}

}  // namespace litegpu
