#include "src/core/search.h"

#include <algorithm>
#include <optional>

#include "src/llm/footprint.h"
#include "src/perf/model.h"
#include "src/util/thread_pool.h"

namespace litegpu {

namespace {

// Largest batch in [1, upper] with predicate(batch) true, assuming the
// predicate is monotone (true then false as batch grows). Returns 0 when
// even batch 1 fails.
template <typename Pred>
int LargestFeasibleBatch(int upper, const Pred& predicate) {
  if (upper <= 0 || !predicate(1)) {
    return 0;
  }
  // Exponential probe.
  int lo = 1;
  int hi = 1;
  while (hi < upper && predicate(std::min(hi * 2, upper))) {
    hi = std::min(hi * 2, upper);
    lo = hi;
    if (hi == upper) {
      return upper;
    }
  }
  hi = std::min(hi * 2, upper);
  // Invariant: predicate(lo) true; predicate(hi+1 side) false or hi==upper.
  while (lo < hi) {
    int mid = lo + (hi - lo + 1) / 2;
    if (predicate(mid)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

// Best prefill point for one TP degree, or nullopt when no batch is feasible.
// Pure function of its arguments: safe to run for different degrees on
// different workers. Evaluations go through a per-degree PerfModel, so the
// final re-evaluation of the chosen batch is a cache hit instead of a third
// full roofline pass.
std::optional<PrefillPoint> PrefillBestForDegree(const TransformerSpec& model,
                                                 const GpuSpec& gpu,
                                                 const SearchOptions& options, int degree) {
  auto plan = MakeTpPlan(model, degree, options.kv_policy);
  if (!plan) {
    return std::nullopt;
  }
  int upper = options.max_batch;
  if (options.workload.enforce_memory_capacity) {
    upper = std::min(upper, MaxBatchForCapacity(model, *plan, options.workload.prompt_tokens,
                                                options.workload.prompt_tokens,
                                                gpu.mem_capacity_bytes));
  }
  PerfModel perf(model, gpu, *plan, options.workload, options.engine);
  auto meets = [&](int batch) {
    PrefillResult r = perf.Prefill(batch);
    return r.feasible && r.meets_slo;
  };
  int best_batch = LargestFeasibleBatch(upper, meets);
  if (best_batch == 0) {
    return std::nullopt;
  }
  PrefillPoint point;
  point.tp_degree = degree;
  point.batch = best_batch;
  point.result = perf.Prefill(best_batch);
  return point;
}

std::optional<DecodePoint> DecodeBestForDegree(const TransformerSpec& model, const GpuSpec& gpu,
                                               const SearchOptions& options, int degree) {
  auto plan = MakeTpPlan(model, degree, options.kv_policy);
  if (!plan) {
    return std::nullopt;
  }
  int max_context = options.workload.prompt_tokens + options.workload.output_tokens;
  int upper = options.max_batch;
  if (options.workload.enforce_memory_capacity) {
    upper = std::min(upper,
                     MaxBatchForCapacity(model, *plan, 1, max_context, gpu.mem_capacity_bytes));
  }
  PerfModel perf(model, gpu, *plan, options.workload, options.engine);
  auto meets = [&](int batch) {
    DecodeResult r = perf.Decode(batch);
    return r.feasible && r.meets_slo;
  };
  int best_batch = LargestFeasibleBatch(upper, meets);
  if (best_batch == 0) {
    return std::nullopt;
  }
  DecodePoint point;
  point.tp_degree = degree;
  point.batch = best_batch;
  point.result = perf.Decode(best_batch);
  return point;
}

}  // namespace

PrefillSearchResult SearchPrefill(const TransformerSpec& model, const GpuSpec& gpu,
                                  const SearchOptions& options) {
  PrefillSearchResult out;
  std::vector<int> degrees = FeasibleTpDegrees(model, gpu.max_gpus, options.kv_policy);
  // Fan out per degree; combine in degree order so the result is identical
  // to the serial sweep at any thread count.
  auto points = ParallelMap<std::optional<PrefillPoint>>(
      options.exec.threads, static_cast<int>(degrees.size()),
      [&](int i) { return PrefillBestForDegree(model, gpu, options, degrees[i]); });
  for (const auto& point : points) {
    if (!point) {
      continue;
    }
    out.per_degree.push_back(*point);
    if (!out.found ||
        point->result.tokens_per_s_per_sm > out.best.result.tokens_per_s_per_sm) {
      out.best = *point;
      out.found = true;
    }
  }
  return out;
}

DecodeSearchResult SearchDecode(const TransformerSpec& model, const GpuSpec& gpu,
                                const SearchOptions& options) {
  DecodeSearchResult out;
  std::vector<int> degrees = FeasibleTpDegrees(model, gpu.max_gpus, options.kv_policy);
  auto points = ParallelMap<std::optional<DecodePoint>>(
      options.exec.threads, static_cast<int>(degrees.size()),
      [&](int i) { return DecodeBestForDegree(model, gpu, options, degrees[i]); });
  for (const auto& point : points) {
    if (!point) {
      continue;
    }
    out.per_degree.push_back(*point);
    if (!out.found ||
        point->result.tokens_per_s_per_sm > out.best.result.tokens_per_s_per_sm) {
      out.best = *point;
      out.found = true;
    }
  }
  return out;
}

std::optional<PrefillPoint> BruteForcePrefillBest(const TransformerSpec& model,
                                                  const GpuSpec& gpu,
                                                  const SearchOptions& options,
                                                  int batch_limit) {
  std::vector<int> degrees = FeasibleTpDegrees(model, gpu.max_gpus, options.kv_policy);
  // Each worker exhaustively scans one degree; the serial tie-breaking
  // (earlier degree wins, then earlier batch) is preserved by combining the
  // per-degree bests in degree order with a strict comparison.
  auto points = ParallelMap<std::optional<PrefillPoint>>(
      options.exec.threads, static_cast<int>(degrees.size()),
      [&](int i) {
        std::optional<PrefillPoint> best;
        auto plan = MakeTpPlan(model, degrees[i], options.kv_policy);
        if (!plan) {
          return best;
        }
        for (int batch = 1; batch <= batch_limit; ++batch) {
          PrefillResult r =
              EvaluatePrefill(model, gpu, *plan, batch, options.workload, options.engine);
          if (!r.feasible || !r.meets_slo) {
            continue;
          }
          if (!best || r.tokens_per_s_per_sm > best->result.tokens_per_s_per_sm) {
            best = PrefillPoint{degrees[i], batch, r};
          }
        }
        return best;
      });
  std::optional<PrefillPoint> best;
  for (const auto& point : points) {
    if (point &&
        (!best || point->result.tokens_per_s_per_sm > best->result.tokens_per_s_per_sm)) {
      best = point;
    }
  }
  return best;
}

std::optional<DecodePoint> BruteForceDecodeBest(const TransformerSpec& model,
                                                const GpuSpec& gpu,
                                                const SearchOptions& options,
                                                int batch_limit) {
  std::vector<int> degrees = FeasibleTpDegrees(model, gpu.max_gpus, options.kv_policy);
  auto points = ParallelMap<std::optional<DecodePoint>>(
      options.exec.threads, static_cast<int>(degrees.size()),
      [&](int i) {
        std::optional<DecodePoint> best;
        auto plan = MakeTpPlan(model, degrees[i], options.kv_policy);
        if (!plan) {
          return best;
        }
        for (int batch = 1; batch <= batch_limit; ++batch) {
          DecodeResult r =
              EvaluateDecode(model, gpu, *plan, batch, options.workload, options.engine);
          if (!r.feasible || !r.meets_slo) {
            continue;
          }
          if (!best || r.tokens_per_s_per_sm > best->result.tokens_per_s_per_sm) {
            best = DecodePoint{degrees[i], batch, r};
          }
        }
        return best;
      });
  std::optional<DecodePoint> best;
  for (const auto& point : points) {
    if (point &&
        (!best || point->result.tokens_per_s_per_sm > best->result.tokens_per_s_per_sm)) {
      best = point;
    }
  }
  return best;
}

namespace {

Json PointToJson(const PrefillPoint& p) {
  Json j = Json::Object();
  j.Set("tp_degree", p.tp_degree)
      .Set("batch", p.batch)
      .Set("ttft_s", p.result.ttft_s)
      .Set("tokens_per_s", p.result.tokens_per_s)
      .Set("tokens_per_s_per_sm", p.result.tokens_per_s_per_sm)
      .Set("memory_needed_bytes", p.result.memory_needed_bytes)
      .Set("bound", ToString(p.result.timing.DominantBound()));
  return j;
}

Json PointToJson(const DecodePoint& p) {
  Json j = Json::Object();
  j.Set("tp_degree", p.tp_degree)
      .Set("batch", p.batch)
      .Set("tbt_s", p.result.tbt_s)
      .Set("tokens_per_s", p.result.tokens_per_s)
      .Set("tokens_per_s_per_sm", p.result.tokens_per_s_per_sm)
      .Set("memory_needed_bytes", p.result.memory_needed_bytes)
      .Set("bound", ToString(p.result.timing.DominantBound()));
  return j;
}

template <typename Result>
Json SearchResultToJson(const Result& result) {
  Json j = Json::Object();
  j.Set("found", result.found);
  if (result.found) {
    j.Set("best", PointToJson(result.best));
  }
  Json frontier = Json::Array();
  for (const auto& point : result.per_degree) {
    frontier.Append(PointToJson(point));
  }
  j.Set("per_degree", std::move(frontier));
  return j;
}

}  // namespace

Json ToJson(const PrefillSearchResult& result) { return SearchResultToJson(result); }

Json ToJson(const DecodeSearchResult& result) { return SearchResultToJson(result); }

}  // namespace litegpu
