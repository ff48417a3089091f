// Figure-3 experiment drivers: run the configuration search for every
// (model, GPU type) pair and produce the normalized tokens/s/SM series the
// paper plots. Shared by the bench binaries, the integration tests, and the
// examples.

#pragma once

#include <string>
#include <vector>

#include "src/core/search.h"
#include "src/hw/gpu_spec.h"
#include "src/llm/model.h"

namespace litegpu {

struct Fig3Entry {
  std::string model_name;
  std::string gpu_name;
  bool found = false;
  int tp_degree = 0;
  int batch = 0;
  double latency_s = 0.0;            // TTFT (3a) or worst-case TBT (3b)
  double tokens_per_s = 0.0;
  double tokens_per_s_per_sm = 0.0;
  double normalized_vs_h100 = 0.0;   // the plotted bar height
  Bound dominant_bound = Bound::kCompute;
  double memory_needed_bytes = 0.0;  // per GPU at the chosen point
};

// Prefill study (Figure 3a). `gpus` defaults in the bench to
// {H100, Lite, Lite+NetBW, Lite+NetBW+FLOPS}; entries normalize per model
// against the gpu named `baseline_name`. The (model, GPU) pairs fan out at
// options.exec.
std::vector<Fig3Entry> RunPrefillStudy(const std::vector<TransformerSpec>& models,
                                       const std::vector<GpuSpec>& gpus,
                                       const SearchOptions& options,
                                       const std::string& baseline_name = "H100");

// Decode study (Figure 3b): {H100, Lite, Lite+MemBW, Lite+MemBW+NetBW}.
std::vector<Fig3Entry> RunDecodeStudy(const std::vector<TransformerSpec>& models,
                                      const std::vector<GpuSpec>& gpus,
                                      const SearchOptions& options,
                                      const std::string& baseline_name = "H100");

// Renders a study as the paper-style table (one row per model x GPU).
std::string Fig3ToText(const std::vector<Fig3Entry>& entries, const std::string& title);

// Structured form of a study: {"title": ..., "entries": [...]} with one
// object per (model, GPU) pair.
Json Fig3ToJson(const std::vector<Fig3Entry>& entries, const std::string& title);

}  // namespace litegpu
