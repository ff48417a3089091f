#include "src/core/experiments.h"

#include <sstream>

#include "src/util/format.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"

namespace litegpu {

namespace {

void NormalizeAgainstBaseline(std::vector<Fig3Entry>& entries, size_t num_gpus,
                              const std::string& baseline_name) {
  // Entries are ordered model-major: [model][gpu].
  for (size_t base = 0; base < entries.size(); base += num_gpus) {
    double baseline = 0.0;
    for (size_t i = base; i < base + num_gpus && i < entries.size(); ++i) {
      if (entries[i].gpu_name == baseline_name && entries[i].found) {
        baseline = entries[i].tokens_per_s_per_sm;
      }
    }
    for (size_t i = base; i < base + num_gpus && i < entries.size(); ++i) {
      entries[i].normalized_vs_h100 =
          baseline > 0.0 ? entries[i].tokens_per_s_per_sm / baseline : 0.0;
    }
  }
}

// Shared driver for both studies: fan out one lane per (model, gpu) pair,
// collect entries in pair order (model-major, matching the serial loops),
// then normalize.
template <typename RunPair>
std::vector<Fig3Entry> RunStudy(const std::vector<TransformerSpec>& models,
                                const std::vector<GpuSpec>& gpus,
                                const SearchOptions& options,
                                const std::string& baseline_name, const RunPair& run_pair) {
  int num_pairs = static_cast<int>(models.size() * gpus.size());
  std::vector<Fig3Entry> entries =
      ParallelMap<Fig3Entry>(options.exec.threads, num_pairs, [&](int i) {
        const auto& model = models[static_cast<size_t>(i) / gpus.size()];
        const auto& gpu = gpus[static_cast<size_t>(i) % gpus.size()];
        Fig3Entry e;
        e.model_name = model.name;
        e.gpu_name = gpu.name;
        run_pair(model, gpu, options, e);
        return e;
      });
  NormalizeAgainstBaseline(entries, gpus.size(), baseline_name);
  return entries;
}

}  // namespace

std::vector<Fig3Entry> RunPrefillStudy(const std::vector<TransformerSpec>& models,
                                       const std::vector<GpuSpec>& gpus,
                                       const SearchOptions& options,
                                       const std::string& baseline_name) {
  return RunStudy(models, gpus, options, baseline_name,
                  [](const TransformerSpec& model, const GpuSpec& gpu,
                     const SearchOptions& search_options, Fig3Entry& e) {
                    PrefillSearchResult search = SearchPrefill(model, gpu, search_options);
                    if (!search.found) {
                      return;
                    }
                    e.found = true;
                    e.tp_degree = search.best.tp_degree;
                    e.batch = search.best.batch;
                    e.latency_s = search.best.result.ttft_s;
                    e.tokens_per_s = search.best.result.tokens_per_s;
                    e.tokens_per_s_per_sm = search.best.result.tokens_per_s_per_sm;
                    e.dominant_bound = search.best.result.timing.DominantBound();
                    e.memory_needed_bytes = search.best.result.memory_needed_bytes;
                  });
}

std::vector<Fig3Entry> RunDecodeStudy(const std::vector<TransformerSpec>& models,
                                      const std::vector<GpuSpec>& gpus,
                                      const SearchOptions& options,
                                      const std::string& baseline_name) {
  return RunStudy(models, gpus, options, baseline_name,
                  [](const TransformerSpec& model, const GpuSpec& gpu,
                     const SearchOptions& search_options, Fig3Entry& e) {
                    DecodeSearchResult search = SearchDecode(model, gpu, search_options);
                    if (!search.found) {
                      return;
                    }
                    e.found = true;
                    e.tp_degree = search.best.tp_degree;
                    e.batch = search.best.batch;
                    e.latency_s = search.best.result.tbt_s;
                    e.tokens_per_s = search.best.result.tokens_per_s;
                    e.tokens_per_s_per_sm = search.best.result.tokens_per_s_per_sm;
                    e.dominant_bound = search.best.result.timing.DominantBound();
                    e.memory_needed_bytes = search.best.result.memory_needed_bytes;
                  });
}

std::string Fig3ToText(const std::vector<Fig3Entry>& entries, const std::string& title) {
  Table table({"Model", "GPU type", "TP", "Batch", "Latency", "Tokens/s", "Tok/s/SM",
               "Normalized", "Bound", "HBM/GPU"});
  std::string last_model;
  for (const auto& e : entries) {
    if (!last_model.empty() && e.model_name != last_model) {
      table.AddSeparator();
    }
    last_model = e.model_name;
    if (!e.found) {
      table.AddRow({e.model_name, e.gpu_name, "-", "-", "-", "-", "-", "infeasible", "-", "-"});
      continue;
    }
    table.AddRow({e.model_name, e.gpu_name, std::to_string(e.tp_degree),
                  std::to_string(e.batch), HumanTime(e.latency_s),
                  FormatDouble(e.tokens_per_s, 0), FormatDouble(e.tokens_per_s_per_sm, 2),
                  FormatDouble(e.normalized_vs_h100, 3), ToString(e.dominant_bound),
                  HumanBytes(e.memory_needed_bytes, 1)});
  }
  std::ostringstream os;
  os << title << "\n" << table.ToText();
  return os.str();
}

Json Fig3ToJson(const std::vector<Fig3Entry>& entries, const std::string& title) {
  Json rows = Json::Array();
  for (const auto& e : entries) {
    Json row = Json::Object();
    row.Set("model", e.model_name).Set("gpu", e.gpu_name).Set("found", e.found);
    if (e.found) {
      row.Set("tp_degree", e.tp_degree)
          .Set("batch", e.batch)
          .Set("latency_s", e.latency_s)
          .Set("tokens_per_s", e.tokens_per_s)
          .Set("tokens_per_s_per_sm", e.tokens_per_s_per_sm)
          .Set("normalized", e.normalized_vs_h100)
          .Set("bound", ToString(e.dominant_bound))
          .Set("memory_needed_bytes", e.memory_needed_bytes);
    }
    rows.Append(std::move(row));
  }
  Json j = Json::Object();
  j.Set("title", title).Set("entries", std::move(rows));
  return j;
}

}  // namespace litegpu
