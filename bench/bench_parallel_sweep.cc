// Parallel sweep microbenchmark: times a design-space exploration over the
// Table-1 catalog (a grid of prompt-length x TBT-SLO scenarios, each running
// the full case-study-model x Table-1-GPU decode study) and a sharded
// Monte-Carlo availability run at 1 vs N worker threads, verifies results
// are bit-identical, and reports the speedup.
//
//   bench_parallel_sweep [--threads N] [--prompts P] [--slos S]
//                        [--trials T] [--years Y] [--reps R]
//
// Defaults: N = hardware concurrency (at least 4), an 8x8 scenario grid,
// 32 trials x 200 years of Monte-Carlo, R = 3 repetitions (best kept).
// Ranges: N in [0, 256] (0 = the default), P and S in [1, 64], T in
// [1, 100000], Y in [1, 100000], R in [1, 100]. An unknown flag or a value
// that is malformed or out of range exits 64 naming the flag, before any
// thread starts.

#include <chrono>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "src/core/experiments.h"
#include "src/hw/catalog.h"
#include "src/reliability/mc_sim.h"
#include "src/util/flags.h"
#include "src/util/thread_pool.h"

namespace litegpu {
namespace {

double BestSeconds(int reps, const std::function<void()>& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    auto start = std::chrono::steady_clock::now();
    fn();
    std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    if (r == 0 || elapsed.count() < best) {
      best = elapsed.count();
    }
  }
  return best;
}

bool SameEntries(const std::vector<Fig3Entry>& a, const std::vector<Fig3Entry>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].found != b[i].found || a[i].tp_degree != b[i].tp_degree ||
        a[i].batch != b[i].batch ||
        a[i].tokens_per_s_per_sm != b[i].tokens_per_s_per_sm ||
        a[i].normalized_vs_h100 != b[i].normalized_vs_h100) {
      return false;
    }
  }
  return true;
}

// The whole design space: one full catalog study per (prompt, slo) scenario,
// fanned out across `threads` lanes. Entries concatenate in scenario
// order, so the result is deterministic at any thread count.
std::vector<Fig3Entry> SweepScenarioGrid(const std::vector<TransformerSpec>& models,
                                         const std::vector<GpuSpec>& gpus,
                                         const std::vector<int>& prompts,
                                         const std::vector<double>& slos, int threads) {
  int n = static_cast<int>(prompts.size() * slos.size());
  auto per_scenario = ParallelMap<std::vector<Fig3Entry>>(threads, n, [&](int i) {
    SearchOptions options;
    options.workload.prompt_tokens = prompts[static_cast<size_t>(i) / slos.size()];
    options.workload.tbt_slo_s = slos[static_cast<size_t>(i) % slos.size()];
    return RunDecodeStudy(models, gpus, options);
  });
  std::vector<Fig3Entry> all;
  for (const auto& entries : per_scenario) {
    all.insert(all.end(), entries.begin(), entries.end());
  }
  return all;
}

// Reads flag `key` into `value` (left as is when the flag is absent).
// False, after naming the flag on stderr, when the value is malformed or
// outside [lo, hi].
template <typename T>
bool ReadFlag(const Flags& flags, const char* key, T lo, T hi, T& value) {
  std::optional<T> read;
  if constexpr (std::is_same_v<T, int>) {
    read = flags.GetInt(key, value);
  } else {
    read = flags.GetDouble(key, value);
  }
  if (!read || !(*read >= lo && *read <= hi)) {
    std::fprintf(stderr, "bench_parallel_sweep: --%s must be a number in [%g, %g]\n", key,
                 static_cast<double>(lo), static_cast<double>(hi));
    return false;
  }
  value = *read;
  return true;
}

int Main(int argc, const char* const* argv) {
  Flags flags = Flags::Parse(argc, argv);
  std::string unknown =
      flags.UnknownFlagCheck({"threads", "prompts", "slos", "trials", "years", "reps"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "bench_parallel_sweep: %s\n", unknown.c_str());
    return 64;
  }
  int threads = 0;
  int num_prompts = 8;
  int num_slos = 8;
  int trials = 32;
  double years = 200.0;
  int reps = 3;
  if (!ReadFlag(flags, "threads", 0, 256, threads) ||
      !ReadFlag(flags, "prompts", 1, 64, num_prompts) ||
      !ReadFlag(flags, "slos", 1, 64, num_slos) ||
      !ReadFlag(flags, "trials", 1, 100000, trials) ||
      !ReadFlag(flags, "years", 1.0, 100000.0, years) ||
      !ReadFlag(flags, "reps", 1, 100, reps)) {
    return 64;
  }
  if (threads == 0) {
    threads = ResolveThreads(0) < 4 ? 4 : ResolveThreads(0);
  }

  std::printf("=== Parallel sweep benchmark (%d threads vs serial) ===\n\n", threads);

  // --- design-space grid over the Table-1 catalog ---
  std::vector<TransformerSpec> models = CaseStudyModels();
  std::vector<GpuSpec> gpus = Table1Configs();
  std::vector<int> prompts;
  for (int i = 0; i < num_prompts; ++i) {
    prompts.push_back(512 + 512 * i);
  }
  std::vector<double> slos;
  for (int i = 0; i < num_slos; ++i) {
    slos.push_back(0.020 + 0.010 * i);
  }

  std::vector<Fig3Entry> serial_entries;
  std::vector<Fig3Entry> parallel_entries;
  double serial_s = BestSeconds(reps, [&] {
    serial_entries = SweepScenarioGrid(models, gpus, prompts, slos, 1);
  });
  double parallel_s = BestSeconds(reps, [&] {
    parallel_entries = SweepScenarioGrid(models, gpus, prompts, slos, threads);
  });
  bool identical = SameEntries(serial_entries, parallel_entries);
  std::printf("catalog design sweep (%zu scenarios x %zu models x %zu GPUs = %zu searches)\n",
              prompts.size() * slos.size(), models.size(), gpus.size(),
              serial_entries.size());
  std::printf("  serial:     %8.1f ms\n", serial_s * 1e3);
  std::printf("  threads=%d:  %7.1f ms   speedup %.2fx   results %s\n\n", threads,
              parallel_s * 1e3, parallel_s > 0.0 ? serial_s / parallel_s : 0.0,
              identical ? "bit-identical" : "MISMATCH");

  // --- Monte-Carlo availability, sharded trials ---
  McSimConfig config;
  config.gpus_per_instance = 32;
  config.num_instances = 4;
  config.num_spares = 2;
  config.sim_years = years;
  config.num_trials = trials;
  config.exec.threads = 1;
  McSimConfig sharded = config;
  sharded.exec.threads = threads;

  McSimResult serial_mc;
  McSimResult parallel_mc;
  double mc_serial_s =
      BestSeconds(reps, [&] { serial_mc = SimulateAvailability(Lite(), config); });
  double mc_parallel_s =
      BestSeconds(reps, [&] { parallel_mc = SimulateAvailability(Lite(), sharded); });
  bool mc_identical = serial_mc.num_failures == parallel_mc.num_failures &&
                      serial_mc.instance_availability == parallel_mc.instance_availability;
  std::printf("mc availability (%d trials x %.0f years, 128 Lite GPUs)\n", trials,
              config.sim_years);
  std::printf("  serial:     %8.1f ms\n", mc_serial_s * 1e3);
  std::printf("  threads=%d:  %7.1f ms   speedup %.2fx   results %s\n", threads,
              mc_parallel_s * 1e3,
              mc_parallel_s > 0.0 ? mc_serial_s / mc_parallel_s : 0.0,
              mc_identical ? "bit-identical" : "MISMATCH");

  return identical && mc_identical ? 0 : 1;
}

}  // namespace
}  // namespace litegpu

int main(int argc, char** argv) { return litegpu::Main(argc, argv); }
