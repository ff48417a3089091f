// litebench: the end-to-end benchmark of the litegpu serving stack.
//
// One process runs one workload: it loads the workload's scenario file the
// way `litegpu run` does (LoadScenarioFile -> Validate), writes seeds
// derived from --seed into it, then drives Runner::Run + RunReport::ToJson
// over the file in a closed loop with one caller, for a number of passes
// set by --seconds. Inside each scenario the simulated traffic is the modelled
// open-loop arrival stream. Every time printed is host time: wall_s and
// sim_req_per_s in CPU time rescaled for the host's speed (HostCalibration),
// the rest wall-clock. Simulated quantities say so. --trace 1 adds the traced per-layer replay (replay.h).
//
//   litebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workloads-dir <dir>] [--trace-dir <dir>]
//   litebench --self-test [--workloads-dir <dir>]
//
// (--setup-probe <loads> makes the process a set-up probe; see ProbeSetUp.)
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics (end-to-end with --trace 0, per-layer with --trace 1). The exit
// code is nonzero when any output check fails.

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "replay.h"
#include "src/core/runner.h"
#include "src/core/scenario.h"
#include "src/util/rng.h"
#include "trace.h"

#ifndef LITEBENCH_BUILD_TYPE
#define LITEBENCH_BUILD_TYPE "unknown"
#endif
#ifndef LITEBENCH_COMPILER
#define LITEBENCH_COMPILER "unknown"
#endif

namespace litebench {
namespace {

using litegpu::RunReport;
using litegpu::Runner;
using litegpu::Scenario;
using litegpu::StudyKind;

// Taken before any default-priority static initializer of the program or
// the library runs, and again on entry to main: their difference is the
// static-initialization share of setup_s.
int64_t g_process_start_ns = 0;
int64_t g_main_entry_ns = 0;
__attribute__((constructor(101))) void MarkProcessStart() { g_process_start_ns = NowNs(); }

// --- workloads ---------------------------------------------------------------

struct WorkloadDef {
  const char* name;
  const char* file;  // under the workloads directory
  // Copies of the file's scenarios per pass, each with its own derived
  // seed: averages the seed-to-seed spread of fault/autoscaler dynamics.
  int variants;
  // Host seconds of one pass on the machine the benchmark was sized on
  // (4-vCPU Xeon VM), between its fast and slow phases. A run makes
  // floor(--seconds / pass_s) passes, so the sample count depends on
  // --seconds alone, never on how fast the code is (see kOverrunFactor).
  double pass_s;
  // Scenario-file loads timed by one set-up probe (about 30 ms of loads).
  int setup_batch;
  // Self-test shrink: serve horizon, fleet horizon/catalog/grid size.
  double tiny_horizon_s;
  size_t tiny_candidates;
};

const WorkloadDef kWorkloads[] = {
    {"steady_poisson", "steady_poisson.json", 1, 1.1, 2000, 20.0, 0},
    {"chaos_day", "chaos_day.json", 24, 2.5, 100, 60.0, 0},
    {"fleet_catalog", "fleet_catalog.json", 1, 0.6, 60, 2.0, 6},
};

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

// Scenario seed for variant `tag` of run seed `seed`, masked to 53 bits so
// the report's JSON echo of it is exact.
uint64_t VariantSeed(uint64_t seed, uint64_t tag) {
  return litegpu::SplitMix64(seed * 0x9E3779B97F4A7C15ull + tag).Next() &
         ((uint64_t{1} << 53) - 1);
}

// Loads, validates and seeds the workload's scenario file: the benchmark's
// whole set-up, repeated to time it.
std::optional<std::vector<Scenario>> LoadWorkload(const WorkloadDef& w, const std::string& dir,
                                                  uint64_t seed, bool tiny, std::string* error) {
  std::optional<std::vector<Scenario>> file =
      litegpu::LoadScenarioFile(dir + "/" + w.file, error);
  if (!file) {
    return std::nullopt;
  }
  std::vector<Scenario> out;
  for (int v = 0; v < (tiny ? std::min(w.variants, 2) : w.variants); ++v) {
    uint64_t variant_seed = VariantSeed(seed, static_cast<uint64_t>(v));
    for (Scenario s : *file) {
      if (w.variants > 1) {
        s.name += "#" + std::to_string(v);
      }
      s.serve.seed = variant_seed;
      s.sweep.seed = variant_seed;
      s.fleet.seed = variant_seed;
      if (tiny) {
        s.serve.horizon_s = std::min(s.serve.horizon_s, w.tiny_horizon_s);
        s.fleet.horizon_s = std::min(s.fleet.horizon_s, w.tiny_horizon_s);
        if (s.fleet.candidates.size() > w.tiny_candidates) {
          s.fleet.candidates.resize(w.tiny_candidates);
        }
        s.fleet.loads = {0.2, 0.5, 0.8, 1.0};
      }
      std::string problem = s.Validate();
      if (!problem.empty()) {
        *error = s.name + ": " + problem;
        return std::nullopt;
      }
      out.push_back(std::move(s));
    }
  }
  return out;
}

// --- helpers -------------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

uint64_t Fnv1a(const std::string& text, uint64_t h = 1469598103934665603ull) {
  for (char ch : text) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ull;
  }
  return h;
}

// Peak resident set of this process image, in MiB. Linux carries
// getrusage's ru_maxrss across execve, so it would report the launcher's
// peak (a Python harness's, say) whenever that is larger; VmHWM belongs
// to the current image alone. ru_maxrss is the fallback off Linux.
double PeakRssMiB() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) {
        break;
      }
    }
    std::fclose(f);
    if (kib >= 0) {
      return static_cast<double>(kib) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// CPU time of this process (all threads) or of the calling thread. On a
// VM it leaves out the time the hypervisor gives a vCPU to another guest.
int64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// Host speed, from a fixed kernel of the benchmark's own. On a shared host
// two things slow a call. The hypervisor takes vCPUs away, by up to 3x on
// the 2-thread fleet_catalog; timing calls in CPU time leaves that out.
// And other tenants load the memory system, which slows even the CPU time
// of the simulator about 1.4x, in phases that last from seconds to over a
// minute, so a run may see no fast phase at all. The kernel, random
// read-modify-writes over a 4 MiB table on each of the workload's threads
// at once, slows in those phases by about as much, and no change to the
// program changes it. Its CPU time on the calling thread is taken between
// Runner::Run calls, at most every kEveryS, and a call's CPU time is
// rescaled by the kernel times on either side of it to the kernel's fixed
// reference time kRefS.
class HostCalibration {
 public:
  // Kernel CPU seconds in the fast phase of the machine the benchmark was
  // sized on (4-vCPU Xeon VM); calibrated times are CPU seconds there.
  static constexpr double kRefS = 0.045;
  static constexpr double kEveryS = 0.5;
  static constexpr size_t kTableEntries = size_t{1} << 20;  // 4 MiB of uint32_t

  explicit HostCalibration(int threads) {
    for (int t = 0; t < std::max(threads, 1); ++t) {
      tables_.emplace_back(kTableEntries, 1);
    }
  }

  int threads() const { return static_cast<int>(tables_.size()); }

  // The tables stay resident for the whole run; peak_rss_mb takes them off.
  double TablesMiB() const {
    return static_cast<double>(tables_.size() * kTableEntries * sizeof(uint32_t)) / (1 << 20);
  }

  // Times the kernel if kEveryS has passed since it last ran. Returns the
  // index of the last timing, to pass to Scale for the call that follows.
  size_t Before() {
    if (times_.empty() || Seconds(NowNs() - last_end_ns_) >= kEveryS) {
      Time();
    }
    return times_.size() - 1;
  }

  // Times the kernel once more, after the last call.
  void Finish() { Time(); }

  // Factor from CPU seconds to calibrated seconds for a call made between
  // timings i and i + 1 (Finish must have run).
  double Scale(size_t i) const { return kRefS / std::sqrt(times_[i] * times_[i + 1]); }

  const std::vector<double>& times() const { return times_; }

 private:
  static void Kernel(std::vector<uint32_t>& table) {
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < (10 << 20); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      table[(x >> 12) & (kTableEntries - 1)] += static_cast<uint32_t>(x);
    }
    volatile uint32_t keep = table[x & (kTableEntries - 1)];  // the stores are not dead
    (void)keep;
  }

  void Time() {
    std::vector<std::thread> helpers;
    for (size_t t = 1; t < tables_.size(); ++t) {
      helpers.emplace_back(Kernel, std::ref(tables_[t]));
    }
    int64_t c0 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
    Kernel(tables_[0]);
    times_.push_back(Seconds(CpuNs(CLOCK_THREAD_CPUTIME_ID) - c0));
    for (std::thread& h : helpers) {
      h.join();
    }
    last_end_ns_ = NowNs();
  }

  std::vector<std::vector<uint32_t>> tables_;  // one per workload thread
  std::vector<double> times_;                  // kernel CPU seconds, calling thread
  int64_t last_end_ns_ = 0;
};

// Distinct resolved parts of a fleet catalog, keyed by recipe.
size_t DistinctFleetParts(const Scenario& s) {
  std::set<std::tuple<std::string, int, double, double, double>> parts;
  for (const litegpu::FleetCandidate& c : s.fleet.candidates) {
    parts.emplace(c.gpu, std::max(c.split, 1), c.mem_bw_multiplier, c.net_bw_multiplier,
                  c.overclock);
  }
  return parts.size();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool measured = true;
};

struct WorkloadResult {
  bool correct = true;
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // printed before the metrics
  std::string digest;
};

struct RunOptions {
  const WorkloadDef* workload = nullptr;
  std::string dir;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string trace_path;  // Chrome trace output; "" = don't write
};

// The output checks every report gets. Returns "" or the first problem.
std::string CheckReport(const Scenario& s, const RunReport& report,
                        const ReplayResult& facts) {
  if (!report.ok) {
    return "Runner::Run failed: " + report.error;
  }
  for (const PointCounts& p : facts.points) {
    if (!p.Conserved()) {
      return "conservation broken: admitted " + std::to_string(p.admitted) +
             " != completed + dropped + shed";
    }
  }
  if (s.study == StudyKind::kFleetCompare &&
      static_cast<size_t>(facts.platform_builds) != DistinctFleetParts(s)) {
    return "platform_builds " + std::to_string(facts.platform_builds) +
           " != distinct parts " + std::to_string(DistinctFleetParts(s));
  }
  return "";
}

// Simulated results printed beside the timings, so a speed-only change can
// be seen to leave them identical.
void AppendReferenceNotes(const RunReport& report, std::vector<std::string>& notes) {
  char line[256];
  if (const auto* serve = std::get_if<litegpu::ServeStudyReport>(&report.payload)) {
    std::snprintf(line, sizeof(line),
                  "capacity_agreement %.17g (simulated goodput / analytic demand, %s on %s)",
                  serve->capacity_agreement, serve->model.c_str(), serve->gpu.c_str());
    notes.push_back(line);
  } else if (const auto* fleet = std::get_if<litegpu::FleetCompareReport>(&report.payload)) {
    if (fleet->winner_index >= 0) {
      const auto& w = fleet->candidates[static_cast<size_t>(fleet->winner_index)];
      std::snprintf(line, sizeof(line),
                    "fleet_winner %s at %.17g $/Mtoken (simulated knee, %d candidates)",
                    w.name.c_str(), w.usd_per_mtoken,
                    static_cast<int>(fleet->candidates.size()));
    } else {
      std::snprintf(line, sizeof(line), "fleet_winner none (no feasible candidate)");
    }
    notes.push_back(line);
  }
}

// "" when the replay reproduced the report and conserved every point.
std::string ReplayProblem(const ReplayResult& replay, const ReplayResult& facts) {
  std::string diff = CompareReplay(replay, facts);
  if (!diff.empty()) {
    return "replay mismatch: " + diff;
  }
  for (const PointCounts& p : replay.points) {
    if (!p.Conserved()) {
      return "replayed point breaks conservation";
    }
  }
  return "";
}

// Passes after which peak_rss_mb is read, and the fewest passes a run
// makes. The peak creeps up over many thread fan-outs, so reading it after
// a fixed number of passes keeps it from depending on the pass count.
constexpr int kRssPasses = 3;

// Set-up probes per run.
constexpr size_t kSetupProbes = 15;

// A run stops making passes once they have taken this many times --seconds,
// so a host stuck in its slow phase cannot stretch a run without limit. The
// fixed pass count holds whenever the host runs at its usual speed.
constexpr double kOverrunFactor = 1.25;

struct SetUpTimes {
  double static_init_s = 0.0;
  double load_s = 0.0;  // one load, timed over a batch
};

// The set-up of a fresh process: static initialization, then one untimed
// load (the cold file read) and `batch` back-to-back timed loads, which
// last tens of milliseconds where one load of steady_poisson's file takes
// about 15 us. Run in a child (--setup-probe), because a load in this
// process after a pass takes up to 1.5x longer, by an amount that depends
// on what the pass left in the allocator.
std::optional<SetUpTimes> TimeSetUp(const WorkloadDef& w, const std::string& dir, uint64_t seed,
                                    int batch) {
  SetUpTimes t;
  t.static_init_s = Seconds(g_main_entry_ns - g_process_start_ns);
  std::string error;
  if (!LoadWorkload(w, dir, seed, false, &error)) {
    std::fprintf(stderr, "litebench: set-up probe: %s\n", error.c_str());
    return std::nullopt;
  }
  int64_t t0 = NowNs();
  for (int i = 0; i < batch; ++i) {
    LoadWorkload(w, dir, seed, false, &error);
  }
  t.load_s = Seconds(NowNs() - t0) / batch;
  return t;
}

// Runs this program as a set-up probe child, waits for it and returns
// what it measured.
std::optional<SetUpTimes> ProbeSetUp(const RunOptions& opt, int batch) {
  std::vector<std::string> args = {"litebench", "--setup-probe", std::to_string(batch),
                                   "--workload", opt.workload->name,
                                   "--seed", std::to_string(opt.seed),
                                   "--workloads-dir", opt.dir};
  std::vector<char*> argv;
  for (std::string& a : args) {
    argv.push_back(a.data());
  }
  argv.push_back(nullptr);
  int fds[2];
  if (pipe(fds) != 0) {
    return std::nullopt;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  pid_t pid = 0;
  int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[256];
  ssize_t got = 0;
  while (rc == 0 && (got = read(fds[0], buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<size_t>(got));
  }
  close(fds[0]);
  int status = 0;
  if (rc != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return std::nullopt;
  }
  SetUpTimes t;
  if (std::sscanf(out.c_str(), "%lf %lf", &t.static_init_s, &t.load_s) != 2) {
    return std::nullopt;
  }
  return t;
}

// Replays written to the Chrome trace: enough to read, small enough to load
// (one fleet_catalog replay is ~16k spans). Metrics use every replay.
constexpr int kTraceFileReps = 2;

// The layers whose outermost spans tile the replay's wall time.
const std::set<std::string>& LayerSpanNames() {
  static const std::set<std::string> names = {
      "core.search", "perf",     "serve.workload", "serve.simulator",
      "serve.simulator.baseline", "util.stats", "util.thread_pool", "econ", "report"};
  return names;
}

// Seconds covered by outermost layer spans, one entry per repetition.
std::vector<double> CoveredSeconds(const std::vector<Span>& spans, int reps) {
  const auto& layers = LayerSpanNames();
  std::vector<double> covered(static_cast<size_t>(std::max(reps, 0)), 0.0);
  for (const Span& s : spans) {
    if (s.rep < 0 || s.rep >= reps || s.end_ns < 0 || !layers.count(s.name)) {
      continue;
    }
    bool outermost = true;
    for (int p = s.parent; p >= 0; p = spans[static_cast<size_t>(p)].parent) {
      if (layers.count(spans[static_cast<size_t>(p)].name)) {
        outermost = false;
        break;
      }
    }
    if (outermost) {
      covered[static_cast<size_t>(s.rep)] += Seconds(s.end_ns - s.start_ns);
    }
  }
  return covered;
}

std::string FormatShare(int failed, int attempted) {
  char line[128];
  std::snprintf(line, sizeof(line), "runs_failed %.6f share (%d/%d Runner::Run calls)",
                attempted > 0 ? static_cast<double>(failed) / attempted : 1.0, failed,
                attempted);
  return line;
}

WorkloadResult RunWorkload(const RunOptions& opt) {
  WorkloadResult result;
  Tracer tracer(opt.trace);
  auto fail = [&](const std::string& problem) {
    result.correct = false;
    result.problems.push_back(problem);
  };

  // Set-up: read, parse, validate and seed the workload file. The first,
  // cold load feeds the passes and is printed alone; setup_s times batches
  // of further loads before the first pass.
  std::vector<Scenario> scenarios;
  const double static_init_s =
      g_process_start_ns > 0 ? Seconds(g_main_entry_ns - g_process_start_ns) : 0.0;
  double cold_setup_s = static_init_s;
  {
    std::string error;
    std::optional<std::vector<Scenario>> loaded;
    int64_t t0 = NowNs();
    {
      ScopedSpan span(tracer, "core.scenario");
      loaded = LoadWorkload(*opt.workload, opt.dir, opt.seed, opt.tiny, &error);
    }
    cold_setup_s += Seconds(NowNs() - t0);
    if (!loaded) {
      fail("cannot load workload: " + error);
    } else {
      scenarios = std::move(*loaded);
    }
  }
  if (scenarios.empty()) {
    if (result.correct) {
      fail("workload file holds no scenarios");
    }
    result.attempted = 1;
    result.failed = 1;
    return result;
  }
  result.notes.push_back("threads " + std::to_string(scenarios.front().exec.threads) +
                         " per Runner::Run (scenario exec.threads)");

  const size_t n = scenarios.size();
  // Per scenario and pass: host seconds of Runner::Run + ToJson, and CPU
  // seconds of Runner::Run alone and of Runner::Run + ToJson.
  std::vector<std::vector<double>> wall_s(n), run_cpu_s(n), wall_cpu_s(n);
  std::vector<std::vector<size_t>> calib_at(n);  // HostCalibration::Before per call
  HostCalibration calib(scenarios.front().exec.threads > 0
                            ? scenarios.front().exec.threads
                            : static_cast<int>(std::thread::hardware_concurrency()));
  std::vector<uint64_t> first_hash(n, 0);
  std::vector<size_t> report_bytes(n, 0);
  std::vector<RunReport> kept;  // first-pass reports, for the traced replay
  std::vector<ReplayResult> facts(n);
  std::vector<bool> scenario_failed(n, false);
  std::vector<std::string> reference_notes;
  bool replay_ok = true;
  // Runner::Run calls that failed, as pass * n + scenario: a call counts
  // once however many of its checks fail. A replay problem counts against
  // the first-pass call whose report the replay is checked against.
  std::set<size_t> failed_calls;
  auto scenario_problem = [&](size_t j, size_t pass, const std::string& problem) {
    failed_calls.insert(pass * n + j);
    if (!scenario_failed[j]) {
      scenario_failed[j] = true;
      fail(scenarios[j].name + ": " + problem);
    }
  };

  // A fixed number of rounds, set by --seconds and the workload's nominal
  // pass time. A round is one untraced pass; with tracing, the pass is
  // followed by a traced replay (about as long), so both see the same
  // machine conditions.
  const double round_s = opt.workload->pass_s * (opt.trace ? 2.0 : 1.0);
  const int rounds = std::max(opt.trace ? 1 : kRssPasses,
                              static_cast<int>(std::floor(opt.seconds / round_s)));
  // Set-up probes (see ProbeSetUp), spread evenly over the run's
  // Runner::Run calls so they sample its host phases.
  const size_t total_calls = static_cast<size_t>(rounds) * n;
  const size_t probes = opt.tiny ? 2 : kSetupProbes;
  const int batch = opt.tiny ? 10 : opt.workload->setup_batch;
  std::vector<double> probe_setup_s, probe_load_s;
  auto probe_before = [&](size_t call) {
    for (size_t p = call * probes / total_calls; p < (call + 1) * probes / total_calls; ++p) {
      std::optional<SetUpTimes> t = ProbeSetUp(opt, batch);
      if (!t) {
        fail("set-up probe failed");
        return;
      }
      probe_setup_s.push_back(t->static_init_s + t->load_s);
      probe_load_s.push_back(t->load_s);
    }
  };

  // One closed-loop pass: Runner::Run + ToJson over every scenario in
  // file order, each checked.
  Runner runner;
  int passes = 0;
  auto run_pass = [&]() {
    for (size_t j = 0; j < n; ++j) {
      probe_before(static_cast<size_t>(passes) * n + j);
      calib_at[j].push_back(calib.Before());
      int64_t t0 = NowNs();
      int64_t c0 = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
      RunReport report = runner.Run(scenarios[j]);
      int64_t c1 = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
      std::string json = report.ToJson().Dump();
      int64_t c2 = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
      int64_t t2 = NowNs();
      run_cpu_s[j].push_back(Seconds(c1 - c0));
      wall_cpu_s[j].push_back(Seconds(c2 - c0));
      wall_s[j].push_back(Seconds(t2 - t0));
      ++result.attempted;

      std::string problem;
      uint64_t hash = Fnv1a(json);
      if (passes == 0) {
        first_hash[j] = hash;
        report_bytes[j] = json.size();
        facts[j] = FactsFromReport(report);
        problem = CheckReport(scenarios[j], report, facts[j]);
        if (n == 1) {
          AppendReferenceNotes(report, reference_notes);
        }
        if (opt.trace) {
          kept.push_back(std::move(report));
        }
      } else if (!report.ok) {
        problem = "Runner::Run failed: " + report.error;
      } else if (hash != first_hash[j] || json.size() != report_bytes[j]) {
        problem = "repeated Runner::Run of one seed gave a different report";
      }
      if (!problem.empty()) {
        scenario_problem(j, static_cast<size_t>(passes), problem);
      }
    }
    ++passes;
  };

  // One traced replay of a pass, checked against the first pass's reports.
  std::vector<ReplayCounters> rep_counters;
  auto run_replay = [&]() {
    const int rep = static_cast<int>(rep_counters.size());
    tracer.SetRep(rep);
    ReplayCounters counters;
    {
      ScopedSpan root(tracer, "replay");
      for (size_t j = 0; j < n; ++j) {
        ReplayResult replay = ReplayScenario(scenarios[j], tracer);
        {
          ScopedSpan span(tracer, "report");
          if (Fnv1a(kept[j].ToJson().Dump()) != first_hash[j]) {
            replay_ok = false;
            scenario_problem(j, 0, "re-emitting the report changed its JSON");
          }
        }
        std::string problem = ReplayProblem(replay, facts[j]);
        if (!problem.empty()) {
          replay_ok = false;
          scenario_problem(j, 0, problem);
        }
        counters.Add(replay.counters);
      }
    }
    tracer.SetRep(-1);
    rep_counters.push_back(counters);
  };

  std::vector<double> pass_s;
  double peak_rss = 0.0;
  const int64_t passes_start_ns = NowNs();
  for (int r = 0; r < rounds; ++r) {
    if (r >= kRssPasses &&
        Seconds(NowNs() - passes_start_ns) > kOverrunFactor * opt.seconds) {
      break;
    }
    int64_t t0 = NowNs();
    run_pass();
    pass_s.push_back(Seconds(NowNs() - t0));
    if (opt.trace) {
      run_replay();
    }
    if (r + 1 == kRssPasses) {
      peak_rss = PeakRssMiB();
    }
  }
  if (rounds < kRssPasses) {
    peak_rss = PeakRssMiB();
  }
  peak_rss -= calib.TablesMiB();
  calib.Finish();
  // The fastest probe: a probe's loads last tens of milliseconds, so they
  // land in one host phase (see HostCalibration), and the fastest probe is
  // the one that landed in the fast phase.
  const double setup_s = Fastest(probe_setup_s);
  const double load_s = Fastest(probe_load_s);

  // wall_s sums each scenario's median call in calibrated CPU seconds per
  // workload thread; the host seconds are printed beside it.
  const double threads = calib.threads();
  double wall = 0.0, run_only = 0.0, wall_fastest = 0.0, wall_median = 0.0, cpu_median = 0.0;
  uint64_t digest = 1469598103934665603ull;
  size_t total_bytes = 0;
  for (size_t j = 0; j < n; ++j) {
    std::vector<double> wall_cal, run_cal;
    for (size_t p = 0; p < wall_s[j].size(); ++p) {
      const double scale = calib.Scale(calib_at[j][p]) / threads;
      wall_cal.push_back(wall_cpu_s[j][p] * scale);
      run_cal.push_back(run_cpu_s[j][p] * scale);
    }
    wall += Median(wall_cal);
    run_only += Median(run_cal);
    wall_fastest += Fastest(wall_s[j]);
    wall_median += Median(wall_s[j]);
    cpu_median += Median(wall_cpu_s[j]) / threads;
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, first_hash[j]);
    digest = Fnv1a(hex, digest);
    total_bytes += report_bytes[j];
  }
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016" PRIx64, digest);
  result.digest = digest_hex;
  result.notes.push_back("report_digest " + result.digest + " (FNV-1a of " +
                         std::to_string(n) + " report JSONs, " + std::to_string(total_bytes) +
                         " bytes)");
  result.notes.insert(result.notes.end(), reference_notes.begin(), reference_notes.end());
  char samples[256];
  std::snprintf(samples, sizeof(samples),
                "samples %d passes x %zu scenarios; pass s first %.4f min %.4f median %.4f "
                "max %.4f",
                passes, n, pass_s.front(), Fastest(pass_s), Median(pass_s),
                *std::max_element(pass_s.begin(), pass_s.end()));
  result.notes.push_back(samples);
  std::snprintf(samples, sizeof(samples),
                "uncalibrated host s fastest %.6f median %.6f; cpu s per thread median %.6f; "
                "calibration kernel cpu s min %.6f median %.6f max %.6f of %zu (reference %.4f)",
                wall_fastest, wall_median, cpu_median, Fastest(calib.times()),
                Median(calib.times()), *std::max_element(calib.times().begin(), calib.times().end()),
                calib.times().size(), HostCalibration::kRefS);
  result.notes.push_back(samples);
  std::snprintf(samples, sizeof(samples),
                "setup s cold %.6f (static init %.6f); probes: fastest %.9f median %.9f "
                "of %zu processes x %d loads",
                cold_setup_s, static_init_s, setup_s, Median(probe_setup_s),
                probe_setup_s.size(), batch);
  result.notes.push_back(samples);

  if (!opt.trace) {
    // Simulated admitted requests per pass: from the serve reports, or, as
    // a fleet report states no per-point counts, from one untraced replay.
    // The replay is checked against the report's per-candidate knee fields;
    // its other points' admitted counts have nothing in the report to be
    // checked against.
    int64_t admitted = 0;
    for (size_t j = 0; j < n; ++j) {
      const std::vector<PointCounts>* points = &facts[j].points;
      ReplayResult replay;
      if (scenarios[j].study == StudyKind::kFleetCompare) {
        Tracer off(false);
        replay = ReplayScenario(scenarios[j], off);
        std::string problem = ReplayProblem(replay, facts[j]);
        if (!problem.empty()) {
          replay_ok = false;
          scenario_problem(j, 0, problem);
        }
        points = &replay.points;
      }
      for (const PointCounts& p : *points) {
        admitted += p.admitted;
      }
    }
    result.failed = static_cast<int>(failed_calls.size());
    result.notes.push_back(FormatShare(result.failed, result.attempted));
    result.metrics = {
        {"wall_s", wall, "s"},
        {"sim_req_per_s", run_only > 0.0 ? static_cast<double>(admitted) / run_only : 0.0,
         "1/s", replay_ok},
        {"peak_rss_mb", peak_rss, "MiB"},
        {"setup_s", setup_s, "s"},
    };
    return result;
  }

  // --- per-layer numbers from the spans ---------------------------------------
  const int reps = static_cast<int>(rep_counters.size());
  std::vector<Span> spans = tracer.spans();
  std::vector<double> self = SelfSeconds(spans);
  std::map<std::string, std::vector<double>> self_by_name, total_by_name;
  for (std::map<std::string, LayerTime>& times : LayerTimes(spans, self, reps)) {
    for (const char* name : {"core.search", "perf", "serve.workload", "serve.simulator",
                             "serve.simulator.baseline", "util.stats", "pool.task", "econ",
                             "report", "replay"}) {
      self_by_name[name].push_back(times[name].self_s);
      total_by_name[name].push_back(times[name].total_s);
    }
  }
  const std::vector<double> covered = CoveredSeconds(spans, reps);
  auto self_med = [&](const char* name) { return Median(self_by_name[name]); };
  auto per = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  std::vector<double> lane_s;
  for (const ReplayCounters& c : rep_counters) {
    lane_s.push_back(c.pool_lane_s);
  }
  // Counts repeat exactly from one replay to the next; times are medians.
  const ReplayCounters& c0 = rep_counters.front();
  const double sim_s = self_med("serve.simulator");
  const double baseline_s = self_med("serve.simulator.baseline");
  const double gen_s = self_med("serve.workload");
  const double busy_s = Median(total_by_name["pool.task"]);
  const double lanes_s = Median(lane_s);
  const double covered_s = Median(covered);
  const double lookups = static_cast<double>(c0.perf_cache_hits + c0.perf_cache_misses);
  result.metrics = {
      {"scenario.parse_s", load_s, "s"},
      {"search.calls", static_cast<double>(c0.search_calls), "count"},
      {"search.s", self_med("core.search"), "s"},
      {"perf.table_builds", static_cast<double>(c0.table_builds), "count"},
      {"perf.build_s", self_med("perf"), "s"},
      {"perf.cache_hit_rate", per(static_cast<double>(c0.perf_cache_hits), lookups), "ratio"},
      {"workload.requests", static_cast<double>(c0.workload_requests), "count"},
      {"workload.gen_s", gen_s, "s"},
      {"workload.ns_per_request", 1e9 * per(gen_s, static_cast<double>(c0.workload_requests)),
       "ns"},
      {"sim.calls", static_cast<double>(c0.sim_calls), "count"},
      {"sim.s", sim_s, "s"},
      {"sim.decode_steps", static_cast<double>(c0.decode_steps), "count"},
      {"sim.ns_per_decode_step", 1e9 * per(sim_s, static_cast<double>(c0.decode_steps)), "ns"},
      {"sim.ns_per_request", 1e9 * per(sim_s, static_cast<double>(c0.sim_admitted)), "ns"},
      {"sim.fault_events", static_cast<double>(c0.fault_events), "count"},
      {"sim.scale_events", static_cast<double>(c0.scale_events), "count"},
      {"sim.baseline_s", baseline_s, "s"},
      {"sim.baseline_share", per(baseline_s, sim_s), "ratio"},
      {"stats.quantile_s", self_med("util.stats"), "s"},
      {"pool.tasks", static_cast<double>(c0.pool_tasks), "count"},
      {"pool.busy_s", busy_s, "s"},
      {"pool.idle_s", std::max(0.0, lanes_s - busy_s), "s"},
      {"pool.efficiency", per(busy_s, lanes_s), "ratio"},
      {"econ.s", self_med("econ"), "s"},
      {"report.emit_s", self_med("report"), "s"},
      {"report.bytes", static_cast<double>(total_bytes), "bytes"},
      {"runner.other_s", wall_median - covered_s, "s"},
      {"trace.overhead", per(Median(total_by_name["replay"]), wall_median), "ratio"},
      {"trace.coverage", per(covered_s, wall_median), "ratio"},
  };
  if (!replay_ok) {
    // A replay that does not reproduce the report measures nothing.
    for (Metric& m : result.metrics) {
      m.measured = false;
    }
  }
  result.notes.push_back("traced replays " + std::to_string(reps) + "; untraced pass " +
                         std::to_string(wall_median) + " s (median of " +
                         std::to_string(passes) + ")");
  result.failed = static_cast<int>(failed_calls.size());
  result.notes.push_back(FormatShare(result.failed, result.attempted));
  if (!opt.trace_path.empty()) {
    if (tracer.WriteChromeTrace(opt.trace_path, kTraceFileReps)) {
      result.notes.push_back("chrome trace " + opt.trace_path);
    } else {
      fail("cannot write trace file " + opt.trace_path);
    }
  }
  return result;
}

void PrintResult(const WorkloadResult& r) {
  for (const std::string& note : r.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const std::string& problem : r.problems) {
    std::printf("CHECK FAILED: %s\n", problem.c_str());
  }
  for (const Metric& m : r.metrics) {
    if (m.measured) {
      std::printf("metric %-24s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    } else {
      std::printf("metric %-24s unmeasured %s\n", m.name.c_str(), m.unit.c_str());
    }
  }
  std::printf(
      "note: simulated statistics come from the repository's analytic model, which is "
      "not validated against hardware; no error figure is given.\n");
  std::string json = "{\"correct\": " + std::string(r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    char value[64];
    if (m.measured && std::isfinite(m.value)) {
      std::snprintf(value, sizeof(value), "%.17g", m.value);
    } else {
      std::snprintf(value, sizeof(value), "null");
    }
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// Each workload at a tiny size: the replay matches the runner, every
// metric is measured and carries a unit, the same seed reproduces the
// report digest and another seed changes it.
int SelfTest(const std::string& dir) {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    failures += ok ? 0 : 1;
  };
  auto all_measured = [](const WorkloadResult& r) {
    for (const Metric& m : r.metrics) {
      if (!m.measured || !std::isfinite(m.value) || m.unit.empty()) {
        return false;
      }
    }
    return !r.metrics.empty();
  };
  for (const WorkloadDef& w : kWorkloads) {
    std::printf("self-test %s\n", w.name);
    RunOptions opt;
    opt.workload = &w;
    opt.dir = dir;
    opt.seconds = 0.0;  // the minimum number of passes
    opt.tiny = true;
    opt.trace = true;
    WorkloadResult traced = RunWorkload(opt);
    for (const std::string& p : traced.problems) {
      std::printf("  problem: %s\n", p.c_str());
    }
    expect(traced.correct && traced.failed == 0, "traced run passes every output check");
    expect(all_measured(traced), "replay matches the runner; every per-layer metric measured");
    opt.trace = false;
    WorkloadResult plain = RunWorkload(opt);
    expect(plain.correct && plain.failed == 0, "untraced run passes every output check");
    expect(all_measured(plain) && plain.metrics.size() == 4,
           "every end-to-end metric measured, with its unit");
    expect(plain.digest == traced.digest, "same seed reproduces digest " + plain.digest);
    opt.seed = 2;
    WorkloadResult other = RunWorkload(opt);
    expect(other.digest != plain.digest, "another seed changes the digest");
  }
  std::printf("self-test %s (%d failed)\n", failures ? "FAILED" : "passed", failures);
  return failures ? 1 : 0;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "litebench: %s\nusage: litebench --workload <steady_poisson|chaos_day|"
               "fleet_catalog> --seed <n> --seconds <s> --trace <0|1> "
               "[--workloads-dir <dir>] [--trace-dir <dir>]\n"
               "       litebench --self-test [--workloads-dir <dir>]\n",
               why);
  return 64;
}

}  // namespace
}  // namespace litebench

int main(int argc, char** argv) {
  using namespace litebench;
  g_main_entry_ns = NowNs();
  std::string workload, workloads_dir = "litebench/workloads", trace_dir;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  int probe_batch = 0;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--workloads-dir") {
      workloads_dir = value;
    } else if (flag == "--trace-dir") {
      trace_dir = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--setup-probe") {
      probe_batch = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      return Usage(("bad value for " + flag).c_str());
    }
  }

  if (probe_batch > 0) {
    // A child of ProbeSetUp: prints only what it measured.
    const WorkloadDef* def = FindWorkload(workload);
    std::optional<SetUpTimes> t;
    if (def != nullptr) {
      t = TimeSetUp(*def, workloads_dir, seed, probe_batch);
    }
    if (!t) {
      return 1;
    }
    std::printf("%.17g %.17g\n", t->static_init_s, t->load_s);
    return 0;
  }
  std::printf("machine nproc %u; compiler %s; build %s\n", std::thread::hardware_concurrency(),
              LITEBENCH_COMPILER, LITEBENCH_BUILD_TYPE);
#ifndef NDEBUG
  const bool release = false;
#else
  const bool release = std::strcmp(LITEBENCH_BUILD_TYPE, "Release") == 0;
#endif
  if (!release) {
    std::fprintf(stderr, "litebench: refusing to report numbers from a non-Release build\n");
    return 3;
  }
  if (self_test) {
    return SelfTest(workloads_dir);
  }
  const WorkloadDef* def = FindWorkload(workload);
  if (def == nullptr) {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }
  if (!(seconds >= 0.0 && seconds <= 600.0) || (trace != 0 && trace != 1)) {
    return Usage("--seconds must be in [0, 600] and --trace 0 or 1");
  }
  RunOptions opt;
  opt.workload = def;
  opt.dir = workloads_dir;
  opt.seed = seed;
  opt.seconds = seconds;
  opt.trace = trace == 1;
  if (opt.trace && !trace_dir.empty()) {
    opt.trace_path = trace_dir + "/" + workload + "-seed" + std::to_string(seed) + ".trace.json";
  }
  std::printf("workload %s seed %" PRIu64 " seconds %g trace %d\n", def->name, seed, seconds,
              trace);
  WorkloadResult result = RunWorkload(opt);
  PrintResult(result);
  return result.correct ? 0 : 1;
}
