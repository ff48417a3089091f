// Fault-injection engine tests: substream stability, the no-traffic
// availability cross-check against the closed forms in
// src/reliability/failure_model.h (satellite of the serve-path fault work,
// mirroring how McSim is validated), and the serve-loop integration —
// conservation under kill/retry/drop, fault-log identity against the
// reference core, and the disabled path staying inert.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "src/hw/catalog.h"
#include "src/reliability/failure_model.h"
#include "src/serve/simulator.h"
#include "src/serve/simulator_reference.h"
#include "src/serve/workload.h"
#include "tests/serve_identity.h"

namespace litegpu {
namespace {

constexpr double kSecondsPerYear = 8766.0 * 3600.0;

// --- names and substreams ---

TEST(Faults, RetryPolicyRoundTripsThroughNames) {
  for (FaultRetryPolicy policy :
       {FaultRetryPolicy::kRetry, FaultRetryPolicy::kDrop,
        FaultRetryPolicy::kRetryWithBudget}) {
    FaultRetryPolicy parsed;
    ASSERT_TRUE(ParseFaultRetryPolicy(ToString(policy), &parsed));
    EXPECT_EQ(parsed, policy);
  }
  FaultRetryPolicy unused;
  EXPECT_FALSE(ParseFaultRetryPolicy("rety", &unused));
  EXPECT_FALSE(ParseFaultRetryPolicy("", &unused));
}

TEST(Faults, SubstreamSeedDisjointFromWorkloadStreams) {
  // Enabling faults must never perturb arrivals or request lengths: the
  // fault seed is a distinct mix of the scenario seed, not the seed itself
  // or any class substream.
  uint64_t fault_seed = FaultSubstreamSeed(42);
  EXPECT_NE(fault_seed, 42u);
  for (int cls = 0; cls < 8; ++cls) {
    EXPECT_NE(fault_seed, ClassSubstreamSeed(42, cls)) << cls;
  }
  EXPECT_EQ(fault_seed, FaultSubstreamSeed(42));  // deterministic
  EXPECT_NE(fault_seed, FaultSubstreamSeed(43));
}

TEST(Faults, SlotStreamsDependOnlyOnPoolAndSlot) {
  // A slot's gap sequence must not depend on when the slot is first asked
  // or what other slots drew — that is what makes autoscaled instances
  // appearing mid-run deterministic.
  FaultStreams a(7);
  FaultStreams b(7);
  // Interrogate b's slots in a scrambled order with extra draws elsewhere.
  (void)b.NextFailureGap(ScalePool::kDecode, 3, 1.0);
  (void)b.NextFailureGap(ScalePool::kPrefill, 1, 1.0);
  (void)b.NextFailureGap(ScalePool::kDecode, 0, 1.0);
  FaultStreams c(7);
  double a0 = a.NextFailureGap(ScalePool::kPrefill, 0, 0.5);
  double c0 = c.NextFailureGap(ScalePool::kPrefill, 0, 0.5);
  EXPECT_EQ(a0, c0);
  // b already consumed prefill slot 1's first draw; slot 0 is untouched.
  EXPECT_EQ(b.NextFailureGap(ScalePool::kPrefill, 0, 0.5), a0);
  // Pools draw from different streams even at the same slot index.
  FaultStreams d(7);
  FaultStreams e(7);
  EXPECT_NE(d.NextFailureGap(ScalePool::kPrefill, 0, 1.0),
            e.NextFailureGap(ScalePool::kDecode, 0, 1.0));
}

// --- no-traffic availability cross-check against the closed forms ---

TEST(FaultAvailability, MatchesClosedFormNoSpares) {
  FailureParams params;
  double rate = InstanceFailureRatePerSecond(H100(), 8, params);
  FaultAvailabilityStats stats = SimulateFaultAvailability(
      rate, params.mttr_hours * 3600.0, params.spare_activation_minutes * 60.0,
      /*num_spares=*/0, /*num_instances=*/4,
      /*duration_s=*/500.0 * kSecondsPerYear, /*seed=*/1);
  EXPECT_GT(stats.failures, 100);
  EXPECT_EQ(stats.spare_masked, 0);
  double expected = InstanceAvailabilityWithSpares(H100(), 8, 4, 0, params);
  EXPECT_NEAR(stats.availability, expected, 0.002);
}

TEST(FaultAvailability, MatchesClosedFormWithSpares) {
  FailureParams params;
  double rate = InstanceFailureRatePerSecond(Lite(), 32, params);
  FaultAvailabilityStats stats = SimulateFaultAvailability(
      rate, params.mttr_hours * 3600.0, params.spare_activation_minutes * 60.0,
      /*num_spares=*/2, /*num_instances=*/4,
      /*duration_s=*/500.0 * kSecondsPerYear, /*seed=*/1);
  EXPECT_GT(stats.failures, 100);
  EXPECT_GT(stats.spare_masked, stats.failures / 2);
  double expected = InstanceAvailabilityWithSpares(Lite(), 32, 4, 2, params);
  EXPECT_NEAR(stats.availability, expected, 0.002);
  // ExpectedCapacityFraction is the same steady state seen cluster-wide.
  EXPECT_NEAR(stats.availability,
              ExpectedCapacityFraction(Lite(), 32, 4, 2, params), 0.002);
}

TEST(FaultAvailability, DeterministicAndSeedSensitive) {
  FaultAvailabilityStats a =
      SimulateFaultAvailability(1e-6, 3600.0, 60.0, 1, 4, 1e8, 9);
  FaultAvailabilityStats b =
      SimulateFaultAvailability(1e-6, 3600.0, 60.0, 1, 4, 1e8, 9);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.spare_masked, b.spare_masked);
  EXPECT_EQ(a.availability, b.availability);
  FaultAvailabilityStats c =
      SimulateFaultAvailability(1e-6, 3600.0, 60.0, 1, 4, 1e8, 10);
  EXPECT_NE(a.availability, c.availability);
}

TEST(FaultAvailability, SparesMaskFailures) {
  FaultAvailabilityStats none =
      SimulateFaultAvailability(1e-5, 7200.0, 60.0, 0, 8, 1e8, 3);
  FaultAvailabilityStats spared =
      SimulateFaultAvailability(1e-5, 7200.0, 60.0, 4, 8, 1e8, 3);
  EXPECT_EQ(none.spare_masked, 0);
  EXPECT_GT(spared.spare_masked, 0);
  EXPECT_GT(spared.availability, none.availability);
}

// --- serve-loop integration ---

double SimplePrefillTime(int batch) { return 0.05 * std::sqrt(batch); }
double SimpleDecodeStepTime(int batch) { return 5e-3 + 1e-4 * batch; }
constexpr int kMaxPrefillBatch = 8;

StepTimeTable SimpleTable() {
  std::vector<double> prefill_s, decode_s;
  for (int b = 1; b <= kMaxPrefillBatch; ++b) {
    prefill_s.push_back(SimplePrefillTime(b));
  }
  for (int b = 1; b <= 64; ++b) {
    decode_s.push_back(SimpleDecodeStepTime(b));
  }
  return StepTimeTable(std::move(prefill_s), std::move(decode_s));
}

// Evenly spaced requests whose output lengths cycle through
// `output_pattern`. Varied lengths make completions permute a decode
// batch, so a failure's requeue order becomes observable.
std::vector<Request> FixedRequests(int n, double spacing_s,
                                   const std::vector<int>& output_pattern = {32}) {
  std::vector<Request> requests;
  for (int i = 0; i < n; ++i) {
    Request r;
    r.id = i;
    r.arrival_s = i * spacing_s;
    r.prompt_tokens = 1500;
    r.output_tokens = output_pattern[static_cast<size_t>(i) % output_pattern.size()];
    requests.push_back(r);
  }
  return requests;
}

const std::vector<int> kVariedOutputs = {64, 7, 101, 18, 3, 80, 26};

ServeFaultConfig ChurnyFaults(FaultRetryPolicy policy) {
  // Rates high enough that a few-second run sees multiple failures per
  // pool — this is the accelerated-churn regime the checked-in faulty
  // example also uses.
  ServeFaultConfig faults;
  faults.enabled = true;
  faults.prefill_failure_rate_per_s = 0.5;
  faults.decode_failure_rate_per_s = 1.0;
  faults.repair_s = 0.5;
  faults.spare_activation_s = 0.1;
  faults.prefill_spares = 1;
  faults.decode_spares = 1;
  faults.retry_policy = policy;
  faults.seed = FaultSubstreamSeed(42);
  return faults;
}

TEST(SimulatorFaults, DisabledFaultsStayInert) {
  auto requests = FixedRequests(100, 0.01);
  ServeClusterConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 2;
  ServeMetrics m = RunServeSimulation(requests, config, SimpleTable());
  EXPECT_TRUE(m.fault_events.empty());
  EXPECT_EQ(m.retried_requests, 0);
  EXPECT_EQ(m.dropped_requests, 0);
  EXPECT_DOUBLE_EQ(m.lost_tokens, 0.0);
  EXPECT_DOUBLE_EQ(m.prefill_fault_downtime_s, 0.0);
  EXPECT_DOUBLE_EQ(m.decode_fault_downtime_s, 0.0);
}

TEST(SimulatorFaults, RetryPolicyConservesRequests) {
  auto requests = FixedRequests(300, 0.01);
  ServeClusterConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 2;
  config.horizon_s = 10.0;
  config.faults = ChurnyFaults(FaultRetryPolicy::kRetry);
  ServeMetrics m = RunServeSimulation(requests, config, SimpleTable());
  // Retried work always re-serves: nothing is dropped, everything admitted
  // eventually completes.
  EXPECT_EQ(m.completed_requests, m.admitted_requests);
  EXPECT_EQ(m.dropped_requests, 0);
  EXPECT_GT(m.retried_requests, 0);
  // The log saw real churn, in simulated-time order, with consistent
  // aggregate accounting.
  ASSERT_FALSE(m.fault_events.empty());
  int failures = 0;
  int killed = 0;
  double lost = 0.0;
  for (size_t i = 0; i < m.fault_events.size(); ++i) {
    const FaultEvent& ev = m.fault_events[i];
    if (i > 0) {
      EXPECT_GE(ev.time_s, m.fault_events[i - 1].time_s);
    }
    EXPECT_GE(ev.spares_free, 0);
    if (ev.kind == FaultEventKind::kFailure) {
      ++failures;
      killed += ev.killed_requests;
      lost += ev.lost_tokens;
    } else {
      EXPECT_EQ(ev.killed_requests, 0);
    }
  }
  EXPECT_GT(failures, 0);
  EXPECT_EQ(m.retried_requests, killed);
  EXPECT_DOUBLE_EQ(m.lost_tokens, lost);
  EXPECT_GT(m.prefill_fault_downtime_s + m.decode_fault_downtime_s, 0.0);
  // Killed decode tokens were subtracted from goodput: the total is below
  // the fault-free total of sum(output_tokens).
  EXPECT_LE(m.output_tokens, 300.0 * 32.0);
}

TEST(SimulatorFaults, DropPolicyDropsKilledRequests) {
  auto requests = FixedRequests(300, 0.01);
  ServeClusterConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 2;
  config.horizon_s = 10.0;
  config.faults = ChurnyFaults(FaultRetryPolicy::kDrop);
  ServeMetrics m = RunServeSimulation(requests, config, SimpleTable());
  EXPECT_GT(m.dropped_requests, 0);
  EXPECT_EQ(m.retried_requests, 0);
  EXPECT_EQ(m.completed_requests + m.dropped_requests, m.admitted_requests);
  EXPECT_LT(m.output_tokens, 300.0 * 32.0);
}

TEST(SimulatorFaults, RetryBudgetFallsBetweenRetryAndDrop) {
  auto requests = FixedRequests(300, 0.01);
  ServeClusterConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 2;
  config.horizon_s = 10.0;
  config.faults = ChurnyFaults(FaultRetryPolicy::kRetryWithBudget);
  config.faults.retry_budget = 1;
  ServeMetrics m = RunServeSimulation(requests, config, SimpleTable());
  // Every admitted request either completes or exhausts its budget.
  EXPECT_EQ(m.completed_requests + m.dropped_requests, m.admitted_requests);
  EXPECT_GT(m.retried_requests, 0);
  // With budget 0 the policy degenerates to drop-on-first-kill.
  ServeClusterConfig no_budget = config;
  no_budget.faults.retry_budget = 0;
  ServeMetrics z = RunServeSimulation(requests, no_budget, SimpleTable());
  EXPECT_EQ(z.retried_requests, 0);
  EXPECT_EQ(z.completed_requests + z.dropped_requests, z.admitted_requests);
}

TEST(SimulatorFaults, FaultLogBitIdenticalToReferenceCore) {
  // Both cores requeue a failed decode instance's victims oldest first.
  // Varied output lengths let earlier completions reorder each batch, so a
  // core that requeued in slot order would diverge in the metrics and the
  // fault log.
  StepTimeTable table = SimpleTable();

  auto requests = FixedRequests(400, 0.01, kVariedOutputs);
  ServeClusterConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 2;
  config.horizon_s = 5.0;
  config.faults = ChurnyFaults(FaultRetryPolicy::kRetry);
  ServeMetrics a = RunServeSimulation(requests, config, table);
  ServeMetrics b = RunServeSimulationReference(requests, config, table);
  EXPECT_GT(a.retried_requests, 0) << "the churn never killed a batch";
  ExpectBitIdentical(a, b);
}

// --- correlated failure domains ---

ServeFaultConfig DomainFaults(uint64_t scenario_seed) {
  // Domain outages only: independent per-instance churn off, so every
  // kFailure in the log carries a domain id.
  ServeFaultConfig faults;
  faults.enabled = true;
  faults.repair_s = 0.5;
  faults.domains.prefill_instances_per_domain = 2;
  faults.domains.decode_instances_per_domain = 3;
  faults.domains.failure_rate_per_s = 0.4;
  faults.domains.repair_s = 0.6;
  faults.seed = FaultSubstreamSeed(scenario_seed);
  return faults;
}

TEST(SimulatorFaults, DomainFailureKillsExactlyItsLiveMembers) {
  // Property test over seeds: replaying the fault log with a down-set per
  // pool, every domain outage must kill exactly the members of its domain
  // that were up — no outsiders, no double-kills, no survivors.
  for (uint64_t seed : {1u, 7u, 42u, 1234u, 99991u}) {
    auto requests = FixedRequests(400, 0.01);
    ServeClusterConfig config;
    config.prefill_instances = 5;  // domains of 2 -> last domain has 1 member
    config.decode_instances = 8;   // domains of 3 -> last domain has 2
    config.horizon_s = 8.0;
    config.faults = DomainFaults(seed);
    ServeMetrics m = RunServeSimulation(requests, config, SimpleTable());
    ASSERT_FALSE(m.fault_events.empty()) << seed;
    std::set<int> down[2];
    int outages = 0;
    for (size_t i = 0; i < m.fault_events.size();) {
      const FaultEvent& e = m.fault_events[i];
      int pool = e.pool == ScalePool::kPrefill ? 0 : 1;
      if (e.kind != FaultEventKind::kFailure) {
        if (e.kind == FaultEventKind::kRepair ||
            e.kind == FaultEventKind::kSpareActivation) {
          down[pool].erase(e.instance);
        }
        ++i;
        continue;
      }
      ASSERT_GE(e.domain, 0) << "independent failure with domain churn only";
      // Collect the whole outage group: same time, pool, and domain.
      std::set<int> killed;
      size_t j = i;
      while (j < m.fault_events.size() &&
             m.fault_events[j].kind == FaultEventKind::kFailure &&
             m.fault_events[j].time_s == e.time_s &&
             m.fault_events[j].pool == e.pool &&
             m.fault_events[j].domain == e.domain) {
        EXPECT_TRUE(killed.insert(m.fault_events[j].instance).second)
            << "instance killed twice in one outage";
        ++j;
      }
      int per_domain = pool == 0 ? config.faults.domains.prefill_instances_per_domain
                                 : config.faults.domains.decode_instances_per_domain;
      int n = pool == 0 ? config.prefill_instances : config.decode_instances;
      std::set<int> expected;
      for (int k = e.domain * per_domain;
           k < std::min(n, (e.domain + 1) * per_domain); ++k) {
        if (down[pool].count(k) == 0) {
          expected.insert(k);
        }
      }
      EXPECT_EQ(killed, expected)
          << "seed " << seed << " outage at t=" << e.time_s << " domain "
          << e.domain;
      down[pool].insert(killed.begin(), killed.end());
      ++outages;
      i = j;
    }
    EXPECT_GT(outages, 0) << seed;
  }
}

TEST(SimulatorFaults, ThreeAxisLogsBitIdenticalToReferenceCore) {
  // Domains + degradation + shedding all on: fault and shed logs must stay
  // element-wise identical between the production and reference cores,
  // with varied output lengths so the victims' requeue order shows.
  StepTimeTable table = SimpleTable();

  auto requests = FixedRequests(400, 0.005, kVariedOutputs);
  ServeClusterConfig config;
  config.prefill_instances = 4;
  config.decode_instances = 6;
  config.horizon_s = 5.0;
  config.faults = ChurnyFaults(FaultRetryPolicy::kRetry);
  config.faults.domains.prefill_instances_per_domain = 2;
  config.faults.domains.decode_instances_per_domain = 3;
  config.faults.domains.failure_rate_per_s = 0.3;
  config.faults.domains.repair_s = 0.4;
  config.faults.degraded.prefill_rate_per_s = 0.2;
  config.faults.degraded.decode_rate_per_s = 0.2;
  config.faults.degraded.multiplier = 2.0;
  config.faults.degraded.mean_duration_s = 0.5;
  config.shedding.max_queue_depth = 8;
  ServeMetrics a = RunServeSimulation(requests, config, table);
  ServeMetrics b = RunServeSimulationReference(requests, config, table);
  EXPECT_GT(a.degrade_windows, 0) << "no degrade window opened";
  ExpectBitIdentical(a, b);
}

// --- degraded states ---

TEST(SimulatorFaults, DegradedStepTimesMatchHandComputedSchedule) {
  // One request on one decode instance: every step dispatches sequentially,
  // so the makespan is exactly the sum of per-step durations. Replicate the
  // engine's degrade stream with a second FaultStreams and hand-compute the
  // schedule, applying the multiplier to steps dispatched inside a window
  // (half-open [start, end): the end event fires before a step dispatched
  // at the same timestamp).
  constexpr int kTokens = 64;
  constexpr double kRate = 0.8;
  constexpr double kMult = 3.0;
  constexpr double kMean = 0.2;
  std::vector<Request> requests = FixedRequests(1, 0.0, {kTokens});
  ServeClusterConfig config;
  config.prefill_instances = 1;
  config.decode_instances = 1;
  config.horizon_s = 100.0;
  config.faults.enabled = true;
  config.faults.degraded.decode_rate_per_s = kRate;
  config.faults.degraded.multiplier = kMult;
  config.faults.degraded.mean_duration_s = kMean;
  config.faults.seed = FaultSubstreamSeed(42);
  ServeMetrics m = RunServeSimulation(requests, config, SimpleTable());
  EXPECT_EQ(m.completed_requests, 1);

  FaultStreams replica(config.faults.seed);
  std::vector<std::pair<double, double>> windows;  // [start, end)
  double cursor = 0.0;
  while (cursor < 100.0) {
    double start = cursor + replica.NextDegradeGap(ScalePool::kDecode, 0, kRate);
    double duration = replica.NextDegradeDuration(ScalePool::kDecode, 0, kMean);
    windows.emplace_back(start, start + duration);
    cursor = start + duration;
  }
  auto throttled = [&](double t) {
    for (const auto& w : windows) {
      if (w.first <= t && t < w.second) {
        return true;
      }
    }
    return false;
  };
  double t = SimplePrefillTime(1);  // prefill dispatched at arrival 0
  double base = SimpleDecodeStepTime(1);
  double degraded_tokens = 0.0;
  for (int k = 0; k < kTokens; ++k) {
    double step = base;
    if (throttled(t)) {
      step *= kMult;
    }
    t += step;
    if (throttled(t)) {  // token counted if degraded at step completion
      degraded_tokens += 1.0;
    }
  }
  EXPECT_DOUBLE_EQ(m.makespan_s, t);
  EXPECT_DOUBLE_EQ(m.degraded_output_tokens, degraded_tokens);
  // Degraded instance-seconds integrate every window whose start falls
  // inside the admission horizon, busy or idle: starts are horizon-gated
  // like failure injection, but an entered window always runs its course.
  double expected_s = 0.0;
  for (const auto& w : windows) {
    if (w.first <= config.horizon_s) {
      expected_s += w.second - w.first;
    }
  }
  EXPECT_DOUBLE_EQ(m.decode_degraded_instance_s, expected_s);
  EXPECT_DOUBLE_EQ(m.prefill_degraded_instance_s, 0.0);
  EXPECT_GT(m.degrade_windows, 0);
}

// --- overload protection ---

TEST(SimulatorShedding, QueueDepthCapConservesRequests) {
  // A burst far beyond capacity with a tight depth cap: once the run
  // drains, every admitted request either completed or was shed (no faults,
  // so nothing drops), and the shed log is time-ordered with one entry per
  // shed request.
  auto requests = FixedRequests(500, 0.001);
  ServeClusterConfig config;
  config.prefill_instances = 1;
  config.decode_instances = 1;
  config.horizon_s = 30.0;
  config.shedding.max_queue_depth = 16;
  ServeMetrics m = RunServeSimulation(requests, config, SimpleTable());
  EXPECT_GT(m.shed_requests, 0);
  EXPECT_EQ(m.dropped_requests, 0);
  EXPECT_EQ(m.admitted_requests, m.completed_requests + m.shed_requests);
  ASSERT_EQ(m.shed_events.size(), static_cast<size_t>(m.shed_requests));
  for (size_t i = 0; i < m.shed_events.size(); ++i) {
    EXPECT_EQ(m.shed_events[i].reason, ShedReason::kQueueDepth) << i;
    if (i > 0) {
      EXPECT_GE(m.shed_events[i].time_s, m.shed_events[i - 1].time_s);
    }
  }
  // Shedding with faults on still conserves: admitted = completed +
  // dropped + shed.
  ServeClusterConfig faulty = config;
  faulty.faults = ChurnyFaults(FaultRetryPolicy::kDrop);
  ServeMetrics fm = RunServeSimulation(requests, faulty, SimpleTable());
  EXPECT_GT(fm.shed_requests, 0);
  EXPECT_EQ(fm.admitted_requests,
            fm.completed_requests + fm.dropped_requests + fm.shed_requests);
}

TEST(SimulatorShedding, TtftDeadlineBelowOnePassShedsEverything) {
  // The TTFT estimate is at least one full-batch prefill pass, so a
  // deadline below that sheds every arrival with the deadline reason.
  auto requests = FixedRequests(50, 0.01);
  ServeClusterConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 2;
  config.horizon_s = 10.0;
  config.shedding.ttft_deadline_s = 0.5 * SimplePrefillTime(kMaxPrefillBatch);
  ServeMetrics m = RunServeSimulation(requests, config, SimpleTable());
  EXPECT_EQ(m.shed_requests, 50);
  EXPECT_EQ(m.completed_requests, 0);
  for (const ShedEvent& e : m.shed_events) {
    EXPECT_EQ(e.reason, ShedReason::kDeadline);
  }
}

TEST(SimulatorShedding, DisabledSheddingMatchesBaseline) {
  // The shedding checks must cost nothing when off: metrics are identical
  // to a pre-shedding run of the same config.
  auto requests = FixedRequests(300, 0.002);
  ServeClusterConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 2;
  config.horizon_s = 10.0;
  ServeMetrics off = RunServeSimulation(requests, config, SimpleTable());
  EXPECT_EQ(off.shed_requests, 0);
  EXPECT_TRUE(off.shed_events.empty());
  ServeClusterConfig loose = config;
  loose.shedding.max_queue_depth = 1 << 30;  // enabled but never trips
  ServeMetrics on = RunServeSimulation(requests, loose, SimpleTable());
  EXPECT_EQ(on.shed_requests, 0);
  EXPECT_EQ(off.makespan_s, on.makespan_s);
  EXPECT_EQ(off.output_tokens, on.output_tokens);
  EXPECT_EQ(off.completed_requests, on.completed_requests);
}

TEST(SimulatorFaults, StreamedRunBitIdenticalToRecordsReplay) {
  // The Runner feeds a fault point from a generated stream and its
  // fault-free baseline from a second stream over the same spec; tests and
  // the reference core pass the drained records. Both feeds must see the
  // same requests: a two-class mix under churn, retries and per-class
  // accounting.
  MultiClassWorkloadSpec spec;
  spec.duration_s = 5.0;
  spec.seed = 0xFACE;
  for (double rate : {50.0, 25.0}) {
    ClassWorkload cls;
    cls.arrival_rate_per_s = rate;
    cls.prompt_sigma = 0.5;
    cls.median_output_tokens = rate > 40.0 ? 32 : 96;
    cls.output_sigma = 0.5;
    spec.classes.push_back(cls);
  }
  std::vector<Request> records = GenerateMultiClassWorkload(spec);
  ServeClusterConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 2;
  config.horizon_s = spec.duration_s;
  config.num_classes = 2;
  config.faults = ChurnyFaults(FaultRetryPolicy::kRetry);
  RequestStream stream(spec);
  ServeMetrics a = RunServeSimulation(stream, config, SimpleTable());
  ServeMetrics b = RunServeSimulation(records, config, SimpleTable());
  EXPECT_GT(a.retried_requests, 0) << "the churn never killed a batch";
  ASSERT_EQ(a.per_class.size(), 2u);
  EXPECT_GT(a.per_class[1].admitted_requests, 0);
  ExpectBitIdentical(a, b);

  // The fault-free baseline: a second stream over the same spec replays
  // what the records give.
  ServeClusterConfig baseline = config;
  baseline.faults = ServeFaultConfig{};
  RequestStream replay(spec);
  ServeMetrics c = RunServeSimulation(replay, baseline, SimpleTable());
  ServeMetrics d = RunServeSimulation(records, baseline, SimpleTable());
  EXPECT_EQ(c.admitted_requests, static_cast<int>(records.size()));
  EXPECT_EQ(c.retried_requests, 0);
  ExpectBitIdentical(c, d);
}

TEST(SimulatorFaults, RerunsAreDeterministic) {
  auto requests = FixedRequests(200, 0.01);
  ServeClusterConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 2;
  config.horizon_s = 5.0;
  config.faults = ChurnyFaults(FaultRetryPolicy::kRetry);
  ServeMetrics a = RunServeSimulation(requests, config, SimpleTable());
  ServeMetrics b = RunServeSimulation(requests, config, SimpleTable());
  ASSERT_EQ(a.fault_events.size(), b.fault_events.size());
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.output_tokens, b.output_tokens);
  EXPECT_EQ(a.retried_requests, b.retried_requests);
}

}  // namespace
}  // namespace litegpu
