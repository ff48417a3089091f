#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/serve/simulator.h"
#include "src/serve/simulator_reference.h"
#include "src/serve/workload.h"
#include "src/util/rng.h"
#include "tests/serve_identity.h"

namespace litegpu {
namespace {

// --- workload generation ---

TEST(Workload, PoissonArrivalRate) {
  WorkloadSpec spec;
  spec.arrival_rate_per_s = 50.0;
  spec.duration_s = 200.0;
  auto requests = GenerateWorkload(spec);
  EXPECT_NEAR(static_cast<double>(requests.size()), 10000.0, 300.0);
  for (size_t i = 1; i < requests.size(); ++i) {
    EXPECT_GE(requests[i].arrival_s, requests[i - 1].arrival_s);
  }
}

TEST(Workload, ConstantLengthsWhenSigmaZero) {
  WorkloadSpec spec;
  spec.duration_s = 10.0;
  auto requests = GenerateWorkload(spec);
  for (const auto& r : requests) {
    EXPECT_EQ(r.prompt_tokens, spec.median_prompt_tokens);
    EXPECT_EQ(r.output_tokens, spec.median_output_tokens);
  }
}

TEST(Workload, LognormalMedianRoughlyPreserved) {
  WorkloadSpec spec;
  spec.arrival_rate_per_s = 100.0;
  spec.duration_s = 100.0;
  spec.prompt_sigma = 0.8;
  auto requests = GenerateWorkload(spec);
  std::vector<int> prompts;
  for (const auto& r : requests) {
    prompts.push_back(r.prompt_tokens);
  }
  std::sort(prompts.begin(), prompts.end());
  double median = prompts[prompts.size() / 2];
  EXPECT_NEAR(median, 1500.0, 150.0);
}

TEST(Workload, Deterministic) {
  WorkloadSpec spec;
  spec.duration_s = 50.0;
  auto a = GenerateWorkload(spec);
  auto b = GenerateWorkload(spec);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].arrival_s, b[i].arrival_s);
  }
}

TEST(Workload, ZeroSigmaGivesTheMedianLengths) {
  WorkloadSpec spec;
  spec.duration_s = 20.0;
  auto requests = GenerateWorkload(spec);
  ASSERT_FALSE(requests.empty());
  for (const Request& r : requests) {
    EXPECT_EQ(r.prompt_tokens, 1500);
    EXPECT_EQ(r.output_tokens, 256);
  }
}

// --- multi-class workload generation ---

ClassWorkload MakeClass(double rate, int prompt = 1500, int output = 256,
                        double prompt_sigma = 0.0, double output_sigma = 0.0) {
  ClassWorkload cls;
  cls.arrival_rate_per_s = rate;
  cls.median_prompt_tokens = prompt;
  cls.prompt_sigma = prompt_sigma;
  cls.median_output_tokens = output;
  cls.output_sigma = output_sigma;
  return cls;
}

TEST(MultiClassWorkload, SingleClassBitIdenticalToLegacyGenerator) {
  // A one-class mix must reproduce GenerateWorkload exactly: class 0
  // inherits the base seed and the per-request sampling order is the same.
  WorkloadSpec legacy;
  legacy.arrival_rate_per_s = 25.0;
  legacy.duration_s = 40.0;
  legacy.prompt_sigma = 0.6;
  legacy.output_sigma = 0.3;
  legacy.seed = 0xABCDEF;
  auto expected = GenerateWorkload(legacy);

  MultiClassWorkloadSpec multi;
  multi.duration_s = legacy.duration_s;
  multi.seed = legacy.seed;
  multi.classes.push_back(MakeClass(legacy.arrival_rate_per_s, legacy.median_prompt_tokens,
                                    legacy.median_output_tokens, legacy.prompt_sigma,
                                    legacy.output_sigma));
  auto actual = GenerateMultiClassWorkload(multi);

  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].id, expected[i].id);
    EXPECT_EQ(actual[i].class_id, 0);
    EXPECT_DOUBLE_EQ(actual[i].arrival_s, expected[i].arrival_s);
    EXPECT_EQ(actual[i].prompt_tokens, expected[i].prompt_tokens);
    EXPECT_EQ(actual[i].output_tokens, expected[i].output_tokens);
  }
}

TEST(MultiClassWorkload, AppendingAClassNeverPerturbsExistingClasses) {
  // Every class has its own SplitMix64 substream, so adding class B (or C)
  // leaves class A's arrivals and lengths bit-identical at a fixed seed.
  MultiClassWorkloadSpec two;
  two.duration_s = 60.0;
  two.seed = 0x5EED;
  two.classes.push_back(MakeClass(20.0, 1500, 256, 0.5, 0.5));
  two.classes.push_back(MakeClass(5.0, 6000, 900));

  MultiClassWorkloadSpec three = two;
  three.classes.push_back(MakeClass(9.0, 300, 64, 0.2, 0.2));

  auto a = GenerateMultiClassWorkload(two);
  auto b = GenerateMultiClassWorkload(three);
  for (int cls = 0; cls < 2; ++cls) {
    std::vector<Request> from_two, from_three;
    for (const auto& r : a) {
      if (r.class_id == cls) from_two.push_back(r);
    }
    for (const auto& r : b) {
      if (r.class_id == cls) from_three.push_back(r);
    }
    ASSERT_EQ(from_two.size(), from_three.size()) << "class " << cls;
    EXPECT_GT(from_two.size(), 0u) << "class " << cls;
    for (size_t i = 0; i < from_two.size(); ++i) {
      EXPECT_DOUBLE_EQ(from_two[i].arrival_s, from_three[i].arrival_s);
      EXPECT_EQ(from_two[i].prompt_tokens, from_three[i].prompt_tokens);
      EXPECT_EQ(from_two[i].output_tokens, from_three[i].output_tokens);
    }
  }
}

TEST(MultiClassWorkload, MergedTraceIsArrivalSortedWithSequentialIds) {
  MultiClassWorkloadSpec spec;
  spec.duration_s = 30.0;
  spec.classes.push_back(MakeClass(15.0));
  spec.classes.push_back(MakeClass(10.0, 4000, 800));
  auto requests = GenerateMultiClassWorkload(spec);
  ASSERT_GT(requests.size(), 0u);
  bool saw[2] = {false, false};
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(requests[i].id, static_cast<int>(i));
    ASSERT_GE(requests[i].class_id, 0);
    ASSERT_LT(requests[i].class_id, 2);
    saw[requests[i].class_id] = true;
    if (i > 0) {
      EXPECT_GE(requests[i].arrival_s, requests[i - 1].arrival_s);
    }
  }
  EXPECT_TRUE(saw[0]);
  EXPECT_TRUE(saw[1]);
}

TEST(MultiClassWorkload, ClassSubstreamSeedsAreStableByIndex) {
  EXPECT_EQ(ClassSubstreamSeed(42, 0), 42u);  // class 0 inherits the seed
  EXPECT_NE(ClassSubstreamSeed(42, 1), ClassSubstreamSeed(42, 2));
  // Index i's seed does not depend on how many classes follow it.
  EXPECT_EQ(ClassSubstreamSeed(42, 1), ClassSubstreamSeed(42, 1));
}

// A trace that repeats every timestamp three times, so thinned classes
// tie with each other and with themselves.
ArrivalProcess RepeatedTrace() {
  ArrivalProcess arrival;
  arrival.kind = ArrivalKind::kTrace;
  for (int k = 0; k < 200; ++k) {
    for (int rep = 0; rep < 3; ++rep) {
      arrival.times_s.push_back(0.25 * k);
    }
  }
  return arrival;
}

void ExpectSameRequests(const std::vector<Request>& a, const std::vector<Request>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "row " << i;
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s) << "row " << i;
    EXPECT_EQ(a[i].prompt_tokens, b[i].prompt_tokens) << "row " << i;
    EXPECT_EQ(a[i].output_tokens, b[i].output_tokens) << "row " << i;
    EXPECT_EQ(a[i].class_id, b[i].class_id) << "row " << i;
  }
}

// Class c's trace replay rebuilt draw by draw from its substream seed, as
// the generator documents it: one uniform per recorded time inside the
// horizon to thin by `share`, then a prompt and an output length for each
// time kept, in trace order.
std::vector<Request> ThinnedTraceClass(const MultiClassWorkloadSpec& spec, size_t c,
                                       double share) {
  const ClassWorkload& cls = spec.classes[c];
  Rng rng(ClassSubstreamSeed(spec.seed, c));
  auto length = [&rng](int median, double sigma) {
    double value = rng.LogNormal(std::log(static_cast<double>(median)), sigma);
    return std::max(1, static_cast<int>(std::lround(value)));
  };
  std::vector<Request> stream;
  for (double t : spec.arrival.times_s) {
    if (t >= spec.duration_s) {
      break;
    }
    if (!(rng.NextDouble() < share)) {
      continue;
    }
    Request r;
    r.class_id = static_cast<int>(c);
    r.arrival_s = t;
    r.prompt_tokens = length(cls.median_prompt_tokens, cls.prompt_sigma);
    r.output_tokens = length(cls.median_output_tokens, cls.output_sigma);
    stream.push_back(r);
  }
  return stream;
}

TEST(MultiClassWorkload, MergeBreaksTiesByClassThenGenerationOrder) {
  MultiClassWorkloadSpec spec;
  spec.duration_s = 40.0;  // cuts the 50 s trace
  spec.seed = 0xD1CE;
  spec.arrival = RepeatedTrace();
  spec.classes.push_back(MakeClass(3.0, 1500, 256, 0.8, 0.8));  // share 0.75
  spec.classes.push_back(MakeClass(1.0, 4000, 800, 0.8, 0.8));  // share 0.25
  std::vector<Request> merged = GenerateMultiClassWorkload(spec);

  // The order the merge must give: the class streams concatenated in class
  // order, stable-sorted by arrival time, ids in merged order.
  std::vector<Request> streams[2] = {ThinnedTraceClass(spec, 0, 0.75),
                                     ThinnedTraceClass(spec, 1, 0.25)};
  std::vector<std::pair<int, size_t>> rows;  // (class, index in its stream)
  for (int c = 0; c < 2; ++c) {
    for (size_t i = 0; i < streams[c].size(); ++i) {
      rows.push_back({c, i});
    }
  }
  std::stable_sort(rows.begin(), rows.end(), [&](const auto& a, const auto& b) {
    return streams[a.first][a.second].arrival_s < streams[b.first][b.second].arrival_s;
  });
  std::vector<Request> expected;
  for (const auto& [c, i] : rows) {
    expected.push_back(streams[c][i]);
    expected.back().id = static_cast<int>(expected.size() - 1);
  }
  ExpectSameRequests(merged, expected);

  // The trace really produced both kinds of tie, and every tie across
  // classes puts class 0 first.
  int cross_ties = 0;
  int own_ties = 0;
  for (size_t i = 1; i < merged.size(); ++i) {
    if (merged[i].arrival_s != merged[i - 1].arrival_s) {
      continue;
    }
    EXPECT_LE(merged[i - 1].class_id, merged[i].class_id) << "row " << i;
    if (merged[i].class_id != merged[i - 1].class_id) {
      ++cross_ties;
    } else if (merged[i].prompt_tokens != merged[i - 1].prompt_tokens) {
      ++own_ties;
    }
  }
  EXPECT_GT(cross_ties, 10);
  EXPECT_GT(own_ties, 10);
  EXPECT_LT(merged.back().arrival_s, spec.duration_s);
}

TEST(MultiClassWorkload, OneClassMixIsTheClasslessStream) {
  WorkloadSpec classless;
  classless.arrival_rate_per_s = 7.0;
  classless.duration_s = 40.0;
  classless.prompt_sigma = 0.8;
  classless.output_sigma = 0.8;
  classless.seed = 0xD1CE;
  classless.arrival = RepeatedTrace();
  MultiClassWorkloadSpec one;
  one.duration_s = classless.duration_s;
  one.seed = classless.seed;
  one.arrival = classless.arrival;
  one.classes.push_back(MakeClass(classless.arrival_rate_per_s, classless.median_prompt_tokens,
                                  classless.median_output_tokens, 0.8, 0.8));
  std::vector<Request> expected = GenerateWorkload(classless);
  // The whole window replays (share 1), and only the window is reserved:
  // 480 of the trace's 600 times fall before 40 s.
  ASSERT_EQ(expected.size(), 480u);
  EXPECT_EQ(expected.capacity(), 480u);
  ExpectSameRequests(GenerateMultiClassWorkload(one), expected);

  classless.arrival = ArrivalProcess{};  // and under Poisson arrivals
  one.arrival = classless.arrival;
  ExpectSameRequests(GenerateMultiClassWorkload(one), GenerateWorkload(classless));
}

// --- simulator ---

// Prefill passes cost prefill_s * sqrt(batch) up to batch 8; decode steps
// cost base + per_seq * batch up to batch 64.
StepTimeTable SimpleTable(double prefill_s = 0.1, double per_seq_step_s = 1e-4,
                          double base_step_s = 5e-3) {
  std::vector<double> prefill, decode;
  for (int b = 1; b <= 8; ++b) {
    prefill.push_back(prefill_s * std::sqrt(b));
  }
  for (int b = 1; b <= 64; ++b) {
    decode.push_back(base_step_s + per_seq_step_s * b);
  }
  return StepTimeTable(std::move(prefill), std::move(decode));
}

std::vector<Request> FixedRequests(int n, double spacing_s, int output_tokens = 32) {
  std::vector<Request> requests;
  for (int i = 0; i < n; ++i) {
    Request r;
    r.id = i;
    r.arrival_s = i * spacing_s;
    r.prompt_tokens = 1500;
    r.output_tokens = output_tokens;
    requests.push_back(r);
  }
  return requests;
}

TEST(Simulator, ConservationAllRequestsComplete) {
  auto requests = FixedRequests(100, 0.05);
  ServeClusterConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 1;
  ServeMetrics m = RunServeSimulation(requests, config, SimpleTable());
  EXPECT_EQ(m.admitted_requests, 100);
  EXPECT_EQ(m.completed_requests, 100);
  EXPECT_DOUBLE_EQ(m.output_tokens, 100.0 * 32.0);
}

TEST(Simulator, TtftIncludesQueueingAndPrefill) {
  // One prefill instance, all arrive at t=0: later batches wait.
  auto requests = FixedRequests(16, 0.0);
  ServeClusterConfig config;
  config.prefill_instances = 1;
  config.decode_instances = 1;
  ServeMetrics m = RunServeSimulation(requests, config, SimpleTable(0.1));
  // Work-conserving: the first arrival prefills alone (0.1 s); the rest
  // queue behind it and batch up, paying queueing delay on top.
  EXPECT_NEAR(m.ttft_s.Quantile(0.0), 0.1, 1e-6);
  EXPECT_GT(m.ttft_s.Quantile(1.0), 0.3);
}

TEST(Simulator, ThroughputMatchesStepModel) {
  // Saturated decode at max batch 64: step = 5ms + 64*0.1ms = 11.4ms ->
  // 64/0.0114 ~ 5614 tokens/s. A long run amortizes ramp-up/drain.
  auto requests = FixedRequests(2000, 0.001, 64);
  ServeClusterConfig config;
  config.prefill_instances = 8;
  config.decode_instances = 1;
  ServeMetrics m = RunServeSimulation(requests, config, SimpleTable());
  EXPECT_GT(m.mean_decode_batch, 55.0);
  EXPECT_NEAR(m.decode_tokens_per_s, 64.0 / 0.0114, 300.0);
}

TEST(Simulator, MoreDecodeInstancesFinishFaster) {
  auto requests = FixedRequests(256, 0.0, 64);
  ServeClusterConfig one;
  one.prefill_instances = 4;
  one.decode_instances = 1;
  ServeClusterConfig two = one;
  two.decode_instances = 2;
  ServeMetrics a = RunServeSimulation(requests, one, SimpleTable());
  ServeMetrics b = RunServeSimulation(requests, two, SimpleTable());
  EXPECT_EQ(a.completed_requests, 256);
  EXPECT_EQ(b.completed_requests, 256);
  EXPECT_LT(b.makespan_s, a.makespan_s);
}

TEST(Simulator, TbtSamplesMatchStepTimes) {
  // A single request decodes alone: every step is base + 1 * per_seq, and
  // there are exactly output_tokens steps.
  auto requests = FixedRequests(1, 0.0, 16);
  ServeClusterConfig config;
  config.prefill_instances = 1;
  config.decode_instances = 1;
  ServeMetrics m = RunServeSimulation(requests, config, SimpleTable());
  EXPECT_EQ(m.tbt_s.count(), 16u);
  EXPECT_NEAR(m.tbt_s.max(), 0.0051, 1e-12);
  EXPECT_NEAR(m.tbt_s.min(), 0.0051, 1e-12);
}

TEST(Simulator, HorizonStopsAdmission) {
  auto requests = FixedRequests(100, 0.1);
  ServeClusterConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 1;
  config.horizon_s = 4.95;  // admit ~50
  ServeMetrics m = RunServeSimulation(requests, config, SimpleTable());
  EXPECT_EQ(m.admitted_requests, 50);
  EXPECT_EQ(m.completed_requests, 50);
}

TEST(Simulator, InFlightAtHorizonCountsDrainedStragglers) {
  // Requests arriving just before the horizon cannot finish by it: they
  // drain (completed_requests includes them) but are counted explicitly so
  // goodput accounting is honest.
  auto requests = FixedRequests(100, 0.1, /*output_tokens=*/64);
  ServeClusterConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 1;
  config.horizon_s = 4.95;
  ServeMetrics m = RunServeSimulation(requests, config, SimpleTable());
  EXPECT_EQ(m.admitted_requests, 50);
  EXPECT_EQ(m.completed_requests, 50);  // everything drains...
  EXPECT_GT(m.in_flight_at_horizon, 0);  // ...but not all of it by the horizon
  EXPECT_LE(m.in_flight_at_horizon, m.admitted_requests);
  EXPECT_GT(m.makespan_s, config.horizon_s);

  // With no horizon pressure nothing is in flight when it passes.
  ServeClusterConfig open = config;
  open.horizon_s = 1e9;
  ServeMetrics all = RunServeSimulation(requests, open, SimpleTable());
  EXPECT_EQ(all.admitted_requests, 100);
  EXPECT_EQ(all.in_flight_at_horizon, 0);
}

TEST(Simulator, UtilizationBounded) {
  auto requests = FixedRequests(64, 0.05);
  ServeClusterConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 2;
  ServeMetrics m = RunServeSimulation(requests, config, SimpleTable());
  EXPECT_GT(m.prefill_utilization, 0.0);
  EXPECT_LE(m.prefill_utilization, 1.0 + 1e-9);
  EXPECT_GT(m.decode_utilization, 0.0);
  EXPECT_LE(m.decode_utilization, 1.0 + 1e-9);
}

TEST(Simulator, SimultaneousEventsProcessInSpecifiedOrder) {
  // Three requests prefill in parallel (constant pass time, so all three
  // kPrefillDone events collide), then two decode instances' step
  // completions collide every step. The specified total order — prefill
  // before decode at equal times, lower instance first — means r0 and r1
  // start decoding alone, r2 waits one step and joins decode instance 0 as
  // a batch of two. That batch-2 step (and only it) lasts 0.02 s, so the
  // TBT max and step count pin the ordering; heap-internal tie order would
  // make them drift across standard libraries.
  std::vector<Request> requests;
  for (int i = 0; i < 3; ++i) {
    Request r;
    r.id = i;
    r.arrival_s = 0.0;
    r.output_tokens = i == 2 ? 1 : 4;
    requests.push_back(r);
  }
  StepTimeTable table({1.0}, {0.010, 0.020});
  ServeClusterConfig config;
  config.prefill_instances = 3;
  config.decode_instances = 2;
  ServeMetrics m = RunServeSimulation(requests, config, table);
  EXPECT_EQ(m.completed_requests, 3);
  EXPECT_DOUBLE_EQ(m.output_tokens, 9.0);
  EXPECT_EQ(m.tbt_s.count(), 8u);             // 4 steps per decode instance
  EXPECT_NEAR(m.tbt_s.max(), 0.020, 1e-12);   // exactly one batch-2 step
  EXPECT_NEAR(m.makespan_s, 1.05, 1e-9);
}

TEST(Simulator, PerClassMetricsPartitionTheGlobalMetrics) {
  // Two classes with different output lengths interleaved on one cluster:
  // the per-class slices must add up to the global counters exactly, and
  // the global metrics must be bit-identical to a run with class tracking
  // off (tracking is observation only).
  std::vector<Request> requests;
  for (int i = 0; i < 120; ++i) {
    Request r;
    r.id = i;
    r.class_id = i % 3 == 0 ? 1 : 0;  // ~1/3 long class
    r.arrival_s = i * 0.02;
    r.prompt_tokens = 1500;
    r.output_tokens = r.class_id == 1 ? 96 : 24;
    requests.push_back(r);
  }
  ServeClusterConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 2;
  config.horizon_s = 2.0;
  config.num_classes = 2;
  ServeMetrics m = RunServeSimulation(requests, config, SimpleTable());
  ASSERT_EQ(m.per_class.size(), 2u);
  int admitted = 0, completed = 0, in_flight = 0;
  double tokens = 0.0;
  size_t ttft_samples = 0;
  for (const auto& cls : m.per_class) {
    admitted += cls.admitted_requests;
    completed += cls.completed_requests;
    in_flight += cls.in_flight_at_horizon;
    tokens += cls.output_tokens;
    ttft_samples += cls.ttft_s.count();
    EXPECT_GT(cls.completed_requests, 0);
  }
  EXPECT_EQ(admitted, m.admitted_requests);
  EXPECT_EQ(completed, m.completed_requests);
  EXPECT_EQ(in_flight, m.in_flight_at_horizon);
  EXPECT_DOUBLE_EQ(tokens, m.output_tokens);
  EXPECT_EQ(ttft_samples, m.ttft_s.count());
  // Every class-1 request decodes 96 tokens, class 0 decodes 24.
  EXPECT_DOUBLE_EQ(m.per_class[1].output_tokens,
                   96.0 * m.per_class[1].completed_requests);
  EXPECT_DOUBLE_EQ(m.per_class[0].output_tokens,
                   24.0 * m.per_class[0].completed_requests);

  ServeClusterConfig untracked = config;
  untracked.num_classes = 0;
  ServeMetrics base = RunServeSimulation(requests, untracked, SimpleTable());
  EXPECT_TRUE(base.per_class.empty());
  EXPECT_EQ(base.admitted_requests, m.admitted_requests);
  EXPECT_EQ(base.completed_requests, m.completed_requests);
  EXPECT_EQ(base.output_tokens, m.output_tokens);
  EXPECT_EQ(base.makespan_s, m.makespan_s);
  for (double q : {0.5, 0.95, 0.99}) {
    EXPECT_EQ(base.ttft_s.Quantile(q), m.ttft_s.Quantile(q));
    EXPECT_EQ(base.tbt_s.Quantile(q), m.tbt_s.Quantile(q));
  }
}

TEST(Simulator, EmptyConfigReturnsEmptyMetrics) {
  auto requests = FixedRequests(10, 0.1);
  ServeClusterConfig config;
  config.prefill_instances = 0;
  ServeMetrics m = RunServeSimulation(requests, config, SimpleTable());
  EXPECT_EQ(m.completed_requests, 0);
}

TEST(Simulator, NewCoreBitIdenticalToReferenceCore) {
  // The rebuilt core (calendar queue, SoA hot state, completion-heap
  // decode scheduling) against the preserved reference implementation on
  // the same synthetic table — the bench gates it at scale; this keeps a
  // fast in-tree check. Two inputs: lognormal lengths with per-class
  // tracking on fixed pools, and an on/off burst driving the autoscaler.
  WorkloadSpec spec;
  spec.arrival_rate_per_s = 30.0;
  spec.duration_s = 20.0;
  spec.median_prompt_tokens = 800;
  spec.prompt_sigma = 0.6;
  spec.median_output_tokens = 48;
  spec.output_sigma = 0.4;
  auto requests = GenerateWorkload(spec);
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].class_id = static_cast<int>(i % 2);
  }
  StepTimeTable table = SimpleTable();
  ServeClusterConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 3;
  config.horizon_s = spec.duration_s;
  config.num_classes = 2;
  ExpectBitIdentical(RunServeSimulation(requests, config, table),
                     RunServeSimulationReference(requests, config, table));

  WorkloadSpec bursty = spec;
  bursty.arrival_rate_per_s = 60.0;
  bursty.duration_s = 60.0;
  bursty.arrival.kind = ArrivalKind::kOnOff;
  bursty.arrival.on_mean_s = 8.0;
  bursty.arrival.off_mean_s = 8.0;
  bursty.arrival.on_multiplier = 2.0;
  bursty.arrival.off_multiplier = 0.1;
  auto burst_requests = GenerateWorkload(bursty);
  ServeClusterConfig scaled;
  scaled.prefill_instances = 1;
  scaled.decode_instances = 1;
  scaled.horizon_s = bursty.duration_s;
  scaled.autoscaler.enabled = true;
  scaled.autoscaler.interval_s = 2.0;
  scaled.autoscaler.delay_s = 3.0;
  scaled.autoscaler.max_prefill_instances = 8;
  scaled.autoscaler.max_decode_instances = 8;
  scaled.autoscaler.prefill_tokens_per_s = 40000.0;
  scaled.autoscaler.decode_tokens_per_s = 4000.0;
  ServeMetrics a = RunServeSimulation(burst_requests, scaled, table);
  ServeMetrics b = RunServeSimulationReference(burst_requests, scaled, table);
  EXPECT_GT(a.scale_events.size(), 0u) << "the burst never moved the pools";
  ExpectBitIdentical(a, b);
}

TEST(Simulator, LongMacroStepsBitIdenticalToReferenceCore) {
  // One decode instance holding eight sequences of 4,000 to 14,500 tokens:
  // completions come 1,500 steps apart (the first after 4,000), so the
  // runs between them exceed 1,000 steps of a non-dyadic step time, and
  // their boundaries cross t = 64 s and 128 s, where the clock's ulp
  // doubles. Autoscaler ticks every 5 s charge the
  // runs piecewise, and three late arrivals refill the empty decode queue,
  // so designation cuts the cuttable run mid-way. Every charge and run end
  // must still match the reference core's step-by-step loop bit for bit.
  StepTimeTable table = SimpleTable(/*prefill_s=*/0.1, /*per_seq_step_s=*/1e-4,
                                    /*base_step_s=*/0.02);
  std::vector<Request> requests;
  for (int i = 0; i < 11; ++i) {
    Request r;
    r.id = i;
    r.arrival_s = i < 8 ? 0.1 * i : 70.3 + 30.4 * (i - 8);
    r.prompt_tokens = 1500;
    r.output_tokens = i < 8 ? 4000 + 1500 * i : 2000;
    requests.push_back(r);
  }
  ServeClusterConfig config;
  config.autoscaler.enabled = true;
  config.autoscaler.interval_s = 5.0;
  config.autoscaler.max_prefill_instances = 1;
  config.autoscaler.max_decode_instances = 1;
  config.autoscaler.prefill_tokens_per_s = 20000.0;
  config.autoscaler.decode_tokens_per_s = 400.0;
  ServeMetrics a = RunServeSimulation(requests, config, table);
  EXPECT_EQ(a.completed_requests, 11);
  EXPECT_GT(a.makespan_s, 250.0);
  // 14,500 decode steps in a few dozen runs, the rest of the pops being
  // arrivals, prefill passes and ticks.
  EXPECT_LT(a.events_popped, 150u);
  ExpectBitIdentical(a, RunServeSimulationReference(requests, config, table));
}

// --- exact ties ---

// Dyadic step times — decode 1/64 s (1/32 s past batch 8), prefill
// multiples of 1/16 s — so every simulated time is exact in binary and
// decode step boundaries land exactly on prefill completions and on
// autoscaler ticks. Those are the instants where the core's decode
// macro-steps must agree with the reference's step-by-step loop: a handoff
// at t is admitted by a step ending at t, and a tick at t sees the step
// starting at t charged.
StepTimeTable DyadicTable() {
  std::vector<double> prefill = {1.0 / 16, 2.0 / 16, 2.0 / 16, 3.0 / 16};
  std::vector<double> decode;
  for (int b = 1; b <= 16; ++b) {
    decode.push_back(b <= 8 ? 1.0 / 64 : 2.0 / 64);
  }
  return StepTimeTable(std::move(prefill), std::move(decode));
}

// Arrivals on a 1/16 s grid (often two per grid point), bursty: dense for
// the first third, sparse after. Output lengths 1..61 tokens, two classes.
std::vector<Request> GridRequests(int n) {
  std::vector<Request> requests;
  int tick = 0;
  for (int i = 0; i < n; ++i) {
    tick += (i < n / 3) ? (i % 2) : 1 + (i % 5);
    Request r;
    r.id = i;
    r.class_id = i % 2;
    r.arrival_s = tick / 16.0;
    r.prompt_tokens = 512;
    r.output_tokens = 1 + (i * 37) % 61;
    requests.push_back(r);
  }
  return requests;
}

TEST(Simulator, ExactTiesBitIdenticalToReferenceCore) {
  StepTimeTable table = DyadicTable();
  std::vector<Request> requests = GridRequests(900);

  ServeClusterConfig plain;
  plain.prefill_instances = 2;
  plain.decode_instances = 3;
  plain.num_classes = 2;
  {
    SCOPED_TRACE("plain");
    ServeMetrics a = RunServeSimulation(requests, plain, table);
    ExpectBitIdentical(a, RunServeSimulationReference(requests, plain, table));
    // The tie regime still macro-steps: fewer queue pops than decode steps.
    EXPECT_LT(a.events_popped, a.tbt_s.count());
  }

  // Autoscaled, 2 s ticks: a sweep of utilization thresholds so some
  // decision sits on the margin a mischarged tick would flip.
  for (double up : {0.5, 0.6, 0.7, 0.8, 0.9}) {
    SCOPED_TRACE(up);
    ServeClusterConfig scaled = plain;
    scaled.decode_instances = 1;
    scaled.autoscaler.enabled = true;
    scaled.autoscaler.interval_s = 2.0;
    scaled.autoscaler.delay_s = 1.0;
    scaled.autoscaler.max_prefill_instances = 4;
    scaled.autoscaler.max_decode_instances = 6;
    scaled.autoscaler.scale_up_utilization = up;
    scaled.autoscaler.scale_down_utilization = up - 0.3;
    scaled.autoscaler.prefill_tokens_per_s = 20000.0;
    scaled.autoscaler.decode_tokens_per_s = 2000.0;
    ServeMetrics a = RunServeSimulation(requests, scaled, table);
    EXPECT_GT(a.scale_events.size(), 0u);
    ExpectBitIdentical(a, RunServeSimulationReference(requests, scaled, table));
  }

  // Faults plus degraded states (multiplier 2 keeps step times dyadic).
  ServeClusterConfig faulty = plain;
  faulty.decode_instances = 4;
  faulty.horizon_s = requests.back().arrival_s;
  faulty.faults.enabled = true;
  faulty.faults.prefill_failure_rate_per_s = 0.1;
  faulty.faults.decode_failure_rate_per_s = 0.3;
  faulty.faults.repair_s = 1.0;
  faulty.faults.spare_activation_s = 0.25;
  faulty.faults.decode_spares = 1;
  faulty.faults.degraded.decode_rate_per_s = 0.3;
  faulty.faults.degraded.prefill_rate_per_s = 0.1;
  faulty.faults.degraded.multiplier = 2.0;
  faulty.faults.degraded.mean_duration_s = 1.0;
  faulty.faults.seed = FaultSubstreamSeed(7);
  {
    SCOPED_TRACE("faults + degrade");
    ServeMetrics a = RunServeSimulation(requests, faulty, table);
    EXPECT_GT(a.retried_requests, 0);
    EXPECT_GT(a.degrade_windows, 0);
    ExpectBitIdentical(a, RunServeSimulationReference(requests, faulty, table));
  }
}

}  // namespace
}  // namespace litegpu
