// Fleet-compare study: the differential-testing pass over the serving
// stack. Each candidate's simulated knee is checked against the analytic
// capacity model it was planned from, and the Pareto frontier is checked
// for the invariants the report promises: no dominated member, and the
// same set at any thread count or catalog order.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/core/runner.h"
#include "src/core/scenario.h"
#include "src/serve/knee.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace litegpu {
namespace {

FleetCandidate MakeCandidate(const std::string& name, int split,
                             double mem_bw_multiplier) {
  FleetCandidate c;
  c.name = name;
  c.gpu = "H100";
  c.split = split;
  c.mem_bw_multiplier = mem_bw_multiplier;
  return c;
}

// A small three-candidate catalog on a coarse grid — big enough to produce
// a non-trivial frontier, small enough to run in test time.
Scenario FleetScenario(uint64_t seed, int threads,
                       std::vector<FleetCandidate> candidates) {
  Scenario s;
  s.study = StudyKind::kFleetCompare;
  s.fleet.candidates = std::move(candidates);
  s.fleet.load_lo = 0.25;
  s.fleet.load_hi = 1.0;
  s.fleet.load_step = 0.25;
  s.fleet.horizon_s = 15.0;
  s.fleet.seed = seed;
  s.exec.threads = threads;
  EXPECT_EQ(s.Validate(), "");
  return s;
}

std::vector<FleetCandidate> DefaultCatalog() {
  return {MakeCandidate("H100", 1, 1.0), MakeCandidate("Lite/4", 4, 2.0),
          MakeCandidate("Lite/8", 8, 2.0)};
}

FleetCompareReport RunFleet(const Scenario& s) {
  RunReport report = Runner().Run(s);
  EXPECT_TRUE(report.ok) << report.error;
  return std::get<FleetCompareReport>(report.payload);
}

std::set<std::string> FrontierNames(const FleetCompareReport& r) {
  std::set<std::string> names;
  for (int idx : r.frontier) {
    names.insert(r.candidates[static_cast<size_t>(idx)].name);
  }
  return names;
}

// --- differential test: simulated knee vs the analytic capacity model ----

TEST(FleetCompare, KneeGoodputTracksAnalyticCapacity) {
  FleetCompareReport r = RunFleet(FleetScenario(0xC0FFEE, 1, DefaultCatalog()));
  ASSERT_EQ(r.candidates.size(), 3u);
  for (const auto& c : r.candidates) {
    ASSERT_TRUE(c.feasible) << c.name << ": " << c.error;
    // The knee ran at knee_load x the pool's analytic decode capacity; the
    // simulated goodput must track that offered rate. The tolerance covers
    // finite-horizon edge effects, not model disagreement.
    double offered = c.analytic_capacity_tok_s * c.knee_load;
    ASSERT_GT(offered, 0.0) << c.name;
    double agreement = c.knee_goodput_tokens_per_s / offered;
    EXPECT_GT(agreement, 0.75) << c.name;
    EXPECT_LT(agreement, 1.15) << c.name;
  }
}

// --- frontier invariants -------------------------------------------------

TEST(FleetCompare, DominatedCandidateNeverOnFrontier) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    FleetCompareReport r = RunFleet(FleetScenario(seed, 1, DefaultCatalog()));
    // Recompute dominance from the reported metrics: a frontier member must
    // not be dominated, and every feasible non-member must be.
    for (size_t i = 0; i < r.candidates.size(); ++i) {
      const auto& a = r.candidates[i];
      if (!a.feasible) {
        EXPECT_FALSE(a.on_frontier) << a.name;
        continue;
      }
      bool dominated = false;
      for (size_t j = 0; j < r.candidates.size() && !dominated; ++j) {
        const auto& b = r.candidates[j];
        if (i == j || !b.feasible) {
          continue;
        }
        bool no_worse = b.usd_per_mtoken <= a.usd_per_mtoken &&
                        b.joules_per_token <= a.joules_per_token &&
                        b.knee_goodput_tokens_per_s >= a.knee_goodput_tokens_per_s;
        bool strictly = b.usd_per_mtoken < a.usd_per_mtoken ||
                        b.joules_per_token < a.joules_per_token ||
                        b.knee_goodput_tokens_per_s > a.knee_goodput_tokens_per_s;
        dominated = no_worse && strictly;
      }
      EXPECT_EQ(a.on_frontier, !dominated) << a.name << " seed " << seed;
    }
    EXPECT_FALSE(r.frontier.empty()) << "seed " << seed;
  }
}

TEST(FleetCompare, ParetoSetInvariantToThreadCount) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    FleetCompareReport serial = RunFleet(FleetScenario(seed, 1, DefaultCatalog()));
    FleetCompareReport parallel = RunFleet(FleetScenario(seed, 7, DefaultCatalog()));
    EXPECT_EQ(FrontierNames(serial), FrontierNames(parallel)) << "seed " << seed;
    ASSERT_EQ(serial.candidates.size(), parallel.candidates.size());
    for (size_t i = 0; i < serial.candidates.size(); ++i) {
      EXPECT_EQ(serial.candidates[i].knee_goodput_tokens_per_s,
                parallel.candidates[i].knee_goodput_tokens_per_s)
          << serial.candidates[i].name << " seed " << seed;
      EXPECT_EQ(serial.candidates[i].usd_per_mtoken,
                parallel.candidates[i].usd_per_mtoken)
          << serial.candidates[i].name << " seed " << seed;
    }
  }
}

TEST(FleetCompare, ParetoSetInvariantToCatalogOrder) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    std::vector<FleetCandidate> forward = DefaultCatalog();
    std::vector<FleetCandidate> reversed(forward.rbegin(), forward.rend());
    FleetCompareReport a = RunFleet(FleetScenario(seed, 1, forward));
    FleetCompareReport b = RunFleet(FleetScenario(seed, 1, reversed));
    EXPECT_EQ(FrontierNames(a), FrontierNames(b)) << "seed " << seed;
    // The winner is a name, not an index — indices shift with the order.
    ASSERT_GE(a.winner_index, 0);
    ASSERT_GE(b.winner_index, 0);
    EXPECT_EQ(a.candidates[static_cast<size_t>(a.winner_index)].name,
              b.candidates[static_cast<size_t>(b.winner_index)].name)
        << "seed " << seed;
    // Per-candidate streams derive from names, so every metric matches too.
    for (const auto& ca : a.candidates) {
      auto it = std::find_if(b.candidates.begin(), b.candidates.end(),
                             [&](const auto& cb) { return cb.name == ca.name; });
      ASSERT_NE(it, b.candidates.end()) << ca.name;
      EXPECT_EQ(ca.seed, it->seed) << ca.name;
      EXPECT_EQ(ca.knee_goodput_tokens_per_s, it->knee_goodput_tokens_per_s)
          << ca.name << " seed " << seed;
      EXPECT_EQ(ca.usd_per_mtoken, it->usd_per_mtoken) << ca.name << " seed " << seed;
    }
  }
}

// --- knee-first scan vs the full grid -----------------------------------

// The points a candidate's knee scan simulates, recomputed from the report:
// the knee's position in KneeScanOrder + 1, the whole grid when no point
// met the SLOs, none when the platform could not be built.
int ExpectedPointsSimulated(const FleetCompareReport& r, const Scenario& s) {
  const std::vector<double> grid = s.fleet.GridPoints();
  int total = 0;
  for (size_t ci = 0; ci < r.candidates.size(); ++ci) {
    const auto& c = r.candidates[ci];
    if (c.searched.decode_tp == 0) {
      continue;
    }
    if (!c.feasible) {
      total += static_cast<int>(grid.size());
      continue;
    }
    std::vector<double> rates;
    for (double load : grid) {
      rates.push_back(load * c.analytic_capacity_tok_s /
                      static_cast<double>(s.workload.output_tokens));
    }
    std::vector<int> order = KneeScanOrder(rates, grid);
    auto pos = std::find(order.begin(), order.end(), c.knee_index);
    EXPECT_NE(pos, order.end()) << c.name;
    total += static_cast<int>(pos - order.begin()) + 1;
  }
  return total;
}

// Each fleet candidate simulates its grid in knee-preference order and stops
// at its first SLO-meeting point. A serve sweep over the same part, pool,
// grid and seed simulates every point; its knee must be the fleet's, bit for
// bit. The unsorted grid with a duplicated 0.5 makes the two-instance
// prefill pool's scan cross the tie before it reaches its knee.
TEST(FleetCompare, KneeScanFindsTheFullSweepKnee) {
  std::vector<FleetCandidate> catalog = {MakeCandidate("H100 prefill2", 1, 1.0),
                                         MakeCandidate("H100 auto", 1, 1.0)};
  catalog[0].prefill_instances = 2;
  Scenario fleet_scenario = FleetScenario(0xC0FFEE, 1, catalog);
  fleet_scenario.fleet.loads = {1.5, 0.5, 1.0, 0.25, 0.5, 2.0, 0.75};
  FleetCompareReport fleet = RunFleet(fleet_scenario);
  ASSERT_EQ(fleet.candidates.size(), 2u);
  EXPECT_EQ(fleet.platform_builds, 1);
  EXPECT_EQ(fleet.points_simulated, ExpectedPointsSimulated(fleet, fleet_scenario));
  // Scan order 2.0, 1.5, 1.0, 0.75, 0.5, 0.5, 0.25: the prefill2 knee (index
  // 3, load 0.25) is the last of 7 points, the auto-sized one's is the first.
  EXPECT_EQ(fleet.points_simulated, 7 + 1);

  for (size_t ci = 0; ci < catalog.size(); ++ci) {
    const auto& c = fleet.candidates[ci];
    ServeSweepKnobs sweep;
    sweep.loads = fleet_scenario.fleet.loads;
    sweep.horizon_s = fleet_scenario.fleet.horizon_s;
    sweep.prefill_instances = catalog[ci].prefill_instances;
    sweep.decode_instances = catalog[ci].decode_instances;
    // The report struct's seed, not the JSON one: JSON rounds it to a
    // double, the struct keeps all 64 bits.
    sweep.seed = c.seed;
    Scenario sweep_scenario;
    sweep_scenario.study = StudyKind::kServeSweep;
    sweep_scenario.gpus = {"H100"};
    sweep_scenario.sweep = sweep;
    RunReport sweep_run = Runner().Run(sweep_scenario);
    ASSERT_TRUE(sweep_run.ok) << sweep_run.error;
    const auto& full = std::get<ServeSweepReport>(sweep_run.payload);

    ASSERT_TRUE(c.feasible) << c.name << ": " << c.error;
    ASSERT_GE(full.knee_index, 0) << c.name;
    const auto& knee = full.points[static_cast<size_t>(full.knee_index)];
    EXPECT_EQ(c.knee_index, full.knee_index) << c.name;
    EXPECT_EQ(c.knee_load, knee.load) << c.name;
    EXPECT_EQ(c.knee_arrival_rate_per_s, knee.arrival_rate_per_s) << c.name;
    EXPECT_EQ(c.knee_goodput_tokens_per_s, knee.goodput_tokens_per_s) << c.name;
    EXPECT_EQ(c.knee_total_gpus, knee.total_gpus) << c.name;
  }
  // The fixed two-instance prefill pool's knee sits below the 0.5 tie; the
  // auto-sized pool keeps up at the top of the grid.
  EXPECT_EQ(fleet.candidates[0].knee_index, 3);
  EXPECT_EQ(fleet.candidates[1].knee_index, 5);
}

TEST(FleetCompare, PointsSimulatedInvariantToThreadCount) {
  std::vector<FleetCandidate> catalog = DefaultCatalog();
  catalog[0].prefill_instances = 2;
  Scenario base = FleetScenario(0xC0FFEE, 1, catalog);
  RunReport serial_run = Runner().Run(base);
  ASSERT_TRUE(serial_run.ok) << serial_run.error;
  const auto& serial = std::get<FleetCompareReport>(serial_run.payload);
  EXPECT_EQ(serial.points_simulated, ExpectedPointsSimulated(serial, base));
  for (int threads : {2, 13}) {
    RunReport parallel_run = Runner().Run(FleetScenario(0xC0FFEE, threads, catalog));
    ASSERT_TRUE(parallel_run.ok) << parallel_run.error;
    EXPECT_EQ(std::get<FleetCompareReport>(parallel_run.payload).points_simulated,
              serial.points_simulated)
        << threads << " threads";
    EXPECT_EQ(parallel_run.ToJson().Dump(), serial_run.ToJson().Dump())
        << threads << " threads";
  }
}

// --- degenerate catalogs -------------------------------------------------

TEST(FleetCompare, ImpossibleSloMakesEveryCandidateInfeasible) {
  Scenario s = FleetScenario(0xC0FFEE, 1, DefaultCatalog());
  s.workload.tbt_slo_s = 1e-9;  // no config can meet a nanosecond TBT
  FleetCompareReport r = RunFleet(s);
  for (const auto& c : r.candidates) {
    EXPECT_FALSE(c.feasible) << c.name;
    EXPECT_FALSE(c.error.empty()) << c.name;
    EXPECT_FALSE(c.on_frontier) << c.name;
  }
  EXPECT_TRUE(r.frontier.empty());
  EXPECT_EQ(r.winner_index, -1);
}

TEST(FleetCompare, CandidatesSharingAPartShareOnePlatformBuild) {
  std::vector<FleetCandidate> catalog = {
      MakeCandidate("pool-a", 4, 2.0), MakeCandidate("pool-b", 4, 2.0),
      MakeCandidate("baseline", 1, 1.0)};
  catalog[1].decode_instances = 2;  // same part, different pool shape
  FleetCompareReport r = RunFleet(FleetScenario(0xC0FFEE, 1, catalog));
  // Two candidates resolve to the same derived part: one search + one
  // step-time table serves both.
  EXPECT_EQ(r.platform_builds, 2);
  ASSERT_TRUE(r.candidates[0].feasible);
  ASSERT_TRUE(r.candidates[1].feasible);
  EXPECT_EQ(r.candidates[0].gpu, r.candidates[1].gpu);
  // The two-instance pool's knee offered twice the rate.
  EXPECT_GT(r.candidates[1].analytic_capacity_tok_s,
            1.9 * r.candidates[0].analytic_capacity_tok_s);
}

// DeriveLite names parts with one-decimal multipliers, so 2.24x and 2.25x
// memory bandwidth print alike. They are different parts: each must get
// its own platform, and its knee must be the one it gets on its own.
TEST(FleetCompare, PartsShareAPlatformOnlyWhenTheirSpecsMatch) {
  std::vector<FleetCandidate> catalog = {MakeCandidate("membw-2.24", 4, 2.24),
                                         MakeCandidate("membw-2.25", 4, 2.25)};
  FleetCompareReport pair = RunFleet(FleetScenario(0xC0FFEE, 1, catalog));
  EXPECT_EQ(pair.platform_builds, 2);
  ASSERT_EQ(pair.candidates.size(), 2u);
  EXPECT_EQ(pair.candidates[0].gpu, pair.candidates[1].gpu);  // the names collide
  for (size_t ci = 0; ci < catalog.size(); ++ci) {
    FleetCompareReport alone = RunFleet(FleetScenario(0xC0FFEE, 1, {catalog[ci]}));
    const auto& in_pair = pair.candidates[ci];
    const auto& solo = alone.candidates[0];
    ASSERT_TRUE(in_pair.feasible) << in_pair.name << ": " << in_pair.error;
    EXPECT_EQ(in_pair.analytic_capacity_tok_s, solo.analytic_capacity_tok_s) << solo.name;
    EXPECT_EQ(in_pair.knee_arrival_rate_per_s, solo.knee_arrival_rate_per_s) << solo.name;
    EXPECT_EQ(in_pair.knee_goodput_tokens_per_s, solo.knee_goodput_tokens_per_s) << solo.name;
    EXPECT_EQ(in_pair.usd_per_mtoken, solo.usd_per_mtoken) << solo.name;
  }
  EXPECT_NE(pair.candidates[0].analytic_capacity_tok_s,
            pair.candidates[1].analytic_capacity_tok_s);
}

// Four parts, six candidates: two parts are named twice (different pools),
// and a memory-starved V100/16 has no feasible decode configuration.
std::vector<FleetCandidate> FanOutCatalog() {
  std::vector<FleetCandidate> catalog = {MakeCandidate("H100", 1, 1.0),
                                         MakeCandidate("H100 pool2", 1, 1.0),
                                         MakeCandidate("Lite/4", 4, 2.0),
                                         MakeCandidate("Lite/4 pool2", 4, 2.0),
                                         MakeCandidate("V100/16 starved", 16, 0.25),
                                         MakeCandidate("Lite/8", 8, 2.0)};
  catalog[1].decode_instances = 2;
  catalog[3].decode_instances = 2;
  catalog[4].gpu = "V100";
  return catalog;
}

// The study fans out once over its parts (each search serial) and once over
// its candidates, so at two threads it starts two lanes per phase — not a
// fan-out per TP-degree search.
TEST(FleetCompare, OneFanOutPerPhase) {
  Scenario s = FleetScenario(0xC0FFEE, 2, FanOutCatalog());
  uint64_t before = ParallelForLanesStarted();
  FleetCompareReport r = RunFleet(s);
  uint64_t lanes = ParallelForLanesStarted() - before;
  EXPECT_EQ(r.platform_builds, 4);
  EXPECT_LE(lanes, 4u);
  ASSERT_EQ(r.candidates.size(), 6u);
  EXPECT_FALSE(r.candidates[4].error.empty());
  EXPECT_EQ(r.candidates[4].searched.decode_tp, 0);  // the platform failed
}

TEST(FleetCompare, ReportWithSharedAndFailedPartsInvariantToThreadCount) {
  RunReport serial = Runner().Run(FleetScenario(0xC0FFEE, 1, FanOutCatalog()));
  ASSERT_TRUE(serial.ok) << serial.error;
  const std::string expected = serial.ToJson().Dump();
  for (int threads : {2, 13}) {
    RunReport parallel = Runner().Run(FleetScenario(0xC0FFEE, threads, FanOutCatalog()));
    ASSERT_TRUE(parallel.ok) << parallel.error;
    EXPECT_EQ(parallel.ToJson().Dump(), expected) << threads << " threads";
  }
}

// --- knee selection helper ----------------------------------------------

KneePoint MakeKneePoint(double rate, double load, bool slo_ok, double goodput) {
  KneePoint p;
  p.arrival_rate_per_s = rate;
  p.load = load;
  p.slo_ok = slo_ok;
  p.goodput_tokens_per_s = goodput;
  return p;
}

TEST(KneeSelection, HighestQualifyingRateWins) {
  std::vector<KneePoint> grid = {MakeKneePoint(10.0, 0.25, true, 100.0),
                                 MakeKneePoint(20.0, 0.50, true, 200.0),
                                 MakeKneePoint(30.0, 0.75, false, 300.0)};
  KneeSelection s = SelectKneeAndCheapest(grid, /*autoscaled=*/false);
  EXPECT_EQ(s.knee_index, 1);
  EXPECT_DOUBLE_EQ(s.knee_load, 0.50);
  EXPECT_DOUBLE_EQ(s.knee_goodput_tokens_per_s, 200.0);
}

TEST(KneeSelection, RateTieGoesToLowestLoad) {
  // Two grid points meet the SLOs at the same offered rate (an autoscaled
  // sweep can produce this): the knee is the one using less headroom.
  std::vector<KneePoint> grid = {MakeKneePoint(10.0, 0.80, true, 100.0),
                                 MakeKneePoint(10.0, 0.40, true, 100.0),
                                 MakeKneePoint(5.0, 0.20, true, 50.0)};
  KneeSelection s = SelectKneeAndCheapest(grid, /*autoscaled=*/false);
  EXPECT_EQ(s.knee_index, 1);
  EXPECT_DOUBLE_EQ(s.knee_load, 0.40);
}

TEST(KneeSelection, FullTieKeepsEarliestPoint) {
  std::vector<KneePoint> grid = {MakeKneePoint(10.0, 0.50, true, 100.0),
                                 MakeKneePoint(10.0, 0.50, true, 120.0)};
  KneeSelection s = SelectKneeAndCheapest(grid, /*autoscaled=*/false);
  EXPECT_EQ(s.knee_index, 0);
  EXPECT_DOUBLE_EQ(s.knee_goodput_tokens_per_s, 100.0);
}

TEST(KneeSelection, NoQualifyingPointReportsNoKnee) {
  std::vector<KneePoint> grid = {MakeKneePoint(10.0, 0.50, false, 100.0)};
  KneeSelection s = SelectKneeAndCheapest(grid, /*autoscaled=*/false);
  EXPECT_EQ(s.knee_index, -1);
  EXPECT_EQ(s.cheapest_index, -1);
}

// The knee by the rule written out longhand: strictly higher rate wins, a
// rate tie goes to the lower load, a full tie keeps the earliest point.
int LonghandKnee(const std::vector<KneePoint>& points) {
  int knee = -1;
  for (size_t i = 0; i < points.size(); ++i) {
    if (!points[i].slo_ok) {
      continue;
    }
    if (knee < 0) {
      knee = static_cast<int>(i);
      continue;
    }
    const KneePoint& best = points[static_cast<size_t>(knee)];
    if (points[i].arrival_rate_per_s > best.arrival_rate_per_s ||
        (points[i].arrival_rate_per_s == best.arrival_rate_per_s &&
         points[i].load < best.load)) {
      knee = static_cast<int>(i);
    }
  }
  return knee;
}

TEST(KneeSelection, FirstSloOkPointInScanOrderIsTheKnee) {
  SplitMix64 rng(0x5EED);
  int no_knee_views = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    // Few distinct rates and loads, so rate ties, duplicate loads and full
    // ties are common; the grid order is random.
    size_t n = rng.Next() % 10;
    std::vector<KneePoint> view;
    std::vector<double> rates, loads;
    for (size_t i = 0; i < n; ++i) {
      KneePoint p = MakeKneePoint(static_cast<double>(rng.Next() % 4),
                                  0.25 * static_cast<double>(1 + rng.Next() % 4),
                                  rng.Next() % 3 == 0, 0.0);
      view.push_back(p);
      rates.push_back(p.arrival_rate_per_s);
      loads.push_back(p.load);
    }
    std::vector<int> order = KneeScanOrder(rates, loads);
    std::vector<int> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(sorted[i], static_cast<int>(i)) << "not a permutation, trial " << trial;
    }
    int first_ok = -1;
    for (int i : order) {
      if (view[static_cast<size_t>(i)].slo_ok) {
        first_ok = i;
        break;
      }
    }
    EXPECT_EQ(first_ok, SelectKneeAndCheapest(view, false).knee_index) << "trial " << trial;
    EXPECT_EQ(first_ok, LonghandKnee(view)) << "trial " << trial;
    if (first_ok < 0) {
      ++no_knee_views;
    }
  }
  EXPECT_GT(no_knee_views, 10);
}

TEST(KneeSelection, CheapestOnlyConsideredWhenAutoscaled) {
  std::vector<KneePoint> grid = {MakeKneePoint(10.0, 0.50, true, 100.0),
                                 MakeKneePoint(20.0, 1.00, true, 200.0)};
  grid[0].makespan_s = 60.0;
  grid[0].gpu_hours = 1.0;  // 6000 tok/GPU-hour
  grid[1].makespan_s = 60.0;
  grid[1].gpu_hours = 4.0;  // 3000 tok/GPU-hour
  KneeSelection fixed = SelectKneeAndCheapest(grid, /*autoscaled=*/false);
  EXPECT_EQ(fixed.cheapest_index, -1);
  KneeSelection scaled = SelectKneeAndCheapest(grid, /*autoscaled=*/true);
  EXPECT_EQ(scaled.cheapest_index, 0);
  EXPECT_DOUBLE_EQ(scaled.cheapest_tokens_per_gpu_hour, 6000.0);
}

}  // namespace
}  // namespace litegpu
