#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "src/util/format.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/util/units.h"

namespace litegpu {
namespace {

// --- format ---

TEST(Format, FormatDoubleBasic) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(3.0, 0), "3");
  EXPECT_EQ(FormatDouble(-2.5, 1), "-2.5");
}

TEST(Format, FormatDoubleTrimsNegativeZero) {
  EXPECT_EQ(FormatDouble(-0.0001, 2), "0.00");
}

TEST(Format, HumanBytes) {
  EXPECT_EQ(HumanBytes(3.352e12), "3.35 TB");
  EXPECT_EQ(HumanBytes(80e9), "80.00 GB");
  EXPECT_EQ(HumanBytes(512), "512.00 B");
}

TEST(Format, HumanBandwidth) { EXPECT_EQ(HumanBandwidth(450e9), "450.00 GB/s"); }

TEST(Format, HumanFlops) { EXPECT_EQ(HumanFlops(2e15), "2.00 PFLOPS"); }

TEST(Format, HumanTimePicksUnits) {
  EXPECT_EQ(HumanTime(1.5), "1.50 s");
  EXPECT_EQ(HumanTime(0.05), "50.00 ms");
  EXPECT_EQ(HumanTime(31e-6), "31.00 us");
  EXPECT_EQ(HumanTime(2e-9), "2.00 ns");
}

TEST(Format, HumanPower) { EXPECT_EQ(HumanPower(35000), "35.00 kW"); }

TEST(Format, HumanPercent) { EXPECT_EQ(HumanPercent(0.1234), "12.34%"); }

TEST(Units, Consistency) {
  EXPECT_DOUBLE_EQ(kTFLOPS, 1000.0 * kGFLOPS);
  EXPECT_DOUBLE_EQ(kGB, 1e9);
  EXPECT_DOUBLE_EQ(kGiB, 1073741824.0);
  EXPECT_DOUBLE_EQ(kHour, 60.0 * kMinute);
  EXPECT_DOUBLE_EQ(kGbps * 8.0, kGB);
}

// --- table ---

TEST(Table, RendersHeadersAndRows) {
  Table t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"beta", "22"});
  EXPECT_EQ(t.ToText(),
            "+-------+-------+\n"
            "| name  | value |\n"
            "+-------+-------+\n"
            "| alpha |     1 |\n"
            "| beta  |    22 |\n"
            "+-------+-------+\n");
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.AddRow({"only"});
  EXPECT_EQ(t.ToText(),
            "+------+---+---+\n"
            "| a    | b | c |\n"
            "+------+---+---+\n"
            "| only |   |   |\n"
            "+------+---+---+\n");
}

// --- stats ---

TEST(SampleSet, Quantiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.Median(), 50.5);
  EXPECT_NEAR(s.Quantile(0.95), 95.05, 1e-9);
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 100.0);
}

TEST(SampleSet, QuantileClampsOutOfRange) {
  SampleSet s;
  s.Add(5.0);
  EXPECT_DOUBLE_EQ(s.Quantile(-1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.Quantile(2.0), 5.0);
}

TEST(LatencyHistogram, ExactScalarStatsAndStreamingQuantiles) {
  LatencyHistogram h(/*hi=*/1.0, /*bins=*/1000);
  SampleSet exact;
  for (int i = 1; i <= 500; ++i) {
    double x = 0.001 * i;  // 1 ms .. 500 ms
    h.Add(x);
    exact.Add(x);
  }
  EXPECT_EQ(h.count(), 500u);
  EXPECT_DOUBLE_EQ(h.min(), 0.001);
  EXPECT_DOUBLE_EQ(h.max(), 0.500);
  // Percentiles land within one bin width of the exact sample quantiles.
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_NEAR(h.Quantile(q), exact.Quantile(q), h.bin_width()) << q;
  }
}

TEST(LatencyHistogram, BimodalQuantileStraddlingAGapStaysWithinOneBin) {
  // 99 samples at 5 ms plus one at 500 ms: the exact p99 interpolates into
  // the empty gap between the modes (9.95 ms). The histogram must follow
  // the same rank-interpolation convention, not snap to the lower mode.
  LatencyHistogram h;  // default 16384 bins over [0, 1s)
  SampleSet exact;
  for (int i = 0; i < 99; ++i) {
    h.Add(0.005);
    exact.Add(0.005);
  }
  h.Add(0.500);
  exact.Add(0.500);
  EXPECT_NEAR(h.P99(), exact.P99(), h.bin_width());
  EXPECT_NEAR(h.Median(), exact.Median(), h.bin_width());
  EXPECT_NEAR(h.Quantile(1.0), 0.500, 1e-12);
}

TEST(LatencyHistogram, OverflowSamplesReportExactMax) {
  LatencyHistogram h(/*hi=*/0.010, /*bins=*/10);
  h.Add(0.001);
  h.Add(2.5);  // way past the binned range
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.max(), 2.5);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 2.5);
  // Quantiles never escape the observed [min, max].
  EXPECT_GE(h.Quantile(0.0), 0.001);
}

TEST(LatencyHistogram, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
}

TEST(LatencyHistogram, CountAtOrBelowInterpolatesAndIsExactAtBoundaries) {
  LatencyHistogram h(/*hi=*/1.0, /*bins=*/10);  // bin width 0.1
  for (int i = 0; i < 4; ++i) {
    h.Add(0.05);  // bin 0
  }
  h.Add(0.25);  // bin 2
  h.Add(1.7);   // overflow
  // Bin boundaries count whole bins (to within rounding of the bin index).
  EXPECT_NEAR(h.CountAtOrBelow(0.1), 4.0, 1e-9);
  EXPECT_NEAR(h.CountAtOrBelow(0.2), 4.0, 1e-9);
  EXPECT_NEAR(h.CountAtOrBelow(0.3), 5.0, 1e-9);
  // Mid-bin thresholds interpolate within the containing bin.
  EXPECT_NEAR(h.CountAtOrBelow(0.05), 2.0, 1e-9);
  EXPECT_NEAR(h.CountAtOrBelow(0.25), 4.5, 1e-9);
  // Everything at or past the range end includes the overflow bucket.
  EXPECT_DOUBLE_EQ(h.CountAtOrBelow(5.0), 6.0);
  EXPECT_DOUBLE_EQ(h.CountAtOrBelow(0.0), 0.0);
}

TEST(LatencyHistogram, MergeMatchesStreamingEverySampleThroughOne) {
  // The shard merge contract: bin-wise merge of per-shard histograms is
  // indistinguishable from one histogram that saw every sample.
  LatencyHistogram a(/*hi=*/1.0, /*bins=*/256);
  LatencyHistogram b(/*hi=*/1.0, /*bins=*/256);
  LatencyHistogram all(/*hi=*/1.0, /*bins=*/256);
  for (int i = 0; i < 500; ++i) {
    double x = 0.002 * static_cast<double>(i % 300);  // some overflow >= 1.0
    LatencyHistogram& shard = (i % 2 == 0) ? a : b;
    shard.Add(x);
    all.Add(x);
  }
  a.Add(0.5, 25);  // weighted adds merge too
  all.Add(0.5, 25);
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(a.Quantile(q), all.Quantile(q)) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(a.CountAtOrBelow(0.35), all.CountAtOrBelow(0.35));
  // Merging an empty histogram is the identity.
  LatencyHistogram empty(/*hi=*/1.0, /*bins=*/256);
  double before = a.Quantile(0.5);
  a.Merge(empty);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.Quantile(0.5), before);
}

TEST(LatencyHistogram, BulkAddMatchesRepeatedWeightedAddsBitForBit) {
  // A decode macro-step of r identical steps lands as one Add(x, n * r);
  // it must be indistinguishable from r step-by-step Add(x, n) calls,
  // wherever other samples interleave.
  LatencyHistogram bulk(/*hi=*/0.05, /*bins=*/64);
  LatencyHistogram stepwise(/*hi=*/0.05, /*bins=*/64);
  const double xs[] = {0.0123456789, 0.007, 1.0 / 3.0, 0.049999, 0.0311};
  const size_t ns[] = {3, 64, 1, 17, 250};
  const size_t rounds[] = {41, 2, 1000, 7, 13};
  for (int i = 0; i < 5; ++i) {
    bulk.Add(xs[i], ns[i] * rounds[i]);
  }
  for (int i = 4; i >= 0; --i) {  // the other order, one round at a time
    for (size_t r = 0; r < rounds[i]; ++r) {
      stepwise.Add(xs[i], ns[i]);
      stepwise.Add(0.002);  // an interleaved sample from another instance
    }
  }
  for (int i = 0; i < 5; ++i) {
    for (size_t r = 0; r < rounds[i]; ++r) {
      bulk.Add(0.002);
    }
  }
  EXPECT_EQ(bulk.count(), stepwise.count());
  EXPECT_EQ(bulk.min(), stepwise.min());
  EXPECT_EQ(bulk.max(), stepwise.max());
  // Overflow (1/3 >= hi) and every bin, through the cumulative counts.
  for (double x : {0.0, 0.002, 0.01, 0.03, 0.0499, 0.05, 0.2, 1.0 / 3.0}) {
    EXPECT_EQ(bulk.CountAtOrBelow(x), stepwise.CountAtOrBelow(x)) << x;
  }
  for (int q = 0; q <= 100; ++q) {
    EXPECT_EQ(bulk.Quantile(q / 100.0), stepwise.Quantile(q / 100.0)) << q;
  }
}

// --- rng ---

double Mean(const std::vector<double>& xs) {
  double sum = 0.0;
  for (double x : xs) {
    sum += x;
  }
  return sum / static_cast<double>(xs.size());
}

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformMeanCloseToCenter) {
  Rng rng(3);
  std::vector<double> s;
  for (int i = 0; i < 100000; ++i) {
    s.push_back(rng.Uniform(10.0, 20.0));
  }
  EXPECT_NEAR(Mean(s), 15.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  std::vector<double> s;
  for (int i = 0; i < 200000; ++i) {
    s.push_back(rng.Exponential(4.0));
  }
  EXPECT_NEAR(Mean(s), 0.25, 0.005);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  std::vector<double> s;
  std::vector<double> squared_deviations;
  for (int i = 0; i < 200000; ++i) {
    s.push_back(rng.Normal(5.0, 2.0));
    squared_deviations.push_back((s.back() - 5.0) * (s.back() - 5.0));
  }
  EXPECT_NEAR(Mean(s), 5.0, 0.03);
  EXPECT_NEAR(std::sqrt(Mean(squared_deviations)), 2.0, 0.03);
}

TEST(Rng, PoissonMeanSmallAndLarge) {
  Rng rng(17);
  std::vector<double> small;
  std::vector<double> large;
  for (int i = 0; i < 50000; ++i) {
    small.push_back(static_cast<double>(rng.Poisson(3.0)));
    large.push_back(static_cast<double>(rng.Poisson(100.0)));
  }
  EXPECT_NEAR(Mean(small), 3.0, 0.05);
  EXPECT_NEAR(Mean(large), 100.0, 0.5);
}

TEST(Rng, NextBelowUnbiasedCoverage) {
  Rng rng(19);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.NextBelow(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

}  // namespace
}  // namespace litegpu
