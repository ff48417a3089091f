#include <gtest/gtest.h>

#include <cmath>

#include "src/silicon/cost.h"
#include "src/silicon/shoreline.h"
#include "src/silicon/wafer.h"
#include "src/silicon/yield.h"
#include "src/util/units.h"

namespace litegpu {
namespace {

constexpr double kH100DieMm2 = 814.0;

// --- wafer geometry ---

TEST(Wafer, H100ClassDieCount) {
  WaferSpec wafer;
  uint64_t dpw = DiesPerWaferSquare(wafer, kH100DieMm2);
  // Public estimates for reticle-class dies on 300mm wafers are ~60-70.
  EXPECT_GE(dpw, 50u);
  EXPECT_LE(dpw, 80u);
}

TEST(Wafer, QuarterDieGivesMoreThanFourTimes) {
  WaferSpec wafer;
  uint64_t big = DiesPerWaferSquare(wafer, kH100DieMm2);
  uint64_t quarter = DiesPerWaferSquare(wafer, kH100DieMm2 / 4.0);
  // Edge and packing losses shrink with die size.
  EXPECT_GT(quarter, 4 * big);
}

TEST(Wafer, ZeroForOversizedDie) {
  WaferSpec wafer;
  EXPECT_EQ(DiesPerWafer(wafer, 400.0, 400.0), 0u);
  EXPECT_EQ(DiesPerWafer(wafer, 0.0, 10.0), 0u);
}

TEST(Wafer, ExactGridWithinAnalyticApproximation) {
  WaferSpec wafer;
  for (double area : {100.0, 200.0, 400.0, 814.0}) {
    double side = std::sqrt(area);
    uint64_t approx = DiesPerWafer(wafer, side, side);
    uint64_t exact = DiesPerWaferExactGrid(wafer, side, side);
    // The analytic formula should be within ~20% of a grid placement.
    EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
                0.2 * static_cast<double>(exact) + 5.0)
        << "area " << area;
  }
}

TEST(Wafer, MonotoneInDieArea) {
  WaferSpec wafer;
  uint64_t prev = DiesPerWaferSquare(wafer, 50.0);
  for (double area = 100.0; area <= 800.0; area += 50.0) {
    uint64_t cur = DiesPerWaferSquare(wafer, area);
    EXPECT_LE(cur, prev) << "area " << area;
    prev = cur;
  }
}

// --- yield models ---

class YieldModelTest : public ::testing::TestWithParam<YieldModel> {};

TEST_P(YieldModelTest, InUnitInterval) {
  DefectSpec defects;
  for (double area : {10.0, 100.0, 400.0, 814.0, 2000.0}) {
    double y = DieYield(GetParam(), defects, area);
    EXPECT_GT(y, 0.0) << "area " << area;
    EXPECT_LE(y, 1.0) << "area " << area;
  }
}

TEST_P(YieldModelTest, MonotoneDecreasingInArea) {
  DefectSpec defects;
  double prev = DieYield(GetParam(), defects, 1.0);
  for (double area = 10.0; area <= 2000.0; area += 10.0) {
    double y = DieYield(GetParam(), defects, area);
    EXPECT_LE(y, prev + 1e-12) << "area " << area;
    prev = y;
  }
}

TEST_P(YieldModelTest, MonotoneDecreasingInDefectDensity) {
  double prev = 1.0;
  for (double d0 = 0.01; d0 <= 0.5; d0 += 0.01) {
    DefectSpec defects;
    defects.density_per_cm2 = d0;
    double y = DieYield(GetParam(), defects, kH100DieMm2);
    EXPECT_LT(y, prev) << "d0 " << d0;
    prev = y;
  }
}

TEST_P(YieldModelTest, PerfectProcessYieldsOne) {
  DefectSpec defects;
  defects.density_per_cm2 = 0.0;
  EXPECT_DOUBLE_EQ(DieYield(GetParam(), defects, kH100DieMm2), 1.0);
}

INSTANTIATE_TEST_SUITE_P(AllModels, YieldModelTest,
                         ::testing::Values(YieldModel::kPoisson, YieldModel::kMurphy,
                                           YieldModel::kSeeds,
                                           YieldModel::kNegativeBinomial),
                         [](const auto& param_info) {
                           std::string name = ToString(param_info.param);
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(Yield, PoissonMatchesClosedForm) {
  DefectSpec defects;
  defects.density_per_cm2 = 0.1;
  // 814 mm^2 = 8.14 cm^2; A*D = 0.814.
  EXPECT_NEAR(DieYield(YieldModel::kPoisson, defects, 814.0), std::exp(-0.814), 1e-12);
}

TEST(Yield, SeedsMatchesClosedForm) {
  DefectSpec defects;
  defects.density_per_cm2 = 0.1;
  EXPECT_NEAR(DieYield(YieldModel::kSeeds, defects, 814.0), 1.0 / 1.814, 1e-12);
}

TEST(Yield, NegativeBinomialApproachesPoissonForLargeAlpha) {
  DefectSpec defects;
  defects.cluster_alpha = 1e6;
  double nb = DieYield(YieldModel::kNegativeBinomial, defects, 814.0);
  double poisson = DieYield(YieldModel::kPoisson, defects, 814.0);
  EXPECT_NEAR(nb, poisson, 1e-4);
}

// The paper's headline Section-2 claim.
TEST(Yield, PaperClaimQuarterDie18xGain) {
  DefectSpec defects;  // 0.1 defects/cm^2 default
  double gain = YieldGainFromSplit(YieldModel::kMurphy, defects, kH100DieMm2, 4);
  EXPECT_NEAR(gain, 1.8, 0.1);
}

TEST(Yield, SplitGainAtLeastOne) {
  DefectSpec defects;
  for (auto model : {YieldModel::kPoisson, YieldModel::kMurphy, YieldModel::kSeeds,
                     YieldModel::kNegativeBinomial}) {
    for (int split : {1, 2, 4, 8, 16}) {
      EXPECT_GE(YieldGainFromSplit(model, defects, kH100DieMm2, split), 1.0)
          << ToString(model) << " split " << split;
    }
  }
}

// --- cost ---

TEST(Cost, KnownGoodDieCheaperForSmallDie) {
  WaferSpec wafer;
  DefectSpec defects;
  double big = KnownGoodDieCost(wafer, YieldModel::kMurphy, defects, kH100DieMm2);
  double quarter = KnownGoodDieCost(wafer, YieldModel::kMurphy, defects, kH100DieMm2 / 4.0);
  // Four quarter dies must cost well under one big die (yield + packing).
  EXPECT_LT(4.0 * quarter, 0.7 * big);
}

TEST(Cost, PaperClaimAlmostHalfManufacturingCost) {
  WaferSpec wafer;
  DefectSpec defects;
  double big = KnownGoodDieCost(wafer, YieldModel::kMurphy, defects, kH100DieMm2);
  double quarter = KnownGoodDieCost(wafer, YieldModel::kMurphy, defects, kH100DieMm2 / 4.0);
  double ratio = 4.0 * quarter / big;
  // "almost 50% reduction in manufacturing cost"
  EXPECT_NEAR(ratio, 0.5, 0.1);
}

TEST(Cost, PackagedGpuIncludesMemoryAndPackage) {
  WaferSpec wafer;
  DefectSpec defects;
  GpuBillOfMaterials bom;  // H100-like defaults
  double total = PackagedGpuCost(wafer, YieldModel::kMurphy, defects, bom);
  double silicon = KnownGoodDieCost(wafer, YieldModel::kMurphy, defects, bom.die_area_mm2);
  EXPECT_GT(total, silicon + bom.hbm_gb * bom.packaging.hbm_usd_per_gb);
}

TEST(Cost, SplitReportConsistent) {
  WaferSpec wafer;
  DefectSpec defects;
  GpuBillOfMaterials bom;
  SplitCostReport r = CompareSplitCost(wafer, YieldModel::kMurphy, defects, bom, 4);
  EXPECT_GT(r.big_gpu_usd, 0.0);
  EXPECT_GT(r.lite_gpu_usd, 0.0);
  EXPECT_NEAR(r.lite_total_usd, 4.0 * r.lite_gpu_usd, 1e-9);
  EXPECT_NEAR(r.cost_ratio, r.lite_total_usd / r.big_gpu_usd, 1e-12);
  EXPECT_GT(r.yield_gain, 1.5);
  EXPECT_LT(r.cost_ratio, 1.0);  // Lite cluster silicon is cheaper in total
  EXPECT_GT(r.lite_dies_per_wafer, 4 * r.big_dies_per_wafer);
}

// --- shoreline ---

TEST(Shoreline, PerimeterOfSquare) {
  EXPECT_DOUBLE_EQ(DiePerimeterMm(100.0), 40.0);
  EXPECT_DOUBLE_EQ(DiePerimeterMm(0.0), 0.0);
}

TEST(Shoreline, PaperClaimQuarteringDoublesShoreline) {
  double one = SplitPerimeterMm(kH100DieMm2, 1);
  double four = SplitPerimeterMm(kH100DieMm2, 4);
  EXPECT_NEAR(four / one, 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(ShorelineGain(4), 2.0);
}

TEST(Shoreline, GainIsSqrtOfSplit) {
  for (int split : {1, 2, 4, 9, 16, 25}) {
    EXPECT_NEAR(ShorelineGain(split), std::sqrt(static_cast<double>(split)), 1e-12);
  }
}

TEST(Shoreline, H100BandwidthFitsItsShoreline) {
  // The real H100 (3.35 TB/s HBM + 450 GB/s NVLink on an 814 mm^2 die) must
  // be feasible under our densities, or the model is miscalibrated.
  ShorelineTech tech;
  EXPECT_TRUE(BandwidthFeasible(814.0, 3352.0 * kGBps, 450.0 * kGBps, tech));
}

TEST(Shoreline, LiteMemBwVariantFitsDoubleMemoryBandwidth) {
  // Lite+MemBW: 1675 GB/s HBM + 112.5 GB/s net on a 203.5 mm^2 die.
  ShorelineTech tech;
  EXPECT_TRUE(BandwidthFeasible(814.0 / 4.0, 1675.0 * kGBps, 112.5 * kGBps, tech));
}

TEST(Shoreline, AbsurdBandwidthInfeasible) {
  ShorelineTech tech;
  EXPECT_FALSE(BandwidthFeasible(100.0, 100e12, 10e12, tech));
}

// --- GpuSpec -> BOM adapter (the fleet-compare pricing path) ---

GpuSpec PricingSpec(const std::string& name, double die_area_mm2, int dies,
                    double mem_gb) {
  GpuSpec gpu;
  gpu.name = name;
  gpu.die_area_mm2 = die_area_mm2;
  gpu.dies_per_package = dies;
  gpu.mem_capacity_bytes = mem_gb * kGB;
  return gpu;
}

TEST(BomFromGpuSpec, CopiesGeometryAndCapacityFromTheSpec) {
  GpuBillOfMaterials bom = BomFromGpuSpec(PricingSpec("big", 814.0, 1, 80.0), 12.0);
  EXPECT_DOUBLE_EQ(bom.die_area_mm2, 814.0);
  EXPECT_EQ(bom.dies_per_package, 1);
  EXPECT_DOUBLE_EQ(bom.hbm_gb, 80.0);
  EXPECT_DOUBLE_EQ(bom.packaging.hbm_usd_per_gb, 12.0);
}

TEST(BomFromGpuSpec, AdvancedPackagingTracksPerDieArea) {
  // The 400 mm^2 per-die threshold, the same convention the cluster
  // designer uses: one big die needs the interposer, a Lite-class split of
  // the same silicon does not, and a dual-die 814 mm^2 package (407 per
  // die) is just over the line.
  EXPECT_TRUE(BomFromGpuSpec(PricingSpec("big", 814.0, 1, 80.0), 12.0).packaging.advanced);
  EXPECT_FALSE(
      BomFromGpuSpec(PricingSpec("lite", 203.5, 1, 20.0), 12.0).packaging.advanced);
  EXPECT_TRUE(
      BomFromGpuSpec(PricingSpec("dual", 814.0, 2, 160.0), 12.0).packaging.advanced);
  EXPECT_FALSE(
      BomFromGpuSpec(PricingSpec("dual-small", 800.0, 2, 160.0), 12.0).packaging.advanced);
}

TEST(PricedGpuUsd, IsPackagedCostTimesMultiplier) {
  // Pinned by hand: the street price is exactly PackagedGpuCost on the
  // spec's BOM times the price multiplier — no hidden extra terms.
  WaferSpec wafer;
  DefectSpec defects;
  GpuSpec gpu = PricingSpec("big", 814.0, 1, 80.0);
  GpuBillOfMaterials bom = BomFromGpuSpec(gpu, 12.0);
  double cost = PackagedGpuCost(wafer, YieldModel::kMurphy, defects, bom);
  ASSERT_GT(cost, 0.0);
  EXPECT_DOUBLE_EQ(PricedGpuUsd(wafer, YieldModel::kMurphy, defects, gpu, 12.0, 8.0),
                   cost * 8.0);
  EXPECT_DOUBLE_EQ(PricedGpuUsd(wafer, YieldModel::kMurphy, defects, gpu, 12.0, 1.0),
                   cost);
}

TEST(PricedGpuUsd, LiteSplitUndercutsTheBigDiePerPackage) {
  // The paper's Section-2 direction, through the fleet pricing path: one
  // quarter-area Lite part (quarter memory, cheap package) costs well under
  // a quarter of the big part.
  WaferSpec wafer;
  DefectSpec defects;
  double big = PricedGpuUsd(wafer, YieldModel::kMurphy, defects,
                            PricingSpec("big", 814.0, 1, 80.0), 12.0, 8.0);
  double lite = PricedGpuUsd(wafer, YieldModel::kMurphy, defects,
                             PricingSpec("lite", 203.5, 1, 20.0), 12.0, 8.0);
  EXPECT_LT(4.0 * lite, big);
}

}  // namespace
}  // namespace litegpu
