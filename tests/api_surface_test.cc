// Coverage for the smaller public surfaces not exercised elsewhere:
// string renderers, enum names, and formatting paths that bench binaries
// rely on for stable output.

#include <gtest/gtest.h>

#include "src/hw/catalog.h"
#include "src/hw/lite_derive.h"
#include "src/llm/parallel.h"
#include "src/roofline/engine.h"
#include "src/silicon/yield.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace litegpu {
namespace {

TEST(ApiSurface, EnumToStringNames) {
  EXPECT_EQ(ToString(YieldModel::kMurphy), "murphy");
  EXPECT_EQ(ToString(YieldModel::kNegativeBinomial), "negative-binomial");
  EXPECT_EQ(ToString(Bound::kCompute), "compute");
  EXPECT_EQ(ToString(Bound::kMemory), "memory");
  EXPECT_EQ(ToString(Bound::kNetwork), "network");
  EXPECT_EQ(ToString(Bound::kOverhead), "overhead");
  EXPECT_EQ(ToString(OverlapScope::kNone), "serialized");
  EXPECT_EQ(ToString(OverlapScope::kStage), "stage-overlap");
  EXPECT_EQ(ToString(OverlapScope::kLayer), "layer-overlap");
  EXPECT_EQ(ToString(CollectiveAlgo::kRing), "ring");
  EXPECT_EQ(ToString(CollectiveAlgo::kAuto), "auto");
}

TEST(ApiSurface, TpPlanToStringMentionsPolicyAndDegree) {
  auto plan = MakeTpPlan(Llama3_70B(), 16).value();
  std::string s = plan.ToString();
  EXPECT_NE(s.find("tp16"), std::string::npos);
  EXPECT_NE(s.find("rep=2"), std::string::npos);
  EXPECT_NE(s.find("replicate"), std::string::npos);
}

TEST(ApiSurface, LiteDeriveToStringMentionsFeasibility) {
  LiteDeriveOptions options;
  std::string s = DeriveLite(H100(), options).ToString();
  EXPECT_NE(s.find("feasible"), std::string::npos);
  EXPECT_NE(s.find("TFLOPS"), std::string::npos);
}

TEST(ApiSurface, TableFirstColumnLeftRestRight) {
  Table t({"col", "val"});
  t.AddRow({"x", "1"});
  t.AddRow({"wider", "12345"});
  std::string text = t.ToText();
  // The label column pads on the right, value columns on the left.
  EXPECT_NE(text.find("| x     |     1 |"), std::string::npos);
}

TEST(ApiSurface, TableSeparatorRendersRule) {
  Table t({"a"});
  t.AddRow({"1"});
  t.AddSeparator();
  t.AddRow({"2"});
  std::string text = t.ToText();
  // header rule + top + separator + bottom = 4 rules.
  size_t rules = 0;
  for (size_t pos = text.find("+-"); pos != std::string::npos;
       pos = text.find("+-", pos + 1)) {
    ++rules;
  }
  EXPECT_GE(rules, 4u);
}

TEST(ApiSurface, SampleSetSampleAccess) {
  SampleSet set;
  set.Reserve(4);
  set.Add(3.0);
  set.Add(1.0);
  EXPECT_EQ(set.count(), 2u);
  EXPECT_DOUBLE_EQ(set.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(set.Quantile(1.0), 3.0);
}

TEST(ApiSurface, GpuSpecRatiosOnDegenerateInputs) {
  GpuSpec g;
  EXPECT_DOUBLE_EQ(g.FlopsPerSm(), 0.0);
  EXPECT_DOUBLE_EQ(g.MemBwPerFlop(), 0.0);
  EXPECT_DOUBLE_EQ(g.NetBwPerFlop(), 0.0);
  EXPECT_DOUBLE_EQ(g.PowerDensityWPerMm2(), 0.0);
}

}  // namespace
}  // namespace litegpu
