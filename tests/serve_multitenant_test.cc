// Multi-tenant serving studies end-to-end through the Runner: per-class
// report blocks, determinism, single-class compatibility, and the
// all-classes knee rule.

#include <gtest/gtest.h>

#include "src/core/runner.h"
#include "src/core/scenario.h"
#include "src/util/json.h"

namespace litegpu {
namespace {

Scenario ServeScenario(const ServeKnobs& knobs, int threads = 0) {
  Scenario s;
  s.study = StudyKind::kServe;
  s.serve = knobs;
  s.exec.threads = threads;
  return s;
}

Scenario SweepScenario(const ServeSweepKnobs& knobs, int threads = 0) {
  Scenario s;
  s.study = StudyKind::kServeSweep;
  s.sweep = knobs;
  s.exec.threads = threads;
  return s;
}

std::vector<RequestClass> ChatAndBatchMix() {
  RequestClass chat;
  chat.name = "chat";
  chat.weight = 0.7;
  RequestClass batch;
  batch.name = "batch";
  batch.weight = 0.3;
  batch.prompt_tokens = 4000;
  batch.output_tokens = 800;
  batch.ttft_slo_s = 8.0;
  batch.tbt_slo_s = 0.2;
  return {chat, batch};
}

Scenario MultitenantServe(double load = 0.6, double horizon_s = 20.0) {
  ServeKnobs knobs;
  knobs.load = load;
  knobs.horizon_s = horizon_s;
  knobs.classes = ChatAndBatchMix();
  return ServeScenario(knobs);
}

TEST(MultitenantServe, ReportsPerClassLatencyGoodputAndAttainment) {
  RunReport report = Runner().Run(MultitenantServe());
  ASSERT_TRUE(report.ok) << report.error;
  const auto& serve = std::get<ServeStudyReport>(report.payload);
  ASSERT_EQ(serve.classes.size(), 2u);
  EXPECT_EQ(serve.classes[0].name, "chat");
  EXPECT_EQ(serve.classes[1].name, "batch");
  EXPECT_DOUBLE_EQ(serve.classes[0].share + serve.classes[1].share, 1.0);

  int admitted = 0, completed = 0;
  for (const auto& cls : serve.classes) {
    admitted += cls.admitted_requests;
    completed += cls.completed_requests;
    EXPECT_GT(cls.completed_requests, 0) << cls.name;
    EXPECT_GT(cls.ttft_p99_s, 0.0) << cls.name;
    EXPECT_GE(cls.ttft_p99_s, cls.ttft_p50_s) << cls.name;
    EXPECT_GT(cls.tbt_p99_s, 0.0) << cls.name;
    EXPECT_GT(cls.goodput_tokens_per_s, 0.0) << cls.name;
    EXPECT_GE(cls.ttft_attainment, 0.0) << cls.name;
    EXPECT_LE(cls.ttft_attainment, 1.0) << cls.name;
  }
  EXPECT_EQ(admitted, serve.admitted_requests);
  EXPECT_EQ(completed, serve.completed_requests);
  // The chat class inherits the workload SLOs; batch declared its own.
  EXPECT_DOUBLE_EQ(serve.classes[0].ttft_slo_s, 1.0);
  EXPECT_DOUBLE_EQ(serve.classes[0].tbt_slo_s, 0.050);
  EXPECT_DOUBLE_EQ(serve.classes[1].ttft_slo_s, 8.0);
  EXPECT_DOUBLE_EQ(serve.classes[1].tbt_slo_s, 0.2);
  // The batch class's longer outputs dominate its goodput share.
  EXPECT_GT(serve.classes[1].goodput_tokens_per_s,
            serve.classes[0].goodput_tokens_per_s * 0.5);

  // Both renderings carry the per-class blocks.
  std::string text = report.ToText();
  EXPECT_NE(text.find("per-class"), std::string::npos);
  EXPECT_NE(text.find("batch"), std::string::npos);
  Json j = report.ToJson();
  const Json* rep = j.Find("report");
  ASSERT_NE(rep, nullptr);
  const Json* classes = rep->Find("classes");
  ASSERT_NE(classes, nullptr);
  EXPECT_EQ(classes->size(), 2u);
}

TEST(MultitenantServe, DeterministicAcrossRepeatedRuns) {
  RunReport a = Runner().Run(MultitenantServe());
  RunReport b = Runner().Run(MultitenantServe());
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.ToJson().Dump(), b.ToJson().Dump());
}

TEST(MultitenantServe, SingleClassReportCarriesNoClassBlocks) {
  // Classless scenarios must not grow classes keys anywhere in the report —
  // the pre-class JSON schema is preserved byte-for-byte.
  ServeKnobs knobs;
  knobs.load = 0.6;
  knobs.horizon_s = 10.0;
  Scenario s = ServeScenario(knobs);
  RunReport report = Runner().Run(s);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_TRUE(std::get<ServeStudyReport>(report.payload).classes.empty());
  EXPECT_EQ(report.ToJson().Dump().find("classes"), std::string::npos);
}

TEST(MultitenantSweep, BitIdenticalAtAnyThreadCount) {
  ServeSweepKnobs knobs;
  knobs.loads = {0.3, 0.6, 0.9};
  knobs.horizon_s = 8.0;
  knobs.classes = ChatAndBatchMix();
  Scenario serial = SweepScenario(knobs, 1);
  Scenario parallel = serial;
  parallel.exec.threads = 0;  // hardware concurrency
  RunReport a = Runner().Run(serial);
  RunReport b = Runner().Run(parallel);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.ToJson().Dump(), b.ToJson().Dump());
  const auto& sweep = std::get<ServeSweepReport>(a.payload);
  ASSERT_EQ(sweep.points.size(), 3u);
  for (const auto& point : sweep.points) {
    EXPECT_EQ(point.classes.size(), 2u);
  }
}

TEST(MultitenantSweep, KneeRequiresEveryClassToMeetItsSlos) {
  // A lenient-only mix finds a knee; adding a class with an impossible TBT
  // SLO must drag the knee to "none" — the knee is the highest load where
  // EVERY class meets its SLOs, not where the aggregate does.
  ServeSweepKnobs lenient;
  lenient.loads = {0.3, 0.6};
  lenient.horizon_s = 8.0;
  RequestClass chat;
  chat.name = "chat";
  lenient.classes = {chat};
  Scenario ok_scenario = SweepScenario(lenient, 1);
  RunReport ok_report = Runner().Run(ok_scenario);
  ASSERT_TRUE(ok_report.ok) << ok_report.error;
  const auto& ok_sweep = std::get<ServeSweepReport>(ok_report.payload);
  ASSERT_GE(ok_sweep.knee_index, 0);

  ServeSweepKnobs strict = lenient;
  RequestClass impossible;
  impossible.name = "impossible";
  impossible.weight = 0.2;
  impossible.tbt_slo_s = 1e-4;  // no decode step is this fast
  strict.classes.push_back(impossible);
  Scenario strict_scenario = SweepScenario(strict, 1);
  RunReport strict_report = Runner().Run(strict_scenario);
  ASSERT_TRUE(strict_report.ok) << strict_report.error;
  const auto& strict_sweep = std::get<ServeSweepReport>(strict_report.payload);
  EXPECT_EQ(strict_sweep.knee_index, -1);
  for (const auto& point : strict_sweep.points) {
    EXPECT_FALSE(point.slo_ok);
    ASSERT_EQ(point.classes.size(), 2u);
    EXPECT_FALSE(point.classes[1].slo_ok);
  }
}

TEST(MultitenantServe, AddingAClassLeavesExistingClassWorkloadUnchanged) {
  // Substream independence surfaces at the report level too: class "chat"
  // admits exactly the same requests whether or not "batch" rides along,
  // because its Poisson substream and its slice of the offered rate are
  // fixed by (seed, index, rate). Pin the arrival rate and pool shape so
  // adding the class changes neither.
  ServeKnobs solo;
  solo.arrival_rate_per_s = 30.0;
  solo.horizon_s = 10.0;
  solo.prefill_instances = 4;
  solo.decode_instances = 1;
  RequestClass chat;
  chat.name = "chat";
  chat.weight = 0.5;
  solo.classes = {chat};

  ServeKnobs mixed = solo;
  RequestClass batch;
  batch.name = "batch";
  batch.weight = 0.5;
  batch.output_tokens = 512;
  batch.ttft_slo_s = 10.0;
  batch.tbt_slo_s = 1.0;
  mixed.classes.push_back(batch);
  // Same per-class rate: solo carries chat at half the doubled rate.
  mixed.arrival_rate_per_s = 60.0;
  solo.classes[0].weight = 1.0;
  solo.arrival_rate_per_s = 30.0;

  RunReport a = Runner().Run(ServeScenario(solo));
  RunReport b = Runner().Run(ServeScenario(mixed));
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  const auto& chat_solo = std::get<ServeStudyReport>(a.payload).classes[0];
  const auto& chat_mixed = std::get<ServeStudyReport>(b.payload).classes[0];
  // The same arrivals were admitted (latency shifts — the pools are now
  // shared with batch — but the class's own workload is untouched).
  EXPECT_EQ(chat_solo.admitted_requests, chat_mixed.admitted_requests);
  EXPECT_DOUBLE_EQ(chat_solo.arrival_rate_per_s, chat_mixed.arrival_rate_per_s);
}

}  // namespace
}  // namespace litegpu
