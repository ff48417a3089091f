// Exact identity between two ServeMetrics: the production core against the
// reference core (simulator_reference.h) on the same input. Shared by the
// serve and fault test suites so both hold the cores to one definition of
// "bit-identical".
//
// Beyond the reported metrics and ratios it compares the raw accumulators
// that decode macro-steps regroup — busy time and batch-time product
// (charged step by step), token totals, degraded accounting, and every TBT
// histogram's count, min, max and quantiles — so a regrouping that only
// happens to round to the same ratio still fails.

#pragma once

#include <gtest/gtest.h>

#include "src/serve/simulator.h"

namespace litegpu {

inline void ExpectHistogramsIdentical(const LatencyHistogram& a, const LatencyHistogram& b,
                                      const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(a.Quantile(q), b.Quantile(q)) << what << " q=" << q;
  }
}

inline void ExpectBitIdentical(const ServeMetrics& a, const ServeMetrics& b) {
  EXPECT_EQ(a.admitted_requests, b.admitted_requests);
  EXPECT_EQ(a.completed_requests, b.completed_requests);
  EXPECT_EQ(a.in_flight_at_horizon, b.in_flight_at_horizon);
  EXPECT_EQ(a.output_tokens, b.output_tokens);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.decode_tokens_per_s, b.decode_tokens_per_s);
  EXPECT_EQ(a.prefill_utilization, b.prefill_utilization);
  EXPECT_EQ(a.decode_utilization, b.decode_utilization);
  EXPECT_EQ(a.mean_decode_batch, b.mean_decode_batch);
  EXPECT_EQ(a.prefill_busy_s, b.prefill_busy_s);
  EXPECT_EQ(a.decode_busy_s, b.decode_busy_s);
  EXPECT_EQ(a.decode_batch_time_product, b.decode_batch_time_product);
  ASSERT_EQ(a.ttft_s.count(), b.ttft_s.count());
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(a.ttft_s.Quantile(q), b.ttft_s.Quantile(q)) << q;
  }
  ExpectHistogramsIdentical(a.tbt_s, b.tbt_s, "tbt_s");
  ASSERT_EQ(a.per_class.size(), b.per_class.size());
  for (size_t c = 0; c < a.per_class.size(); ++c) {
    EXPECT_EQ(a.per_class[c].completed_requests, b.per_class[c].completed_requests);
    EXPECT_EQ(a.per_class[c].output_tokens, b.per_class[c].output_tokens);
    EXPECT_EQ(a.per_class[c].ttft_s.Quantile(0.95), b.per_class[c].ttft_s.Quantile(0.95));
    ExpectHistogramsIdentical(a.per_class[c].tbt_s, b.per_class[c].tbt_s, "class tbt_s");
  }
  EXPECT_EQ(a.prefill_instance_seconds, b.prefill_instance_seconds);
  EXPECT_EQ(a.decode_instance_seconds, b.decode_instance_seconds);
  EXPECT_EQ(a.peak_prefill_instances, b.peak_prefill_instances);
  EXPECT_EQ(a.peak_decode_instances, b.peak_decode_instances);
  EXPECT_EQ(a.final_prefill_instances, b.final_prefill_instances);
  EXPECT_EQ(a.final_decode_instances, b.final_decode_instances);
  ASSERT_EQ(a.scale_events.size(), b.scale_events.size());
  for (size_t i = 0; i < a.scale_events.size(); ++i) {
    EXPECT_EQ(a.scale_events[i].time_s, b.scale_events[i].time_s) << i;
    EXPECT_EQ(a.scale_events[i].pool, b.scale_events[i].pool) << i;
    EXPECT_EQ(a.scale_events[i].delta, b.scale_events[i].delta) << i;
    EXPECT_EQ(a.scale_events[i].instances_after, b.scale_events[i].instances_after) << i;
    EXPECT_EQ(a.scale_events[i].reason, b.scale_events[i].reason) << i;
  }

  // Fault, degrade and shed outcome (all zero/empty on runs without them).
  EXPECT_EQ(a.retried_requests, b.retried_requests);
  EXPECT_EQ(a.dropped_requests, b.dropped_requests);
  EXPECT_EQ(a.lost_tokens, b.lost_tokens);
  EXPECT_EQ(a.prefill_fault_downtime_s, b.prefill_fault_downtime_s);
  EXPECT_EQ(a.decode_fault_downtime_s, b.decode_fault_downtime_s);
  EXPECT_EQ(a.prefill_degraded_instance_s, b.prefill_degraded_instance_s);
  EXPECT_EQ(a.decode_degraded_instance_s, b.decode_degraded_instance_s);
  EXPECT_EQ(a.degrade_windows, b.degrade_windows);
  EXPECT_EQ(a.degraded_output_tokens, b.degraded_output_tokens);
  EXPECT_EQ(a.largest_outage_time_s, b.largest_outage_time_s);
  EXPECT_EQ(a.largest_outage_lost_tokens, b.largest_outage_lost_tokens);
  EXPECT_EQ(a.time_to_drain_s, b.time_to_drain_s);
  EXPECT_EQ(a.shed_requests, b.shed_requests);
  ASSERT_EQ(a.fault_events.size(), b.fault_events.size());
  for (size_t i = 0; i < a.fault_events.size(); ++i) {
    const FaultEvent& x = a.fault_events[i];
    const FaultEvent& y = b.fault_events[i];
    EXPECT_EQ(x.time_s, y.time_s) << i;
    EXPECT_EQ(x.kind, y.kind) << i;
    EXPECT_EQ(x.pool, y.pool) << i;
    EXPECT_EQ(x.instance, y.instance) << i;
    EXPECT_EQ(x.domain, y.domain) << i;
    EXPECT_EQ(x.killed_requests, y.killed_requests) << i;
    EXPECT_EQ(x.lost_tokens, y.lost_tokens) << i;
    EXPECT_EQ(x.spares_free, y.spares_free) << i;
  }
  ASSERT_EQ(a.shed_events.size(), b.shed_events.size());
  for (size_t i = 0; i < a.shed_events.size(); ++i) {
    EXPECT_EQ(a.shed_events[i].time_s, b.shed_events[i].time_s) << i;
    EXPECT_EQ(a.shed_events[i].request, b.shed_events[i].request) << i;
    EXPECT_EQ(a.shed_events[i].reason, b.shed_events[i].reason) << i;
  }
}

}  // namespace litegpu
