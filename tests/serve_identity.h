// Exact identity between two ServeMetrics: the production core against the
// reference core (simulator_reference.h) on the same input. The serve, fault
// and stream suites hold the cores to FirstServeMetricsDifference, the same
// definition of "bit-identical" bench_serve_scale gates on; a failure names
// the first differing field.

#pragma once

#include <gtest/gtest.h>

#include "src/serve/simulator_reference.h"

namespace litegpu {

inline void ExpectBitIdentical(const ServeMetrics& a, const ServeMetrics& b) {
  EXPECT_EQ(FirstServeMetricsDifference(a, b), "");
}

}  // namespace litegpu
