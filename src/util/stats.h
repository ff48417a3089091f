// Summary statistics used by the Monte-Carlo reliability simulator and the
// discrete-event serving simulator (TTFT/TBT percentiles, utilization, ...).

#pragma once

#include <cstddef>
#include <vector>

namespace litegpu {

// Stores all samples; supports exact quantiles. Suitable for the sample
// counts our simulators produce (<= millions). Each Quantile call selects
// its two order statistics in O(n) and may reorder the stored samples, so
// the order of samples() is unspecified once a quantile has been read.
class SampleSet {
 public:
  void Add(double x);
  void Reserve(size_t n) { samples_.reserve(n); }

  size_t count() const { return samples_.size(); }
  // Linear-interpolated quantile, q in [0,1]. Returns 0 for empty sets.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double P95() const { return Quantile(0.95); }
  double P99() const { return Quantile(0.99); }

  const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
};

// Streaming fixed-bin latency accumulator: O(bins) memory no matter how
// many samples stream through, unlike SampleSet's O(samples) storage. Bins
// are fixed-width over [0, hi); samples at or above `hi` land in an
// overflow bucket whose quantiles report the tracked exact maximum. Count,
// min, and max are exact; Quantile() interpolates inside the containing
// bin, so it is within one bin width of the exact sample quantile. Used
// for the serving simulator's per-step TBT distribution, whose sample
// count is O(simulated tokens).
class LatencyHistogram {
 public:
  explicit LatencyHistogram(double hi = 1.0, size_t bins = 16384);

  void Add(double x);
  // Adds `n` identical samples in O(1) — a decode step with k sequences is
  // one weighted add instead of k, and r identical steps one add of k * r.
  void Add(double x, size_t n);

  size_t count() const { return count_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  // The quantile error bound: width of one bin.
  double bin_width() const { return hi_ / static_cast<double>(counts_.size()); }

  // Within bin_width() of the exact sample quantile (SampleSet::Quantile's
  // interpolated-rank convention), q in [0,1]; clamped to the exact
  // [min, max]. Returns 0 for empty histograms.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double P95() const { return Quantile(0.95); }
  double P99() const { return Quantile(0.99); }

  // Number of samples at or below `x`, estimated by linear interpolation
  // inside the containing bin (exact at bin boundaries). Used for streamed
  // SLO-attainment checks where the exact sample list is not kept.
  double CountAtOrBelow(double x) const;

  // Folds `other` into this histogram bin-wise. Both must have identical
  // [0, hi) range and bin count — the shard merge path constructs every
  // shard's histogram from the same full-horizon config, so mismatches are
  // programming errors and trip an assert.
  void Merge(const LatencyHistogram& other);

 private:
  // The 0-based order statistic at `rank`, located to within one bin width
  // (overflow ranks report the exact maximum).
  double ValueAtRank(size_t rank) const;

  double hi_ = 1.0;
  std::vector<size_t> counts_;
  size_t overflow_ = 0;  // samples >= hi_
  size_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace litegpu
