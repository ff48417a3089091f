// Summary statistics used by the Monte-Carlo reliability simulator and the
// discrete-event serving simulator (TTFT/TBT percentiles, utilization, ...).

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace litegpu {

// Streaming mean/variance via Welford's algorithm; O(1) memory.
class RunningStat {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Stores all samples; supports exact quantiles. Suitable for the sample
// counts our simulators produce (<= millions).
class SampleSet {
 public:
  void Add(double x);
  void Reserve(size_t n) { samples_.reserve(n); }

  size_t count() const { return samples_.size(); }
  double mean() const;
  double min() const;
  double max() const;
  // Linear-interpolated quantile, q in [0,1]. Returns 0 for empty sets.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double P95() const { return Quantile(0.95); }
  double P99() const { return Quantile(0.99); }

  const std::vector<double>& samples() const { return samples_; }

 private:
  void SortIfNeeded() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

// Streaming fixed-bin latency accumulator: O(bins) memory no matter how
// many samples stream through, unlike SampleSet's O(samples) storage. Bins
// are fixed-width over [0, hi); samples at or above `hi` land in an
// overflow bucket whose quantiles report the tracked exact maximum. Count,
// min, and max are exact; Quantile() interpolates inside the containing
// bin, so it is within one bin width of the exact sample quantile. Used
// for the serving simulator's per-step TBT distribution, whose sample
// count is O(simulated tokens).
//
// The sum accumulates in 128-bit fixed point (units of 2^-44), so it does
// not depend on the order samples arrive in: Add(x, n * r) equals r calls
// of Add(x, n) bit for bit, and a simulator that emits a run of identical
// decode steps in one call matches one that emits them step by step, in
// whatever interleaving with other instances. Each sample is truncated
// toward zero to a multiple of 2^-44 (~5.7e-14) first; magnitudes of 2^19
// and beyond (and non-finite samples) fall back to a plain double sum.
class LatencyHistogram {
 public:
  explicit LatencyHistogram(double hi = 1.0, size_t bins = 16384);

  void Add(double x);
  // Adds `n` identical samples in O(1) — a decode step with k sequences is
  // one weighted add instead of k, and r identical steps one add of k * r.
  void Add(double x, size_t n);

  size_t count() const { return count_; }
  double mean() const { return count_ ? sum() / static_cast<double>(count_) : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const;
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
  __extension__ typedef __int128 FixedSum;
  FixedSum fixed_sum_ = 0;  // in-range samples, units of 2^-44
  double loose_sum_ = 0.0;  // samples of magnitude >= 2^19 or non-finite
  double min_ = 0.0;
  double max_ = 0.0;
};

// Fixed-width histogram over [lo, hi); out-of-range samples clamp to the
// first/last bucket. Used for availability and latency distributions.
class Histogram {
 public:
  Histogram(double lo, double hi, size_t buckets);

  void Add(double x);
  size_t bucket_count() const { return counts_.size(); }
  size_t bucket(size_t i) const { return counts_[i]; }
  double bucket_lo(size_t i) const;
  double bucket_hi(size_t i) const;
  size_t total() const { return total_; }

  // Renders a one-line-per-bucket ASCII bar chart (max `width` chars of bar).
  std::string ToAscii(size_t width = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<size_t> counts_;
  size_t total_ = 0;
};

}  // namespace litegpu
