#include "src/util/stats.h"

#include <algorithm>
#include <cassert>

namespace litegpu {

void SampleSet::Add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void SampleSet::SortIfNeeded() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::Quantile(double q) const {
  if (samples_.empty()) {
    return 0.0;
  }
  SortIfNeeded();
  q = std::clamp(q, 0.0, 1.0);
  double pos = q * static_cast<double>(samples_.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, samples_.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

LatencyHistogram::LatencyHistogram(double hi, size_t bins)
    : hi_(hi > 0.0 ? hi : 1.0), counts_(bins == 0 ? 1 : bins, 0) {}

void LatencyHistogram::Add(double x) { Add(x, 1); }

void LatencyHistogram::Add(double x, size_t n) {
  if (n == 0) {
    return;
  }
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  count_ += n;
  if (x >= hi_) {
    overflow_ += n;
    return;
  }
  double clamped = std::max(x, 0.0);
  size_t index = static_cast<size_t>(clamped / hi_ * static_cast<double>(counts_.size()));
  counts_[std::min(index, counts_.size() - 1)] += n;
}

double LatencyHistogram::ValueAtRank(size_t rank) const {
  // Ranks among the overflow samples (>= hi_) report the exact maximum.
  if (rank >= count_ - overflow_) {
    return max_;
  }
  size_t before = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    size_t c = counts_[i];
    if (c == 0) {
      continue;
    }
    if (before + c > rank) {
      // The order statistic lies somewhere in [bin_lo, bin_hi); place it
      // proportionally among the bin's occupants. Any point of the bin is
      // within one bin width of the true value.
      double frac = static_cast<double>(rank - before) / static_cast<double>(c);
      return (static_cast<double>(i) + frac) * bin_width();
    }
    before += c;
  }
  return max_;  // unreachable: the binned counts cover every non-overflow rank
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  // Same convention as SampleSet: fractional rank over count samples,
  // linear interpolation between the two straddling order statistics. Each
  // order statistic is located within one bin width, so the interpolated
  // quantile is too — even when the two ranks land in distant bins (a
  // bimodal distribution with the quantile in the gap).
  double target = q * static_cast<double>(count_ - 1);
  size_t lo = static_cast<size_t>(target);
  size_t hi = std::min(lo + 1, count_ - 1);
  double frac = target - static_cast<double>(lo);
  double value = ValueAtRank(lo) * (1.0 - frac) + ValueAtRank(hi) * frac;
  return std::clamp(value, min_, max_);
}

double LatencyHistogram::CountAtOrBelow(double x) const {
  if (count_ == 0 || x < min_) {
    return 0.0;
  }
  if (x >= max_) {
    return static_cast<double>(count_);
  }
  if (x >= hi_) {
    // Between hi_ and max_: all binned samples plus an unknown share of the
    // overflow bucket. Attribute the overflow linearly over [hi_, max_].
    double span = max_ - hi_;
    double frac = span > 0.0 ? (x - hi_) / span : 1.0;
    return static_cast<double>(count_ - overflow_) +
           frac * static_cast<double>(overflow_);
  }
  double w = bin_width();
  size_t index = std::min(static_cast<size_t>(std::max(x, 0.0) / w), counts_.size() - 1);
  double below = 0.0;
  for (size_t i = 0; i < index; ++i) {
    below += static_cast<double>(counts_[i]);
  }
  double frac = (x - static_cast<double>(index) * w) / w;
  below += frac * static_cast<double>(counts_[index]);
  return std::min(below, static_cast<double>(count_));
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  assert(hi_ == other.hi_ && counts_.size() == other.counts_.size());
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  for (size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  overflow_ += other.overflow_;
  count_ += other.count_;
}

}  // namespace litegpu
