#include "src/util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <string>

namespace litegpu {

void RunningStat::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

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

double SampleSet::mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  double s = 0.0;
  for (double x : samples_) {
    s += x;
  }
  return s / static_cast<double>(samples_.size());
}

double SampleSet::min() const {
  if (samples_.empty()) {
    return 0.0;
  }
  SortIfNeeded();
  return samples_.front();
}

double SampleSet::max() const {
  if (samples_.empty()) {
    return 0.0;
  }
  SortIfNeeded();
  return samples_.back();
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

namespace {
constexpr double kFixedSumScale = 0x1p44;  // fixed-point sum units per 1.0
constexpr double kFixedSumLimit = 0x1p19;  // larger samples sum loosely
}  // namespace

LatencyHistogram::LatencyHistogram(double hi, size_t bins)
    : hi_(hi > 0.0 ? hi : 1.0), counts_(bins == 0 ? 1 : bins, 0) {}

double LatencyHistogram::sum() const {
  return static_cast<double>(fixed_sum_) / kFixedSumScale + loose_sum_;
}

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
  if (std::fabs(x) < kFixedSumLimit) {
    fixed_sum_ += static_cast<FixedSum>(static_cast<int64_t>(x * kFixedSumScale)) *
                  static_cast<FixedSum>(n);
  } else {
    loose_sum_ += x * static_cast<double>(n);
  }
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
  fixed_sum_ += other.fixed_sum_;
  loose_sum_ += other.loose_sum_;
}

Histogram::Histogram(double lo, double hi, size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets == 0 ? 1 : buckets, 0) {}

void Histogram::Add(double x) {
  double span = hi_ - lo_;
  size_t n = counts_.size();
  size_t index;
  if (span <= 0.0 || x < lo_) {
    index = 0;
  } else if (x >= hi_) {
    index = n - 1;
  } else {
    index = static_cast<size_t>((x - lo_) / span * static_cast<double>(n));
    index = std::min(index, n - 1);
  }
  ++counts_[index];
  ++total_;
}

double Histogram::bucket_lo(size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(counts_.size());
}

double Histogram::bucket_hi(size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i + 1) / static_cast<double>(counts_.size());
}

std::string Histogram::ToAscii(size_t width) const {
  size_t max_count = 0;
  for (size_t c : counts_) {
    max_count = std::max(max_count, c);
  }
  std::string out;
  char line[128];
  for (size_t i = 0; i < counts_.size(); ++i) {
    size_t bar = max_count ? counts_[i] * width / max_count : 0;
    std::snprintf(line, sizeof(line), "[%10.4g, %10.4g) %8zu ", bucket_lo(i), bucket_hi(i),
                  counts_[i]);
    out += line;
    out.append(bar, '#');
    out += "\n";
  }
  return out;
}

}  // namespace litegpu
