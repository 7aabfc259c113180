#include "core/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace agrarsec::core {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n = static_cast<double>(n_), m = static_cast<double>(other.n_);
  m2_ += other.m2_ + delta * delta * n * m / (n + m);
  mean_ = (n * mean_ + m * other.mean_) / (n + m);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
  n_ += other.n_;
}

void SampleSet::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void SampleSet::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::percentile(double q) const {
  if (samples_.empty()) throw std::logic_error("SampleSet::percentile on empty set");
  ensure_sorted();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double SampleSet::min() const {
  if (samples_.empty()) throw std::logic_error("SampleSet::min on empty set");
  ensure_sorted();
  return samples_.front();
}

double SampleSet::max() const {
  if (samples_.empty()) throw std::logic_error("SampleSet::max on empty set");
  ensure_sorted();
  return samples_.back();
}

}  // namespace agrarsec::core
