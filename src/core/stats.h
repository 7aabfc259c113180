// Streaming statistics used across the experiment harnesses: Welford
// mean/variance, min/max and exact percentiles over retained samples
// (experiment scales are small enough to retain). Fixed-bin histograms
// live in the obs registry (obs::Histogram).
#pragma once

#include <cstdint>
#include <vector>

namespace agrarsec::core {

/// Welford online accumulator.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  ///< sample variance (n-1)
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  /// Merges another accumulator (Chan's parallel formula).
  void merge(const RunningStats& other);

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Sample-retaining collector with exact percentiles.
class SampleSet {
 public:
  void add(double x);
  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  /// Exact percentile by linear interpolation; q in [0,1]. Throws on empty.
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double median() const { return percentile(0.5); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  void ensure_sorted() const;
};

}  // namespace agrarsec::core
