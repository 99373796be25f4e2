#pragma once
/// \file stats.hpp
/// \brief Streaming statistics and fixed-bin histograms.
///
/// Used by the Fig. 3 reproduction (probability distribution of SNR /
/// power loss over large random-mapping samples) and by the benchmark
/// summaries.

#include <cstddef>
#include <string>
#include <vector>

namespace phonoc {

/// Single-pass accumulator for mean / variance / extrema (Welford).
class RunningStats {
 public:
  void add(double value) noexcept;
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

  /// Raw Welford sum of squared deviations (the m2 accumulator).
  /// Exposed so the accumulator state can cross a process boundary and
  /// merge bit-exactly on the other side (exec/serialize round-trips
  /// it with format_double).
  [[nodiscard]] double sum_squared_deviations() const noexcept { return m2_; }

  /// Rebuild an accumulator from its serialized state. The inverse of
  /// reading {count, mean, sum_squared_deviations, min, max}: with
  /// bit-exact doubles the restored accumulator merges identically to
  /// the original.
  [[nodiscard]] static RunningStats from_parts(std::size_t n, double mean,
                                               double m2, double min,
                                               double max) noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-range, uniform-bin histogram with under/overflow bins.
class Histogram {
 public:
  /// Bins span [lo, hi) uniformly; values outside land in the
  /// underflow/overflow counters. `bins` must be >= 1 and hi > lo.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double value) noexcept;

  /// Fold another histogram into this one. Requires an identical
  /// binning — bit-equal lo/hi and the same bin count — so shards of
  /// one sampling experiment merge exactly; anything else throws
  /// InvalidArgument (merging across binnings would silently smear
  /// probability mass).
  void merge(const Histogram& other);

  /// Rebuild a histogram from its serialized state (counts plus the
  /// under/overflow counters); `total()` is recomputed as their sum.
  [[nodiscard]] static Histogram from_parts(double lo, double hi,
                                            std::vector<std::size_t> counts,
                                            std::size_t underflow,
                                            std::size_t overflow);

  [[nodiscard]] double lo() const noexcept { return lo_; }
  [[nodiscard]] double hi() const noexcept { return hi_; }
  [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
  [[nodiscard]] double bin_low(std::size_t i) const noexcept;
  [[nodiscard]] double bin_high(std::size_t i) const noexcept;
  [[nodiscard]] std::size_t count(std::size_t i) const noexcept { return counts_[i]; }
  [[nodiscard]] std::size_t underflow() const noexcept { return underflow_; }
  [[nodiscard]] std::size_t overflow() const noexcept { return overflow_; }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }

  /// Probability mass of bin i (count / total samples), 0 when empty.
  [[nodiscard]] double probability(std::size_t i) const noexcept;

  /// Approximate quantile from the binned counts (linear interpolation
  /// inside the bin where the cumulative mass crosses `q`). Mass in the
  /// underflow bin resolves to lo(), overflow to hi() — the histogram
  /// cannot know those values. Empty histogram returns 0. This is what
  /// lets sampling runs report quartiles without keeping the raw
  /// sample vectors around.
  [[nodiscard]] double quantile(double q) const noexcept;

  /// Render a compact fixed-width ASCII chart (one row per bin), used by
  /// the Fig. 3 harness for terminal inspection.
  [[nodiscard]] std::string ascii_chart(std::size_t width = 50) const;

 private:
  double lo_;
  double hi_;
  double bin_width_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
};

/// Quantile of an unsorted sample (copies and sorts; linear interpolation).
/// `q` in [0,1]; empty input returns 0.
[[nodiscard]] double quantile(std::vector<double> values, double q);

}  // namespace phonoc
