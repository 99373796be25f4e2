#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.hpp"

namespace phonoc {

void RunningStats::add(double value) noexcept {
  if (n_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++n_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (value - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n = static_cast<double>(n_);
  const auto m = static_cast<double>(other.n_);
  mean_ += delta * m / (n + m);
  m2_ += other.m2_ + delta * delta * n * m / (n + m);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

RunningStats RunningStats::from_parts(std::size_t n, double mean, double m2,
                                      double min, double max) noexcept {
  RunningStats stats;
  stats.n_ = n;
  stats.mean_ = mean;
  stats.m2_ = m2;
  stats.min_ = min;
  stats.max_ = max;
  return stats;
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), bin_width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  require(bins >= 1, "Histogram requires at least one bin");
  require(hi > lo, "Histogram range must be non-empty");
}

void Histogram::add(double value) noexcept {
  ++total_;
  if (value < lo_) {
    ++underflow_;
    return;
  }
  if (value >= hi_) {
    ++overflow_;
    return;
  }
  auto idx = static_cast<std::size_t>((value - lo_) / bin_width_);
  if (idx >= counts_.size()) idx = counts_.size() - 1;  // fp edge guard
  ++counts_[idx];
}

void Histogram::merge(const Histogram& other) {
  require(lo_ == other.lo_ && hi_ == other.hi_,
          "Histogram::merge: range mismatch");
  require(counts_.size() == other.counts_.size(),
          "Histogram::merge: bin count mismatch");
  for (std::size_t i = 0; i < counts_.size(); ++i)
    counts_[i] += other.counts_[i];
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  total_ += other.total_;
}

Histogram Histogram::from_parts(double lo, double hi,
                                std::vector<std::size_t> counts,
                                std::size_t underflow, std::size_t overflow) {
  Histogram hist(lo, hi, counts.empty() ? 1 : counts.size());
  require(!counts.empty(), "Histogram::from_parts requires at least one bin");
  hist.counts_ = std::move(counts);
  hist.underflow_ = underflow;
  hist.overflow_ = overflow;
  hist.total_ = underflow + overflow;
  for (const auto c : hist.counts_) hist.total_ += c;
  return hist;
}

double Histogram::bin_low(std::size_t i) const noexcept {
  return lo_ + bin_width_ * static_cast<double>(i);
}

double Histogram::bin_high(std::size_t i) const noexcept {
  return bin_low(i) + bin_width_;
}

double Histogram::probability(std::size_t i) const noexcept {
  return total_ ? static_cast<double>(counts_[i]) / static_cast<double>(total_)
                : 0.0;
}

double Histogram::quantile(double q) const noexcept {
  if (total_ == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(total_);
  double acc = static_cast<double>(underflow_);
  if (target <= acc) return lo_;  // mass below range: its values are unknown
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto count = static_cast<double>(counts_[i]);
    if (count > 0.0 && target <= acc + count)
      return bin_low(i) + bin_width_ * ((target - acc) / count);
    acc += count;
  }
  return hi_;  // mass at or above hi
}

std::string Histogram::ascii_chart(std::size_t width) const {
  std::size_t peak = 1;
  for (const auto c : counts_) peak = std::max(peak, c);
  std::ostringstream out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto bar = counts_[i] * width / peak;
    out << '[';
    out.precision(3);
    out << std::fixed << bin_low(i) << ", " << bin_high(i) << ") ";
    out << std::string(bar, '#') << ' ' << counts_[i] << '\n';
  }
  return out.str();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (q <= 0.0) return values.front();
  if (q >= 1.0) return values.back();
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lower);
  if (lower + 1 >= values.size()) return values.back();
  return values[lower] * (1.0 - frac) + values[lower + 1] * frac;
}

}  // namespace phonoc
