#pragma once

/// \file stats.hpp
/// Statistics helpers for experiment aggregation: online accumulators,
/// Student-t 95% confidence intervals (the paper draws "I"-shaped CI bars
/// from 30 runs), histograms, and small series containers used by the
/// figure-reproduction campaigns.

#include <cstddef>
#include <string>
#include <vector>

namespace alert::util {

/// Welford online mean/variance accumulator.
class Accumulator {
 public:
  /// The complete internal state, exposed so accumulators can be serialized
  /// exactly (the campaign result cache must replay a cached replication
  /// bit-for-bit; mean/stddev alone cannot reconstruct m2).
  struct State {
    std::size_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  Accumulator() = default;
  [[nodiscard]] static Accumulator from_state(const State& s);
  [[nodiscard]] State state() const { return {n_, mean_, m2_, min_, max_}; }

  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  ///< unbiased sample variance
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double sum() const { return mean_ * static_cast<double>(n_); }

  /// Half-width of the two-sided 95% Student-t confidence interval of the
  /// mean. Zero for fewer than two samples.
  [[nodiscard]] double ci95_halfwidth() const;

  void merge(const Accumulator& o);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// 97.5th percentile of Student's t distribution with `dof` degrees of
/// freedom (exact table through 30, asymptotic 1.96 beyond).
[[nodiscard]] double student_t_975(std::size_t dof);

/// Fixed-width histogram over [lo, hi); samples outside are clamped into the
/// edge bins.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  [[nodiscard]] std::size_t bin_count(std::size_t i) const { return bins_.at(i); }
  [[nodiscard]] std::size_t bins() const { return bins_.size(); }
  [[nodiscard]] std::size_t total() const { return total_; }
  [[nodiscard]] double low() const { return lo_; }
  [[nodiscard]] double high() const { return hi_; }
  [[nodiscard]] double bin_low(std::size_t i) const;
  [[nodiscard]] double quantile(double q) const;  ///< approximate, q in [0,1]

  /// Bin-wise sum with an identically-shaped histogram (same [lo, hi) and
  /// bin count — asserted); the merge primitive behind cross-replication
  /// metric aggregation.
  void merge(const Histogram& o);

 private:
  double lo_, hi_;
  std::vector<std::size_t> bins_;
  std::size_t total_ = 0;
};

/// One point of a figure series: x, mean y, 95% CI half-width.
struct SeriesPoint {
  double x = 0.0;
  double y = 0.0;
  double ci = 0.0;
};

/// A named line on a figure (e.g. "ALERT", "GPSR").
struct Series {
  std::string name;
  std::vector<SeriesPoint> points;
};

// The table/JSON presentation of Series lives in obs/series.hpp — stdout
// output is confined to util/logging and the obs exporters (alert-lint
// raw-stdout rule).

}  // namespace alert::util
