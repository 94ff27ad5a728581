// Histograms and empirical CDF construction.
//
// Every distribution figure in the paper (Figs. 3, 4, 6, 7, 9, 11) is either
// a frequency histogram or a CDF; these types are the common currency the
// analysis layer hands to the bench harnesses for printing.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace dct {

/// Fixed-width linear histogram over [lo, hi); out-of-range samples clamp
/// into the first / last bin so nothing is silently dropped.
class LinearHistogram {
 public:
  LinearHistogram(double lo, double hi, std::size_t bins);

  void add(double x, double weight = 1.0);

  [[nodiscard]] std::size_t bin_count() const noexcept { return counts_.size(); }
  /// Inclusive left edge of bin i.
  [[nodiscard]] double bin_left(std::size_t i) const;
  [[nodiscard]] double bin_center(std::size_t i) const;
  [[nodiscard]] double count(std::size_t i) const;
  [[nodiscard]] double total() const noexcept { return total_; }
  /// count(i) / total, or 0 if empty.
  [[nodiscard]] double fraction(std::size_t i) const;

 private:
  double lo_;
  double width_;
  double total_ = 0;
  std::vector<double> counts_;
};

/// An empirical CDF over possibly-weighted samples.
///
/// Build incrementally with `add`, then call `finalize()` (idempotent)
/// before evaluation.  Evaluation is `P(X <= x)`.
class Cdf {
 public:
  void add(double x, double weight = 1.0);
  void finalize();

  /// P(X <= x).  Requires finalize() first (enforced).
  [[nodiscard]] double at(double x) const;
  /// Inverse CDF at probability p in [0,1].
  [[nodiscard]] double quantile(double p) const;
  [[nodiscard]] std::size_t sample_count() const noexcept { return points_.size(); }
  [[nodiscard]] bool empty() const noexcept { return points_.empty(); }

  /// Evaluates the CDF at each of `xs`, e.g. for printing a figure series.
  [[nodiscard]] std::vector<double> evaluate(std::span<const double> xs) const;

  /// Emits up to `max_points` (value, cum-probability) pairs spanning the
  /// support, suitable for plotting.
  struct Point {
    double value;
    double cum_prob;
  };
  [[nodiscard]] std::vector<Point> curve(std::size_t max_points = 64) const;

 private:
  struct Sample {
    double x;
    double w;
  };
  std::vector<Sample> points_;
  std::vector<double> cum_;  // cumulative weight aligned with sorted points_
  double total_ = 0;
  bool finalized_ = false;
};

/// Logarithmically spaced probe values in [lo, hi]; convenience for
/// evaluating CDFs along a log x-axis as the paper's figures do.
[[nodiscard]] std::vector<double> log_space(double lo, double hi, std::size_t n);

/// Two-sample Kolmogorov-Smirnov distance: sup_x |F(x) - G(x)|.  Both CDFs
/// must be finalized and non-empty.  Used to quantify how closely the
/// synthetic traffic model reproduces measured distributions.
[[nodiscard]] double ks_distance(const Cdf& f, const Cdf& g);

}  // namespace dct
