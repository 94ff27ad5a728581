#include "common/histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/require.h"

namespace dct {

LinearHistogram::LinearHistogram(double lo, double hi, std::size_t bins)
    : lo_(lo), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0.0) {
  require(hi > lo, "LinearHistogram: hi must be > lo");
  require(bins >= 1, "LinearHistogram: need at least one bin");
}

void LinearHistogram::add(double x, double weight) {
  require(weight >= 0.0, "LinearHistogram: weight must be non-negative");
  auto idx = static_cast<std::ptrdiff_t>(std::floor((x - lo_) / width_));
  idx = std::clamp<std::ptrdiff_t>(idx, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  counts_[static_cast<std::size_t>(idx)] += weight;
  total_ += weight;
}

double LinearHistogram::bin_left(std::size_t i) const {
  require(i < counts_.size(), "LinearHistogram: bin out of range");
  return lo_ + static_cast<double>(i) * width_;
}

double LinearHistogram::bin_center(std::size_t i) const { return bin_left(i) + width_ / 2; }

double LinearHistogram::count(std::size_t i) const {
  require(i < counts_.size(), "LinearHistogram: bin out of range");
  return counts_[i];
}

double LinearHistogram::fraction(std::size_t i) const {
  return total_ > 0 ? count(i) / total_ : 0.0;
}

void Cdf::add(double x, double weight) {
  require(weight >= 0.0, "Cdf: weight must be non-negative");
  points_.push_back({x, weight});
  finalized_ = false;
}

void Cdf::finalize() {
  if (finalized_) return;
  std::sort(points_.begin(), points_.end(),
            [](const Sample& a, const Sample& b) { return a.x < b.x; });
  cum_.resize(points_.size());
  double acc = 0;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    acc += points_[i].w;
    cum_[i] = acc;
  }
  total_ = acc;
  finalized_ = true;
}

double Cdf::at(double x) const {
  require(finalized_, "Cdf: call finalize() before evaluation");
  if (points_.empty() || total_ <= 0) return 0.0;
  // Last sample with value <= x.
  auto it = std::upper_bound(points_.begin(), points_.end(), x,
                             [](double v, const Sample& s) { return v < s.x; });
  if (it == points_.begin()) return 0.0;
  const auto idx = static_cast<std::size_t>(it - points_.begin()) - 1;
  return cum_[idx] / total_;
}

double Cdf::quantile(double p) const {
  require(finalized_, "Cdf: call finalize() before evaluation");
  require(p >= 0.0 && p <= 1.0, "Cdf: p must be in [0,1]");
  require(!points_.empty(), "Cdf: empty");
  const double target = p * total_;
  auto it = std::lower_bound(cum_.begin(), cum_.end(), target);
  if (it == cum_.end()) return points_.back().x;
  return points_[static_cast<std::size_t>(it - cum_.begin())].x;
}

std::vector<double> Cdf::evaluate(std::span<const double> xs) const {
  std::vector<double> out;
  out.reserve(xs.size());
  for (double x : xs) out.push_back(at(x));
  return out;
}

std::vector<Cdf::Point> Cdf::curve(std::size_t max_points) const {
  require(finalized_, "Cdf: call finalize() before evaluation");
  std::vector<Point> out;
  if (points_.empty() || max_points == 0) return out;
  const std::size_t stride = std::max<std::size_t>(1, points_.size() / max_points);
  for (std::size_t i = 0; i < points_.size(); i += stride) {
    out.push_back({points_[i].x, cum_[i] / total_});
  }
  if (out.back().value != points_.back().x) {
    out.push_back({points_.back().x, 1.0});
  }
  return out;
}

double ks_distance(const Cdf& f, const Cdf& g) {
  require(!f.empty() && !g.empty(), "ks_distance: both CDFs must be non-empty");
  // The supremum is attained at a sample point of either CDF; probe both
  // supports via their plotted curves (full resolution).
  double sup = 0;
  for (const auto& p : f.curve(std::numeric_limits<std::size_t>::max())) {
    sup = std::max(sup, std::fabs(f.at(p.value) - g.at(p.value)));
  }
  for (const auto& p : g.curve(std::numeric_limits<std::size_t>::max())) {
    sup = std::max(sup, std::fabs(f.at(p.value) - g.at(p.value)));
  }
  return sup;
}

std::vector<double> log_space(double lo, double hi, std::size_t n) {
  require(lo > 0.0 && hi > lo, "log_space: need 0 < lo < hi");
  require(n >= 2, "log_space: need at least two points");
  std::vector<double> out(n);
  const double step = std::log(hi / lo) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) out[i] = lo * std::exp(static_cast<double>(i) * step);
  return out;
}

}  // namespace dct
