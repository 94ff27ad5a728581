#include "common/timeseries.h"

#include <algorithm>
#include <cmath>

#include "common/require.h"

namespace dct {

BinnedSeries::BinnedSeries(double t0, double bin_width, std::size_t bins)
    : t0_(t0), width_(bin_width), values_(bins, 0.0) {
  require(bin_width > 0.0, "BinnedSeries: bin width must be > 0");
  require(bins >= 1, "BinnedSeries: need at least one bin");
}

void BinnedSeries::add_point(double t, double amount) {
  const double rel = (t - t0_) / width_;
  if (rel < 0) return;
  const auto idx = static_cast<std::size_t>(rel);
  if (idx >= values_.size()) return;
  values_[idx] += amount;
}

namespace {

// Calls fn(bin, overlap) for each of `bins` bins of width `width` from `t0`
// that [start, end) overlaps, in bin order.  The one copy of the clipping
// arithmetic behind both add_interval and split_interval.
template <typename Fn>
void for_each_overlap(double t0, double width, std::size_t bins, double start, double end,
                      Fn&& fn) {
  const double domain_end = t0 + width * static_cast<double>(bins);
  const double clip_start = std::max(start, t0);
  const double clip_end = std::min(end, domain_end);
  if (clip_start >= clip_end) return;

  auto first = static_cast<std::size_t>((clip_start - t0) / width);
  first = std::min(first, bins - 1);
  for (std::size_t i = first; i < bins; ++i) {
    const double bin_lo = t0 + static_cast<double>(i) * width;
    const double bin_hi = bin_lo + width;
    if (bin_lo >= clip_end) break;
    const double overlap = std::min(bin_hi, clip_end) - std::max(bin_lo, clip_start);
    if (overlap > 0) fn(i, overlap);
  }
}

}  // namespace

void BinnedSeries::add_interval(double start, double end, double amount) {
  require(end >= start, "add_interval: end must be >= start");
  if (amount == 0.0) return;
  if (end == start) {
    add_point(start, amount);
    return;
  }
  const double density = amount / (end - start);
  for_each_overlap(t0_, width_, values_.size(), start, end,
                   [&](std::size_t i, double overlap) { values_[i] += density * overlap; });
}

void BinnedSeries::split_interval(double start, double end, IntervalSplit& out) const {
  require(end > start, "split_interval: end must be > start");
  out.start = start;
  out.end = end;
  out.parts.clear();
  for_each_overlap(t0_, width_, values_.size(), start, end,
                   [&](std::size_t i, double overlap) { out.parts.push_back({i, overlap}); });
}

void BinnedSeries::add_split(const IntervalSplit& split, double amount) {
  // Bins ascend, so the last one bounds them all.
  require(split.parts.empty() || split.parts.back().bin < values_.size(),
          "add_split: bin out of range");
  const double density = amount / (split.end - split.start);
  for (const IntervalSplit::Part& part : split.parts) {
    values_[part.bin] += density * part.overlap;
  }
}

double BinnedSeries::bin_time(std::size_t i) const {
  require(i < values_.size(), "BinnedSeries: bin out of range");
  return t0_ + static_cast<double>(i) * width_;
}

double BinnedSeries::value(std::size_t i) const {
  require(i < values_.size(), "BinnedSeries: bin out of range");
  return values_[i];
}

BinnedSeries BinnedSeries::to_rate() const {
  BinnedSeries out = *this;
  for (auto& v : out.values_) v /= width_;
  return out;
}

BinnedSeries BinnedSeries::coarsen(std::size_t factor) const {
  require(factor >= 1, "coarsen: factor must be >= 1");
  const std::size_t out_bins = (values_.size() + factor - 1) / factor;
  BinnedSeries out(t0_, width_ * static_cast<double>(factor), out_bins);
  for (std::size_t i = 0; i < values_.size(); ++i) out.values_[i / factor] += values_[i];
  return out;
}

std::vector<ThresholdEpisode> episodes_above(const BinnedSeries& series, double threshold) {
  std::vector<ThresholdEpisode> out;
  std::size_t i = 0;
  const std::size_t n = series.bin_count();
  while (i < n) {
    if (series.value(i) < threshold) {
      ++i;
      continue;
    }
    std::size_t j = i;
    double peak = series.value(i);
    double sum = 0;
    while (j < n && series.value(j) >= threshold) {
      peak = std::max(peak, series.value(j));
      sum += series.value(j);
      ++j;
    }
    const double start = series.bin_time(i);
    const double end = series.bin_time(j - 1) + series.bin_width();
    out.push_back({start, end, peak, sum / static_cast<double>(j - i), j - i});
    i = j;
  }
  return out;
}

}  // namespace dct
