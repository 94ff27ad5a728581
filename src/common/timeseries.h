// Binned time series accumulation.
//
// Link utilization, aggregate traffic rate and traffic-matrix snapshots are
// all computed by accumulating (interval, value) contributions into
// fixed-width time bins.  `BinnedSeries` does the bookkeeping of splitting a
// contribution that spans multiple bins.
#pragma once

#include <cstddef>
#include <vector>

namespace dct {

/// The bins an interval [start, end) overlaps inside a series' domain, in
/// bin order, each with the length of its overlap.
struct IntervalSplit {
  struct Part {
    std::size_t bin;
    double overlap;
  };
  double start = 0;
  double end = 0;
  std::vector<Part> parts;
};

/// A time series of doubles over [t0, t0 + bins*width) with fixed bin width.
class BinnedSeries {
 public:
  /// Creates `bins` bins of `bin_width` seconds starting at `t0`.
  BinnedSeries(double t0, double bin_width, std::size_t bins);

  /// Adds `amount` spread uniformly over the time interval [start, end).
  /// The portion outside the series' domain is dropped.  A zero-length
  /// interval deposits the full amount into the containing bin.
  void add_interval(double start, double end, double amount);

  /// Sets `out` to the split of [start, end) over this series' bins: the
  /// split by which add_interval spreads an amount.  Requires end > start.
  void split_interval(double start, double end, IntervalSplit& out) const;

  /// Adds `amount` spread uniformly over `split`'s interval.  With `split`
  /// made by a series of this shape this is bit-identical to
  /// add_interval(split.start, split.end, amount), so deposits over one
  /// interval into many series can share one split.
  void add_split(const IntervalSplit& split, double amount);

  /// Adds `amount` at instant `t` (dropped if outside the domain).
  void add_point(double t, double amount);

  [[nodiscard]] std::size_t bin_count() const noexcept { return values_.size(); }
  [[nodiscard]] double bin_width() const noexcept { return width_; }
  [[nodiscard]] double start_time() const noexcept { return t0_; }
  /// Left edge time of bin i.
  [[nodiscard]] double bin_time(std::size_t i) const;
  [[nodiscard]] double value(std::size_t i) const;
  [[nodiscard]] const std::vector<double>& values() const noexcept { return values_; }

  /// Divides every bin by the bin width, converting accumulated amounts
  /// (e.g. bytes) into rates (bytes/second).
  [[nodiscard]] BinnedSeries to_rate() const;

  /// Re-bins into coarser bins whose width is `factor` x current width,
  /// summing constituent bins.  The tail partial bin, if any, is kept.
  [[nodiscard]] BinnedSeries coarsen(std::size_t factor) const;

 private:
  double t0_;
  double width_;
  std::vector<double> values_;
};

/// A maximal run of consecutive bins whose value meets a threshold.
struct ThresholdEpisode {
  double start;     ///< left edge time of the first qualifying bin
  double end;       ///< right edge time of the last qualifying bin
  double peak;      ///< maximum bin value inside the episode
  double mean;      ///< mean bin value inside the episode
  std::size_t bins; ///< number of bins in the episode

  [[nodiscard]] double duration() const noexcept { return end - start; }
};

/// Extracts all maximal runs of bins with value >= threshold.
[[nodiscard]] std::vector<ThresholdEpisode> episodes_above(const BinnedSeries& series,
                                                           double threshold);

}  // namespace dct
