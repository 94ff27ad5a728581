#include "trace/snmp.h"

#include <algorithm>
#include <cmath>

#include "common/require.h"

namespace dct {

SnmpCounters SnmpCounters::collect(const FlowSim& sim, const Topology& topo,
                                   TimeSec poll_interval, int counter_width) {
  require(poll_interval > 0, "SnmpCounters: poll interval must be > 0");
  require(counter_width == 0 || (counter_width >= 16 && counter_width <= 64),
          "SnmpCounters: counter width must be 0 (unbounded) or in [16, 64]");
  SnmpCounters out;
  out.topo_ = &topo;
  out.interval_ = poll_interval;
  out.width_ = counter_width;
  out.modulus_ = counter_width == 0 ? 0.0 : std::ldexp(1.0, counter_width);
  const TimeSec horizon = sim.config().end_time;
  // The poll count is cast to size_t; an out-of-range cast is undefined.
  require(horizon / poll_interval < 0x1p63,
          "SnmpCounters: horizon / poll_interval overflows the poll count");
  out.polls_ = static_cast<std::size_t>(std::ceil(horizon / poll_interval)) + 1;

  const auto links = static_cast<std::size_t>(topo.link_count());
  out.raw_.resize(links);
  out.observed_.resize(links);
  out.valid_.assign(links, std::vector<std::uint8_t>(out.polls_, 1));
  out.resets_.resize(links);
  for (std::int32_t l = 0; l < topo.link_count(); ++l) {
    const BinnedSeries& bytes = sim.link_bytes(LinkId{l});
    auto& counter = out.raw_[static_cast<std::size_t>(l)];
    counter.assign(out.polls_, 0.0);
    // Cumulative sum of the byte series, sampled at poll instants.  The
    // byte series bins are finer than (or equal to) the poll interval in
    // all practical configurations; accumulate bin-by-bin.
    double acc = 0;
    std::size_t poll = 1;  // counter at t=0 is 0
    for (std::size_t b = 0; b < bytes.bin_count() && poll < out.polls_; ++b) {
      const TimeSec bin_end = bytes.bin_time(b) + bytes.bin_width();
      acc += bytes.value(b);
      while (poll < out.polls_ &&
             static_cast<TimeSec>(poll) * poll_interval <= bin_end + 1e-9) {
        counter[poll] = acc;
        ++poll;
      }
    }
    for (; poll < out.polls_; ++poll) counter[poll] = acc;
    out.rebuild_observed(static_cast<std::size_t>(l));
  }
  return out;
}

double SnmpCounters::wrap(double v) const noexcept {
  return modulus_ == 0 ? v : std::fmod(v, modulus_);
}

void SnmpCounters::rebuild_observed(std::size_t link) {
  const auto& raw = raw_[link];
  auto& obs = observed_[link];
  obs.assign(polls_, 0.0);
  const auto& resets = resets_[link];
  std::size_t next_reset = 0;
  // Baseline the counter restarts from.  A reboot at time t zeroes the
  // register; the first poll at-or-after t reads bytes since the reboot,
  // modelled as bytes since the last poll before it (the switch is down —
  // and carrying no traffic — for most of that poll interval anyway).
  double base = 0;
  for (std::size_t p = 0; p < polls_; ++p) {
    const TimeSec t = poll_time(p);
    while (next_reset < resets.size() && resets[next_reset] <= t + 1e-9) {
      const auto floor_poll = static_cast<std::size_t>(std::clamp(
          std::floor(resets[next_reset] / interval_), 0.0,
          static_cast<double>(polls_ - 1)));
      base = raw[floor_poll];
      ++next_reset;
    }
    if (valid_[link][p] != 0) {
      obs[p] = wrap(raw[p] - base);
    } else {
      obs[p] = p == 0 ? 0.0 : obs[p - 1];  // poller carries the last value
    }
  }
}

double SnmpCounters::counter(LinkId link, std::size_t poll) const {
  check_link(link);
  require(poll < polls_, "SnmpCounters: poll out of range");
  return observed_[static_cast<std::size_t>(link.value())][poll];
}

void SnmpCounters::check_link(LinkId link) const {
  require(topo_ != nullptr, "SnmpCounters: not collected");
  require(link.valid() && link.value() < topo_->link_count(),
          "SnmpCounters: link out of range");
}

void SnmpCounters::invalidate_poll(LinkId link, std::size_t poll) {
  check_link(link);
  require(poll < polls_, "SnmpCounters: poll out of range");
  const auto l = static_cast<std::size_t>(link.value());
  valid_[l][poll] = 0;
  rebuild_observed(l);
}

void SnmpCounters::reset_counter(LinkId link, TimeSec time) {
  check_link(link);
  const auto l = static_cast<std::size_t>(link.value());
  auto& resets = resets_[l];
  resets.insert(std::upper_bound(resets.begin(), resets.end(), time), time);
  rebuild_observed(l);
}

bool SnmpCounters::poll_valid(LinkId link, std::size_t poll) const {
  check_link(link);
  require(poll < polls_, "SnmpCounters: poll out of range");
  return valid_[static_cast<std::size_t>(link.value())][poll] != 0;
}

bool SnmpCounters::window_reliable(LinkId link, TimeSec t0, TimeSec t1) const {
  check_link(link);
  require(t1 >= t0, "SnmpCounters: t1 must be >= t0");
  const auto p0 = static_cast<std::size_t>(
      std::clamp(std::floor(t0 / interval_), 0.0, static_cast<double>(polls_ - 1)));
  const auto p1 = static_cast<std::size_t>(
      std::clamp(std::ceil(t1 / interval_), 0.0, static_cast<double>(polls_ - 1)));
  const auto l = static_cast<std::size_t>(link.value());
  for (std::size_t p = p0; p <= p1; ++p) {
    if (valid_[l][p] == 0) return false;
  }
  const TimeSec w0 = poll_time(p0);
  const TimeSec w1 = poll_time(p1);
  for (const TimeSec t : resets_[l]) {
    if (t > w0 && t <= w1 + 1e-9) return false;
  }
  return true;
}

double SnmpCounters::bytes_between(LinkId link, TimeSec t0, TimeSec t1) const {
  require(t1 >= t0, "SnmpCounters: t1 must be >= t0");
  check_link(link);
  if (t1 == t0) return 0.0;  // an empty window moved no bytes
  // Nearest poll at-or-before t0, nearest at-or-after t1.
  const auto p0 = static_cast<std::size_t>(
      std::clamp(std::floor(t0 / interval_), 0.0, static_cast<double>(polls_ - 1)));
  const auto p1 = static_cast<std::size_t>(
      std::clamp(std::ceil(t1 / interval_), 0.0, static_cast<double>(polls_ - 1)));
  if (modulus_ == 0) return counter(link, p1) - counter(link, p0);
  // Finite registers: wrap-correct each per-poll delta.  The standard
  // heuristic (negative delta means exactly one wrap) holds as long as a
  // link cannot move 2^width bytes within one poll interval; it mistakes a
  // reset for a wrap, which window_reliable() exists to flag.
  double total = 0;
  for (std::size_t p = p0 + 1; p <= p1; ++p) {
    double d = counter(link, p) - counter(link, p - 1);
    if (d < 0) d += modulus_;
    total += d;
  }
  return total;
}

double SnmpCounters::utilization_between(LinkId link, TimeSec t0, TimeSec t1) const {
  const double bytes = bytes_between(link, t0, t1);
  // The reconstructible window is the poll-aligned one.
  const double w0 = std::floor(t0 / interval_) * interval_;
  const double w1 = std::ceil(t1 / interval_) * interval_;
  const double span = std::max(w1 - w0, interval_);
  return bytes / (topo_->link(link).capacity * span);
}

}  // namespace dct
