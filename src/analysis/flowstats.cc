#include "analysis/flowstats.h"

#include <algorithm>
#include <cmath>

#include "analysis/analysis_obs.h"
#include "common/require.h"
#include "common/stats.h"
#include "obs/metrics.h"

namespace dct {

FlowDurationStats flow_duration_stats(const ClusterTrace& trace) {
  const obs::ScopedTimer obs_timer(detail::g_analysis_metrics.flowstats_wall_ns);
  FlowDurationStats out;
  for (const SocketFlowLog& f : trace.flows()) {
    if (f.truncated) continue;  // lifetime unknown; excluding avoids bias
    const double duration = std::max(f.duration(), 1e-4);
    out.by_count.add(duration);
    if (f.bytes > 0) out.by_bytes.add(duration, static_cast<double>(f.bytes));
  }
  out.by_count.finalize();
  out.by_bytes.finalize();
  if (out.by_count.sample_count() > 0) {
    out.frac_flows_under_10s = out.by_count.at(10.0);
    out.frac_flows_over_200s = 1.0 - out.by_count.at(200.0);
  }
  if (out.by_bytes.sample_count() > 0) {
    out.median_bytes_duration = out.by_bytes.quantile(0.5);
  }
  out.coverage = trace.mean_coverage();
  return out;
}

namespace {

// Appends sorted inter-arrival gaps (ms) of `starts` to `gaps`.
void collect_gaps(std::vector<double>& starts, std::vector<double>& gaps) {
  std::sort(starts.begin(), starts.end());
  for (std::size_t i = 1; i < starts.size(); ++i) {
    gaps.push_back((starts[i] - starts[i - 1]) * 1000.0);
  }
}

}  // namespace

InterArrivalStats inter_arrival_stats(const ClusterTrace& trace, const Topology& topo,
                                      ArrivalScope scope) {
  const obs::ScopedTimer obs_timer(detail::g_analysis_metrics.flowstats_wall_ns);
  std::vector<double> gaps;

  if (scope == ArrivalScope::kCluster) {
    std::vector<double> starts;
    starts.reserve(trace.flow_count());
    for (const SocketFlowLog& f : trace.flows()) starts.push_back(f.start);
    collect_gaps(starts, gaps);
  } else if (scope == ArrivalScope::kServer) {
    // A server sees the flows it sends or receives; pool inter-arrivals
    // over all servers, in server order.
    const std::int32_t n = topo.internal_server_count();
    std::vector<double> starts;
    for (std::int32_t s = 0; s < n; ++s) {
      const auto& log = trace.server_log(ServerId{s}).flows;
      starts.clear();
      for (const SocketFlowLog& f : log) starts.push_back(f.start);
      collect_gaps(starts, gaps);
    }
  } else {
    // A ToR sees flows with an endpoint in its rack that leave the server
    // (all logged flows do).  Group sender-side flows by rack of either
    // endpoint, then pool each rack's inter-arrivals in rack order.
    const auto n_racks = static_cast<std::size_t>(topo.rack_count());
    std::vector<std::vector<double>> per_rack(n_racks);
    for (const SocketFlowLog& f : trace.flows()) {
      if (!topo.is_external(f.local)) {
        per_rack[static_cast<std::size_t>(topo.rack_of(f.local).value())].push_back(
            f.start);
      }
      if (!topo.is_external(f.peer) && !topo.same_rack(f.local, f.peer)) {
        per_rack[static_cast<std::size_t>(topo.rack_of(f.peer).value())].push_back(
            f.start);
      }
    }
    for (std::vector<double>& starts : per_rack) collect_gaps(starts, gaps);
  }

  InterArrivalStats out;
  for (double g : gaps) out.inter_arrival_ms.add(std::max(g, 1e-3));
  out.inter_arrival_ms.finalize();
  if (!gaps.empty()) {
    out.median_ms = out.inter_arrival_ms.quantile(0.5);
    out.p99_ms = out.inter_arrival_ms.quantile(0.99);
    out.max_ms = out.inter_arrival_ms.quantile(1.0);
    if (out.median_ms > 0) out.median_rate_per_s = 1000.0 / out.median_ms;
  }
  out.coverage = trace.mean_coverage();
  out.corrected_rate_per_s =
      out.median_rate_per_s / std::max(out.coverage, 0.05);
  return out;
}

std::vector<InterArrivalMode> inter_arrival_mode_info(const InterArrivalStats& stats,
                                                      double ceiling_ms,
                                                      std::size_t max_modes) {
  require(ceiling_ms > 1.0, "inter_arrival_modes: ceiling too small");
  if (stats.inter_arrival_ms.empty()) return {};
  // Histogram at 1 ms resolution over (0, ceiling].
  const auto bins = static_cast<std::size_t>(ceiling_ms);
  std::vector<double> density(bins, 0.0);
  for (std::size_t b = 0; b < bins; ++b) {
    const double lo = static_cast<double>(b);
    const double hi = lo + 1.0;
    density[b] = stats.inter_arrival_ms.at(hi) - stats.inter_arrival_ms.at(lo);
  }
  // Local maxima that are *prominent* against their neighborhood (a mode
  // must carry clearly more mass than nearby gaps, not just be a wiggle).
  struct Mode {
    double pos;
    double strength;
    double prominence;
  };
  std::vector<Mode> modes;
  for (std::size_t b = 1; b + 1 < bins; ++b) {
    if (density[b] < density[b - 1] || density[b] <= density[b + 1]) continue;
    if (density[b] <= 1e-3) continue;
    double neighborhood = 0;
    int count = 0;
    for (std::ptrdiff_t d = -6; d <= 6; ++d) {
      if (d == 0) continue;
      const std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(b) + d;
      if (idx < 0 || idx >= static_cast<std::ptrdiff_t>(bins)) continue;
      neighborhood += density[static_cast<std::size_t>(idx)];
      ++count;
    }
    neighborhood /= std::max(count, 1);
    const double prominence = density[b] / std::max(neighborhood, 1e-12);
    if (prominence > 1.5) {
      modes.push_back({static_cast<double>(b) + 0.5, density[b], prominence});
    }
  }
  std::sort(modes.begin(), modes.end(),
            [](const Mode& a, const Mode& b) { return a.strength > b.strength; });
  std::vector<InterArrivalMode> out;
  for (const Mode& m : modes) {
    // Suppress near-duplicates within 3 ms of a stronger mode.
    bool close = false;
    for (const auto& seen : out) {
      if (std::fabs(seen.position_ms - m.pos) < 3.0) close = true;
    }
    if (close) continue;
    out.push_back({m.pos, m.prominence});
    if (out.size() >= max_modes) break;
  }
  return out;
}

std::vector<double> inter_arrival_modes(const InterArrivalStats& stats, double ceiling_ms,
                                        std::size_t max_modes) {
  std::vector<double> out;
  for (const auto& m : inter_arrival_mode_info(stats, ceiling_ms, max_modes)) {
    out.push_back(m.position_ms);
  }
  return out;
}

PeriodicityScore inter_arrival_periodicity(const InterArrivalStats& stats,
                                           double ceiling_ms, double min_lag_ms,
                                           double max_lag_ms) {
  require(ceiling_ms > max_lag_ms && max_lag_ms > min_lag_ms && min_lag_ms >= 1.0,
          "inter_arrival_periodicity: need 1 <= min_lag < max_lag < ceiling");
  PeriodicityScore out;
  if (stats.inter_arrival_ms.empty()) return out;

  const auto bins = static_cast<std::size_t>(ceiling_ms);
  std::vector<double> raw(bins, 0.0);
  for (std::size_t b = 0; b < bins; ++b) {
    raw[b] = stats.inter_arrival_ms.at(static_cast<double>(b) + 1.0) -
             stats.inter_arrival_ms.at(static_cast<double>(b));
  }
  // The first few milliseconds hold the burst/concurrency mass (many flows
  // opened in the same instant), which says nothing about stop-and-go
  // periodicity and would otherwise dominate the variance.  Flatten it.
  constexpr std::size_t kBurstFloor = 8;
  for (std::size_t b = 0; b < std::min(kBurstFloor, bins); ++b) {
    raw[b] = raw[std::min(kBurstFloor, bins - 1)];
  }
  // High-pass: subtract a centered moving average so smooth, aperiodic
  // shapes (e.g. exponential inter-arrivals) score near zero and only
  // spike structure survives.
  std::vector<double> density(bins, 0.0);
  constexpr std::ptrdiff_t kHalf = 4;
  for (std::size_t b = 0; b < bins; ++b) {
    double avg = 0;
    int count = 0;
    for (std::ptrdiff_t d = -kHalf; d <= kHalf; ++d) {
      const std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(b) + d;
      if (idx < 0 || idx >= static_cast<std::ptrdiff_t>(bins)) continue;
      avg += raw[static_cast<std::size_t>(idx)];
      ++count;
    }
    density[b] = raw[b] - avg / std::max(count, 1);
  }
  double var = 0;
  for (double d : density) var += d * d;
  if (var <= 0) return out;

  const auto lag_lo = static_cast<std::size_t>(min_lag_ms);
  const auto lag_hi = static_cast<std::size_t>(max_lag_ms);
  for (std::size_t lag = lag_lo; lag <= lag_hi; ++lag) {
    double acc = 0;
    for (std::size_t b = 0; b + lag < bins; ++b) acc += density[b] * density[b + lag];
    const double r = acc / var;
    if (r > out.score) {
      out.score = r;
      out.best_lag_ms = static_cast<double>(lag);
    }
  }
  return out;
}

FlowSizeStats flow_size_stats(const ClusterTrace& trace) {
  const obs::ScopedTimer obs_timer(detail::g_analysis_metrics.flowstats_wall_ns);
  FlowSizeStats out;
  for (const SocketFlowLog& f : trace.flows()) {
    if (f.bytes <= 0 || f.truncated) continue;
    out.bytes.add(static_cast<double>(f.bytes));
  }
  out.bytes.finalize();
  if (out.bytes.sample_count() > 0) {
    out.p50 = out.bytes.quantile(0.5);
    out.p99 = out.bytes.quantile(0.99);
    out.max = out.bytes.quantile(1.0);
  }
  return out;
}

}  // namespace dct
