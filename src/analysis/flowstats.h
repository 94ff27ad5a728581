// Microscopic flow characteristics (§4.3, Figs. 9-11).
//
// Flow durations (count- and byte-weighted), achieved rates, and flow
// inter-arrival times at three observation scopes: the whole cluster, one
// top-of-rack switch (averaged over ToRs), and one server (averaged over
// servers).  The headline statistics — "80% of flows last less than ten
// seconds", "more than half the bytes are in flows lasting no longer than
// 25 s", the ~15 ms periodic inter-arrival modes, and the median cluster
// flow-arrival rate — all come out of these functions.
#pragma once

#include <cstdint>
#include <vector>

#include "common/histogram.h"
#include "common/units.h"
#include "topology/topology.h"
#include "trace/cluster_trace.h"

namespace dct {

/// Fig. 9: flow-duration CDFs.
struct FlowDurationStats {
  Cdf by_count;   ///< P(duration <= x) over flows
  Cdf by_bytes;   ///< byte-weighted: fraction of bytes in flows of duration <= x
  double frac_flows_under_10s = 0;
  double frac_flows_over_200s = 0;
  double median_bytes_duration = 0;  ///< duration containing half the bytes
  /// Mean telemetry coverage of the trace these shapes were computed from
  /// (ClusterTrace::mean_coverage; 1.0 for a perfectly collected trace).
  /// The CDFs describe *surviving* flows only — under heavy loss, treat
  /// them as estimates from a sample.
  double coverage = 1.0;
};
[[nodiscard]] FlowDurationStats flow_duration_stats(const ClusterTrace& trace);

/// Observation scope for inter-arrival analysis.
enum class ArrivalScope : std::uint8_t { kCluster, kToR, kServer };

/// Fig. 11: inter-arrival time statistics at one scope.  For kToR and
/// kServer, inter-arrivals are pooled across all ToRs / servers ("averaged"
/// in the paper's phrasing).
struct InterArrivalStats {
  Cdf inter_arrival_ms;        ///< CDF of inter-arrival times, milliseconds
  double median_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
  /// Median arrival rate (flows/second) observed at this scope.
  double median_rate_per_s = 0;
  /// Mean telemetry coverage of the source trace (1.0 when gap-free).
  double coverage = 1.0;
  /// Count statistics scale with observation: the coverage-corrected
  /// arrival rate median_rate_per_s / coverage (capped at 20x) estimates
  /// the true rate under lossy collection.  Equals median_rate_per_s on a
  /// gap-free trace.
  double corrected_rate_per_s = 0;
};
[[nodiscard]] InterArrivalStats inter_arrival_stats(const ClusterTrace& trace,
                                                    const Topology& topo,
                                                    ArrivalScope scope);

/// A detected periodic mode in the inter-arrival distribution.
struct InterArrivalMode {
  double position_ms = 0;
  /// Density at the mode relative to its +-6 ms neighborhood mean; higher
  /// means a sharper spike.  The stop-and-go mechanism produces prominences
  /// well above 2; noise wiggles sit near 1.
  double prominence = 0;
};

/// Searches the inter-arrival distribution for periodic modes: prominent
/// local maxima of the 1 ms-binned histogram below `ceiling_ms`, strongest
/// first (Fig. 11's ~15 ms spacing).
[[nodiscard]] std::vector<InterArrivalMode> inter_arrival_mode_info(
    const InterArrivalStats& stats, double ceiling_ms = 120.0,
    std::size_t max_modes = 4);

/// Convenience: positions only.
[[nodiscard]] std::vector<double> inter_arrival_modes(const InterArrivalStats& stats,
                                                      double ceiling_ms = 120.0,
                                                      std::size_t max_modes = 4);

/// How periodic is the inter-arrival distribution?  Autocorrelation of the
/// mean-removed 1 ms density over lags in [min_lag, max_lag] ms.  A comb of
/// modes spaced L apart scores near 1 at lag L; a Poisson process scores
/// near 0.  This is the quantitative form of Fig. 11's "pronounced periodic
/// modes" claim, robust where individual mode detection is noisy.
struct PeriodicityScore {
  double best_lag_ms = 0;  ///< lag with the highest autocorrelation
  double score = 0;        ///< autocorrelation at that lag, in [-1, 1]
};
[[nodiscard]] PeriodicityScore inter_arrival_periodicity(const InterArrivalStats& stats,
                                                         double ceiling_ms = 120.0,
                                                         double min_lag_ms = 5.0,
                                                         double max_lag_ms = 60.0);

/// Flow size distribution (§7's "no super large flows" observation).
struct FlowSizeStats {
  Cdf bytes;            ///< CDF of flow sizes
  double p50 = 0;
  double p99 = 0;
  double max = 0;
};
[[nodiscard]] FlowSizeStats flow_size_stats(const ClusterTrace& trace);

}  // namespace dct
