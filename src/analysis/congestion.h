// Congestion analysis (§4.2, Figs. 5-8).
//
// A link is *hot* while its average utilization over a bin meets a
// threshold C (the paper uses C = 0.7 and reports that 0.9 / 0.95 behave
// qualitatively the same).  Episodes are maximal hot runs.  Beyond episode
// statistics, this module computes the paper's collateral-damage analyses:
// the rate distribution of flows that overlap congestion (Fig. 7) and the
// increase in read-failure probability for jobs whose flows cross hot links
// (Fig. 8), plus the application attribution of hot-link traffic that
// explained the reduce/extract/evacuation findings.
#pragma once

#include <cstdint>
#include <vector>

#include "common/histogram.h"
#include "common/ids.h"
#include "common/timeseries.h"
#include "common/units.h"
#include "flowsim/flowsim.h"
#include "topology/topology.h"
#include "trace/cluster_trace.h"

namespace dct {

/// Utilization series for every link (0..1 per bin).  Produced either
/// exactly by the simulator or approximately from a trace.
struct LinkUtilizationMap {
  TimeSec bin_width = 1.0;
  std::vector<BinnedSeries> per_link;  ///< indexed by LinkId value

  [[nodiscard]] const BinnedSeries& of(LinkId l) const;
};

/// Exact utilization from a finished simulation.
[[nodiscard]] LinkUtilizationMap utilization_from_sim(const FlowSim& sim);

/// Approximate utilization from socket logs alone: routes every flow and
/// spreads its bytes uniformly over its lifetime.  This is what an analyst
/// with only server logs (no switch counters) can reconstruct.  Flows
/// deposit in trace order (docs/PERFORMANCE.md).
[[nodiscard]] LinkUtilizationMap utilization_from_trace(const ClusterTrace& trace,
                                                        const Topology& topo,
                                                        TimeSec bin_width);

/// One link's hot episodes.
struct LinkCongestion {
  LinkId link;
  LinkKind kind = LinkKind::kServerUp;
  std::vector<ThresholdEpisode> episodes;

  /// Mean whole-trace log coverage of the servers behind this link (set by
  /// annotate_coverage; 1.0 until then, and on gap-free traces).
  double endpoint_coverage = 1.0;
  /// True when the endpoint rack was under-observed: utilization derived
  /// from socket logs may miss flows, so episode boundaries (and absence of
  /// episodes) on this link deserve less trust.
  bool low_confidence = false;

  [[nodiscard]] double longest() const noexcept;
  [[nodiscard]] double total_hot_seconds() const noexcept;
};

/// Cluster-wide congestion summary at one threshold.
struct CongestionReport {
  double threshold = 0.7;
  std::vector<LinkCongestion> inter_switch;  ///< paper's congestion scope

  // Fig. 5 headline numbers.
  double frac_links_hot_10s = 0;    ///< links with >= 1 episode lasting >= 10 s
  double frac_links_hot_100s = 0;   ///< ... >= 100 s
  std::size_t episodes_over_1s = 0;
  std::size_t episodes_over_10s = 0;  ///< the paper counts 665 in one day
  double longest_episode = 0;

  /// Fig. 6 input: durations (seconds) of all episodes lasting > 1 s.
  std::vector<double> episode_durations;

  /// Fig. 5 "when": number of simultaneously hot inter-switch links per bin.
  BinnedSeries hot_links_over_time{0.0, 1.0, 1};

  /// Number of inter-switch links flagged low-confidence by
  /// annotate_coverage (0 until it runs, and on gap-free traces).
  std::size_t low_confidence_links = 0;
};

/// Extracts every inter-switch link's episodes at `threshold`.
[[nodiscard]] CongestionReport congestion_report(const LinkUtilizationMap& util,
                                                 const Topology& topo, double threshold);

/// Annotates a report built from a lossily collected trace: for every
/// inter-switch link, computes the mean whole-trace coverage of the servers
/// whose traffic the link carries (the rack's servers for ToR links, the
/// served racks' servers for agg links) and flags links below
/// `min_coverage` as low-confidence.  Returns the number flagged.  A
/// gap-free trace leaves the report untouched.
std::size_t annotate_coverage(CongestionReport& report, const ClusterTrace& trace,
                              const Topology& topo, double min_coverage = 0.9);

/// Fig. 7: flow-rate distributions, split by whether the flow overlapped a
/// hot period on any link of its path.
struct FlowCongestionOverlap {
  Cdf rates_overlapping;  ///< Mbps of flows that overlap congestion
  Cdf rates_all;          ///< Mbps of all flows
  std::size_t overlapping_count = 0;
  std::size_t total_count = 0;
};
[[nodiscard]] FlowCongestionOverlap flow_congestion_overlap(
    const ClusterTrace& trace, const Topology& topo, const LinkUtilizationMap& util,
    double threshold);

/// Fig. 8: the increase in P(job cannot read input) when the job's flows
/// overlap hot links:  P(fail | overlap) / P(fail | no overlap) - 1.
struct ReadFailureImpact {
  std::size_t jobs_overlapping = 0;
  std::size_t jobs_clear = 0;
  double p_fail_overlapping = 0;  ///< raw (unsmoothed) probability
  double p_fail_clear = 0;        ///< raw (unsmoothed) probability
  /// Relative increase computed on Laplace-smoothed probabilities
  /// ((fails + 0.5)/(jobs + 1)) so days with few jobs or zero failures in
  /// one class stay finite and sane.  May be negative on lightly loaded
  /// days, as in the paper's weekend points.
  double relative_increase = 0;
};
[[nodiscard]] ReadFailureImpact read_failure_impact(const ClusterTrace& trace,
                                                    const Topology& topo,
                                                    const LinkUtilizationMap& util,
                                                    double threshold);

/// Cluster-wide utilization summary by link tier.  §4.2 opens with this
/// lens: "ideally, one would like to drive the network at as high an
/// utilization as possible without adversely affecting throughput";
/// pronounced low utilization means the applications are CPU/disk bound or
/// leave bandwidth unexploited.
struct UtilizationSummary {
  struct Tier {
    LinkKind kind = LinkKind::kServerUp;
    double mean = 0;    ///< mean utilization over links and time
    double p50 = 0;     ///< median of per-bin utilizations
    double p99 = 0;
    double frac_bins_above_half = 0;  ///< fraction of (link,bin) above 50%
    double frac_bins_idle = 0;        ///< fraction of (link,bin) below 5%
  };
  std::vector<Tier> tiers;  ///< one entry per LinkKind present
};
[[nodiscard]] UtilizationSummary utilization_summary(const LinkUtilizationMap& util,
                                                     const Topology& topo);

/// §4.2 attribution: bytes crossing hot links, by flow kind and by the
/// phase kind recovered from the application logs (the network-log /
/// app-log join the server-centric methodology enables).
struct HotLinkAttribution {
  double bytes_total = 0;
  double by_flow_kind[8] = {};   ///< indexed by FlowKind
  double by_phase_kind[5] = {};  ///< indexed by PhaseKind; job traffic only
};
[[nodiscard]] HotLinkAttribution hot_link_attribution(const ClusterTrace& trace,
                                                      const Topology& topo,
                                                      const LinkUtilizationMap& util,
                                                      double threshold);

}  // namespace dct
