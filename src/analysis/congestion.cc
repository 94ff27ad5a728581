#include "analysis/congestion.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "analysis/analysis_obs.h"
#include "common/require.h"
#include "common/stats.h"
#include "obs/metrics.h"

namespace dct {

const BinnedSeries& LinkUtilizationMap::of(LinkId l) const {
  require(l.valid() && static_cast<std::size_t>(l.value()) < per_link.size(),
          "LinkUtilizationMap::of: link out of range");
  return per_link[static_cast<std::size_t>(l.value())];
}

LinkUtilizationMap utilization_from_sim(const FlowSim& sim) {
  LinkUtilizationMap out;
  out.bin_width = sim.config().util_bin_width;
  const std::int32_t n = sim.topology().link_count();
  out.per_link.reserve(static_cast<std::size_t>(n));
  for (std::int32_t l = 0; l < n; ++l) {
    out.per_link.push_back(sim.link_utilization(LinkId{l}));
  }
  return out;
}

LinkUtilizationMap utilization_from_trace(const ClusterTrace& trace, const Topology& topo,
                                          TimeSec bin_width) {
  require(bin_width > 0, "utilization_from_trace: bin width must be > 0");
  // The bin count is cast to size_t; an out-of-range cast is undefined.
  require(trace.duration() / bin_width < 0x1p63,
          "utilization_from_trace: duration / bin_width overflows the bin count");
  const obs::ScopedTimer obs_timer(detail::g_analysis_metrics.util_build_wall_ns);
  LinkUtilizationMap out;
  out.bin_width = bin_width;
  const auto bins = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(trace.duration() / bin_width)));
  const auto n_links = static_cast<std::size_t>(topo.link_count());
  out.per_link.reserve(n_links);
  for (std::size_t l = 0; l < n_links; ++l) {
    out.per_link.emplace_back(0.0, bin_width, bins);
  }

  // Deposit phase: spread each flow's bytes over its lifetime on every link
  // of its path, in trace order.
  std::vector<LinkId> path;
  for (const SocketFlowLog& f : trace.flows()) {
    if (f.bytes <= 0) continue;
    topo.route_into(f.local, f.peer, path);
    for (LinkId l : path) {
      out.per_link[static_cast<std::size_t>(l.value())].add_interval(
          f.start, std::max(f.end, f.start), static_cast<double>(f.bytes));
    }
  }

  // Convert per-bin bytes to utilization.
  for (std::size_t l = 0; l < n_links; ++l) {
    auto& series = out.per_link[l];
    const double denom =
        topo.link(LinkId{static_cast<std::int32_t>(l)}).capacity * bin_width;
    BinnedSeries util(series.start_time(), series.bin_width(), series.bin_count());
    for (std::size_t i = 0; i < series.bin_count(); ++i) {
      util.add_point(series.bin_time(i), series.value(i) / denom);
    }
    series = std::move(util);
  }
  return out;
}

double LinkCongestion::longest() const noexcept {
  double best = 0;
  for (const auto& e : episodes) best = std::max(best, e.duration());
  return best;
}

double LinkCongestion::total_hot_seconds() const noexcept {
  double sum = 0;
  for (const auto& e : episodes) sum += e.duration();
  return sum;
}

CongestionReport congestion_report(const LinkUtilizationMap& util, const Topology& topo,
                                   double threshold) {
  require(threshold > 0 && threshold <= 1.5, "congestion_report: odd threshold");
  const obs::ScopedTimer obs_timer(detail::g_analysis_metrics.congestion_wall_ns);
  CongestionReport out;
  out.threshold = threshold;

  const auto& links = topo.inter_switch_links();
  require(!links.empty(), "congestion_report: topology has no inter-switch links");

  const BinnedSeries& sample = util.of(links.front());
  BinnedSeries hot_count(sample.start_time(), sample.bin_width(), sample.bin_count());
  std::size_t hot10 = 0;
  std::size_t hot100 = 0;
  for (const LinkId l : links) {
    LinkCongestion lc;
    lc.link = l;
    lc.kind = topo.link(l).kind;
    lc.episodes = episodes_above(util.of(l), threshold);

    bool has10 = false;
    bool has100 = false;
    for (const auto& e : lc.episodes) {
      const double d = e.duration();
      if (d >= 10.0) has10 = true;
      if (d >= 100.0) has100 = true;
      if (d > 1.0) {
        ++out.episodes_over_1s;
        out.episode_durations.push_back(d);
      }
      if (d > 10.0) ++out.episodes_over_10s;
      out.longest_episode = std::max(out.longest_episode, d);
      // "when": mark each hot bin of this episode.
      const double w = hot_count.bin_width();
      auto b0 = static_cast<std::size_t>(
          std::max(0.0, (e.start - hot_count.start_time()) / w));
      for (std::size_t b = b0; b < hot_count.bin_count(); ++b) {
        const double t = hot_count.bin_time(b);
        if (t >= e.end) break;
        if (t >= e.start) hot_count.add_point(t, 1.0);
      }
    }
    if (has10) ++hot10;
    if (has100) ++hot100;
    out.inter_switch.push_back(std::move(lc));
  }
  out.frac_links_hot_10s = static_cast<double>(hot10) / static_cast<double>(links.size());
  out.frac_links_hot_100s =
      static_cast<double>(hot100) / static_cast<double>(links.size());
  out.hot_links_over_time = std::move(hot_count);
  return out;
}

std::size_t annotate_coverage(CongestionReport& report, const ClusterTrace& trace,
                              const Topology& topo, double min_coverage) {
  require(min_coverage >= 0 && min_coverage <= 1,
          "annotate_coverage: min_coverage must be in [0, 1]");
  if (trace.gaps().empty()) return 0;

  // Mean whole-trace coverage per rack, computed once.
  std::vector<double> rack_cov(static_cast<std::size_t>(topo.rack_count()), 1.0);
  for (std::int32_t r = 0; r < topo.rack_count(); ++r) {
    const auto members = topo.servers_in_rack(RackId{r});
    if (members.empty()) continue;
    double sum = 0;
    for (const ServerId s : members) {
      sum += s.value() < trace.server_count() ? trace.coverage(s) : 1.0;
    }
    rack_cov[static_cast<std::size_t>(r)] = sum / static_cast<double>(members.size());
  }
  // Mean over the racks an aggregation switch serves.
  std::vector<double> agg_cov(static_cast<std::size_t>(topo.agg_count()), 1.0);
  std::vector<std::size_t> agg_racks(static_cast<std::size_t>(topo.agg_count()), 0);
  std::vector<double> agg_sum(static_cast<std::size_t>(topo.agg_count()), 0.0);
  for (std::int32_t r = 0; r < topo.rack_count(); ++r) {
    const auto a = static_cast<std::size_t>(topo.agg_of(RackId{r}));
    agg_sum[a] += rack_cov[static_cast<std::size_t>(r)];
    ++agg_racks[a];
  }
  for (std::size_t a = 0; a < agg_cov.size(); ++a) {
    if (agg_racks[a] > 0) agg_cov[a] = agg_sum[a] / static_cast<double>(agg_racks[a]);
  }

  std::size_t flagged = 0;
  for (LinkCongestion& lc : report.inter_switch) {
    const Link& link = topo.link(lc.link);
    switch (link.kind) {
      case LinkKind::kTorUp:
      case LinkKind::kTorDown:
        lc.endpoint_coverage = rack_cov[static_cast<std::size_t>(link.entity)];
        break;
      case LinkKind::kAggUp:
      case LinkKind::kAggDown:
        lc.endpoint_coverage = agg_cov[static_cast<std::size_t>(link.entity)];
        break;
      default:
        lc.endpoint_coverage = trace.mean_coverage();
        break;
    }
    lc.low_confidence = lc.endpoint_coverage < min_coverage;
    if (lc.low_confidence) ++flagged;
  }
  report.low_confidence_links = flagged;
  return flagged;
}

namespace {

// True if [start,end) of the flow overlaps a hot bin on any path link.
bool overlaps_hot(const Topology& topo, const LinkUtilizationMap& util, double threshold,
                  const SocketFlowLog& f, std::vector<LinkId>& path_scratch) {
  topo.route_into(f.local, f.peer, path_scratch);
  for (LinkId l : path_scratch) {
    const BinnedSeries& series = util.of(l);
    const double w = series.bin_width();
    auto first = static_cast<std::ptrdiff_t>((f.start - series.start_time()) / w);
    auto last = static_cast<std::ptrdiff_t>((std::max(f.end, f.start) - series.start_time()) / w);
    first = std::clamp<std::ptrdiff_t>(first, 0,
                                       static_cast<std::ptrdiff_t>(series.bin_count()) - 1);
    last = std::clamp<std::ptrdiff_t>(last, 0,
                                      static_cast<std::ptrdiff_t>(series.bin_count()) - 1);
    for (std::ptrdiff_t b = first; b <= last; ++b) {
      if (series.value(static_cast<std::size_t>(b)) >= threshold) return true;
    }
  }
  return false;
}

}  // namespace

FlowCongestionOverlap flow_congestion_overlap(const ClusterTrace& trace,
                                              const Topology& topo,
                                              const LinkUtilizationMap& util,
                                              double threshold) {
  FlowCongestionOverlap out;
  std::vector<LinkId> path;
  for (const SocketFlowLog& f : trace.flows()) {
    if (f.bytes <= 0 || f.duration() <= 0) continue;
    const double mbps = static_cast<double>(f.bytes) * 8.0 / f.duration() / 1e6;
    out.rates_all.add(mbps);
    ++out.total_count;
    if (overlaps_hot(topo, util, threshold, f, path)) {
      out.rates_overlapping.add(mbps);
      ++out.overlapping_count;
    }
  }
  out.rates_all.finalize();
  out.rates_overlapping.finalize();
  return out;
}

ReadFailureImpact read_failure_impact(const ClusterTrace& trace, const Topology& topo,
                                      const LinkUtilizationMap& util, double threshold) {
  ReadFailureImpact out;

  // Jobs that logged at least one read failure.
  std::unordered_map<std::int32_t, bool> failed_jobs;
  for (const auto& rf : trace.read_failures()) failed_jobs[rf.job.value()] = true;

  // Jobs whose read flows overlapped a hot link.
  std::unordered_map<std::int32_t, bool> overlapping_jobs;
  std::unordered_map<std::int32_t, bool> all_jobs;
  std::vector<LinkId> path;
  for (const SocketFlowLog& f : trace.flows()) {
    if (!f.job.valid()) continue;
    if (f.kind != FlowKind::kBlockRead && f.kind != FlowKind::kShuffle) continue;
    all_jobs[f.job.value()] = true;
    if (overlapping_jobs.count(f.job.value())) continue;
    if (overlaps_hot(topo, util, threshold, f, path)) {
      overlapping_jobs[f.job.value()] = true;
    }
  }

  std::size_t fail_overlap = 0;
  std::size_t fail_clear = 0;
  for (const auto& [job, _] : all_jobs) {
    const bool overlap = overlapping_jobs.count(job) > 0;
    const bool failed = failed_jobs.count(job) > 0;
    if (overlap) {
      ++out.jobs_overlapping;
      if (failed) ++fail_overlap;
    } else {
      ++out.jobs_clear;
      if (failed) ++fail_clear;
    }
  }
  out.p_fail_overlapping =
      out.jobs_overlapping > 0
          ? static_cast<double>(fail_overlap) / static_cast<double>(out.jobs_overlapping)
          : 0.0;
  out.p_fail_clear =
      out.jobs_clear > 0
          ? static_cast<double>(fail_clear) / static_cast<double>(out.jobs_clear)
          : 0.0;
  // Laplace-smoothed ratio: keeps small-sample days finite and pulls
  // no-signal days toward zero increase.
  const double smooth_overlap = (static_cast<double>(fail_overlap) + 0.5) /
                                (static_cast<double>(out.jobs_overlapping) + 1.0);
  const double smooth_clear = (static_cast<double>(fail_clear) + 0.5) /
                              (static_cast<double>(out.jobs_clear) + 1.0);
  out.relative_increase = smooth_overlap / smooth_clear - 1.0;
  return out;
}

UtilizationSummary utilization_summary(const LinkUtilizationMap& util,
                                       const Topology& topo) {
  // Bucket per-(link, bin) utilization samples by link kind.
  std::unordered_map<int, std::vector<double>> samples;
  for (std::int32_t l = 0; l < topo.link_count(); ++l) {
    const LinkKind kind = topo.link(LinkId{l}).kind;
    const BinnedSeries& series = util.of(LinkId{l});
    auto& bucket = samples[static_cast<int>(kind)];
    for (std::size_t b = 0; b < series.bin_count(); ++b) {
      bucket.push_back(series.value(b));
    }
  }
  UtilizationSummary out;
  for (auto& [kind, xs] : samples) {
    if (xs.empty()) continue;
    UtilizationSummary::Tier tier;
    tier.kind = static_cast<LinkKind>(kind);
    double sum = 0;
    std::size_t above_half = 0;
    std::size_t idle = 0;
    for (double x : xs) {
      sum += x;
      if (x > 0.5) ++above_half;
      if (x < 0.05) ++idle;
    }
    tier.mean = sum / static_cast<double>(xs.size());
    const double probes[] = {0.5, 0.99};
    const auto qs = quantiles_inplace(xs, probes);
    tier.p50 = qs[0];
    tier.p99 = qs[1];
    tier.frac_bins_above_half = static_cast<double>(above_half) / xs.size();
    tier.frac_bins_idle = static_cast<double>(idle) / xs.size();
    out.tiers.push_back(tier);
  }
  std::sort(out.tiers.begin(), out.tiers.end(),
            [](const UtilizationSummary::Tier& a, const UtilizationSummary::Tier& b) {
              return static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });
  return out;
}

HotLinkAttribution hot_link_attribution(const ClusterTrace& trace, const Topology& topo,
                                        const LinkUtilizationMap& util, double threshold) {
  HotLinkAttribution out;
  std::vector<LinkId> path;
  for (const SocketFlowLog& f : trace.flows()) {
    if (f.bytes <= 0) continue;
    if (!overlaps_hot(topo, util, threshold, f, path)) continue;
    const double b = static_cast<double>(f.bytes);
    out.bytes_total += b;
    out.by_flow_kind[static_cast<std::size_t>(f.kind)] += b;
    if (f.phase.valid()) {
      if (const auto kind = trace.phase_kind(f.phase)) {
        out.by_phase_kind[static_cast<std::size_t>(*kind)] += b;
      }
    }
  }
  return out;
}

}  // namespace dct
