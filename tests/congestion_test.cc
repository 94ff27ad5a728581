#include "analysis/congestion.h"

#include <gtest/gtest.h>

#include "common/require.h"

namespace dct {
namespace {

TopologyConfig topo_config() {
  TopologyConfig cfg;
  cfg.racks = 4;
  cfg.servers_per_rack = 4;
  cfg.racks_per_vlan = 2;
  cfg.agg_switches = 2;
  cfg.external_servers = 1;
  return cfg;
}

// A utilization map with all-zero series except chosen links.
LinkUtilizationMap zero_util(const Topology& topo, std::size_t bins) {
  LinkUtilizationMap util;
  util.bin_width = 1.0;
  for (std::int32_t l = 0; l < topo.link_count(); ++l) {
    util.per_link.emplace_back(0.0, 1.0, bins);
  }
  return util;
}

void set_hot(LinkUtilizationMap& util, LinkId l, std::size_t from, std::size_t to,
             double level = 0.9) {
  for (std::size_t b = from; b < to; ++b) {
    util.per_link[static_cast<std::size_t>(l.value())].add_point(static_cast<double>(b),
                                                                 level);
  }
}

FlowRecord rec(std::int32_t src, std::int32_t dst, Bytes bytes, TimeSec start,
               TimeSec end) {
  FlowRecord r;
  r.src = ServerId{src};
  r.dst = ServerId{dst};
  r.bytes_requested = bytes;
  r.bytes_sent = bytes;
  r.start = start;
  r.end = end;
  r.kind = FlowKind::kBlockRead;
  return r;
}

TEST(CongestionReport, CountsEpisodesAndLinkFractions) {
  Topology topo(topo_config());
  auto util = zero_util(topo, 200);
  // One ToR uplink hot for 15 s, another for 120 s, a third for 2 s.
  set_hot(util, topo.tor_up_link(RackId{0}), 10, 25);
  set_hot(util, topo.tor_up_link(RackId{1}), 30, 150);
  set_hot(util, topo.tor_up_link(RackId{2}), 50, 52);
  const auto report = congestion_report(util, topo, 0.7);

  const double n_links = static_cast<double>(topo.inter_switch_links().size());
  EXPECT_NEAR(report.frac_links_hot_10s, 2.0 / n_links, 1e-12);
  EXPECT_NEAR(report.frac_links_hot_100s, 1.0 / n_links, 1e-12);
  EXPECT_EQ(report.episodes_over_1s, 3u);   // 15s, 120s and 2s all exceed 1s
  EXPECT_EQ(report.episodes_over_10s, 2u);
  EXPECT_DOUBLE_EQ(report.longest_episode, 120.0);
  ASSERT_EQ(report.episode_durations.size(), 3u);

  // "when": during [30,150) exactly one link is hot except [10,25) overlap...
  EXPECT_DOUBLE_EQ(report.hot_links_over_time.value(12), 1.0);
  EXPECT_DOUBLE_EQ(report.hot_links_over_time.value(51), 2.0);  // rack1 + rack2
  EXPECT_DOUBLE_EQ(report.hot_links_over_time.value(160), 0.0);
}

TEST(CongestionReport, ThresholdMatters) {
  Topology topo(topo_config());
  auto util = zero_util(topo, 50);
  set_hot(util, topo.tor_up_link(RackId{0}), 0, 50, 0.75);
  EXPECT_GT(congestion_report(util, topo, 0.7).episodes_over_10s, 0u);
  EXPECT_EQ(congestion_report(util, topo, 0.9).episodes_over_10s, 0u);
  EXPECT_THROW(congestion_report(util, topo, 0.0), Error);
}

TEST(UtilizationFromTrace, ApproximatesLinkLoad) {
  Topology topo(topo_config());
  ClusterTrace trace(topo.server_count(), 10.0);
  // 125 MB over 1 s from server 0 to 5: saturates 0's uplink in that second.
  trace.record_flow(rec(0, 5, 125'000'000, 2.0, 3.0));
  const auto util = utilization_from_trace(trace, topo, 1.0);
  const auto& up = util.of(topo.server_up_link(ServerId{0}));
  EXPECT_NEAR(up.value(2), 1.0, 1e-9);
  EXPECT_NEAR(up.value(3), 0.0, 1e-9);
  // The ToR uplink (1.5 Gbps) sees utilization 125/187.5.
  const auto& tor = util.of(topo.tor_up_link(RackId{0}));
  EXPECT_NEAR(tor.value(2), 125e6 / (gbps(1.5)), 1e-9);
}

TEST(FlowCongestionOverlap, SplitsFlowsByHotPath) {
  Topology topo(topo_config());
  auto util = zero_util(topo, 20);
  set_hot(util, topo.tor_up_link(RackId{0}), 5, 10);
  ClusterTrace trace(topo.server_count(), 20.0);
  trace.record_flow(rec(0, 5, 1000, 6.0, 8.0));    // crosses hot ToR uplink
  trace.record_flow(rec(0, 5, 1000, 12.0, 14.0));  // same path, cool period
  trace.record_flow(rec(8, 9, 1000, 6.0, 8.0));    // same-rack elsewhere: cool
  const auto overlap = flow_congestion_overlap(trace, topo, util, 0.7);
  EXPECT_EQ(overlap.total_count, 3u);
  EXPECT_EQ(overlap.overlapping_count, 1u);
  EXPECT_EQ(overlap.rates_all.sample_count(), 3u);
  EXPECT_EQ(overlap.rates_overlapping.sample_count(), 1u);
}

TEST(ReadFailureImpact, ComputesRelativeIncrease) {
  Topology topo(topo_config());
  auto util = zero_util(topo, 20);
  set_hot(util, topo.tor_up_link(RackId{0}), 0, 20);

  ClusterTrace trace(topo.server_count(), 20.0);
  // Jobs 0,1: flows crossing the hot link; job 0 fails.
  auto f = rec(0, 5, 1000, 1.0, 2.0);
  f.job = JobId{0};
  trace.record_flow(f);
  f.job = JobId{1};
  trace.record_flow(f);
  // Jobs 2,3,4,5: cool same-rack flows elsewhere; job 2 fails.
  auto g = rec(8, 9, 1000, 1.0, 2.0);
  for (int j = 2; j <= 5; ++j) {
    g.job = JobId{j};
    trace.record_flow(g);
  }
  ReadFailureRecord rf;
  rf.job = JobId{0};
  rf.reader = ServerId{5};
  rf.source = ServerId{0};
  trace.record_read_failure(rf);
  rf.job = JobId{2};
  trace.record_read_failure(rf);

  const auto impact = read_failure_impact(trace, topo, util, 0.7);
  EXPECT_EQ(impact.jobs_overlapping, 2u);
  EXPECT_EQ(impact.jobs_clear, 4u);
  EXPECT_DOUBLE_EQ(impact.p_fail_overlapping, 0.5);
  EXPECT_DOUBLE_EQ(impact.p_fail_clear, 0.25);
  // Smoothed ratio: ((1+0.5)/(2+1)) / ((1+0.5)/(4+1)) - 1 = 2/3.
  EXPECT_NEAR(impact.relative_increase, 2.0 / 3.0, 1e-12);
}

TEST(HotLinkAttribution, JoinsFlowsWithPhaseKinds) {
  Topology topo(topo_config());
  auto util = zero_util(topo, 20);
  set_hot(util, topo.tor_up_link(RackId{0}), 0, 20);

  ClusterTrace trace(topo.server_count(), 20.0);
  auto f = rec(0, 5, 1000, 1.0, 2.0);
  f.kind = FlowKind::kShuffle;
  f.job = JobId{0};
  f.phase = PhaseId{3};
  trace.record_flow(f);
  auto g = rec(0, 6, 500, 1.0, 2.0);
  g.kind = FlowKind::kEvacuation;
  trace.record_flow(g);
  auto cool = rec(8, 9, 9999, 1.0, 2.0);
  trace.record_flow(cool);

  PhaseLogRecord p;
  p.job = JobId{0};
  p.phase = PhaseId{3};
  p.kind = PhaseKind::kAggregate;
  trace.record_phase(p);
  trace.build_indices();

  const auto attr = hot_link_attribution(trace, topo, util, 0.7);
  EXPECT_DOUBLE_EQ(attr.bytes_total, 1500.0);
  EXPECT_DOUBLE_EQ(attr.by_flow_kind[static_cast<int>(FlowKind::kShuffle)], 1000.0);
  EXPECT_DOUBLE_EQ(attr.by_flow_kind[static_cast<int>(FlowKind::kEvacuation)], 500.0);
  EXPECT_DOUBLE_EQ(attr.by_phase_kind[static_cast<int>(PhaseKind::kAggregate)], 1000.0);
}

TEST(LinkUtilizationMap, RangeChecks) {
  Topology topo(topo_config());
  auto util = zero_util(topo, 5);
  EXPECT_THROW((void)util.of(LinkId{}), Error);
  EXPECT_THROW((void)util.of(LinkId{99999}), Error);
  EXPECT_THROW(utilization_from_trace(ClusterTrace(4, 1.0), topo, 0.0), Error);
}

}  // namespace
}  // namespace dct
