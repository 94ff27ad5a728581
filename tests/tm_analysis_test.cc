#include "analysis/traffic_matrix.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/require.h"

namespace dct {
namespace {

TopologyConfig topo_config() {
  TopologyConfig cfg;
  cfg.racks = 4;
  cfg.servers_per_rack = 4;
  cfg.racks_per_vlan = 2;
  cfg.agg_switches = 2;
  cfg.external_servers = 2;
  return cfg;
}

FlowRecord rec(std::int32_t src, std::int32_t dst, Bytes bytes, TimeSec start,
               TimeSec end) {
  FlowRecord r;
  r.id = FlowId{0};
  r.src = ServerId{src};
  r.dst = ServerId{dst};
  r.bytes_requested = bytes;
  r.bytes_sent = bytes;
  r.start = start;
  r.end = end;
  return r;
}

TEST(SparseTm, BasicAccounting) {
  SparseTm tm(4);
  tm.add(0, 1, 10);
  tm.add(0, 1, 5);
  tm.add(2, 3, 1);
  EXPECT_DOUBLE_EQ(tm.at(0, 1), 15);
  EXPECT_DOUBLE_EQ(tm.at(1, 0), 0);
  EXPECT_EQ(tm.nonzero_count(), 2u);
  EXPECT_DOUBLE_EQ(tm.total(), 16);
  EXPECT_EQ(tm.pair_count(), 12u);
  EXPECT_THROW(tm.add(4, 0, 1), Error);
  EXPECT_THROW(tm.add(0, 1, -1), Error);
}

TEST(SparseTm, L1Distance) {
  SparseTm a(3), b(3);
  a.add(0, 1, 10);
  a.add(1, 2, 4);
  b.add(0, 1, 7);
  b.add(2, 0, 5);
  // |10-7| + |4-0| + |0-5| = 12.
  EXPECT_DOUBLE_EQ(SparseTm::l1_distance(a, b), 12.0);
  EXPECT_DOUBLE_EQ(SparseTm::l1_distance(a, a), 0.0);
}

TEST(SparseTm, EntriesForVolume) {
  SparseTm tm(4);
  tm.add(0, 1, 70);
  tm.add(1, 2, 20);
  tm.add(2, 3, 10);
  EXPECT_DOUBLE_EQ(tm.entries_for_volume(0.70), 1.0);
  EXPECT_DOUBLE_EQ(tm.entries_for_volume(0.75), 2.0);
  EXPECT_DOUBLE_EQ(tm.entries_for_volume(1.0), 3.0);
  EXPECT_THROW((void)tm.entries_for_volume(0.0), Error);
}

TEST(BuildTmSeries, SpreadsFlowBytesUniformly) {
  Topology topo(topo_config());
  ClusterTrace trace(topo.server_count(), 30.0);
  // A flow of 30 bytes over [5, 15): 5 bytes into window 0, 10 into 1,
  // 15 ... wait: density 3 B/s; window [0,10) overlap 5s -> 15 B,
  // window [10,20) overlap 5s -> 15 B.
  trace.record_flow(rec(0, 5, 30, 5.0, 15.0));
  const auto tms = build_tm_series(trace, topo, 10.0, TmScope::kServer);
  ASSERT_EQ(tms.size(), 3u);
  EXPECT_NEAR(tms[0].at(0, 5), 15.0, 1e-9);
  EXPECT_NEAR(tms[1].at(0, 5), 15.0, 1e-9);
  EXPECT_NEAR(tms[2].at(0, 5), 0.0, 1e-9);
}

TEST(BuildTmSeries, InstantFlowsLandInTheirWindow) {
  Topology topo(topo_config());
  ClusterTrace trace(topo.server_count(), 30.0);
  trace.record_flow(rec(0, 5, 42, 12.0, 12.0));
  const auto tms = build_tm_series(trace, topo, 10.0, TmScope::kServer);
  EXPECT_NEAR(tms[1].at(0, 5), 42.0, 1e-9);
}

TEST(BuildTmSeries, TorScopeDropsSameRackAndExternal) {
  Topology topo(topo_config());
  ClusterTrace trace(topo.server_count(), 10.0);
  trace.record_flow(rec(0, 1, 100, 0.0, 1.0));   // same rack: dropped
  trace.record_flow(rec(0, 5, 200, 0.0, 1.0));   // rack 0 -> rack 1
  trace.record_flow(rec(0, 16, 300, 0.0, 1.0));  // to external: dropped
  const auto tms = build_tm_series(trace, topo, 10.0, TmScope::kToR);
  ASSERT_EQ(tms.size(), 1u);
  EXPECT_DOUBLE_EQ(tms[0].total(), 200.0);
  EXPECT_DOUBLE_EQ(tms[0].at(0, 1), 200.0);
}

TEST(BuildTm, WindowedSingleMatrix) {
  Topology topo(topo_config());
  ClusterTrace trace(topo.server_count(), 100.0);
  trace.record_flow(rec(0, 5, 100, 0.0, 50.0));
  const auto tm = build_tm(trace, topo, 25.0, 25.0, TmScope::kServer);
  EXPECT_NEAR(tm.at(0, 5), 50.0, 1e-9);
}

TEST(PairBytesStats, SplitsByRackAndCountsZeros) {
  Topology topo(topo_config());
  SparseTm tm(topo.server_count());
  tm.add(0, 1, std::exp(10.0));  // same rack
  tm.add(0, 5, std::exp(20.0));  // cross rack
  tm.add(0, 16, 999);            // external: excluded
  const auto stats = pair_bytes_stats(tm, topo);
  EXPECT_EQ(stats.log_bytes_within_rack.sample_count(), 1u);
  EXPECT_EQ(stats.log_bytes_across_racks.sample_count(), 1u);
  EXPECT_NEAR(stats.log_bytes_within_rack.quantile(0.5), 10.0, 1e-9);
  EXPECT_NEAR(stats.log_bytes_across_racks.quantile(0.5), 20.0, 1e-9);
  // 16 internal servers, 3 same-rack peers each: 48 ordered same-rack pairs.
  EXPECT_EQ(stats.pairs_within_rack, 48u);
  EXPECT_EQ(stats.pairs_across_racks, 16u * 12u);
  EXPECT_NEAR(stats.prob_zero_within_rack, 1.0 - 1.0 / 48.0, 1e-12);
  EXPECT_NEAR(stats.prob_zero_across_racks, 1.0 - 1.0 / 192.0, 1e-12);
}

TEST(CorrespondentStats, CountsDistinctPeersSymmetrically) {
  Topology topo(topo_config());
  SparseTm tm(topo.server_count());
  tm.add(0, 1, 5);   // in-rack pair for both 0 and 1
  tm.add(0, 2, 5);   // another in-rack peer of 0
  tm.add(5, 0, 5);   // out-rack peer of 0 (and 0 is out-rack peer of 5)
  const auto stats = correspondent_stats(tm, topo);
  // Server 0: 2 within, 1 across.  Servers 1,2: 1 within.  Server 5: 1 across.
  EXPECT_DOUBLE_EQ(stats.frac_within_rack.quantile(1.0), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(stats.median_within, 0.0);  // 12 of 16 servers idle
  EXPECT_DOUBLE_EQ(stats.frac_across_racks.quantile(1.0), 1.0 / 12.0);
}

TEST(LocalityBreakdown, FractionsSumToOne) {
  Topology topo(topo_config());
  SparseTm tm(topo.server_count());
  tm.add(0, 1, 25);    // same rack
  tm.add(0, 5, 25);    // same vlan (rack 1)
  tm.add(0, 9, 25);    // cross vlan (rack 2)
  tm.add(0, 16, 25);   // external
  const auto lb = locality_breakdown(tm, topo);
  EXPECT_DOUBLE_EQ(lb.frac_same_rack, 0.25);
  EXPECT_DOUBLE_EQ(lb.frac_same_vlan, 0.25);
  EXPECT_DOUBLE_EQ(lb.frac_cross_vlan, 0.25);
  EXPECT_DOUBLE_EQ(lb.frac_external, 0.25);
}

TEST(AggregateRateSeries, RatesFromIntervals) {
  Topology topo(topo_config());
  ClusterTrace trace(topo.server_count(), 10.0);
  trace.record_flow(rec(0, 5, 1000, 0.0, 10.0));  // 100 B/s over 10 bins
  const auto series = aggregate_rate_series(trace, 1.0);
  ASSERT_EQ(series.bin_count(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_NEAR(series.value(i), 100.0, 1e-9);
}

TEST(TmChangeSeries, DetectsParticipantChurn) {
  SparseTm a(4), b(4), c(4);
  a.add(0, 1, 100);
  b.add(0, 1, 100);  // identical: change 0
  c.add(2, 3, 100);  // same total, different participants: change 2.0
  const auto changes = tm_change_series({a, b, c});
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_DOUBLE_EQ(changes[0], 0.0);
  EXPECT_DOUBLE_EQ(changes[1], 2.0);
}

TEST(TmChangeSeries, SkipsEmptyWindows) {
  SparseTm a(4), empty(4), b(4);
  a.add(0, 1, 10);
  b.add(0, 1, 10);
  const auto changes = tm_change_series({a, empty, b});
  // a->empty computed (change 1.0); empty->b skipped (zero denominator).
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_DOUBLE_EQ(changes[0], 1.0);
}

}  // namespace
}  // namespace dct
