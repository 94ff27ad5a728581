#include "analysis/flowstats.h"

#include <gtest/gtest.h>

#include "common/require.h"
#include "common/rng.h"

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

FlowRecord rec(std::int32_t src, std::int32_t dst, Bytes bytes, TimeSec start,
               TimeSec end) {
  FlowRecord r;
  r.src = ServerId{src};
  r.dst = ServerId{dst};
  r.bytes_requested = bytes;
  r.bytes_sent = bytes;
  r.start = start;
  r.end = end;
  return r;
}

TEST(FlowDurationStats, CountAndByteWeightedCdfs) {
  Topology topo(topo_config());
  ClusterTrace trace(topo.server_count(), 1000.0);
  // Three 1-second flows of 1 byte, one 100-second flow of 997 bytes.
  for (int i = 0; i < 3; ++i) trace.record_flow(rec(0, 5, 1, 0.0, 1.0));
  trace.record_flow(rec(0, 5, 997, 0.0, 100.0));
  const auto stats = flow_duration_stats(trace);
  EXPECT_DOUBLE_EQ(stats.frac_flows_under_10s, 0.75);
  EXPECT_DOUBLE_EQ(stats.frac_flows_over_200s, 0.0);
  // By bytes, virtually everything sits in the 100-second flow.
  EXPECT_DOUBLE_EQ(stats.median_bytes_duration, 100.0);
  EXPECT_NEAR(stats.by_bytes.at(1.0), 3.0 / 1000.0, 1e-12);
}

TEST(FlowDurationStats, TruncatedFlowsExcluded) {
  Topology topo(topo_config());
  ClusterTrace trace(topo.server_count(), 10.0);
  auto r = rec(0, 5, 100, 0.0, 10.0);
  r.truncated = true;
  trace.record_flow(r);
  trace.record_flow(rec(0, 5, 100, 0.0, 1.0));
  const auto stats = flow_duration_stats(trace);
  EXPECT_EQ(stats.by_count.sample_count(), 1u);
}

TEST(InterArrivalStats, ClusterScopeGaps) {
  Topology topo(topo_config());
  ClusterTrace trace(topo.server_count(), 10.0);
  // Arrivals at 0.0, 0.1, 0.3 -> gaps 100 ms and 200 ms.
  trace.record_flow(rec(0, 5, 10, 0.0, 1.0));
  trace.record_flow(rec(1, 6, 10, 0.1, 1.0));
  trace.record_flow(rec(2, 7, 10, 0.3, 1.0));
  const auto stats = inter_arrival_stats(trace, topo, ArrivalScope::kCluster);
  EXPECT_EQ(stats.inter_arrival_ms.sample_count(), 2u);
  EXPECT_NEAR(stats.median_ms, 100.0, 1e-6);
  EXPECT_NEAR(stats.max_ms, 200.0, 1e-6);
  EXPECT_NEAR(stats.median_rate_per_s, 10.0, 1e-6);
}

TEST(InterArrivalStats, ServerScopePoolsPerServerGaps) {
  Topology topo(topo_config());
  ClusterTrace trace(topo.server_count(), 10.0);
  // Server 0 sends at 0.0 and 0.2; server 5 receives both -> also sees both.
  trace.record_flow(rec(0, 5, 10, 0.0, 1.0));
  trace.record_flow(rec(0, 5, 10, 0.2, 1.0));
  const auto stats = inter_arrival_stats(trace, topo, ArrivalScope::kServer);
  // Two servers each saw one 200 ms gap.
  EXPECT_EQ(stats.inter_arrival_ms.sample_count(), 2u);
  EXPECT_NEAR(stats.median_ms, 200.0, 1e-6);
}

TEST(InterArrivalStats, TorScopeSeesRackTraffic) {
  Topology topo(topo_config());
  ClusterTrace trace(topo.server_count(), 10.0);
  // Cross-rack flow: both rack 0 (local side) and rack 1 (peer side) see it.
  trace.record_flow(rec(0, 5, 10, 0.0, 1.0));
  trace.record_flow(rec(1, 6, 10, 0.5, 1.0));
  const auto stats = inter_arrival_stats(trace, topo, ArrivalScope::kToR);
  // Rack 0 gaps: 1 (two sender-side starts).  Rack 1: 1 (two receiver-side).
  EXPECT_EQ(stats.inter_arrival_ms.sample_count(), 2u);
  EXPECT_NEAR(stats.median_ms, 500.0, 1e-6);
}

TEST(InterArrivalModes, FindsPeriodicSpacing) {
  Topology topo(topo_config());
  ClusterTrace trace(topo.server_count(), 100.0);
  // Arrivals spaced exactly 15 ms apart plus sparse noise.
  TimeSec t = 0;
  for (int i = 0; i < 500; ++i) {
    trace.record_flow(rec(0, 5, 10, t, t + 0.001));
    t += 0.015;
  }
  trace.record_flow(rec(1, 6, 10, 0.0071, 1.0));
  const auto stats = inter_arrival_stats(trace, topo, ArrivalScope::kCluster);
  const auto modes = inter_arrival_modes(stats, 120.0, 3);
  ASSERT_GE(modes.size(), 1u);
  EXPECT_NEAR(modes[0], 15.0, 1.5);
}

TEST(InterArrivalModes, EmptyTraceYieldsNoModes) {
  Topology topo(topo_config());
  ClusterTrace trace(topo.server_count(), 10.0);
  const auto stats = inter_arrival_stats(trace, topo, ArrivalScope::kCluster);
  EXPECT_TRUE(inter_arrival_modes(stats).empty());
  EXPECT_THROW(inter_arrival_modes(stats, 0.5), Error);
}

TEST(FlowSizeStats, QuantilesOfSizes) {
  Topology topo(topo_config());
  ClusterTrace trace(topo.server_count(), 10.0);
  for (int i = 1; i <= 100; ++i) {
    trace.record_flow(rec(0, 5, i * 1000, 0.0, 1.0));
  }
  const auto stats = flow_size_stats(trace);
  EXPECT_NEAR(stats.p50, 50'000, 1000);
  EXPECT_NEAR(stats.p99, 99'000, 1000);
  EXPECT_DOUBLE_EQ(stats.max, 100'000);
}


TEST(Periodicity, PeriodicCombScoresHigh) {
  Topology topo(topo_config());
  ClusterTrace trace(topo.server_count(), 1000.0);
  Rng rng(9);
  TimeSec t = 0;
  // Gaps at k x 15 ms (a sender waiting whole stop-and-go cycles), jittered.
  for (int i = 0; i < 4000; ++i) {
    trace.record_flow(rec(0, 5, 10, t, t + 0.001));
    t += 0.015 * static_cast<double>(rng.uniform_int(1, 4)) +
         rng.uniform(-0.0005, 0.0005);
  }
  const auto stats = inter_arrival_stats(trace, topo, ArrivalScope::kCluster);
  const auto p = inter_arrival_periodicity(stats);
  EXPECT_GT(p.score, 0.3);
  EXPECT_NEAR(p.best_lag_ms, 15.0, 2.0);
}

TEST(Periodicity, PoissonArrivalsScoreLow) {
  Topology topo(topo_config());
  ClusterTrace trace(topo.server_count(), 1000.0);
  Rng rng(11);
  TimeSec t = 0;
  for (int i = 0; i < 2000; ++i) {
    t += rng.exponential(0.03);
    trace.record_flow(rec(0, 5, 10, t, t + 0.001));
  }
  const auto stats = inter_arrival_stats(trace, topo, ArrivalScope::kCluster);
  const auto p = inter_arrival_periodicity(stats);
  EXPECT_LT(p.score, 0.4);
}

TEST(Periodicity, RejectsBadLagRange) {
  Topology topo(topo_config());
  ClusterTrace trace(topo.server_count(), 10.0);
  const auto stats = inter_arrival_stats(trace, topo, ArrivalScope::kCluster);
  EXPECT_THROW((void)inter_arrival_periodicity(stats, 50.0, 5.0, 60.0), Error);
  EXPECT_THROW((void)inter_arrival_periodicity(stats, 120.0, 30.0, 10.0), Error);
}

}  // namespace
}  // namespace dct
