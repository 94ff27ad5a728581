// Golden-shape regression test for the canonical scenario.
//
// Locks the paper-facing shape statistics of the canonical workload into
// ranges, so an innocent-looking change to placement, the block store or
// the simulator that silently breaks a reproduced figure fails CI here
// rather than in a human's reading of bench output.  Ranges are generous
// (they must hold across seeds and platforms); the benches print the
// precise values.
#include <gtest/gtest.h>

#include "analysis/congestion.h"
#include "analysis/flowstats.h"
#include "analysis/traffic_matrix.h"
#include "common/fnv.h"
#include "common/stats.h"
#include "core/experiment.h"
#include "trace/codec.h"

namespace dct {
namespace {

struct GoldenRun {
  GoldenRun() : exp(scenarios::canonical(300.0, 42)) { exp.run(); }
  ClusterExperiment exp;
};

GoldenRun& golden() {
  static GoldenRun run;
  return run;
}

TEST(Golden, WorkloadScale) {
  auto& exp = golden().exp;
  EXPECT_GT(exp.trace().flow_count(), 20'000u);
  EXPECT_GT(exp.workload_stats().jobs_completed, 200);
  EXPECT_LT(exp.workload_stats().jobs_failed,
            exp.workload_stats().jobs_completed / 5);
}

TEST(Golden, Fig3ZeroEntryProbabilities) {
  auto& exp = golden().exp;
  const auto tm = build_tm(exp.trace(), exp.topology(), 150.0, 10.0, TmScope::kServer);
  const auto stats = pair_bytes_stats(tm, exp.topology());
  // Paper: ~89% same-rack, ~99.5% cross-rack.
  EXPECT_GT(stats.prob_zero_within_rack, 0.80);
  EXPECT_LT(stats.prob_zero_within_rack, 0.99);
  EXPECT_GT(stats.prob_zero_across_racks, 0.97);
  // The locality ordering is the core claim.
  EXPECT_LT(stats.prob_zero_within_rack, stats.prob_zero_across_racks);
}

TEST(Golden, Fig4CorrespondentMedians) {
  auto& exp = golden().exp;
  const auto tm = build_tm(exp.trace(), exp.topology(), 150.0, 10.0, TmScope::kServer);
  const auto stats = correspondent_stats(tm, exp.topology());
  // Paper: 2 in-rack / 4 out-of-rack; allow generous bands.
  EXPECT_LE(stats.median_within, 6.0);
  EXPECT_LE(stats.median_across, 15.0);
}

TEST(Golden, Fig5CongestionIsWidespreadButOrdered) {
  auto& exp = golden().exp;
  const auto r70 = congestion_report(exp.utilization(), exp.topology(), 0.7);
  const auto r95 = congestion_report(exp.utilization(), exp.topology(), 0.95);
  // Paper: most inter-switch links see >= 10 s of congestion; a minority
  // see >= 100 s; higher thresholds see less.
  EXPECT_GT(r70.frac_links_hot_10s, 0.3);
  EXPECT_GT(r70.frac_links_hot_10s, r70.frac_links_hot_100s);
  EXPECT_GE(r70.frac_links_hot_10s, r95.frac_links_hot_10s);
  EXPECT_GT(r70.episodes_over_10s, 0u);
}

TEST(Golden, Fig9FlowDurationShape) {
  auto& exp = golden().exp;
  const auto stats = flow_duration_stats(exp.trace());
  // Paper: >80% of flows < 10 s; <0.1% > 200 s (we allow <1%); most bytes
  // in short flows.
  EXPECT_GT(stats.frac_flows_under_10s, 0.8);
  EXPECT_LT(stats.frac_flows_over_200s, 0.01);
  EXPECT_GT(stats.by_bytes.at(25.0), 0.5);
}

TEST(Golden, Fig10TmChurnIsLarge) {
  auto& exp = golden().exp;
  const auto tms = build_tm_series(exp.trace(), exp.topology(), 10.0, TmScope::kServer);
  const auto changes = tm_change_series(tms);
  ASSERT_GT(changes.size(), 5u);
  double median_change = quantile(changes, 0.5);
  EXPECT_GT(median_change, 0.5);  // "the traffic mix changes frequently"
}

TEST(Golden, Fig11StopAndGoPeriodicity) {
  auto& exp = golden().exp;
  const auto server =
      inter_arrival_stats(exp.trace(), exp.topology(), ArrivalScope::kServer);
  const auto p = inter_arrival_periodicity(server);
  EXPECT_GT(p.score, 0.3);
  EXPECT_GT(p.best_lag_ms, 10.0);
  EXPECT_LT(p.best_lag_ms, 45.0);
}

TEST(Golden, WorkSeeksBandwidthHoldsRelativeToRandom) {
  auto& exp = golden().exp;
  const auto tm = build_tm(exp.trace(), exp.topology(), 150.0, 10.0, TmScope::kServer);
  const auto lb = locality_breakdown(tm, exp.topology());
  // Under uniform-random endpoints, same-rack share would be
  // (servers_per_rack-1)/(internal-1) ~ 3.8%.  Locality placement must
  // beat that by an order of magnitude.
  EXPECT_GT(lb.frac_same_rack, 0.15);
}

// Byte pins: FNV-1a of the encoded trace of three seeded scenarios, one
// fault-free, one with device failures (reroutes and kills) and one with
// link-capacity overlays.  The shape checks above tolerate small drift;
// these do not.  A change to event order or to the fluid arithmetic moves
// them, so a speed-up that claims identical output must leave them alone.
// Re-pin only on purpose, and say why in the commit.
std::uint64_t trace_digest(const ScenarioConfig& cfg) {
  ClusterExperiment exp(cfg);
  exp.run();
  return fnv1a(kFnvOffset, encode_trace(exp.trace()));
}

TEST(GoldenBytes, TinyTraceIsPinned) {
  EXPECT_EQ(trace_digest(scenarios::tiny(60.0, 42)), 0x10863e4f3b5b8195ULL);
}

TEST(GoldenBytes, FaultStormTraceIsPinned) {
  EXPECT_EQ(trace_digest(scenarios::fault_storm(120.0, 42)), 0x2f7887acf0c04667ULL);
}

TEST(GoldenBytes, GrayFailureTraceIsPinned) {
  EXPECT_EQ(trace_digest(scenarios::gray_failure(60.0, 42)), 0x12bf2db9b6621e46ULL);
}

}  // namespace
}  // namespace dct
