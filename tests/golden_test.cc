// Golden-shape regression test for the canonical scenario.
//
// Locks the paper-facing shape statistics of the canonical workload into
// ranges, so an innocent-looking change to placement, the block store or
// the simulator that silently breaks a reproduced figure fails CI here
// rather than in a human's reading of bench output.  Ranges are generous
// (they must hold across seeds and platforms); the benches print the
// precise values.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string_view>
#include <tuple>
#include <vector>

#include "analysis/congestion.h"
#include "analysis/flowstats.h"
#include "analysis/traffic_matrix.h"
#include "common/fnv.h"
#include "common/stats.h"
#include "core/experiment.h"
#include "tomography/estimators.h"
#include "tomography/routing.h"
#include "trace/codec.h"
#include "trace/collector_faults.h"
#include "trace/snmp.h"

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

void fold_bins(Fingerprint& fp, const BinnedSeries& s) {
  fp.f64(s.start_time()).f64(s.bin_width()).u64(s.bin_count());
  for (const double v : s.values()) fp.f64(v);
}

std::uint64_t utilization_digest(const LinkUtilizationMap& util) {
  Fingerprint fp;
  fp.f64(util.bin_width).u64(util.per_link.size());
  for (const BinnedSeries& s : util.per_link) fold_bins(fp, s);
  return fp.value();
}

// The simulator's work counters (docs/METRICS.md): seed-deterministic, so
// a change of algorithmic work fails here on any host.
struct FlowSimWork {
  std::uint64_t flow_deposits;
  std::uint64_t link_deposits;
  std::uint64_t completions_queued;
};

std::uint64_t counter(const ClusterExperiment& exp, std::string_view full_name) {
  for (const auto& [name, value] : exp.registry().scalar_snapshot()) {
    if (name == full_name) return static_cast<std::uint64_t>(value);
  }
  ADD_FAILURE() << "no counter " << full_name;
  return 0;
}

// Byte pins: FNV-1a of the encoded trace of three seeded scenarios, one
// fault-free, one with device failures (reroutes and kills) and one with
// link-capacity overlays, and of the simulator's own per-link byte series,
// which exp.utilization() and the SNMP counters read.  The shape checks
// above tolerate small drift; these do not.  A change to event order or to
// the fluid arithmetic moves them, so a speed-up that claims identical
// output must leave them alone.  Every link bin sums deposits in flow
// order, then path order, so a deposit rewrite that leaves the trace alone
// can still move the link series.  The work counters pin what the
// simulator did to get there.  Re-pin only on purpose, and say why in the
// commit.
void expect_pinned(const ScenarioConfig& cfg, std::uint64_t trace, std::uint64_t links,
                   FlowSimWork work) {
  ClusterExperiment exp(cfg);
  exp.run();
  EXPECT_EQ(fnv1a(kFnvOffset, encode_trace(exp.trace())), trace);
  EXPECT_EQ(utilization_digest(exp.utilization()), links);
  EXPECT_EQ(counter(exp, "flowsim.flow_deposits"), work.flow_deposits);
  EXPECT_EQ(counter(exp, "flowsim.link_deposits"), work.link_deposits);
  EXPECT_EQ(counter(exp, "flowsim.completions_queued"), work.completions_queued);
}

TEST(GoldenBytes, TinyTraceIsPinned) {
  expect_pinned(scenarios::tiny(60.0, 42), 0xa0fe3b24d44a4c49ULL, 0x6453f4f4dd69e193ULL,
                {1'122, 4'384, 1'107});
}

TEST(GoldenBytes, FaultStormTraceIsPinned) {
  expect_pinned(scenarios::fault_storm(120.0, 42), 0x7c66f6cbbd889e8cULL,
                0xb066b68a7b77e27fULL, {284'454, 1'313'482, 261'745});
}

TEST(GoldenBytes, GrayFailureTraceIsPinned) {
  expect_pinned(scenarios::gray_failure(60.0, 42), 0x1972e0468aa90aa2ULL,
                0xe0c536d7a9b8d0d7ULL, {78'994, 358'540, 63'661});
}

// Analysis and decode pins: FNV-1a of each stage's output on fixed inputs.
// Every stage makes one pass in input order (docs/PERFORMANCE.md), so a
// rewrite that changes the deposit order or the order in which cells enter
// a matrix moves these digests even where the shape checks above still
// pass.  TM cells fold in (from, to) order; tm_change_series also reads the
// matrices' iteration order.  Re-pin only on purpose.
void fold_tm(Fingerprint& fp, const SparseTm& tm) {
  auto cells = tm.entries();
  std::sort(cells.begin(), cells.end(), [](const auto& a, const auto& b) {
    return std::tie(a.from, a.to) < std::tie(b.from, b.to);
  });
  fp.u64(tm.size()).u64(cells.size()).f64(tm.total());
  for (const auto& c : cells) fp.u64(c.from).u64(c.to).f64(c.bytes);
}

std::uint64_t tm_series_digest(const std::vector<SparseTm>& tms) {
  Fingerprint fp;
  fp.u64(tms.size());
  for (const SparseTm& tm : tms) fold_tm(fp, tm);
  for (const double c : tm_change_series(tms)) fp.f64(c);
  return fp.value();
}

void fold_cdf(Fingerprint& fp, const Cdf& cdf) {
  fp.u64(cdf.sample_count());
  if (cdf.empty()) return;
  for (int i = 0; i <= 100; ++i) fp.f64(cdf.quantile(i / 100.0));
}

TEST(GoldenAnalysis, TmSeriesArePinned) {
  auto& exp = golden().exp;
  ASSERT_EQ(exp.trace().flow_count(), 50'823u);
  const auto digest = [&](TimeSec window, TmScope scope) {
    return tm_series_digest(build_tm_series(exp.trace(), exp.topology(), window, scope));
  };
  EXPECT_EQ(digest(1.0, TmScope::kServer), 0xe81ebb6f85058b9cULL);
  EXPECT_EQ(digest(10.0, TmScope::kServer), 0xd0e5d38be7d61291ULL);
  EXPECT_EQ(digest(10.0, TmScope::kToR), 0xf11570e6b0e99cf0ULL);
}

TEST(GoldenAnalysis, SingleWindowTmIsPinned) {
  auto& exp = golden().exp;
  Fingerprint fp;
  // The whole run, so that every flow adds into the matrix.
  fold_tm(fp, build_tm(exp.trace(), exp.topology(), 0.0, 300.0, TmScope::kServer));
  EXPECT_EQ(fp.value(), 0xeb1b597addadcba3ULL);
}

TEST(GoldenAnalysis, UtilizationAndCongestionArePinned) {
  auto& exp = golden().exp;
  const auto util = utilization_from_trace(exp.trace(), exp.topology(), 1.0);
  EXPECT_EQ(utilization_digest(util), 0xf9a0ad1932e3204bULL);

  const auto r = congestion_report(util, exp.topology(), 0.7);
  Fingerprint fp;
  fp.f64(r.threshold).f64(r.frac_links_hot_10s).f64(r.frac_links_hot_100s);
  fp.u64(r.episodes_over_1s).u64(r.episodes_over_10s).f64(r.longest_episode);
  fp.u64(r.episode_durations.size());
  for (const double d : r.episode_durations) fp.f64(d);
  fold_bins(fp, r.hot_links_over_time);
  fp.u64(r.inter_switch.size());
  for (const LinkCongestion& lc : r.inter_switch) {
    fp.u64(lc.link.value()).u64(static_cast<std::uint8_t>(lc.kind));
    fp.u64(lc.episodes.size());
    for (const ThresholdEpisode& e : lc.episodes) {
      fp.f64(e.start).f64(e.end).f64(e.peak).f64(e.mean).u64(e.bins);
    }
  }
  EXPECT_EQ(fp.value(), 0x751c9d1b9a7175c7ULL);
}

TEST(GoldenAnalysis, FlowStatsArePinned) {
  auto& exp = golden().exp;
  Fingerprint fp;
  const auto dur = flow_duration_stats(exp.trace());
  fold_cdf(fp, dur.by_count);
  fold_cdf(fp, dur.by_bytes);
  fp.f64(dur.frac_flows_under_10s).f64(dur.frac_flows_over_200s);
  fp.f64(dur.median_bytes_duration);
  const auto size = flow_size_stats(exp.trace());
  fold_cdf(fp, size.bytes);
  fp.f64(size.p50).f64(size.p99).f64(size.max);
  for (const auto scope :
       {ArrivalScope::kCluster, ArrivalScope::kServer, ArrivalScope::kToR}) {
    const auto ia = inter_arrival_stats(exp.trace(), exp.topology(), scope);
    fold_cdf(fp, ia.inter_arrival_ms);
    fp.f64(ia.median_ms).f64(ia.p99_ms).f64(ia.max_ms).f64(ia.median_rate_per_s);
  }
  EXPECT_EQ(fp.value(), 0xd036734941810bffULL);
}

TEST(GoldenAnalysis, DecodeIsPinned) {
  auto& exp = golden().exp;
  EXPECT_EQ(fnv1a(kFnvOffset, encode_trace(decode_trace(encode_trace(exp.trace())))),
            0xd4dba0d40d19cbd4ULL);
}

// An observed trace whose records were lost on many servers, so ledger
// corrections for different servers meet in shared cells.
struct LossyRun {
  LossyRun() : exp(scenarios::lossy_telemetry(60.0, 42)) { exp.run(); }
  ClusterExperiment exp;
};

LossyRun& lossy() {
  static LossyRun run;
  return run;
}

TEST(GoldenAnalysis, GapAwareTmIsPinned) {
  auto& exp = lossy().exp;
  const ClusterTrace& observed = exp.observed_trace();
  std::set<std::int32_t> lossy_servers;
  for (const GapRecord& g : observed.gaps()) {
    if (g.records_lost > 0) lossy_servers.insert(g.server.value());
  }
  ASSERT_EQ(lossy_servers.size(), 148u);
  const auto digest = [&](TimeSec window, TmScope scope) {
    return tm_series_digest(
        build_tm_series_gap_aware(observed, exp.topology(), window, scope));
  };
  EXPECT_EQ(digest(5.0, TmScope::kServer), 0xcab56c14a6f34c55ULL);
  EXPECT_EQ(digest(10.0, TmScope::kToR), 0xfc07cebacebb4140ULL);
}

// Merge and solver pins.  The merge folds the observed trace's bytes, every
// merge counter and each gap's lost-record count; the solvers fold their
// estimates cell by cell in (i, j) order.  Each sum in the tomogravity
// operator keeps its operands and their order (docs/PERFORMANCE.md), so a
// rewrite that reorders one reduction moves these.  Re-pin only on purpose.
TEST(GoldenAnalysis, TelemetryMergeIsPinned) {
  auto& exp = lossy().exp;
  const ClusterTrace& observed = exp.observed_trace();
  const TelemetryMergeStats& s = exp.telemetry_stats();
  EXPECT_EQ(s.uploads_lost, 156u);
  EXPECT_EQ(s.uploads_truncated, 151u);
  EXPECT_EQ(s.uploads_duplicated, 127u);
  EXPECT_EQ(s.records_lost, 2145u);
  EXPECT_EQ(s.duplicates_dropped, 895u);
  EXPECT_EQ(s.flows_recovered, 942u);
  EXPECT_EQ(s.flows_lost, 118u);
  Fingerprint fp;
  fp.u64(fnv1a(kFnvOffset, encode_trace(observed)));
  fp.u64(s.uploads_lost).u64(s.uploads_truncated).u64(s.uploads_duplicated);
  fp.u64(s.records_lost).u64(s.duplicates_dropped).u64(s.flows_recovered);
  fp.u64(s.flows_lost).u64(observed.gaps().size());
  for (const GapRecord& g : observed.gaps()) {
    fp.u64(static_cast<std::uint64_t>(g.records_lost));
  }
  EXPECT_EQ(fp.value(), 0x4f3f8eedbfb4bdc4ULL);
}

void fold_dense(Fingerprint& fp, const DenseTorTm& tm) {
  fp.u64(static_cast<std::uint64_t>(tm.size()));
  for (const double v : tm.raw()) fp.f64(v);
}

TEST(GoldenAnalysis, TomographyIsPinned) {
  Fingerprint fp;
  {
    auto& exp = golden().exp;
    const RoutingMatrix routing(exp.topology());
    const auto activity = job_tor_activity(exp.trace(), exp.topology());
    std::size_t windows = 0;
    for (const SparseTm& tm :
         build_tm_series(exp.trace(), exp.topology(), 10.0, TmScope::kToR)) {
      if (tm.total() <= 0 || tm.nonzero_count() < 3) continue;
      ++windows;
      const auto loads = routing.link_loads(DenseTorTm::from_sparse(tm));
      fold_dense(fp, tomogravity(routing, loads));
      fold_dense(fp, tomogravity(routing, loads,
                                 job_augmented_prior(routing, loads, activity)));
      fold_dense(fp, sparsity_max(routing, loads));
    }
    EXPECT_EQ(windows, 30u);
  }
  // The lossy run's SNMP plane: timed-out polls and counter resets mask
  // rows out of the constraint set.
  auto& exp = lossy().exp;
  const RoutingMatrix routing(exp.topology());
  auto counters = SnmpCounters::collect(exp.sim(), exp.topology(),
                                        exp.scenario().telemetry.snmp_poll_interval,
                                        exp.scenario().telemetry.snmp_counter_width);
  apply_snmp_faults(counters, exp.topology(), exp.telemetry_schedule());
  std::size_t masked_rows = 0;
  std::vector<double> loads(static_cast<std::size_t>(routing.link_count()));
  for (TimeSec t0 = 0; t0 < exp.trace().duration(); t0 += 10.0) {
    for (std::int32_t m = 0; m < routing.link_count(); ++m) {
      loads[static_cast<std::size_t>(m)] =
          counters.bytes_between(routing.link_at(m), t0, t0 + 10.0);
    }
    const auto mask = reliable_link_mask(routing, counters, t0, t0 + 10.0);
    masked_rows += static_cast<std::size_t>(std::count(mask.begin(), mask.end(), 0));
    fold_dense(fp, tomogravity_masked(routing, loads, mask));
  }
  EXPECT_GT(masked_rows, 0u);
  EXPECT_EQ(fp.value(), 0x9ae42813c5252799ULL);
}

}  // namespace
}  // namespace dct
