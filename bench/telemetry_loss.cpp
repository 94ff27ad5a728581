// Lossy measurement plane study: gap-aware analysis vs naive analysis.
//
// The paper's numbers come from "a large fraction of the servers" (§2) — the
// instrumentation itself runs on the same unreliable hardware it measures.
// This bench runs the `lossy_telemetry` scenario, which couples a telemetry
// fault plan (crash tail loss, lost / truncated / duplicated uploads, SNMP
// timeouts, counter resets on reboot) to the device fault schedule, and
// compares three views of the SAME run:
//
//   truth     — the perfectly collected trace (what the simulator saw),
//   naive     — build_tm_series on the lossily merged trace, gaps ignored,
//   gap-aware — build_tm_series_gap_aware, ledger-corrected from the exact
//               per-gap lost-record counts the hardened merge recovers.
//
// Both analysis arms consume the identical observed trace and identical
// telemetry schedule by construction (one experiment produces both), so the
// comparison is matched-pair by design.  A separate zero-loss run certifies
// the gating contract: with an empty telemetry config the observed trace IS
// the collected trace, it records no coverage gaps, and the telemetry
// schedule hash is 0.
//
// Exit status is the verdict: 0 iff the lossy arm really lost >= 10% of its
// socket-log records, gap-aware STRICTLY beats naive on TM RMSRE pooled
// over each window's dominant cells (the cells carrying 75% of the window's
// volume), and every zero-loss bit-identity check holds.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "analysis/traffic_matrix.h"
#include "bench_util.h"
#include "common/stats.h"
#include "tomography/estimators.h"
#include "tomography/metrics.h"
#include "tomography/routing.h"
#include "trace/collector_faults.h"
#include "trace/snmp.h"

namespace {

constexpr double kTmWindow = 10.0;    // TM comparison window (s)
constexpr double kTomoWindow = 60.0;  // SNMP/tomography window (s)

/// Pools squared relative TM-cell errors of `est` against `truth` over each
/// window's dominant cells — the truth cells at or above the window's
/// 75%-volume threshold (tomography/metrics.h).  Relative error on the long
/// tail of near-zero cells is noise in both arms; the dominant cells are
/// what capacity planning actually reads off a TM.
void accumulate_sq_rel_err(const std::vector<dct::SparseTm>& truth,
                           const std::vector<dct::SparseTm>& est, double& sum_sq,
                           std::size_t& n) {
  for (std::size_t w = 0; w < truth.size() && w < est.size(); ++w) {
    const auto dense = dct::DenseTorTm::from_sparse(truth[w]);
    const double threshold = dct::volume_threshold(dense, 0.75);
    for (const auto& e : truth[w].entries()) {
      if (e.bytes <= 0 || e.bytes < threshold) continue;
      const double rel =
          (est[w].at(e.from, e.to) - e.bytes) / e.bytes;
      sum_sq += rel * rel;
      ++n;
    }
  }
}

std::size_t socket_record_count(const dct::ClusterTrace& trace) {
  std::size_t n = 0;
  for (std::int32_t s = 0; s < trace.server_count(); ++s) {
    n += trace.server_log(dct::ServerId{s}).size();
  }
  return n;
}

/// The zero-loss contract: empty telemetry config => the observed trace is
/// the collected trace by reference, records no coverage gaps, and hashes
/// to 0.  Returns true when every check holds.
bool check_zero_loss(double duration, std::uint64_t seed) {
  dct::ScenarioConfig cfg = dct::scenarios::lossy_telemetry(duration, seed);
  cfg.name = "lossy_telemetry_zeroloss";
  cfg.telemetry = dct::TelemetryFaultConfig{};  // perfect measurement plane
  auto exp = dct::ClusterExperiment(cfg);
  dct::bench::run_scenario(exp);

  bool ok = true;
  const auto fail = [&ok](const std::string& what) {
    std::cout << "FAIL (zero-loss): " << what << '\n';
    ok = false;
  };
  if (&exp.observed_trace() != &exp.trace()) {
    fail("observed_trace() is not the collected trace object");
  }
  if (exp.telemetry_schedule_hash() != 0) fail("telemetry schedule hash != 0");
  if (!exp.telemetry_schedule().empty()) fail("telemetry schedule not empty");
  if (!exp.observed_trace().gaps().empty()) fail("observed trace has coverage gaps");
  const auto manifest = exp.manifest("telemetry_loss_zeroloss");
  if (manifest.config.at("telemetry_schedule_hash") != 0.0) {
    fail("manifest telemetry_schedule_hash != 0");
  }
  if (ok) {
    std::cout << "PASS: zero-loss run is bit-identical to a perfect plane "
                 "(no gaps, hash 0)\n";
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const double duration = dct::bench::duration_arg(argc, argv, 240.0);
  const auto base_seed = dct::bench::seed_arg(argc, argv);
  constexpr int kSeeds = 3;

  std::cout << "=== Telemetry loss: gap-aware vs naive analysis ===\n\n";

  double sq_naive = 0, sq_aware = 0;
  std::size_t n_naive = 0, n_aware = 0;
  std::size_t records_full = 0, records_lost = 0;
  std::size_t flows_recovered = 0, flows_lost = 0, dups_dropped = 0;
  double coverage_sum = 0;
  std::vector<double> tomo_naive_errs, tomo_masked_errs;

  for (int i = 0; i < kSeeds; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    auto exp = dct::ClusterExperiment(dct::scenarios::lossy_telemetry(duration, seed));
    dct::bench::run_scenario(exp);

    const dct::ClusterTrace& full = exp.trace();
    const dct::ClusterTrace& observed = exp.observed_trace();
    if (i == 0) {
      dct::bench::write_manifest(exp, "telemetry_loss");
      std::cerr << "[bench] telemetry schedule hash " << std::hex
                << exp.telemetry_schedule_hash() << std::dec << "\n";
      if (exp.telemetry_schedule_hash() == 0) {
        std::cout << "FAIL: lossy run produced an empty telemetry schedule\n";
        return 1;
      }
      const auto manifest = exp.manifest("telemetry_loss");
      if (manifest.config.at("telemetry_schedule_hash") == 0.0) {
        std::cout << "FAIL: manifest lacks a non-zero telemetry_schedule_hash\n";
        return 1;
      }
    }

    records_full += socket_record_count(full);
    records_lost += exp.telemetry_stats().records_lost;
    flows_recovered += exp.telemetry_stats().flows_recovered;
    flows_lost += exp.telemetry_stats().flows_lost;
    dups_dropped += exp.telemetry_stats().duplicates_dropped;
    coverage_sum += observed.mean_coverage();

    const auto& topo = exp.topology();
    const auto truth = dct::build_tm_series(full, topo, kTmWindow, dct::TmScope::kToR);
    const auto naive =
        dct::build_tm_series(observed, topo, kTmWindow, dct::TmScope::kToR);
    const auto aware = dct::build_tm_series_gap_aware(observed, topo, kTmWindow,
                                                      dct::TmScope::kToR);
    accumulate_sq_rel_err(truth, naive, sq_naive, n_naive);
    accumulate_sq_rel_err(truth, aware, sq_aware, n_aware);

    // SNMP plane: 32-bit counters under timeouts and reboot resets.  The
    // masked estimator drops the unreliable rows; the naive one ingests the
    // wrap-"corrected" garbage.
    auto counters = dct::SnmpCounters::collect(
        exp.sim(), topo, exp.scenario().telemetry.snmp_poll_interval,
        exp.scenario().telemetry.snmp_counter_width);
    dct::apply_snmp_faults(counters, topo, exp.telemetry_schedule());
    const dct::RoutingMatrix routing(topo);
    const auto tomo_truth =
        dct::build_tm_series(full, topo, kTomoWindow, dct::TmScope::kToR);
    for (std::size_t w = 0; w < tomo_truth.size(); ++w) {
      if (tomo_truth[w].total() <= 0 || tomo_truth[w].nonzero_count() < 3) continue;
      const double t0 = static_cast<double>(w) * kTomoWindow;
      std::vector<double> loads(static_cast<std::size_t>(routing.link_count()));
      for (std::int32_t m = 0; m < routing.link_count(); ++m) {
        loads[static_cast<std::size_t>(m)] =
            counters.bytes_between(routing.link_at(m), t0, t0 + kTomoWindow);
      }
      const auto mask = dct::reliable_link_mask(routing, counters, t0, t0 + kTomoWindow);
      const auto truth_dense = dct::DenseTorTm::from_sparse(tomo_truth[w]);
      tomo_naive_errs.push_back(dct::rmsre(truth_dense, dct::tomogravity(routing, loads)));
      tomo_masked_errs.push_back(
          dct::rmsre(truth_dense, dct::tomogravity_masked(routing, loads, mask)));
    }
  }

  const double loss_frac = records_full > 0
                               ? static_cast<double>(records_lost) /
                                     static_cast<double>(records_full)
                               : 0.0;
  const double rmsre_naive =
      n_naive > 0 ? std::sqrt(sq_naive / static_cast<double>(n_naive)) : 0.0;
  const double rmsre_aware =
      n_aware > 0 ? std::sqrt(sq_aware / static_cast<double>(n_aware)) : 0.0;
  const double tomo_naive_med = dct::median(tomo_naive_errs);
  const double tomo_masked_med = dct::median(tomo_masked_errs);
  const auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  const double tomo_naive_mean = mean(tomo_naive_errs);
  const double tomo_masked_mean = mean(tomo_masked_errs);

  dct::TextTable t("traffic-matrix accuracy under telemetry loss, pooled over " +
                   std::to_string(kSeeds) + " seeds");
  t.header({"quantity", "value"});
  t.row({"socket records collected", dct::TextTable::num(static_cast<double>(records_full))});
  t.row({"socket records lost", dct::TextTable::num(static_cast<double>(records_lost))});
  t.row({"record loss fraction", dct::TextTable::pct(loss_frac)});
  t.row({"mean log coverage", dct::TextTable::num(coverage_sum / kSeeds)});
  t.row({"flows recovered from peer copy",
         dct::TextTable::num(static_cast<double>(flows_recovered))});
  t.row({"flows lost (both copies)",
         dct::TextTable::num(static_cast<double>(flows_lost))});
  t.row({"duplicate records dropped",
         dct::TextTable::num(static_cast<double>(dups_dropped))});
  t.row({"TM RMSRE, naive merge", dct::TextTable::pct(rmsre_naive)});
  t.row({"TM RMSRE, gap-aware", dct::TextTable::pct(rmsre_aware)});
  t.row({"tomogravity RMSRE, raw SNMP (median / mean)",
         dct::TextTable::pct(tomo_naive_med) + " / " +
             dct::TextTable::pct(tomo_naive_mean)});
  t.row({"tomogravity RMSRE, masked rows (median / mean)",
         dct::TextTable::pct(tomo_masked_med) + " / " +
             dct::TextTable::pct(tomo_masked_mean)});
  t.print(std::cout);
  std::cout << '\n';

  bool ok = true;
  if (loss_frac >= 0.10) {
    std::cout << "PASS: lossy arm lost " << dct::TextTable::pct(loss_frac)
              << " of socket records (>= 10% target regime)\n";
  } else {
    std::cout << "FAIL: only " << dct::TextTable::pct(loss_frac)
              << " of records lost; below the 10% regime the bench certifies\n";
    ok = false;
  }
  if (rmsre_aware < rmsre_naive) {
    std::cout << "PASS: gap-aware TM strictly beats naive ("
              << dct::TextTable::pct(rmsre_naive) << " -> "
              << dct::TextTable::pct(rmsre_aware) << " RMSRE)\n";
  } else {
    std::cout << "FAIL: gap-aware TM did not beat naive ("
              << dct::TextTable::pct(rmsre_naive) << " vs "
              << dct::TextTable::pct(rmsre_aware) << ")\n";
    ok = false;
  }
  // Masked tomography is informational: a short run may see no reset or
  // timeout inside an evaluated window, in which case the two arms tie by
  // construction.  When faults did land, the raw arm's mean blows up on the
  // reset deltas the wrap heuristic "corrects" into garbage.
  std::cout << "INFO: masked tomogravity mean RMSRE "
            << dct::TextTable::pct(tomo_masked_mean) << " vs raw "
            << dct::TextTable::pct(tomo_naive_mean) << '\n';

  std::cout << '\n';
  if (!check_zero_loss(duration, base_seed)) ok = false;
  return ok ? 0 : 1;
}
