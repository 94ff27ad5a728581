// Quickstart: simulate a measured cluster for two minutes, then print the
// headline characterization numbers the paper reports.
//
//   $ ./quickstart [duration_seconds] [seed]
#include <iostream>

#include "analysis/congestion.h"
#include "analysis/flowstats.h"
#include "analysis/traffic_matrix.h"
#include "common/table.h"
#include "core/cli.h"
#include "core/experiment.h"

int main(int argc, char** argv) {
  const double duration = dct::cli::duration_arg(argc, argv, 120.0);
  const std::uint64_t seed = dct::cli::seed_arg(argc, argv);

  dct::ClusterExperiment exp(dct::scenarios::canonical(duration, seed));
  exp.run();

  const auto& trace = exp.trace();
  const auto& stats = exp.workload_stats();

  dct::TextTable t("quickstart: cluster measurement summary");
  t.header({"metric", "value"});
  t.row({"servers", dct::TextTable::num(exp.topology().server_count())});
  t.row({"duration (s)", dct::TextTable::num(trace.duration())});
  t.row({"jobs submitted", dct::TextTable::num(double(stats.jobs_submitted))});
  t.row({"jobs completed", dct::TextTable::num(double(stats.jobs_completed))});
  t.row({"jobs failed", dct::TextTable::num(double(stats.jobs_failed))});
  t.row({"network flows", dct::TextTable::num(double(trace.flow_count()))});
  t.row({"bytes moved (GB)", dct::TextTable::num(double(trace.total_bytes()) / 1e9)});
  t.row({"remote extract reads", dct::TextTable::pct(stats.remote_read_fraction())});
  t.row({"read failures", dct::TextTable::num(double(stats.read_failures))});
  t.row({"evacuations", dct::TextTable::num(double(stats.evacuations))});

  // Flow microscopics (Fig. 9 / Fig. 11 headline numbers).
  const auto dur = dct::flow_duration_stats(trace);
  t.row({"flows < 10 s", dct::TextTable::pct(dur.frac_flows_under_10s)});
  t.row({"bytes-median flow duration (s)",
         dct::TextTable::num(dur.median_bytes_duration)});
  const auto ia =
      dct::inter_arrival_stats(trace, exp.topology(), dct::ArrivalScope::kCluster);
  t.row({"median cluster arrival rate (flows/s)",
         dct::TextTable::num(ia.median_rate_per_s)});

  // Macroscopic pattern (Fig. 2-4 headline numbers) over one 10 s window.
  const auto tm = dct::build_tm(trace, exp.topology(), duration / 2, 10.0,
                                dct::TmScope::kServer);
  const auto pairs = dct::pair_bytes_stats(tm, exp.topology());
  t.row({"P(no traffic | same rack, 10s)",
         dct::TextTable::pct(pairs.prob_zero_within_rack)});
  t.row({"P(no traffic | cross rack, 10s)",
         dct::TextTable::pct(pairs.prob_zero_across_racks)});
  const auto corr = dct::correspondent_stats(tm, exp.topology());
  t.row({"median in-rack correspondents", dct::TextTable::num(corr.median_within)});
  t.row({"median out-rack correspondents", dct::TextTable::num(corr.median_across)});
  const auto local = dct::locality_breakdown(tm, exp.topology());
  t.row({"traffic within rack", dct::TextTable::pct(local.frac_same_rack)});
  t.row({"traffic within VLAN (x-rack)", dct::TextTable::pct(local.frac_same_vlan)});

  // Congestion (Fig. 5/6 headline numbers).
  const auto cong = dct::congestion_report(exp.utilization(), exp.topology(), 0.7);
  t.row({"links hot >= 10 s", dct::TextTable::pct(cong.frac_links_hot_10s)});
  t.row({"links hot >= 100 s", dct::TextTable::pct(cong.frac_links_hot_100s)});
  t.row({"episodes > 10 s", dct::TextTable::num(double(cong.episodes_over_10s))});
  t.row({"longest episode (s)", dct::TextTable::num(cong.longest_episode)});

  t.print(std::cout);
  return 0;
}
