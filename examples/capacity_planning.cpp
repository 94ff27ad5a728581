// Example: how much oversubscription can this workload afford?
//
// A network designer's question the paper's characterization enables:
// sweep the ToR uplink capacity (the oversubscription ratio) under the
// same measured workload and watch congestion, read failures and job
// latency respond.  Usage: ./capacity_planning [duration] [seed]
#include <iostream>
#include <vector>

#include "analysis/congestion.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/cli.h"
#include "core/experiment.h"

int main(int argc, char** argv) {
  const double duration = dct::cli::duration_arg(argc, argv, 240.0);
  const std::uint64_t seed = dct::cli::seed_arg(argc, argv);

  std::cout << "=== Capacity planning: oversubscription sweep ===\n"
            << "(20 x 1 Gbps servers per rack; sweeping the ToR uplink)\n\n";

  dct::TextTable t("same workload, varying ToR uplink");
  t.header({"uplink", "oversub", "links hot >= 10 s", "read failures",
            "median job time (s)", "jobs done"});

  for (double uplink_gbps : {1.0, 1.5, 2.5, 5.0, 10.0, 20.0}) {
    dct::ScenarioConfig cfg = dct::scenarios::canonical(duration, seed);
    cfg.topology.tor_uplink_capacity = dct::gbps(uplink_gbps);
    cfg.topology.agg_uplink_capacity =
        dct::gbps(uplink_gbps) * cfg.topology.racks / cfg.topology.agg_switches * 0.5;
    dct::ClusterExperiment exp(cfg);
    exp.run();

    const auto report = dct::congestion_report(exp.utilization(), exp.topology(), 0.7);
    std::vector<double> job_secs;
    for (const auto& j : exp.trace().jobs()) {
      if (j.completed) job_secs.push_back(j.end - j.start);
    }
    const double oversub =
        cfg.topology.servers_per_rack * cfg.topology.server_link_capacity /
        cfg.topology.tor_uplink_capacity;
    t.row({dct::TextTable::num(uplink_gbps) + " Gbps",
           dct::TextTable::num(oversub) + ":1",
           dct::TextTable::pct(report.frac_links_hot_10s),
           std::to_string(exp.trace().read_failures().size()),
           job_secs.empty() ? "-" : dct::TextTable::num(dct::median(job_secs)),
           std::to_string(exp.workload_stats().jobs_completed)});
  }
  t.print(std::cout);

  std::cout << "\nReading the table: pick the cheapest uplink whose hot-link share\n"
               "and read-failure count you can live with; work-seeks-bandwidth\n"
               "placement shields the fabric until utilization crosses the knee.\n";
  return 0;
}
