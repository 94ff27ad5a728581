// Example: can SNMP link counters replace server instrumentation?
//
// Mirrors §5 of the paper as a user of the library would: simulate a
// measured cluster, pretend only link byte-counts are available, run the
// three estimators, and decide whether tomography is good enough for your
// cluster.  Run with a custom duration/seed:  ./tomography_study 900 7
#include <iostream>

#include "analysis/traffic_matrix.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/cli.h"
#include "core/experiment.h"
#include "tomography/estimators.h"
#include "tomography/metrics.h"
#include "tomography/routing.h"

int main(int argc, char** argv) {
  const double duration = dct::cli::duration_arg(argc, argv, 600.0);
  const std::uint64_t seed = dct::cli::seed_arg(argc, argv);

  dct::ClusterExperiment exp(dct::scenarios::canonical(duration, seed));
  exp.run();
  std::cout << "simulated " << exp.trace().flow_count() << " flows over " << duration
            << " s on " << exp.topology().server_count() << " servers\n\n";

  // Ground truth: 60-second ToR-to-ToR TMs from the socket logs.
  const auto tms =
      dct::build_tm_series(exp.trace(), exp.topology(), 60.0, dct::TmScope::kToR);
  const dct::RoutingMatrix routing(exp.topology());
  const auto activity = dct::job_tor_activity(exp.trace(), exp.topology());

  std::vector<double> err_g, err_j, err_s;
  for (const auto& sparse : tms) {
    if (sparse.total() <= 0 || sparse.nonzero_count() < 3) continue;
    const auto truth = dct::DenseTorTm::from_sparse(sparse);
    // This is all a switch-counter-only analyst would see:
    const auto link_loads = routing.link_loads(truth);

    err_g.push_back(dct::rmsre(truth, dct::tomogravity(routing, link_loads)));
    err_j.push_back(dct::rmsre(
        truth, dct::tomogravity(routing, link_loads,
                                dct::job_augmented_prior(routing, link_loads, activity))));
    err_s.push_back(dct::rmsre(truth, dct::sparsity_max(routing, link_loads)));
  }

  dct::TextTable t("median RMSRE (75% volume) over " +
                   dct::TextTable::num(double(err_g.size())) + " TMs");
  t.header({"estimator", "median error", "verdict"});
  t.row({"tomogravity", dct::TextTable::pct(dct::median(err_g)),
         "poor: gravity spreads what jobs concentrate"});
  t.row({"tomogravity + job metadata", dct::TextTable::pct(dct::median(err_j)),
         "marginal improvement (roles change over time)"});
  t.row({"sparsity maximization", dct::TextTable::pct(dct::median(err_s)),
         "worse: over-concentrates, misses true heavy hitters"});
  t.print(std::cout);

  std::cout << "\nConclusion (as in the paper): for mining clusters, measure at the\n"
               "servers; link counters + tomography do not recover the TM.\n";
  return 0;
}
