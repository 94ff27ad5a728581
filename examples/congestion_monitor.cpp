// Example: a congestion post-mortem tool for cluster operators.
//
// Finds every hot episode on the inter-switch fabric, and — using the
// app-log/network-log join that server-side instrumentation makes possible —
// names the job phases and infrastructure activities responsible, plus the
// collateral damage (read failures).  This is the operator workflow §4.2
// describes (it is how the paper's authors discovered the evacuation and
// remote-extract surprises).
#include <algorithm>
#include <iostream>

#include "analysis/congestion.h"
#include "common/table.h"
#include "core/cli.h"
#include "core/experiment.h"

int main(int argc, char** argv) {
  const double duration = dct::cli::duration_arg(argc, argv, 600.0);
  const std::uint64_t seed = dct::cli::seed_arg(argc, argv);

  dct::ClusterExperiment exp(dct::scenarios::canonical(duration, seed));
  exp.run();

  const auto& topo = exp.topology();
  const auto report = dct::congestion_report(exp.utilization(), topo, 0.7);

  // Rank links by total congested time and show the worst offenders.
  auto links = report.inter_switch;
  std::sort(links.begin(), links.end(),
            [](const dct::LinkCongestion& a, const dct::LinkCongestion& b) {
              return a.total_hot_seconds() > b.total_hot_seconds();
            });

  dct::TextTable t("top congested inter-switch links (C=70%)");
  t.header({"link", "kind", "episodes", "hot seconds", "longest (s)"});
  for (std::size_t i = 0; i < std::min<std::size_t>(8, links.size()); ++i) {
    const auto& lc = links[i];
    if (lc.episodes.empty()) break;
    t.row({"link#" + std::to_string(lc.link.value()), std::string(to_string(lc.kind)),
           std::to_string(lc.episodes.size()),
           dct::TextTable::num(lc.total_hot_seconds()),
           dct::TextTable::num(lc.longest())});
  }
  t.print(std::cout);
  std::cout << '\n';

  // Who caused it?  Join hot-link traffic with the application logs.
  const auto attr = dct::hot_link_attribution(exp.trace(), topo, exp.utilization(), 0.7);
  dct::TextTable causes("hot-link traffic attribution");
  causes.header({"cause", "share"});
  const char* kinds[] = {"extract block reads", "shuffle (reduce pulls)",
                         "replica writes", "external ingest", "external egress",
                         "server evacuation", "control chatter", "other"};
  for (int k = 0; k < 8; ++k) {
    if (attr.by_flow_kind[k] <= 0) continue;
    causes.row({kinds[k], dct::TextTable::pct(attr.by_flow_kind[k] /
                                              std::max(attr.bytes_total, 1.0))});
  }
  causes.print(std::cout);
  std::cout << '\n';

  // Collateral damage.
  const auto impact = dct::read_failure_impact(exp.trace(), topo, exp.utilization(), 0.7);
  dct::TextTable damage("collateral damage");
  damage.header({"quantity", "value"});
  damage.row({"read failures logged",
              std::to_string(exp.trace().read_failures().size())});
  damage.row({"P(job cannot read | overlaps hot link)",
              dct::TextTable::pct(impact.p_fail_overlapping, 2)});
  damage.row({"P(job cannot read | clear)", dct::TextTable::pct(impact.p_fail_clear, 2)});
  damage.row({"relative increase", dct::TextTable::pct(impact.relative_increase)});
  damage.row({"evacuation events", std::to_string(exp.trace().evacuations().size())});
  damage.print(std::cout);
  return 0;
}
