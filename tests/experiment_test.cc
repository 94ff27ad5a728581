#include "core/experiment.h"

#include <gtest/gtest.h>

#include "analysis/congestion.h"
#include "analysis/flowstats.h"
#include "analysis/traffic_matrix.h"
#include "common/require.h"
#include "trace/snmp.h"

namespace dct {
namespace {

TEST(Scenarios, PresetsConstructValidExperiments) {
  for (const auto& cfg :
       {scenarios::canonical(30.0), scenarios::weekend(30.0), scenarios::heavy(30.0),
        scenarios::no_locality(30.0), scenarios::uncapped_connections(30.0),
        scenarios::unchunked(30.0), scenarios::tiny(30.0)}) {
    EXPECT_NO_THROW({
      ClusterExperiment exp(cfg);
      (void)exp;
    }) << cfg.name;
  }
}

TEST(ClusterExperiment, EndToEndTinyRun) {
  ClusterExperiment exp(scenarios::tiny(90.0, 5));
  exp.run();
  EXPECT_GT(exp.trace().flow_count(), 0u);
  EXPECT_GT(exp.workload_stats().jobs_submitted, 0);
  EXPECT_EQ(exp.trace().server_count(), exp.topology().server_count());
  // Utilization is cached and sized to the topology.
  const auto& util = exp.utilization();
  EXPECT_EQ(util.per_link.size(), static_cast<std::size_t>(exp.topology().link_count()));
  EXPECT_EQ(&util, &exp.utilization());
}

// Window, bin and poll counts are float-to-size_t casts: a width too small
// to count must be an error, never an out-of-range cast.
TEST(ClusterExperiment, WidthsTooSmallToCountAreErrors) {
  ClusterExperiment exp(scenarios::tiny(10.0));
  exp.run();
  const ClusterTrace& trace = exp.trace();
  const Topology& topo = exp.topology();
  EXPECT_THROW((void)build_tm_series(trace, topo, 1e-300, TmScope::kServer), Error);
  EXPECT_THROW((void)build_tm_series_gap_aware(trace, topo, 1e-300, TmScope::kToR),
               Error);
  EXPECT_THROW((void)aggregate_rate_series(trace, 1e-300), Error);
  EXPECT_THROW((void)aggregate_rate_series(trace, 0.0), Error);
  EXPECT_THROW((void)utilization_from_trace(trace, topo, 1e-300), Error);
  EXPECT_THROW((void)SnmpCounters::collect(exp.sim(), topo, 1e-300), Error);
}

TEST(ClusterExperiment, UtilizationBeforeRunThrows) {
  ClusterExperiment exp(scenarios::tiny(30.0));
  EXPECT_THROW((void)exp.utilization(), Error);
}

TEST(ClusterExperiment, RunIsIdempotent) {
  ClusterExperiment exp(scenarios::tiny(60.0, 3));
  exp.run();
  const auto flows = exp.trace().flow_count();
  exp.run();
  EXPECT_EQ(exp.trace().flow_count(), flows);
}

TEST(ClusterExperiment, DeterministicUnderSeed) {
  auto signature = [](std::uint64_t seed) {
    ClusterExperiment exp(scenarios::tiny(60.0, seed));
    exp.run();
    return std::make_pair(exp.trace().flow_count(), exp.trace().total_bytes());
  };
  EXPECT_EQ(signature(42), signature(42));
  EXPECT_NE(signature(42), signature(43));
}

TEST(ClusterExperiment, LoadScenariosOrderAsExpected) {
  ClusterExperiment light(scenarios::weekend(120.0, 9));
  light.run();
  ClusterExperiment busy(scenarios::heavy(120.0, 9));
  busy.run();
  EXPECT_LT(light.trace().total_bytes(), busy.trace().total_bytes());
  EXPECT_LT(light.workload_stats().jobs_submitted,
            busy.workload_stats().jobs_submitted);
}

TEST(ClusterExperiment, AnalysesComposeOnExperimentOutput) {
  ClusterExperiment exp(scenarios::tiny(90.0, 13));
  exp.run();
  const auto tms = build_tm_series(exp.trace(), exp.topology(), 10.0, TmScope::kServer);
  EXPECT_EQ(tms.size(), 9u);
  double total = 0;
  for (const auto& tm : tms) total += tm.total();
  EXPECT_NEAR(total, static_cast<double>(exp.trace().total_bytes()),
              0.02 * static_cast<double>(exp.trace().total_bytes()) + 1.0);
  const auto durations = flow_duration_stats(exp.trace());
  EXPECT_GT(durations.by_count.sample_count(), 0u);
}

TEST(AblationScenarios, LocalityFlagChangesPlacement) {
  ClusterExperiment with(scenarios::canonical(60.0, 21));
  with.run();
  ClusterExperiment without(scenarios::no_locality(60.0, 21));
  without.run();
  const auto& t_with = with.workload_stats().placement_tier;
  const auto& t_without = without.workload_stats().placement_tier;
  const double local_with =
      static_cast<double>(t_with[0]) /
      static_cast<double>(t_with[0] + t_with[1] + t_with[2] + t_with[3] + 1);
  const double local_without =
      static_cast<double>(t_without[0]) /
      static_cast<double>(t_without[0] + t_without[1] + t_without[2] + t_without[3] + 1);
  EXPECT_GT(local_with, local_without + 0.2);
  // Random placement pushes far more extract reads over the network.
  EXPECT_GT(without.workload_stats().remote_read_fraction(),
            with.workload_stats().remote_read_fraction());
}

}  // namespace
}  // namespace dct
