// Overload-cascade tests: config validation, the injector's utilization
// monitor (trip, severity band, depth cap), codec lineage round-trips,
// and determinism of cascade-enabled experiment runs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/require.h"
#include "core/experiment.h"
#include "faults/cascade.h"
#include "faults/injector.h"
#include "topology/network_state.h"
#include "trace/codec.h"

namespace dct {
namespace {

TopologyConfig small_topology() {
  TopologyConfig cfg;
  cfg.racks = 4;
  cfg.servers_per_rack = 4;
  cfg.racks_per_vlan = 2;
  cfg.agg_switches = 2;
  cfg.external_servers = 2;
  cfg.redundant_tor_uplinks = true;
  return cfg;
}

FlowSimConfig exact_config(TimeSec horizon) {
  FlowSimConfig cfg;
  cfg.end_time = horizon;
  cfg.recompute_interval = 0.0;
  cfg.per_flow_rate_cap = 0.0;
  cfg.connect_share_floor = 0.0;
  return cfg;
}

ServerId server_in_rack(const Topology& topo, std::int32_t rack, std::int32_t i) {
  return topo.servers_in_rack(RackId{rack}).at(static_cast<std::size_t>(i));
}

TEST(CascadeConfigTest, ValidateRejectsNonsenseWithValues) {
  CascadeConfig empty;
  EXPECT_TRUE(empty.empty());
  empty.validate();  // the all-off config is always valid

  CascadeConfig bad;
  bad.util_threshold = 1.5;
  try {
    bad.validate();
    FAIL() << "util_threshold above 1 must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1.5"), std::string::npos)
        << "message must carry the offending value: " << e.what();
  }

  CascadeConfig cfg;
  cfg.util_threshold = 0.8;
  cfg.validate();
  cfg.trip_probability = 2.0;
  EXPECT_THROW(cfg.validate(), Error);
  cfg.trip_probability = 0.5;
  cfg.max_depth = 0;
  EXPECT_THROW(cfg.validate(), Error);
  cfg.max_depth = 2;
  cfg.severity_floor = 0.9;
  cfg.severity_ceil = 0.4;
  EXPECT_THROW(cfg.validate(), Error);
  cfg.severity_floor = 0.3;
  cfg.severity_ceil = 0.7;
  cfg.sustain_window = 0.0;
  EXPECT_THROW(cfg.validate(), Error);
}

// Saturates rack 0's uplink with long bulk flows so the monitor sees a
// sustained 100% and must trip.
TEST(CascadeMonitor, SustainedOverloadTripsAndRecordsLineage) {
  Topology topo(small_topology());
  NetworkState net(topo);
  FlowSim sim(topo, exact_config(60.0));
  sim.set_network_state(&net);
  ClusterTrace trace(topo.server_count(), 60.0);
  FaultInjector inj(sim, net, &trace);

  CascadeConfig cc;
  cc.util_threshold = 0.5;
  cc.sustain_window = 2.0;
  cc.check_interval = 0.5;
  cc.trip_probability = 1.0;  // deterministic trip once sustained
  cc.max_depth = 1;
  cc.mean_duration = 10.0;
  inj.enable_cascades(cc);

  // Four cross-rack bulk flows out of rack 0 pin its uplink at capacity.
  for (std::int32_t i = 0; i < 4; ++i) {
    FlowSpec spec;
    spec.src = server_in_rack(topo, 0, i);
    spec.dst = server_in_rack(topo, 2, i);
    spec.bytes = 4'000'000'000;  // far longer than the horizon
    sim.start_flow(spec);
  }
  sim.run();

  EXPECT_GT(inj.cascade_trips(), 0u);
  EXPECT_LE(inj.max_cascade_depth_observed(), cc.max_depth);
  ASSERT_FALSE(trace.cascades().empty());
  for (const CascadeRecord& c : trace.cascades()) {
    EXPECT_GE(c.depth, 1);
    EXPECT_LE(c.depth, cc.max_depth);
    EXPECT_GE(c.link, 0);
    EXPECT_LT(c.link, topo.link_count());
    EXPECT_GE(c.severity, cc.severity_floor);
    EXPECT_LE(c.severity, cc.severity_ceil);
    EXPECT_GT(c.utilization, cc.util_threshold);
    EXPECT_GT(c.end, c.start);
  }
  // The induced degradations share the injector's occupancy machinery.
  EXPECT_EQ(inj.degradations_injected(), inj.cascade_trips());
}

TEST(CascadeMonitor, EmptyConfigSchedulesNothing) {
  Topology topo(small_topology());
  NetworkState net(topo);
  FlowSim sim(topo, exact_config(10.0));
  sim.set_network_state(&net);
  FaultInjector inj(sim, net, nullptr);
  inj.enable_cascades(CascadeConfig{});  // no-op: empty config
  FlowSpec spec;
  spec.src = server_in_rack(topo, 0, 0);
  spec.dst = server_in_rack(topo, 1, 0);
  spec.bytes = 4'000'000'000;
  sim.start_flow(spec);
  sim.run();
  EXPECT_EQ(inj.cascade_trips(), 0u);
  EXPECT_EQ(inj.max_cascade_depth_observed(), 0);
}

TEST(CascadeCodec, LineageRoundTripsAndVersionIsGated) {
  ClusterTrace trace(3, 10.0);
  FlowRecord r;
  r.id = FlowId{0};
  r.src = ServerId{0};
  r.dst = ServerId{1};
  r.bytes_requested = r.bytes_sent = 1000;
  r.start = 1.0;
  r.end = 2.0;
  trace.record_flow(r);

  CascadeRecord c;
  c.start = 3.25;
  c.end = 9.5;
  c.link = 7;
  c.depth = 2;
  c.severity = 0.4375;
  c.utilization = 0.96;
  trace.record_cascade(c);

  const auto bytes = encode_trace(trace);
  const auto back = decode_trace(bytes);
  ASSERT_EQ(back.cascades().size(), 1u);
  const CascadeRecord& rb = back.cascades().front();
  EXPECT_NEAR(rb.start, c.start, 1e-6);
  EXPECT_NEAR(rb.end, c.end, 1e-6);
  EXPECT_EQ(rb.link, c.link);
  EXPECT_EQ(rb.depth, c.depth);
  EXPECT_NEAR(rb.severity, c.severity, 1e-6);
  EXPECT_NEAR(rb.utilization, c.utilization, 1e-6);
  EXPECT_EQ(encode_trace(back), bytes) << "re-encoding must be stable";
}

TEST(CascadeDeterminism, CascadeRunsAreBitIdentical) {
  ScenarioConfig cfg = scenarios::tiny(60.0, 19);
  cfg.topology.redundant_tor_uplinks = true;
  cfg.faults.server_crash_rate = 6.0;
  cfg.faults.server_mean_repair = 25.0;
  cfg.cascades.util_threshold = 0.6;
  cfg.cascades.sustain_window = 2.0;
  cfg.cascades.trip_probability = 0.8;
  cfg.cascades.max_depth = 2;
  cfg.workload.repair.paced = true;

  ClusterExperiment a(cfg);
  a.run();
  ClusterExperiment b(cfg);
  b.run();
  ASSERT_NE(a.fault_injector(), nullptr);
  EXPECT_LE(a.fault_injector()->max_cascade_depth_observed(),
            cfg.cascades.max_depth);
  EXPECT_EQ(encode_trace(a.trace()), encode_trace(b.trace()));
}

}  // namespace
}  // namespace dct
