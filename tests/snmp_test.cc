#include "trace/snmp.h"

#include <gtest/gtest.h>

#include "common/require.h"

namespace dct {
namespace {

TopologyConfig topo_config() {
  TopologyConfig cfg;
  cfg.racks = 2;
  cfg.servers_per_rack = 3;
  cfg.racks_per_vlan = 2;
  cfg.agg_switches = 1;
  cfg.external_servers = 0;
  return cfg;
}

FlowSimConfig sim_config(TimeSec horizon) {
  FlowSimConfig cfg;
  cfg.end_time = horizon;
  cfg.recompute_interval = 0.0;
  cfg.connect_share_floor = 0.0;
  cfg.per_flow_rate_cap = 0.0;
  return cfg;
}

TEST(SnmpCounters, CountersAreMonotoneAndConserveBytes) {
  Topology topo(topo_config());
  FlowSim sim(topo, sim_config(20.0));
  FlowSpec fs;
  fs.src = ServerId{0};
  fs.dst = ServerId{4};
  fs.bytes = 250'000'000;  // 2 s at line rate
  sim.start_flow(fs);
  sim.run();

  const auto snmp = SnmpCounters::collect(sim, topo, 5.0);
  EXPECT_EQ(snmp.poll_count(), 5u);  // t = 0, 5, 10, 15, 20
  const LinkId up = topo.server_up_link(ServerId{0});
  double prev = -1;
  for (std::size_t p = 0; p < snmp.poll_count(); ++p) {
    EXPECT_GE(snmp.counter(up, p), prev);
    prev = snmp.counter(up, p);
  }
  EXPECT_DOUBLE_EQ(snmp.counter(up, 0), 0.0);
  EXPECT_NEAR(snmp.counter(up, snmp.poll_count() - 1), 250e6, 1e3);
  // The flow finished within the first poll interval.
  EXPECT_NEAR(snmp.counter(up, 1), 250e6, 1e3);
}

TEST(SnmpCounters, BytesBetweenSnapsToPollGrid) {
  Topology topo(topo_config());
  FlowSim sim(topo, sim_config(20.0));
  // One flow from t=6 to t=8 (125 MB/s x 2 s = 250 MB), injected via at().
  sim.at(6.0, [](FlowSim& s) {
    FlowSpec fs;
    fs.src = ServerId{0};
    fs.dst = ServerId{4};
    fs.bytes = 250'000'000;
    s.start_flow(fs);
  });
  sim.run();
  const auto snmp = SnmpCounters::collect(sim, topo, 5.0);
  const LinkId up = topo.server_up_link(ServerId{0});
  // Exact window [6, 8) is not poll-aligned; the counter view reports the
  // [5, 10) delta.
  EXPECT_NEAR(snmp.bytes_between(up, 6.0, 8.0), 250e6, 1e3);
  EXPECT_NEAR(snmp.bytes_between(up, 5.0, 10.0), 250e6, 1e3);
  EXPECT_NEAR(snmp.bytes_between(up, 0.0, 5.0), 0.0, 1e3);
  EXPECT_NEAR(snmp.bytes_between(up, 10.0, 20.0), 0.0, 1e3);
  EXPECT_THROW((void)snmp.bytes_between(up, 5.0, 1.0), Error);
}

TEST(SnmpCounters, UtilizationNormalizesByPollWindow) {
  Topology topo(topo_config());
  FlowSim sim(topo, sim_config(10.0));
  FlowSpec fs;
  fs.src = ServerId{0};
  fs.dst = ServerId{4};
  fs.bytes = 125'000'000;  // 1 s at line rate
  sim.start_flow(fs);
  sim.run();
  const auto snmp = SnmpCounters::collect(sim, topo, 5.0);
  const LinkId up = topo.server_up_link(ServerId{0});
  // 1 second of line rate smeared over a 5 s poll window = 20% utilization.
  EXPECT_NEAR(snmp.utilization_between(up, 0.0, 5.0), 0.2, 1e-6);
}

TEST(SnmpCounters, MisalignedAndZeroLengthWindows) {
  Topology topo(topo_config());
  FlowSim sim(topo, sim_config(20.0));
  FlowSpec fs;
  fs.src = ServerId{0};
  fs.dst = ServerId{4};
  fs.bytes = 250'000'000;
  sim.start_flow(fs);
  sim.run();
  const auto snmp = SnmpCounters::collect(sim, topo, 5.0);
  const LinkId up = topo.server_up_link(ServerId{0});
  // Zero-length windows move no bytes, on or off the poll grid.
  EXPECT_DOUBLE_EQ(snmp.bytes_between(up, 5.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(snmp.bytes_between(up, 2.3, 2.3), 0.0);
  EXPECT_DOUBLE_EQ(snmp.utilization_between(up, 2.3, 2.3), 0.0);
  // A sub-interval window snaps outward to the poll span containing it.
  EXPECT_NEAR(snmp.bytes_between(up, 0.5, 1.5), snmp.bytes_between(up, 0.0, 5.0),
              1e3);
  // A window past the last poll snaps back to it.
  EXPECT_NEAR(snmp.bytes_between(up, 15.0, 300.0),
              snmp.bytes_between(up, 15.0, 20.0), 1e3);
  // Misaligned utilization normalizes by the snapped span, never less than
  // one poll interval.
  EXPECT_NEAR(snmp.utilization_between(up, 0.5, 1.5),
              snmp.utilization_between(up, 0.0, 5.0), 1e-9);
}

TEST(SnmpCounters, WrapCorrectionRecovers32BitCounters) {
  Topology topo(topo_config());
  FlowSim sim(topo, sim_config(60.0));
  FlowSpec fs;
  fs.src = ServerId{0};
  fs.dst = ServerId{4};
  fs.bytes = 6'000'000'000;  // > 2^32: the register laps once mid-run
  sim.start_flow(fs);
  sim.run();
  const auto ideal = SnmpCounters::collect(sim, topo, 5.0);
  const auto narrow = SnmpCounters::collect(sim, topo, 5.0, 32);
  EXPECT_EQ(narrow.counter_width(), 32);
  const LinkId up = topo.server_up_link(ServerId{0});
  // The raw register wrapped...
  const std::size_t last = narrow.poll_count() - 1;
  EXPECT_LT(narrow.counter(up, last), 4.295e9);
  EXPECT_NEAR(ideal.counter(up, last), 6e9, 1e4);
  // ...but per-poll wrap correction still reconstructs every window,
  // because the link cannot move 2^32 bytes in one 5 s poll.
  EXPECT_NEAR(narrow.bytes_between(up, 0.0, 60.0), 6e9, 1e4);
  EXPECT_NEAR(narrow.bytes_between(up, 20.0, 40.0),
              ideal.bytes_between(up, 20.0, 40.0), 1e4);
  EXPECT_TRUE(narrow.window_reliable(up, 0.0, 60.0));
  EXPECT_THROW(SnmpCounters::collect(sim, topo, 5.0, 8), Error);
}

TEST(SnmpCounters, TimeoutCarriesForwardAndFlagsWindows) {
  Topology topo(topo_config());
  FlowSim sim(topo, sim_config(20.0));
  FlowSpec fs;
  fs.src = ServerId{0};
  fs.dst = ServerId{4};
  fs.bytes = 1'000'000'000;  // 8 s at line rate: spans several polls
  sim.start_flow(fs);
  sim.run();
  auto snmp = SnmpCounters::collect(sim, topo, 2.0);
  const LinkId up = topo.server_up_link(ServerId{0});
  const double total_before = snmp.bytes_between(up, 0.0, 20.0);
  snmp.invalidate_poll(up, 2);
  EXPECT_FALSE(snmp.poll_valid(up, 2));
  EXPECT_TRUE(snmp.poll_valid(up, 1));
  // Carry-forward: the timed-out poll repeats the previous value.
  EXPECT_DOUBLE_EQ(snmp.counter(up, 2), snmp.counter(up, 1));
  // The lost delta reappears at the next observed poll, so wide windows
  // still conserve bytes...
  EXPECT_NEAR(snmp.bytes_between(up, 0.0, 20.0), total_before, 1e3);
  // ...but windows touching the bad poll are flagged.
  EXPECT_FALSE(snmp.window_reliable(up, 2.0, 6.0));
  EXPECT_FALSE(snmp.window_reliable(up, 3.0, 5.0));
  EXPECT_TRUE(snmp.window_reliable(up, 6.0, 10.0));
}

TEST(SnmpCounters, ResetZeroesCountersAndPoisonsTheBoundary) {
  Topology topo(topo_config());
  FlowSim sim(topo, sim_config(20.0));
  FlowSpec fs;
  fs.src = ServerId{0};
  fs.dst = ServerId{4};
  fs.bytes = 2'000'000'000;  // 16 s at line rate
  sim.start_flow(fs);
  sim.run();
  auto snmp = SnmpCounters::collect(sim, topo, 2.0, 32);
  const LinkId up = topo.server_up_link(ServerId{0});
  snmp.reset_counter(up, 9.0);
  // Post-reboot polls restart from (near) zero.
  EXPECT_LT(snmp.counter(up, 5), snmp.counter(up, 4));
  // The boundary delta is negative, which the wrap heuristic "corrects"
  // into garbage — exactly what window_reliable exists to flag.
  EXPECT_FALSE(snmp.window_reliable(up, 8.0, 10.0));
  EXPECT_FALSE(snmp.window_reliable(up, 0.0, 20.0));
  EXPECT_TRUE(snmp.window_reliable(up, 10.0, 20.0));
  EXPECT_TRUE(snmp.window_reliable(up, 0.0, 8.0));
  // Windows entirely after the reboot are correct again.
  const auto ideal = SnmpCounters::collect(sim, topo, 2.0);
  EXPECT_NEAR(snmp.bytes_between(up, 10.0, 16.0),
              ideal.bytes_between(up, 10.0, 16.0), 1e4);
}

TEST(SnmpCounters, RejectsBadArguments) {
  Topology topo(topo_config());
  FlowSim sim(topo, sim_config(5.0));
  sim.run();
  EXPECT_THROW(SnmpCounters::collect(sim, topo, 0.0), Error);
  const auto snmp = SnmpCounters::collect(sim, topo, 1.0);
  EXPECT_THROW((void)snmp.counter(LinkId{}, 0), Error);
  EXPECT_THROW((void)snmp.counter(topo.server_up_link(ServerId{0}), 999), Error);
}

}  // namespace
}  // namespace dct
