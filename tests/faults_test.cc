// Device-failure subsystem tests: schedule generation, failure-aware
// routing, in-flight flow rerouting/killing, the injector, workload-level
// crash recovery, and the determinism / strict-additivity guarantees the
// fault layer promises (an empty FaultConfig must leave every byte of the
// output unchanged).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "anomaly/detectors.h"
#include "common/require.h"
#include "core/experiment.h"
#include "faults/fault_domain.h"
#include "faults/fault_schedule.h"
#include "faults/injector.h"
#include "testing/oracles.h"
#include "topology/network_state.h"
#include "trace/codec.h"

namespace dct {
namespace {

TopologyConfig small_topology(bool redundant) {
  TopologyConfig cfg;
  cfg.racks = 4;
  cfg.servers_per_rack = 4;
  cfg.racks_per_vlan = 2;
  cfg.agg_switches = 2;
  cfg.external_servers = 2;
  cfg.redundant_tor_uplinks = redundant;
  return cfg;
}

FlowSimConfig exact_config(TimeSec horizon) {
  FlowSimConfig cfg;
  cfg.end_time = horizon;
  cfg.recompute_interval = 0.0;   // exact mode
  cfg.per_flow_rate_cap = 0.0;    // flows reach line rate
  cfg.connect_share_floor = 0.0;  // no spontaneous connection failures
  return cfg;
}

ServerId server_in_rack(const Topology& topo, std::int32_t rack, std::int32_t i) {
  return topo.servers_in_rack(RackId{rack}).at(static_cast<std::size_t>(i));
}

bool path_contains(const std::vector<LinkId>& path, LinkId l) {
  return std::find(path.begin(), path.end(), l) != path.end();
}

// --- Schedule generation ------------------------------------------------------

TEST(FaultSchedule, DeterministicSortedAndSeedSensitive) {
  Topology topo(small_topology(true));
  FaultConfig fc;
  fc.link_flap_rate = 2.0;
  fc.server_crash_rate = 1.0;
  fc.tor_crash_rate = 1.0;
  fc.agg_crash_rate = 1.0;
  const auto a = generate_fault_schedule(topo, fc, 3600.0);
  const auto b = generate_fault_schedule(topo, fc, 3600.0);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_EQ(a[i].end, b[i].end);
    EXPECT_EQ(a[i].device, b[i].device);
    EXPECT_EQ(a[i].entity, b[i].entity);
    EXPECT_LT(a[i].start, 3600.0);
    EXPECT_GT(a[i].end, a[i].start);
    if (i > 0) {
      EXPECT_GE(a[i].start, a[i - 1].start);
    }
    // Entity ids must be valid for their device kind.
    switch (a[i].device) {
      case DeviceKind::kServer:
        EXPECT_GE(a[i].entity, 0);
        EXPECT_LT(a[i].entity, topo.internal_server_count());
        break;
      case DeviceKind::kTor:
        EXPECT_GE(a[i].entity, 0);
        EXPECT_LT(a[i].entity, topo.rack_count());
        break;
      case DeviceKind::kAgg:
        EXPECT_GE(a[i].entity, 0);
        EXPECT_LT(a[i].entity, topo.agg_count());
        break;
      case DeviceKind::kLink:
        EXPECT_GE(a[i].entity, 0);
        EXPECT_LT(a[i].entity, topo.link_count());
        EXPECT_TRUE(is_inter_switch(topo.link(LinkId{a[i].entity}).kind));
        break;
    }
  }
  FaultConfig other = fc;
  other.seed = 99;
  const auto c = generate_fault_schedule(topo, other, 3600.0);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].start != c[i].start || a[i].entity != c[i].entity;
  }
  EXPECT_TRUE(differs) << "changing the fault seed must move the schedule";
}

TEST(FaultSchedule, ValidateRejectsNonsense) {
  FaultConfig fc;
  fc.link_flap_rate = -1.0;
  EXPECT_THROW(fc.validate(), Error);
  FaultConfig fc2;
  fc2.server_crash_rate = 1.0;
  fc2.server_mean_repair = 0.0;
  EXPECT_THROW(fc2.validate(), Error);
  FaultConfig ok;
  EXPECT_TRUE(ok.empty());
  ok.validate();  // all-zero config is valid
}

// --- Correlated failure domains -----------------------------------------------

TEST(FaultDomains, RackPowerDomainCoversTorAndEveryServer) {
  Topology topo(small_topology(true));
  const auto domains = build_fault_domains(topo, FaultDomainKind::kRackPower);
  ASSERT_EQ(domains.size(), static_cast<std::size_t>(topo.rack_count()));
  for (const FaultDomain& d : domains) {
    ASSERT_FALSE(d.members.empty());
    EXPECT_EQ(d.members.front().device, DeviceKind::kTor);
    EXPECT_EQ(d.members.front().entity, d.id);
    const auto servers = topo.servers_in_rack(RackId{d.id});
    ASSERT_EQ(d.members.size(), servers.size() + 1);
    for (std::size_t i = 0; i < servers.size(); ++i) {
      EXPECT_EQ(d.members[i + 1].device, DeviceKind::kServer);
      EXPECT_EQ(d.members[i + 1].entity, servers[i].value());
    }
  }
}

TEST(FaultDomains, RackPowerScheduleIsAJitteredBurst) {
  Topology topo(small_topology(true));
  FaultConfig fc;
  fc.rack_power_rate = 6.0;
  fc.rack_power_mean_repair = 20.0;
  fc.domain_burst_jitter = 2.0;
  const auto schedule = generate_fault_schedule(topo, fc, 600.0);
  ASSERT_FALSE(schedule.empty());
  // Every ToR outage must be accompanied by its whole rack's servers going
  // down inside the jitter window, all sharing the event's duration.
  std::size_t tor_events = 0;
  for (const FaultEvent& e : schedule) {
    if (e.device != DeviceKind::kTor) continue;
    ++tor_events;
    const TimeSec duration = e.end - e.start;
    for (ServerId s : topo.servers_in_rack(RackId{e.entity})) {
      bool found = false;
      for (const FaultEvent& m : schedule) {
        if (m.device != DeviceKind::kServer || m.entity != s.value()) continue;
        if (std::abs(m.start - e.start) <= fc.domain_burst_jitter &&
            std::abs((m.end - m.start) - duration) < 1e-9) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "server " << s.value()
                         << " missing from the rack " << e.entity << " burst";
    }
  }
  EXPECT_GT(tor_events, 0u);
  // The expansion is deterministic and folds into the schedule hash.
  const auto again = generate_fault_schedule(topo, fc, 600.0);
  EXPECT_EQ(schedule_hash(schedule, {}), schedule_hash(again, {}));
  // Turning the domain off removes exactly the domain events and nothing
  // else (no other rate is set, so the schedule must be empty).
  FaultConfig off;
  EXPECT_TRUE(off.empty());
  EXPECT_TRUE(generate_fault_schedule(topo, off, 600.0).empty());
}

TEST(FaultDomains, DomainConfigValidateIsValueBearing) {
  FaultConfig fc;
  fc.rack_power_rate = -0.5;
  try {
    fc.validate();
    FAIL() << "negative rack_power_rate must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("-0.5"), std::string::npos)
        << "message must carry the offending value: " << e.what();
  }
  FaultConfig fc2;
  fc2.rack_power_rate = 1.0;
  fc2.rack_power_mean_repair = 0.0;
  EXPECT_THROW(fc2.validate(), Error);
  FaultConfig fc3;
  fc3.rack_power_rate = 1.0;
  fc3.domain_burst_jitter = -1.0;
  EXPECT_THROW(fc3.validate(), Error);
}

// --- Failure-aware routing ----------------------------------------------------

TEST(NetworkStateTest, FaultFreeDelegatesToTopology) {
  Topology topo(small_topology(true));
  NetworkState net(topo);
  EXPECT_TRUE(net.fault_free());
  std::vector<LinkId> out;
  for (std::int32_t s = 0; s < topo.server_count(); s += 3) {
    for (std::int32_t d = 0; d < topo.server_count(); d += 5) {
      ASSERT_TRUE(net.route_into(ServerId{s}, ServerId{d}, out));
      EXPECT_EQ(out, topo.route(ServerId{s}, ServerId{d}));
    }
  }
}

TEST(NetworkStateTest, TorUplinkFailsOverToSecondary) {
  Topology topo(small_topology(true));
  ASSERT_TRUE(topo.has_redundant_uplinks());
  NetworkState net(topo);
  const ServerId src = server_in_rack(topo, 0, 0);
  const ServerId dst = server_in_rack(topo, 3, 0);

  net.set_link_up(topo.tor_up_link(RackId{0}), false);
  EXPECT_FALSE(net.fault_free());
  EXPECT_TRUE(net.reachable(src, dst));
  std::vector<LinkId> out;
  ASSERT_TRUE(net.route_into(src, dst, out));
  EXPECT_FALSE(path_contains(out, topo.tor_up_link(RackId{0})));
  EXPECT_TRUE(path_contains(out, topo.tor_up2_link(RackId{0})));
  for (LinkId l : out) EXPECT_TRUE(net.link_usable(l));

  // Same-rack traffic never leaves the ToR and is unaffected.
  ASSERT_TRUE(net.route_into(src, server_in_rack(topo, 0, 1), out));
  EXPECT_EQ(out, topo.route(src, server_in_rack(topo, 0, 1)));

  net.set_link_up(topo.tor_up_link(RackId{0}), true);
  EXPECT_TRUE(net.fault_free());
  ASSERT_TRUE(net.route_into(src, dst, out));
  EXPECT_EQ(out, topo.route(src, dst)) << "repair must restore the primary path";
}

TEST(NetworkStateTest, AggCrashFailsOverToBackup) {
  Topology topo(small_topology(true));
  NetworkState net(topo);
  const ServerId src = server_in_rack(topo, 0, 0);
  const ServerId dst = server_in_rack(topo, 3, 0);
  const std::int32_t agg = topo.agg_of(RackId{0});

  net.set_agg_up(agg, false);
  EXPECT_TRUE(net.reachable(src, dst));
  std::vector<LinkId> out;
  ASSERT_TRUE(net.route_into(src, dst, out));
  for (LinkId l : out) {
    EXPECT_TRUE(net.link_usable(l));
    const auto& link = topo.link(l);
    if (link.kind == LinkKind::kAggUp || link.kind == LinkKind::kAggDown) {
      EXPECT_NE(link.entity, agg) << "route crossed the crashed aggregation switch";
    }
  }
}

TEST(NetworkStateTest, TorCrashIsolatesExactlyItsRack) {
  Topology topo(small_topology(true));
  NetworkState net(topo);
  net.set_tor_up(RackId{0}, false);

  const ServerId in0 = server_in_rack(topo, 0, 0);
  const ServerId in0b = server_in_rack(topo, 0, 1);
  const ServerId in1 = server_in_rack(topo, 1, 0);
  const ServerId in2 = server_in_rack(topo, 2, 0);
  // The rack is cut off in both directions, even from its own ToR peers
  // (all rack traffic transits the ToR).
  EXPECT_FALSE(net.reachable(in0, in1));
  EXPECT_FALSE(net.reachable(in1, in0));
  EXPECT_FALSE(net.reachable(in0, in0b));
  std::vector<LinkId> out;
  EXPECT_FALSE(net.route_into(in0, in1, out));
  EXPECT_TRUE(out.empty());
  // Every other pair is untouched.
  EXPECT_TRUE(net.reachable(in1, in2));
  ASSERT_TRUE(net.route_into(in1, in2, out));
  EXPECT_EQ(out, topo.route(in1, in2));

  net.set_tor_up(RackId{0}, true);
  EXPECT_TRUE(net.reachable(in0, in1));
}

TEST(NetworkStateTest, WithoutRedundancyUplinkLossPartitionsTheRack) {
  Topology topo(small_topology(false));
  ASSERT_FALSE(topo.has_redundant_uplinks());
  NetworkState net(topo);
  net.set_link_up(topo.tor_up_link(RackId{0}), false);
  const ServerId src = server_in_rack(topo, 0, 0);
  EXPECT_FALSE(net.reachable(src, server_in_rack(topo, 1, 0)));
  // In-rack connectivity survives: only the uplink died, not the ToR.
  EXPECT_TRUE(net.reachable(src, server_in_rack(topo, 0, 1)));
}

TEST(NetworkStateTest, PathAliveTracksDeviceState) {
  Topology topo(small_topology(true));
  NetworkState net(topo);
  const ServerId src = server_in_rack(topo, 0, 0);
  const ServerId dst = server_in_rack(topo, 2, 0);
  const auto path = topo.route(src, dst);
  EXPECT_TRUE(net.path_alive(src, dst, path));
  net.set_link_up(path.at(1), false);
  EXPECT_FALSE(net.path_alive(src, dst, path));
  net.set_link_up(path.at(1), true);
  EXPECT_TRUE(net.path_alive(src, dst, path));
  net.set_server_up(dst, false);
  EXPECT_FALSE(net.path_alive(src, dst, path)) << "a down endpoint kills the path";
}

// --- In-flight flows under faults ---------------------------------------------

TEST(FlowSimFaults, MidFlightRerouteletsTheFlowFinish) {
  Topology topo(small_topology(true));
  NetworkState net(topo);
  FlowSim sim(topo, exact_config(60.0));
  sim.set_network_state(&net);

  FlowSpec spec;
  spec.src = server_in_rack(topo, 0, 0);
  spec.dst = server_in_rack(topo, 3, 0);
  spec.bytes = 250'000'000;  // ~2 s at the 125 MB/s NIC bottleneck
  sim.start_flow(spec);

  sim.at(1.0, [&](FlowSim& s) {
    net.set_link_up(topo.tor_up_link(RackId{0}), false);
    const auto stats = s.handle_network_change();
    EXPECT_EQ(stats.flows_rerouted, 1);
    EXPECT_EQ(stats.flows_killed, 0);
  });
  sim.run();

  ASSERT_EQ(sim.records().size(), 1u);
  const auto& rec = sim.records().front();
  EXPECT_FALSE(rec.failed);
  EXPECT_FALSE(rec.truncated);
  EXPECT_EQ(rec.bytes_sent, spec.bytes);
  EXPECT_EQ(sim.fault_rerouted_flow_count(), 1u);
  EXPECT_EQ(sim.fault_killed_flow_count(), 0u);
}

TEST(FlowSimFaults, RerouteBetweenBatchedRecomputesDropsTheQueuedCompletion) {
  Topology topo(small_topology(true));
  NetworkState net(topo);
  FlowSimConfig cfg = exact_config(60.0);
  cfg.recompute_interval = 1.0;  // the recompute after t = 0 is at t = 1
  FlowSim sim(topo, cfg);
  sim.set_network_state(&net);

  FlowSpec spec;
  spec.src = server_in_rack(topo, 0, 0);
  spec.dst = server_in_rack(topo, 3, 0);
  spec.bytes = 62'500'000;  // due at t = 0.5 at the 125 MB/s NIC bottleneck
  sim.start_flow(spec);

  sim.at(0.25, [&](FlowSim& s) {
    net.set_link_up(topo.tor_up_link(RackId{0}), false);
    EXPECT_EQ(s.handle_network_change().flows_rerouted, 1);
  });
  sim.run();

  // The reroute made the t = 0.5 completion stale.  The flow drains at its
  // old rate until the t = 1 recompute, which queues its finish at t = 1.
  ASSERT_EQ(sim.records().size(), 1u);
  const auto& rec = sim.records().front();
  EXPECT_FALSE(rec.failed);
  EXPECT_EQ(rec.bytes_sent, spec.bytes);
  EXPECT_EQ(rec.end, 1.0);
}

TEST(FlowSimFaults, NoAlternatePathKillsTheFlow) {
  Topology topo(small_topology(false));
  NetworkState net(topo);
  FlowSim sim(topo, exact_config(60.0));
  sim.set_network_state(&net);

  FlowSpec spec;
  spec.src = server_in_rack(topo, 0, 0);
  spec.dst = server_in_rack(topo, 3, 0);
  spec.bytes = 250'000'000;
  sim.start_flow(spec);

  sim.at(1.0, [&](FlowSim& s) {
    net.set_link_up(topo.tor_up_link(RackId{0}), false);
    const auto stats = s.handle_network_change();
    EXPECT_EQ(stats.flows_killed, 1);
    EXPECT_EQ(stats.flows_rerouted, 0);
  });
  sim.run();

  ASSERT_EQ(sim.records().size(), 1u);
  const auto& rec = sim.records().front();
  EXPECT_TRUE(rec.failed);
  EXPECT_LT(rec.bytes_sent, spec.bytes);
  EXPECT_EQ(sim.fault_killed_flow_count(), 1u);
}

TEST(FlowSimFaults, UnreachableDestinationFailsTheConnection) {
  Topology topo(small_topology(true));
  NetworkState net(topo);
  FlowSim sim(topo, exact_config(30.0));
  sim.set_network_state(&net);

  FlowSpec spec;
  spec.src = server_in_rack(topo, 0, 0);
  spec.dst = server_in_rack(topo, 1, 0);
  spec.bytes = 1'000'000;
  net.set_server_up(spec.dst, false);
  bool completed = false;
  sim.start_flow(spec, [&](FlowSim&, const FlowRecord& rec) {
    completed = true;
    EXPECT_TRUE(rec.failed);
    EXPECT_EQ(rec.bytes_sent, 0);
  });
  sim.run();
  EXPECT_TRUE(completed);
  ASSERT_EQ(sim.records().size(), 1u);
  EXPECT_TRUE(sim.records().front().failed);
}

TEST(FlowSimFaults, TotalRackDisconnectKillsFlowsAndRecovers) {
  // Regression for the correlated-domain case: BOTH ToR uplinks (and their
  // down twins) fail at once, so even the redundant fabric cannot save the
  // rack.  In-flight flows must die promptly (no hang), new flows must fail
  // cleanly while the rack is dark, repair must restore service, and no
  // flow may ever double-count bytes.
  Topology topo(small_topology(true));
  ASSERT_TRUE(topo.has_redundant_uplinks());
  NetworkState net(topo);
  FlowSim sim(topo, exact_config(60.0));
  sim.set_network_state(&net);

  const ServerId src = server_in_rack(topo, 0, 0);
  const ServerId dst = server_in_rack(topo, 2, 0);
  const std::vector<LinkId> uplinks = {
      topo.tor_up_link(RackId{0}), topo.tor_down_link(RackId{0}),
      topo.tor_up2_link(RackId{0}), topo.tor_down2_link(RackId{0})};

  FlowSpec spec;
  spec.src = src;
  spec.dst = dst;
  spec.bytes = 250'000'000;  // ~2 s at the 125 MB/s NIC bottleneck
  sim.start_flow(spec);

  bool unreachable_mid = false;
  sim.at(1.0, [&](FlowSim& s) {
    for (LinkId l : uplinks) net.set_link_up(l, false);
    const auto stats = s.handle_network_change();
    EXPECT_EQ(stats.flows_killed, 1);
    EXPECT_EQ(stats.flows_rerouted, 0);
    unreachable_mid = !net.reachable(src, dst) && !net.reachable(dst, src);
    // A flow started while the rack is dark fails immediately, zero bytes.
    FlowSpec dark = spec;
    s.start_flow(dark, [](FlowSim&, const FlowRecord& rec) {
      EXPECT_TRUE(rec.failed);
      EXPECT_EQ(rec.bytes_sent, 0);
    });
  });
  sim.at(5.0, [&](FlowSim& s) {
    for (LinkId l : uplinks) net.set_link_up(l, true);
    s.handle_network_change();
    FlowSpec healed = spec;
    s.start_flow(healed, [](FlowSim&, const FlowRecord& rec) {
      EXPECT_FALSE(rec.failed);
      EXPECT_EQ(rec.bytes_sent, rec.bytes_requested);
    });
  });
  sim.run();

  EXPECT_TRUE(unreachable_mid) << "four dead uplinks must cut the rack off";
  EXPECT_EQ(sim.active_flow_count(), 0u) << "no flow may hang past the run";
  ASSERT_EQ(sim.records().size(), 3u);
  for (const auto& rec : sim.records()) {
    EXPECT_LE(rec.bytes_sent, rec.bytes_requested) << "bytes double-counted";
    EXPECT_GE(rec.end, rec.start);
  }
  // Exactly one flow (the post-repair one) completed in full.
  std::size_t completed = 0;
  for (const auto& rec : sim.records()) {
    if (!rec.failed && rec.bytes_sent == rec.bytes_requested) ++completed;
  }
  EXPECT_EQ(completed, 1u);
}

// --- The injector -------------------------------------------------------------

TEST(FaultInjectorTest, AppliesRepairsAndSkipsOverlaps) {
  Topology topo(small_topology(true));
  NetworkState net(topo);
  FlowSim sim(topo, exact_config(60.0));
  sim.set_network_state(&net);
  ClusterTrace trace(topo.server_count(), 60.0);
  FaultInjector inj(sim, net, &trace);

  std::vector<ServerId> crashed, recovered;
  inj.set_server_crash_handler([&](ServerId s) { crashed.push_back(s); });
  inj.set_server_recovery_handler([&](ServerId s) { recovered.push_back(s); });

  std::vector<FaultEvent> schedule;
  schedule.push_back({1.0, 10.0, DeviceKind::kServer, 3});
  schedule.push_back({5.0, 8.0, DeviceKind::kServer, 3});  // overlap: skipped
  schedule.push_back({2.0, 12.0, DeviceKind::kTor, 1});
  inj.install(std::move(schedule));

  bool down_mid = false, up_after = false, tor_down_mid = false;
  sim.at(6.0, [&](FlowSim&) {
    down_mid = !net.server_up(ServerId{3});
    tor_down_mid = !net.tor_up(RackId{1});
  });
  sim.at(20.0, [&](FlowSim&) {
    up_after = net.server_up(ServerId{3}) && net.tor_up(RackId{1});
  });
  sim.run();

  EXPECT_TRUE(down_mid);
  EXPECT_TRUE(tor_down_mid);
  EXPECT_TRUE(up_after);
  EXPECT_EQ(inj.injected(), 2u);
  EXPECT_EQ(inj.skipped(), 1u);
  ASSERT_EQ(crashed.size(), 1u);
  EXPECT_EQ(crashed.front(), ServerId{3});
  EXPECT_EQ(recovered.size(), 1u);
  // Only applied faults produce incident records.
  ASSERT_EQ(trace.device_failures().size(), 2u);
  EXPECT_EQ(trace.device_failures()[0].device, DeviceKind::kServer);
  EXPECT_EQ(trace.device_failures()[1].device, DeviceKind::kTor);
}

// --- Determinism and strict additivity ----------------------------------------

ScenarioConfig faulty_tiny(TimeSec duration, std::uint64_t seed) {
  ScenarioConfig cfg = scenarios::tiny(duration, seed);
  cfg.topology.redundant_tor_uplinks = true;
  cfg.faults.link_flap_rate = 6.0;
  cfg.faults.link_flap_mean_duration = 10.0;
  cfg.faults.server_crash_rate = 6.0;
  cfg.faults.server_mean_repair = 25.0;
  cfg.faults.tor_crash_rate = 2.0;
  cfg.faults.tor_mean_repair = 20.0;
  cfg.faults.agg_crash_rate = 2.0;
  cfg.faults.agg_mean_repair = 15.0;
  return cfg;
}

TEST(FaultDeterminism, IdenticalConfigAndSeedGiveBitIdenticalTraces) {
  ClusterExperiment a(faulty_tiny(90.0, 5));
  a.run();
  ClusterExperiment b(faulty_tiny(90.0, 5));
  b.run();
  EXPECT_FALSE(a.trace().device_failures().empty());
  ASSERT_NE(a.fault_injector(), nullptr);
  EXPECT_GT(a.fault_injector()->injected(), 0u);
  EXPECT_EQ(encode_trace(a.trace()), encode_trace(b.trace()));
}

TEST(FaultDeterminism, FaultFreeOverlayIsByteIdenticalToNoOverlay) {
  // The strict-additivity contract: installing a NetworkState that never
  // sees a fault must not change a single output byte.
  const ScenarioConfig cfg = scenarios::tiny(45.0, 7);

  Topology topo_a(cfg.topology);
  FlowSim sim_a(topo_a, cfg.sim);
  ClusterTrace trace_a(topo_a.server_count(), cfg.sim.end_time);
  TraceCollector coll_a(sim_a, trace_a);
  WorkloadDriver driver_a(topo_a, sim_a, trace_a, cfg.workload, cfg.seed);
  driver_a.install();
  sim_a.run();

  Topology topo_b(cfg.topology);
  NetworkState net(topo_b);
  FlowSim sim_b(topo_b, cfg.sim);
  sim_b.set_network_state(&net);
  ClusterTrace trace_b(topo_b.server_count(), cfg.sim.end_time);
  TraceCollector coll_b(sim_b, trace_b);
  WorkloadDriver driver_b(topo_b, sim_b, trace_b, cfg.workload, cfg.seed);
  driver_b.install();
  sim_b.run();

  EXPECT_EQ(encode_trace(trace_a), encode_trace(trace_b));
}

TEST(FaultDeterminism, FaultStormManifestIsByteIdentical) {
  // The reproducibility contract for the whole fault stack: two runs of the
  // same storm must agree on every manifest byte once the only legitimately
  // nondeterministic fields (wall-clock measurements) are removed.
  ScenarioConfig cfg = scenarios::fault_storm(60.0, 13);
  // Ride the degradation layer too, so the manifest covers both schedules.
  cfg.degradations.link_capacity_rate = 0.5;
  cfg.degradations.straggler_rate = 1.0;
  ClusterExperiment a(cfg);
  a.run();
  ClusterExperiment b(cfg);
  b.run();
  EXPECT_NE(a.schedule_hash(), 0u);
  EXPECT_EQ(dct::testing::stable_manifest(a, "faults_test"),
            dct::testing::stable_manifest(b, "faults_test"));
}

// --- Workload-level crash recovery --------------------------------------------

TEST(CrashRecovery, ServerCrashesTriggerReexecutionAndRereplication) {
  ScenarioConfig cfg = scenarios::tiny(150.0, 11);
  cfg.workload.evacuations_per_hour = 0.0;  // isolate recovery traffic
  cfg.faults.server_crash_rate = 20.0;
  cfg.faults.server_mean_repair = 40.0;
  ClusterExperiment exp(cfg);
  exp.run();

  const auto& stats = exp.workload_stats();
  EXPECT_GT(stats.server_crashes, 0);
  EXPECT_GT(stats.blocks_rereplicated, 0);
  EXPECT_FALSE(exp.trace().device_failures().empty());
  // Re-replication traffic shows up as evacuation-kind flows even though
  // the evacuation process itself is disabled.
  std::size_t recovery_flows = 0;
  for (const auto& f : exp.trace().flows()) {
    if (f.kind == FlowKind::kEvacuation) ++recovery_flows;
  }
  EXPECT_GT(recovery_flows, 0u);
  // Jobs still make progress through the storm.
  EXPECT_GT(stats.jobs_completed, 0);

  // The incident log converts cleanly into anomaly truth windows, clipped
  // to the horizon.
  const auto windows = failure_windows(exp.trace());
  ASSERT_EQ(windows.size(), exp.trace().device_failures().size());
  for (const auto& w : windows) {
    EXPECT_LT(w.start, w.end);
    EXPECT_LE(w.end, exp.trace().duration() + 1e-9);
  }
}

// --- Codec --------------------------------------------------------------------

TEST(FaultCodec, DeviceFailuresRoundTripAndVersionIsGated) {
  ClusterTrace trace(3, 10.0);
  FlowRecord r;
  r.id = FlowId{0};
  r.src = ServerId{0};
  r.dst = ServerId{1};
  r.bytes_requested = r.bytes_sent = 1000;
  r.start = 1.0;
  r.end = 2.0;
  trace.record_flow(r);

  EXPECT_TRUE(decode_trace(encode_trace(trace)).device_failures().empty());

  DeviceFailureRecord d;
  d.start = 1.25;
  d.end = 7.5;
  d.device = DeviceKind::kTor;
  d.entity = 2;
  d.flows_killed = 3;
  d.flows_rerouted = 4;
  trace.record_device_failure(d);
  DeviceFailureRecord d2;
  d2.start = 2.0;
  d2.end = 30.0;  // repair beyond the horizon is representable
  d2.device = DeviceKind::kLink;
  d2.entity = 17;
  trace.record_device_failure(d2);

  const auto bytes = encode_trace(trace);
  const auto back = decode_trace(bytes);
  ASSERT_EQ(back.device_failures().size(), 2u);
  const auto& rb = back.device_failures()[0];
  EXPECT_NEAR(rb.start, d.start, 1e-6);
  EXPECT_NEAR(rb.end, d.end, 1e-6);
  EXPECT_EQ(rb.device, DeviceKind::kTor);
  EXPECT_EQ(rb.entity, 2);
  EXPECT_EQ(rb.flows_killed, 3);
  EXPECT_EQ(rb.flows_rerouted, 4);
  EXPECT_EQ(back.device_failures()[1].device, DeviceKind::kLink);
  EXPECT_EQ(back.device_failures()[1].entity, 17);
  // Re-encoding the decoded trace is stable.
  EXPECT_EQ(encode_trace(back), bytes);
}

}  // namespace
}  // namespace dct
