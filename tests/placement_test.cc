#include "workload/placement.h"

#include <gtest/gtest.h>

#include "common/require.h"

namespace dct {
namespace {

TopologyConfig topo_config() {
  TopologyConfig cfg;
  cfg.racks = 4;
  cfg.servers_per_rack = 4;
  cfg.racks_per_vlan = 2;
  cfg.agg_switches = 2;
  cfg.external_servers = 1;
  return cfg;
}

TEST(ServerResources, AcquireReleaseAccounting) {
  Topology topo(topo_config());
  ServerResources res(topo, 2);
  const ServerId s{3};
  EXPECT_EQ(res.available(s), 2);
  EXPECT_TRUE(res.try_acquire(s));
  EXPECT_TRUE(res.try_acquire(s));
  EXPECT_FALSE(res.try_acquire(s));
  EXPECT_EQ(res.in_use(s), 2);
  EXPECT_EQ(res.total_in_use(), 2);
  res.release(s);
  EXPECT_EQ(res.available(s), 1);
  EXPECT_TRUE(res.try_acquire(s));
  res.release(s);
  res.release(s);
  EXPECT_THROW(res.release(s), Error);
  EXPECT_THROW(ServerResources(topo, 0), Error);
}

TEST(Placer, PrefersHomeWhenFree) {
  Topology topo(topo_config());
  ServerResources res(topo, 2);
  Placer placer(topo, res, Rng(1));
  const auto d = placer.place_near(ServerId{5});
  EXPECT_EQ(d.server, ServerId{5});
  EXPECT_EQ(d.tier, 0);
}

TEST(Placer, SpillsToRackThenVlan) {
  Topology topo(topo_config());
  ServerResources res(topo, 1);
  Placer placer(topo, res, Rng(2));
  const ServerId home{0};
  ASSERT_TRUE(res.try_acquire(home));
  // Home busy: should land in home's rack (servers 1..3).
  auto d = placer.place_near(home);
  EXPECT_EQ(d.tier, 1);
  EXPECT_TRUE(topo.same_rack(d.server, home));
  // Fill the whole rack: next placement goes to the VLAN (rack 1).
  for (std::int32_t s = 1; s < 4; ++s) ASSERT_TRUE(res.try_acquire(ServerId{s}));
  d = placer.place_near(home);
  EXPECT_EQ(d.tier, 2);
  EXPECT_FALSE(topo.same_rack(d.server, home));
  EXPECT_TRUE(topo.same_vlan(d.server, home));
  // Fill the VLAN: placement leaves the VLAN (tier 3).
  for (std::int32_t s = 4; s < 8; ++s) ASSERT_TRUE(res.try_acquire(ServerId{s}));
  d = placer.place_near(home);
  EXPECT_EQ(d.tier, 3);
  EXPECT_FALSE(topo.same_vlan(d.server, home));
}

TEST(Placer, FallsBackToHomeWhenClusterFull) {
  Topology topo(topo_config());
  ServerResources res(topo, 1);
  for (std::int32_t s = 0; s < topo.internal_server_count(); ++s) {
    ASSERT_TRUE(res.try_acquire(ServerId{s}));
  }
  Placer placer(topo, res, Rng(3));
  const auto d = placer.place_near(ServerId{7});
  EXPECT_EQ(d.server, ServerId{7});  // caller will queue on home
}

TEST(Placer, AnywherePicksInternalServers) {
  Topology topo(topo_config());
  ServerResources res(topo, 1);
  Placer placer(topo, res, Rng(4));
  for (int i = 0; i < 100; ++i) {
    const auto d = placer.place_anywhere();
    EXPECT_FALSE(topo.is_external(d.server));
    EXPECT_LT(d.server.value(), topo.internal_server_count());
  }
}

TEST(Placer, LocalityDisabledIgnoresHome) {
  Topology topo(topo_config());
  ServerResources res(topo, 4);
  Placer placer(topo, res, Rng(5), /*locality_enabled=*/false);
  int home_hits = 0;
  for (int i = 0; i < 200; ++i) {
    const auto d = placer.place_near(ServerId{0});
    if (d.server == ServerId{0}) ++home_hits;
  }
  // Random placement over 16 servers: home should be rare, never dominant.
  EXPECT_LT(home_hits, 60);
}

TEST(Placer, RejectsExternalHome) {
  Topology topo(topo_config());
  ServerResources res(topo, 1);
  Placer placer(topo, res, Rng(6));
  EXPECT_THROW((void)placer.place_near(ServerId{16}), Error);  // external id
}

}  // namespace
}  // namespace dct
