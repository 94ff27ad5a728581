#include "tomography/estimators.h"
#include "tomography/metrics.h"
#include "tomography/routing.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "analysis/traffic_matrix.h"
#include "common/require.h"
#include "common/rng.h"

namespace dct {
namespace {

TopologyConfig topo_config(std::int32_t racks = 6) {
  TopologyConfig cfg;
  cfg.racks = racks;
  cfg.servers_per_rack = 4;
  cfg.racks_per_vlan = 2;
  cfg.agg_switches = 2;
  cfg.external_servers = 1;
  return cfg;
}

DenseTorTm random_tm(std::int32_t n, Rng& rng, double density = 0.4) {
  DenseTorTm tm(n);
  for (std::int32_t i = 0; i < n; ++i) {
    for (std::int32_t j = 0; j < n; ++j) {
      if (i != j && rng.bernoulli(density)) tm.set(i, j, rng.uniform(1.0, 100.0));
    }
  }
  return tm;
}

TEST(RoutingMatrix, PathsUseMeasuredLinksOnly) {
  Topology topo(topo_config());
  RoutingMatrix routing(topo);
  EXPECT_EQ(routing.tor_count(), 6);
  EXPECT_EQ(routing.link_count(), 6 * 2 + 2 * 2);
  std::vector<LinkId> route;
  for (std::int32_t i = 0; i < 6; ++i) {
    for (std::int32_t j = 0; j < 6; ++j) {
      if (i == j) continue;
      const auto& path = routing.path(i, j);
      const bool same_agg = topo.agg_of(RackId{i}) == topo.agg_of(RackId{j});
      EXPECT_EQ(path.size(), same_agg ? 2u : 4u);
      for (std::int32_t l : path) {
        EXPECT_GE(l, 0);
        EXPECT_LT(l, routing.link_count());
      }
      // First hop is i's ToR uplink; last is j's ToR downlink.
      EXPECT_EQ(routing.link_at(path.front()), topo.tor_up_link(RackId{i}));
      EXPECT_EQ(routing.link_at(path.back()), topo.tor_down_link(RackId{j}));
      // Hop by hop, the path is the measured part of the route a flow from
      // a server of rack i to a server of rack j takes.
      topo.route_into(topo.servers_in_rack(RackId{i}).front(),
                      topo.servers_in_rack(RackId{j}).back(), route);
      std::vector<LinkId> measured;
      for (LinkId l : route) {
        if (routing.measured_index(l) >= 0) measured.push_back(l);
      }
      ASSERT_EQ(path.size(), measured.size()) << i << " -> " << j;
      for (std::size_t h = 0; h < path.size(); ++h) {
        EXPECT_EQ(routing.link_at(path[h]), measured[h]) << i << " -> " << j << " hop " << h;
      }
    }
  }
  EXPECT_THROW((void)routing.path(0, 0), Error);
}

TEST(RoutingMatrix, LinkLoadsMatchManualSum) {
  Topology topo(topo_config());
  RoutingMatrix routing(topo);
  DenseTorTm tm(6);
  tm.set(0, 1, 10);  // same agg: tor_up(0), tor_down(1)
  tm.set(0, 2, 5);   // cross agg
  const auto b = routing.link_loads(tm);
  EXPECT_DOUBLE_EQ(b[routing.measured_index(topo.tor_up_link(RackId{0}))], 15);
  EXPECT_DOUBLE_EQ(b[routing.measured_index(topo.tor_down_link(RackId{1}))], 10);
  EXPECT_DOUBLE_EQ(b[routing.measured_index(topo.tor_down_link(RackId{2}))], 5);
  EXPECT_DOUBLE_EQ(b[routing.measured_index(topo.agg_up_link(0))], 5);
}

TEST(RoutingMatrix, AdjointIsTransposed) {
  // <A x, y> == <x, A^T y> for random x, y.
  Topology topo(topo_config());
  RoutingMatrix routing(topo);
  Rng rng(3);
  const DenseTorTm x = random_tm(6, rng);
  std::vector<double> y(static_cast<std::size_t>(routing.link_count()));
  for (auto& v : y) v = rng.uniform(0.0, 1.0);

  const auto ax = routing.link_loads(x);
  double lhs = 0;
  for (std::size_t l = 0; l < y.size(); ++l) lhs += ax[l] * y[l];

  const auto aty = routing.adjoint(y);
  double rhs = 0;
  for (std::int32_t i = 0; i < 6; ++i) {
    for (std::int32_t j = 0; j < 6; ++j) {
      if (i != j) rhs += x.at(i, j) * aty[static_cast<std::size_t>(i) * 6 + j];
    }
  }
  EXPECT_NEAR(lhs, rhs, 1e-9 * std::max(1.0, std::fabs(lhs)));
}

TEST(GravityPrior, MarginalsMatchLinkLoads) {
  Topology topo(topo_config());
  RoutingMatrix routing(topo);
  Rng rng(5);
  const DenseTorTm truth = random_tm(6, rng);
  const auto b = routing.link_loads(truth);
  const DenseTorTm g = gravity_prior(routing, b);
  // Row sums of the gravity prior reproduce each ToR's uplink load.
  for (std::int32_t i = 0; i < 6; ++i) {
    double row = 0;
    for (std::int32_t j = 0; j < 6; ++j) {
      if (i != j) row += g.at(i, j);
    }
    const double out_i = b[routing.measured_index(topo.tor_up_link(RackId{i}))];
    EXPECT_NEAR(row, out_i, 1e-6 * std::max(1.0, out_i));
  }
  EXPECT_NEAR(g.total(), truth.total(), 1e-6 * truth.total());
}

TEST(Tomogravity, SatisfiesLinkConstraints) {
  Topology topo(topo_config());
  RoutingMatrix routing(topo);
  Rng rng(7);
  const DenseTorTm truth = random_tm(6, rng);
  const auto b = routing.link_loads(truth);
  const DenseTorTm est = tomogravity(routing, b);
  const auto b_est = routing.link_loads(est);
  double b_norm = 0;
  for (double v : b) b_norm = std::max(b_norm, std::fabs(v));
  for (std::size_t l = 0; l < b.size(); ++l) {
    EXPECT_NEAR(b_est[l], b[l], 1e-3 * std::max(1.0, b_norm));
  }
  // Estimates are non-negative.
  for (std::int32_t i = 0; i < 6; ++i) {
    for (std::int32_t j = 0; j < 6; ++j) {
      if (i != j) {
        EXPECT_GE(est.at(i, j), 0.0);
      }
    }
  }
}

TEST(Tomogravity, RecoversGravityConsistentTm) {
  // If the truth *is* a gravity TM, tomogravity should recover it nearly
  // exactly (its prior equals the truth and the adjustment is a no-op).
  Topology topo(topo_config());
  RoutingMatrix routing(topo);
  DenseTorTm truth(6);
  const double out[6] = {10, 20, 30, 5, 15, 20};
  const double in[6] = {20, 10, 25, 15, 10, 20};
  double total = 0;
  for (double v : out) total += v;
  for (std::int32_t i = 0; i < 6; ++i) {
    for (std::int32_t j = 0; j < 6; ++j) {
      if (i != j) truth.set(i, j, out[i] * in[j] / total);
    }
  }
  // A gravity matrix built this way has row sum out_i * (1 - in_i/total),
  // not out_i; feed tomogravity the loads of this matrix directly.
  const auto b = routing.link_loads(truth);
  const DenseTorTm est = tomogravity(routing, b);
  EXPECT_LT(rmsre(truth, est, 0.75), 0.15);
}

TEST(Tomogravity, PoorOnSparseClusteredTm) {
  // The paper's central negative result: gravity spreads traffic, so sparse
  // job-clustered TMs are estimated badly.
  Topology topo(topo_config(8));
  RoutingMatrix routing(topo);
  DenseTorTm truth(8);
  truth.set(0, 1, 100);
  truth.set(2, 3, 80);
  truth.set(4, 5, 120);
  const auto b = routing.link_loads(truth);
  const DenseTorTm est = tomogravity(routing, b);
  EXPECT_GT(rmsre(truth, est, 0.75), 0.3);
  // And the estimate is much denser than the truth.
  EXPECT_GT(est.nonzero_count(), truth.nonzero_count() * 3);
}

TEST(SparsityMax, ExplainsLoadsWithFewEntries) {
  Topology topo(topo_config(8));
  RoutingMatrix routing(topo);
  Rng rng(11);
  const DenseTorTm truth = random_tm(8, rng, 0.5);
  const auto b = routing.link_loads(truth);
  const DenseTorTm est = sparsity_max(routing, b);
  // The greedy MILP surrogate explains the bulk of the load.  It can strand
  // some residual when a link needed by every remaining OD pair exhausts
  // first (the exact MILP would not), so the bound is loose.
  const auto b_est = routing.link_loads(est);
  double total = 0, resid = 0;
  for (std::size_t l = 0; l < b.size(); ++l) {
    total += b[l];
    resid += std::fabs(b[l] - b_est[l]);
  }
  EXPECT_LT(resid, 0.25 * total);
  // Far sparser than the truth (the paper's Fig. 14 finding).
  EXPECT_LT(est.nonzero_count(), truth.nonzero_count());
}

TEST(SparsityMax, NeverOvershootsLinkLoads) {
  Topology topo(topo_config(8));
  RoutingMatrix routing(topo);
  Rng rng(13);
  const DenseTorTm truth = random_tm(8, rng, 0.5);
  const auto b = routing.link_loads(truth);
  const auto b_est = routing.link_loads(sparsity_max(routing, b));
  for (std::size_t l = 0; l < b.size(); ++l) {
    EXPECT_LE(b_est[l], b[l] + 1e-9);
  }
}

TEST(JobPrior, SharpensTowardCoscheduledRacks) {
  Topology topo(topo_config());
  RoutingMatrix routing(topo);
  DenseTorTm truth(6);
  truth.set(0, 1, 100);
  truth.set(1, 0, 100);
  truth.set(2, 3, 100);
  truth.set(3, 2, 100);
  const auto b = routing.link_loads(truth);
  // One job spans racks 0,1; another spans racks 2,3.
  std::vector<std::vector<double>> activity = {{5, 5, 0, 0, 0, 0},
                                               {0, 0, 5, 5, 0, 0}};
  const DenseTorTm plain = gravity_prior(routing, b);
  const DenseTorTm aware = job_augmented_prior(routing, b, activity);
  // The job-aware prior puts more mass on the true pairs than plain gravity.
  EXPECT_GT(aware.at(0, 1), plain.at(0, 1));
  EXPECT_LT(aware.at(0, 3), plain.at(0, 3));
  // And the adjusted estimate improves.
  const double err_plain = rmsre(truth, tomogravity(routing, b, plain), 0.75);
  const double err_aware = rmsre(truth, tomogravity(routing, b, aware), 0.75);
  EXPECT_LE(err_aware, err_plain + 1e-9);
}

// The dct::Error message `f` throws ("" if none).
template <typename F>
std::string error_message(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Tomogravity, RejectsLoadsOfWrongWidth) {
  Topology topo(topo_config());
  RoutingMatrix routing(topo);
  Rng rng(5);
  std::vector<double> b = routing.link_loads(random_tm(6, rng));
  const DenseTorTm prior = gravity_prior(routing, b);
  b.push_back(1.0);
  const LinkLoadMask mask(b.size(), 1);
  for (const std::string& what :
       {error_message([&] { (void)tomogravity(routing, b, prior); }),
        error_message([&] { (void)tomogravity_masked(routing, b, mask, prior); })}) {
    EXPECT_NE(what.find("tomogravity: 17 link loads for 16 measured links"),
              std::string::npos)
        << "message must name the function and the widths: " << what;
  }
}

TEST(JobPrior, RejectsMalformedActivity) {
  Topology topo(topo_config());
  RoutingMatrix routing(topo);
  Rng rng(6);
  const std::vector<double> b = routing.link_loads(random_tm(6, rng));
  const double inf = std::numeric_limits<double>::infinity();
  // A row one rack wide on a six-rack topology, and rows with a non-finite
  // entry (0 * inf would poison every overlap cell it touches).
  for (const std::vector<std::vector<double>>& activity :
       {std::vector<std::vector<double>>{{1, 1, 0, 0, 0, 0}, {1}},
        std::vector<std::vector<double>>{{1, inf, 0, 0, 0, 0}},
        std::vector<std::vector<double>>{{0, 0, 0, 0, 0, std::nan("")}}}) {
    const std::string what =
        error_message([&] { (void)job_augmented_prior(routing, b, activity); });
    EXPECT_NE(what.find("job_augmented_prior: activity row"), std::string::npos)
        << "message must name the function: " << what;
  }
}

TEST(Metrics, VolumeThresholdAndRmsre) {
  DenseTorTm truth(3);
  truth.set(0, 1, 70);
  truth.set(1, 2, 20);
  truth.set(2, 0, 10);
  EXPECT_DOUBLE_EQ(volume_threshold(truth, 0.70), 70.0);
  EXPECT_DOUBLE_EQ(volume_threshold(truth, 0.75), 20.0);
  DenseTorTm est(3);
  est.set(0, 1, 35);  // 50% relative error on the one entry above T(0.70)
  EXPECT_DOUBLE_EQ(rmsre(truth, est, 0.70), 0.5);
  // With both entries in scope: sqrt((0.25 + 1) / 2).
  est.set(1, 2, 0);
  EXPECT_NEAR(rmsre(truth, est, 0.75), std::sqrt((0.25 + 1.0) / 2.0), 1e-12);
}

TEST(Metrics, SparsityFraction) {
  DenseTorTm tm(4);
  tm.set(0, 1, 90);
  tm.set(1, 2, 5);
  tm.set(2, 3, 5);
  // 75% of volume is covered by the single largest entry; 12 OD pairs.
  EXPECT_NEAR(sparsity_fraction(tm, 0.75), 1.0 / 12.0, 1e-12);
}

TEST(Metrics, HeavyHitterOverlap) {
  DenseTorTm truth(4);
  truth.set(0, 1, 100);
  truth.set(1, 2, 90);
  truth.set(2, 3, 1);
  DenseTorTm est(4);
  est.set(0, 1, 50);   // hits a true heavy entry
  est.set(3, 0, 500);  // misses
  EXPECT_EQ(heavy_hitter_overlap(truth, est, 2, 0.8), 1u);
}

TEST(DenseTorTmConversion, FromSparse) {
  SparseTm sparse(3);
  sparse.add(0, 1, 5);
  sparse.add(1, 1, 7);  // diagonal dropped by conversion
  const auto dense = DenseTorTm::from_sparse(sparse);
  EXPECT_DOUBLE_EQ(dense.at(0, 1), 5);
  EXPECT_DOUBLE_EQ(dense.total(), 5);
}

}  // namespace
}  // namespace dct
