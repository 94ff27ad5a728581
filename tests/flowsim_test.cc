#include "flowsim/flowsim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/require.h"
#include "common/rng.h"
#include "topology/topology.h"

namespace dct {
namespace {

TopologyConfig test_topology() {
  TopologyConfig cfg;
  cfg.racks = 4;
  cfg.servers_per_rack = 5;
  cfg.racks_per_vlan = 2;
  cfg.agg_switches = 2;
  cfg.external_servers = 2;
  return cfg;
}

FlowSimConfig exact_config(TimeSec horizon = 1000.0) {
  FlowSimConfig cfg;
  cfg.end_time = horizon;
  cfg.recompute_interval = 0.0;      // exact mode
  cfg.per_flow_rate_cap = 0.0;       // uncapped unless a test opts in
  cfg.connect_share_floor = 0.0;     // no connection failures unless opted in
  return cfg;
}

FlowSpec flow(ServerId src, ServerId dst, Bytes bytes) {
  FlowSpec fs;
  fs.src = src;
  fs.dst = dst;
  fs.bytes = bytes;
  fs.kind = FlowKind::kOther;
  return fs;
}

TEST(FlowSim, SingleFlowFinishesAtLineRate) {
  Topology topo(test_topology());
  FlowSim sim(topo, exact_config());
  // Cross-rack: bottleneck is the 1 Gbps server NIC = 125 MB/s.
  sim.start_flow(flow(ServerId{0}, ServerId{6}, 125'000'000));
  sim.run();
  ASSERT_EQ(sim.records().size(), 1u);
  const FlowRecord& r = sim.records().front();
  EXPECT_FALSE(r.failed);
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.bytes_sent, 125'000'000);
  EXPECT_NEAR(r.duration(), 1.0, 1e-6);
}

TEST(FlowSim, TwoFlowsShareTheirCommonBottleneck) {
  Topology topo(test_topology());
  FlowSim sim(topo, exact_config());
  // Both flows leave server 0: share its uplink fairly -> each at 62.5 MB/s.
  sim.start_flow(flow(ServerId{0}, ServerId{1}, 62'500'000));
  sim.start_flow(flow(ServerId{0}, ServerId{2}, 62'500'000));
  sim.run();
  ASSERT_EQ(sim.records().size(), 2u);
  for (const auto& r : sim.records()) {
    EXPECT_NEAR(r.duration(), 1.0, 1e-6);
  }
}

TEST(FlowSim, MaxMinGivesLeftoverToUnconstrainedFlow) {
  Topology topo(test_topology());
  FlowSim sim(topo, exact_config());
  // Flows A,B: 0->1 and 0->2 (share 0's uplink at 62.5).  Flow C: 3->1
  // shares 1's downlink with A.  Max-min: A=62.5, C also bottlenecked at
  // 1's downlink: A+C <= 125 with A frozen at 62.5 -> C = 62.5.
  // Then B = 62.5.  All finish together if sizes are equal.
  const Bytes size = 62'500'000;
  sim.start_flow(flow(ServerId{0}, ServerId{1}, size));
  sim.start_flow(flow(ServerId{0}, ServerId{2}, size));
  sim.start_flow(flow(ServerId{3}, ServerId{1}, size));
  sim.run();
  ASSERT_EQ(sim.records().size(), 3u);
  for (const auto& r : sim.records()) EXPECT_NEAR(r.duration(), 1.0, 1e-6);
}

TEST(FlowSim, DepartureSpeedsUpRemainingFlows) {
  Topology topo(test_topology());
  FlowSim sim(topo, exact_config());
  // Two flows share a bottleneck; the smaller finishes first, after which
  // the larger runs at full rate.  125MB total at: 62.5 for 0.4s (25MB),
  // then 125 for (100-25)/125 = 0.6s -> ends at 1.0s.
  sim.start_flow(flow(ServerId{0}, ServerId{1}, 25'000'000));
  sim.start_flow(flow(ServerId{0}, ServerId{2}, 100'000'000));
  sim.run();
  ASSERT_EQ(sim.records().size(), 2u);
  const auto& small = sim.records()[0];
  const auto& big = sim.records()[1];
  EXPECT_NEAR(small.duration(), 0.4, 1e-6);
  EXPECT_NEAR(big.duration(), 1.0, 1e-6);
}

TEST(FlowSim, PerFlowRateCapHonored) {
  Topology topo(test_topology());
  FlowSimConfig cfg = exact_config();
  cfg.per_flow_rate_cap = 10e6;  // 10 MB/s
  FlowSim sim(topo, cfg);
  sim.start_flow(flow(ServerId{0}, ServerId{1}, 10'000'000));
  sim.run();
  ASSERT_EQ(sim.records().size(), 1u);
  EXPECT_NEAR(sim.records().front().duration(), 1.0, 1e-6);
}

// Four flows leave server 0 over its uplink, so their fair share there is
// a quarter of its effective capacity.  Each flow's bytes at the 1 s
// horizon show whether the link or the per-flow cap set its rate.
Bytes shared_uplink_bytes(BytesPerSec cap, double uplink_factor) {
  Topology topo(test_topology());
  FlowSimConfig cfg = exact_config(1.0);
  cfg.per_flow_rate_cap = cap;
  FlowSim sim(topo, cfg);
  sim.set_link_capacity_factor(topo.server_up_link(ServerId{0}), uplink_factor);
  for (std::int32_t dst = 1; dst <= 4; ++dst) {
    sim.start_flow(flow(ServerId{0}, ServerId{dst}, Bytes{1} << 50));
  }
  sim.run();
  EXPECT_EQ(sim.records().size(), 4u);
  for (const FlowRecord& r : sim.records()) {
    EXPECT_TRUE(r.truncated);
    EXPECT_EQ(r.bytes_sent, sim.records().front().bytes_sent);
  }
  return sim.records().front().bytes_sent;
}

TEST(FlowSim, CapOrLinkBindsAtTheFairShareBoundary) {
  // The 125 MB/s uplink's share is 31.25 MB/s; caps half a part per
  // million either side of it.
  EXPECT_EQ(shared_uplink_bytes(31.25e6 * (1 + 5e-7), 1.0), 31'250'000);  // link
  EXPECT_EQ(shared_uplink_bytes(31.25e6 * (1 - 5e-7), 1.0), 31'249'984);  // cap
  // A degraded link is judged at its effective capacity: 62.5 MB/s over
  // four flows is below the cap, although 125 MB/s would not be.
  EXPECT_EQ(shared_uplink_bytes(16e6, 0.5), 15'625'000);
  EXPECT_EQ(shared_uplink_bytes(0.0, 1.0), 31'250'000);  // uncapped
}

// Randomized max-min certificate.  In every instance each link carries at
// most its effective capacity, and each flow either runs at the cap or
// crosses a saturated link on which no flow runs faster.  The cap is drawn
// around C/k, the fair share of a loaded link of effective capacity C
// carrying k flows, so links land on both sides of where they can bind.
TEST(FlowSim, MaxMinCertificateOnRandomInstances) {
  Topology topo(test_topology());
  const auto n_links = static_cast<std::size_t>(topo.link_count());
  const std::int64_t last_server = topo.server_count() - 1;
  Rng rng(1807);
  for (int instance = 0; instance < 300; ++instance) {
    SCOPED_TRACE(instance);
    std::vector<ServerId> sources;
    for (int i = 0; i < 4; ++i) {
      sources.push_back(ServerId{static_cast<std::int32_t>(rng.uniform_int(0, last_server))});
    }
    std::vector<FlowSpec> specs;
    std::vector<std::vector<LinkId>> paths;
    std::vector<int> flows_on(n_links, 0);
    const auto n_flows = rng.uniform_int(1, 40);
    for (std::int64_t i = 0; i < n_flows; ++i) {
      const ServerId src = sources[static_cast<std::size_t>(rng.uniform_int(0, 3))];
      ServerId dst = src;
      while (dst == src) {
        dst = ServerId{static_cast<std::int32_t>(rng.uniform_int(0, last_server))};
      }
      specs.push_back(flow(src, dst, Bytes{1} << 40));
      paths.emplace_back();
      topo.route_into(src, dst, paths.back());
      for (LinkId l : paths.back()) ++flows_on[static_cast<std::size_t>(l.value())];
    }
    std::vector<double> factor(n_links, 1.0);
    for (double& f : factor) {
      if (rng.bernoulli(0.1)) f = rng.uniform(0.2, 1.0);
    }
    const auto& on_path = paths[static_cast<std::size_t>(rng.uniform_int(0, n_flows - 1))];
    const LinkId pick = on_path[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(on_path.size()) - 1))];
    const double share = topo.link(pick).capacity *
                         factor[static_cast<std::size_t>(pick.value())] /
                         flows_on[static_cast<std::size_t>(pick.value())];
    FlowSimConfig cfg = exact_config(1.0);
    cfg.fail_rate_floor = 0.0;
    switch (rng.uniform_int(0, 2)) {
      case 0: cfg.per_flow_rate_cap = 0.0; break;
      case 1: cfg.per_flow_rate_cap = share * (1 + 1e-7); break;
      default: cfg.per_flow_rate_cap = share * rng.uniform(0.5, 2.0); break;
    }

    FlowSim sim(topo, cfg);
    for (std::size_t l = 0; l < n_links; ++l) {
      sim.set_link_capacity_factor(LinkId{static_cast<std::int32_t>(l)}, factor[l]);
    }
    for (const FlowSpec& fs : specs) sim.start_flow(fs);
    sim.run();
    ASSERT_EQ(sim.records().size(), specs.size());
    // Over the 1 s horizon a rate is the bytes sent, rounded to whole bytes.
    // At 2^40 bytes, `remaining` itself rounds to well under a byte.
    std::vector<double> rate(specs.size());
    for (const FlowRecord& r : sim.records()) {
      rate[static_cast<std::size_t>(r.id.value())] = static_cast<double>(r.bytes_sent);
    }
    std::vector<double> load(n_links, 0.0);
    std::vector<double> fastest(n_links, 0.0);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      for (LinkId l : paths[i]) {
        const auto li = static_cast<std::size_t>(l.value());
        load[li] += rate[i];
        fastest[li] = std::max(fastest[li], rate[i]);
      }
    }
    // Rounding moves each rate by up to half a byte; the fill's freeze
    // tolerance leaves a saturated link up to ~1e-9 of capacity unused.
    const auto effective = [&](std::size_t l) {
      return topo.link(LinkId{static_cast<std::int32_t>(l)}).capacity * factor[l];
    };
    for (std::size_t l = 0; l < n_links; ++l) {
      EXPECT_LE(load[l], effective(l) + 0.5 * flows_on[l] + 1e-3) << "link " << l;
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const double cap = cfg.per_flow_rate_cap;
      if (cap > 0 && std::abs(rate[i] - cap) <= 0.5 + 1e-3) continue;
      bool bottlenecked = false;
      for (LinkId l : paths[i]) {
        const auto li = static_cast<std::size_t>(l.value());
        const bool saturated =
            load[li] >= effective(li) * (1 - 1e-8) - 0.5 * flows_on[li] - 1e-3;
        if (saturated && rate[i] >= fastest[li] - 1.0) bottlenecked = true;
      }
      EXPECT_TRUE(bottlenecked) << "flow " << i << " at " << rate[i] << " B/s, cap "
                                << cap;
    }
  }
}

// Per-link load of the max-min fair allocation of `paths` under `cap` (0:
// none), by textbook progressive filling: raise every unfrozen flow's rate
// to the lowest link share, or to the cap, and freeze the flows crossing a
// link at that level.
std::vector<double> reference_link_rates(const Topology& topo,
                                         const std::vector<std::vector<LinkId>>& paths,
                                         const std::vector<double>& factor, double cap) {
  const std::size_t n_links = factor.size();
  std::vector<double> residual(n_links), load(n_links, 0.0);
  std::vector<int> count(n_links, 0);
  for (std::size_t l = 0; l < n_links; ++l) {
    residual[l] = topo.link(LinkId{static_cast<std::int32_t>(l)}).capacity * factor[l];
  }
  for (const auto& p : paths) {
    for (LinkId l : p) ++count[static_cast<std::size_t>(l.value())];
  }
  std::vector<bool> frozen(paths.size(), false);
  std::size_t left = paths.size();
  while (left > 0) {
    double level = cap > 0 ? cap : std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < n_links; ++l) {
      if (count[l] > 0) level = std::min(level, residual[l] / count[l]);
    }
    std::vector<bool> tight(n_links, false);
    for (std::size_t l = 0; l < n_links; ++l) {
      tight[l] = count[l] > 0 && residual[l] / count[l] <= level * (1 + 1e-12);
    }
    for (std::size_t i = 0; i < paths.size(); ++i) {
      if (frozen[i]) continue;
      bool hit = cap > 0 && level >= cap;
      for (LinkId l : paths[i]) hit = hit || tight[static_cast<std::size_t>(l.value())];
      if (!hit) continue;
      frozen[i] = true;
      --left;
      for (LinkId l : paths[i]) {
        const auto li = static_cast<std::size_t>(l.value());
        residual[li] -= level;
        --count[li];
        load[li] += level;
      }
    }
  }
  return load;
}

// Flows of mixed sizes arrive at staggered times and finish in another
// order, so departures leave holes in the middle of the simulator's active
// set, and a link is degraded mid-run.  Between events, every link's rate
// must match a max-min fill computed from scratch over the flows still
// running.
TEST(FlowSim, RatesMatchReferenceFillUnderChurn) {
  Topology topo(test_topology());
  const auto n_links = static_cast<std::size_t>(topo.link_count());
  FlowSimConfig cfg = exact_config(100.0);
  cfg.per_flow_rate_cap = 30e6;
  cfg.fail_rate_floor = 0.0;
  FlowSim sim(topo, cfg);

  std::vector<std::vector<LinkId>> paths;  // by flow id
  std::vector<bool> running;               // by flow id
  std::vector<double> factor(n_links, 1.0);
  int out_of_order = 0;  // departures while a later-started flow still runs
  Rng rng(2311);
  for (int i = 0; i < 80; ++i) {
    // Half the flows leave server 0 or 6, so they share links.
    const ServerId src{static_cast<std::int32_t>(
        rng.bernoulli(0.5) ? 6 * rng.uniform_int(0, 1) : rng.uniform_int(0, 19))};
    ServerId dst = src;
    while (dst == src) dst = ServerId{static_cast<std::int32_t>(rng.uniform_int(0, 19))};
    const Bytes bytes = rng.uniform_int(1'000'000, 60'000'000);
    sim.at(rng.uniform(0.0, 4.0), [&, src, dst, bytes](FlowSim& s) {
      const FlowId id = s.start_flow(flow(src, dst, bytes), [&](FlowSim&, const FlowRecord& r) {
        const auto done = static_cast<std::size_t>(r.id.value());
        running[done] = false;
        for (std::size_t k = done + 1; k < running.size(); ++k) {
          if (running[k]) {
            ++out_of_order;
            break;
          }
        }
      });
      ASSERT_EQ(static_cast<std::size_t>(id.value()), paths.size());
      paths.emplace_back();
      topo.route_into(src, dst, paths.back());
      running.push_back(true);
    });
  }
  const LinkId degraded = topo.server_up_link(ServerId{0});
  sim.at(1.5, [&](FlowSim& s) {
    factor[static_cast<std::size_t>(degraded.value())] = 0.3;
    s.set_link_capacity_factor(degraded, 0.3);
  });

  int busy_probes = 0;
  for (int k = 0; k < 24; ++k) {
    sim.at(0.0371 + 0.25 * k, [&](FlowSim& s) {
      std::vector<std::vector<LinkId>> live;
      for (std::size_t i = 0; i < paths.size(); ++i) {
        if (running[i]) live.push_back(paths[i]);
      }
      ASSERT_EQ(live.size(), s.active_flow_count());
      if (live.size() >= 5) ++busy_probes;
      std::vector<double> got;
      s.snapshot_link_rates(got);
      const std::vector<double> want =
          reference_link_rates(topo, live, factor, cfg.per_flow_rate_cap);
      for (std::size_t l = 0; l < n_links; ++l) {
        EXPECT_NEAR(got[l], want[l], 1e-6 * std::max(want[l], 1.0))
            << "link " << l << " at t=" << s.now();
      }
    });
  }
  sim.run();
  EXPECT_GE(busy_probes, 10);
  EXPECT_GE(out_of_order, 10);
  for (const FlowRecord& r : sim.records()) EXPECT_FALSE(r.failed || r.truncated);
}

TEST(FlowSim, UtilizationConservesBytes) {
  Topology topo(test_topology());
  FlowSim sim(topo, exact_config());
  Rng rng(5);
  Bytes injected = 0;
  for (int i = 0; i < 40; ++i) {
    const ServerId src{static_cast<std::int32_t>(rng.uniform_int(0, 19))};
    ServerId dst = src;
    while (dst == src) dst = ServerId{static_cast<std::int32_t>(rng.uniform_int(0, 19))};
    const Bytes bytes = rng.uniform_int(1'000'000, 50'000'000);
    sim.start_flow(flow(src, dst, bytes));
    injected += bytes;
  }
  sim.run();
  // Every byte crosses its source's uplink exactly once: the sum over all
  // server-up links of carried bytes equals the injected total.
  double carried = 0;
  for (std::int32_t s = 0; s < topo.internal_server_count(); ++s) {
    const auto& series = sim.link_bytes(topo.server_up_link(ServerId{s}));
    for (std::size_t b = 0; b < series.bin_count(); ++b) carried += series.value(b);
  }
  EXPECT_NEAR(carried, static_cast<double>(injected), 1e-6 * static_cast<double>(injected));
  // And all records completed.
  for (const auto& r : sim.records()) {
    EXPECT_FALSE(r.truncated);
    EXPECT_EQ(r.bytes_sent, r.bytes_requested);
  }
}

TEST(FlowSim, BatchedModeConservesBytesToo) {
  Topology topo(test_topology());
  FlowSimConfig cfg = exact_config();
  cfg.recompute_interval = 0.05;
  FlowSim sim(topo, cfg);
  Rng rng(7);
  Bytes injected = 0;
  for (int i = 0; i < 60; ++i) {
    const auto t = rng.uniform(0.0, 5.0);
    const ServerId src{static_cast<std::int32_t>(rng.uniform_int(0, 19))};
    ServerId dst = src;
    while (dst == src) dst = ServerId{static_cast<std::int32_t>(rng.uniform_int(0, 19))};
    const Bytes bytes = rng.uniform_int(1'000'000, 20'000'000);
    injected += bytes;
    sim.at(t, [src, dst, bytes](FlowSim& s) {
      FlowSpec fs;
      fs.src = src;
      fs.dst = dst;
      fs.bytes = bytes;
      s.start_flow(fs);
    });
  }
  sim.run();
  double carried = 0;
  for (std::int32_t s = 0; s < topo.internal_server_count(); ++s) {
    const auto& series = sim.link_bytes(topo.server_up_link(ServerId{s}));
    for (std::size_t b = 0; b < series.bin_count(); ++b) carried += series.value(b);
  }
  EXPECT_NEAR(carried, static_cast<double>(injected), 1e-6 * static_cast<double>(injected));
}

TEST(FlowSim, LoopbackAndZeroByteFlowsCompleteInstantly) {
  Topology topo(test_topology());
  FlowSim sim(topo, exact_config());
  sim.start_flow(flow(ServerId{0}, ServerId{0}, 1'000'000));
  sim.start_flow(flow(ServerId{0}, ServerId{1}, 0));
  sim.run();
  ASSERT_EQ(sim.records().size(), 2u);
  EXPECT_DOUBLE_EQ(sim.records()[0].duration(), 0.0);
  EXPECT_EQ(sim.records()[0].bytes_sent, 1'000'000);  // local move succeeds
  EXPECT_DOUBLE_EQ(sim.records()[1].duration(), 0.0);
}

TEST(FlowSim, HorizonTruncatesActiveFlows) {
  Topology topo(test_topology());
  FlowSim sim(topo, exact_config(1.0));
  sim.start_flow(flow(ServerId{0}, ServerId{1}, 1'000'000'000));  // needs 8s
  sim.run();
  ASSERT_EQ(sim.records().size(), 1u);
  const auto& r = sim.records().front();
  EXPECT_TRUE(r.truncated);
  EXPECT_NEAR(static_cast<double>(r.bytes_sent), 125e6, 1e6);
  EXPECT_DOUBLE_EQ(r.end, 1.0);
}

TEST(FlowSim, CompletionCallbackChainsFlows) {
  Topology topo(test_topology());
  FlowSim sim(topo, exact_config());
  std::vector<TimeSec> completion_times;
  sim.start_flow(flow(ServerId{0}, ServerId{1}, 12'500'000),
                 [&](FlowSim& s, const FlowRecord& rec) {
                   completion_times.push_back(rec.end);
                   s.start_flow(flow(ServerId{1}, ServerId{2}, 12'500'000),
                                [&](FlowSim&, const FlowRecord& rec2) {
                                  completion_times.push_back(rec2.end);
                                });
                 });
  sim.run();
  ASSERT_EQ(completion_times.size(), 2u);
  EXPECT_NEAR(completion_times[0], 0.1, 1e-6);
  EXPECT_NEAR(completion_times[1], 0.2, 1e-6);
}

TEST(FlowSim, UserEventsRunInOrder) {
  Topology topo(test_topology());
  FlowSim sim(topo, exact_config());
  std::vector<int> order;
  sim.at(2.0, [&](FlowSim&) { order.push_back(2); });
  sim.at(1.0, [&](FlowSim&) { order.push_back(1); });
  sim.at(1.0, [&](FlowSim&) { order.push_back(11); });  // FIFO at equal times
  sim.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 11);
  EXPECT_EQ(order[2], 2);
}

// Completions sit in their own heap, but a completion and a user event due
// at the same instant still fire in the order they were queued.  125 MB at
// the 125 MB/s NIC finishes at exactly t = 1.
TEST(FlowSim, TiedUserEventAndCompletionFireInQueueOrder) {
  Topology topo(test_topology());
  const FlowSpec spec = flow(ServerId{0}, ServerId{6}, 125'000'000);
  std::vector<std::string> order;
  auto on_done = [&](FlowSim&, const FlowRecord& rec) {
    EXPECT_EQ(rec.end, 1.0);
    order.emplace_back("completion");
  };
  auto user = [&](FlowSim& s) {
    EXPECT_EQ(s.now(), 1.0);
    order.emplace_back("user");
  };

  {  // Queued before run(): ahead of the t = 0 recompute that queues the completion.
    FlowSim sim(topo, exact_config());
    sim.start_flow(spec, on_done);
    sim.at(1.0, user);
    sim.run();
  }
  EXPECT_EQ(order, (std::vector<std::string>{"user", "completion"}));

  order.clear();
  {  // Queued by a callback after that recompute.
    FlowSim sim(topo, exact_config());
    sim.start_flow(spec, on_done);
    sim.at(0.5, [&](FlowSim& s) { s.at(1.0, user); });
    sim.run();
  }
  EXPECT_EQ(order, (std::vector<std::string>{"completion", "user"}));
}

// A flow whose rate never moves keeps the completion its first recompute
// queued, bytes / capacity computed once, however many recomputes the churn
// elsewhere causes.  Re-deriving it at each recompute from a remaining count
// decremented there would drift in the last bits.
TEST(FlowSim, UnmovedFlowKeepsItsFirstCompletion) {
  Topology topo(test_topology());
  const Bytes bytes = 1'234'567'891;
  const double capacity = topo.link(topo.server_up_link(ServerId{0})).capacity;
  for (const TimeSec interval : {0.0, 0.025}) {
    FlowSimConfig cfg = exact_config();
    cfg.recompute_interval = interval;
    FlowSim sim(topo, cfg);
    const FlowId id = sim.start_flow(flow(ServerId{0}, ServerId{1}, bytes));
    // Servers 10-19 sit in other racks: the churn shares no link with it.
    Rng rng(61);
    for (int i = 0; i < 200; ++i) {
      const ServerId src{static_cast<std::int32_t>(rng.uniform_int(10, 19))};
      ServerId dst = src;
      while (dst == src) dst = ServerId{static_cast<std::int32_t>(rng.uniform_int(10, 19))};
      const Bytes size = rng.uniform_int(1'000'000, 30'000'000);
      sim.at(rng.uniform(0.0, 9.0), [=](FlowSim& s) { s.start_flow(flow(src, dst, size)); });
    }
    sim.run();
    EXPECT_GT(sim.recompute_count(), 100u);
    const auto rec = std::find_if(sim.records().begin(), sim.records().end(),
                                  [&](const FlowRecord& r) { return r.id == id; });
    ASSERT_NE(rec, sim.records().end());
    EXPECT_FALSE(rec->truncated);
    EXPECT_EQ(rec->end, static_cast<double>(bytes) / capacity) << "interval " << interval;
  }
}

TEST(FlowSim, StallDetectorKillsStarvedFlow) {
  Topology topo(test_topology());
  FlowSimConfig cfg = exact_config(100.0);
  cfg.fail_rate_floor = 2e6;  // 2 MB/s floor
  cfg.fail_timeout = 3.0;
  cfg.per_flow_rate_cap = 0.0;
  FlowSim sim(topo, cfg);
  // 100 flows out of server 0 -> each gets 1.25 MB/s < floor.
  for (int i = 0; i < 100; ++i) {
    sim.start_flow(flow(ServerId{0}, ServerId{1 + (i % 4)}, 1'000'000'000));
  }
  sim.run();
  EXPECT_GT(sim.failed_flow_count(), 0u);
  bool found_failed = false;
  for (const auto& r : sim.records()) {
    if (r.failed) {
      found_failed = true;
      EXPECT_NEAR(r.duration(), 3.0, 0.5);
      EXPECT_LT(r.bytes_sent, r.bytes_requested);
    }
  }
  EXPECT_TRUE(found_failed);
}

TEST(FlowSim, ConnectFailureUnderOverload) {
  Topology topo(test_topology());
  FlowSimConfig cfg = exact_config(50.0);
  cfg.connect_share_floor = 50e6;  // absurdly high floor: most attempts fail
  cfg.connect_fail_max_prob = 1.0;
  FlowSim sim(topo, cfg);
  // Preload the path so the share estimate is tiny.
  for (int i = 0; i < 50; ++i) {
    sim.start_flow(flow(ServerId{0}, ServerId{1}, 100'000'000));
  }
  std::size_t failed_immediately = 0;
  for (const auto& r : sim.records()) {
    if (r.failed && r.duration() == 0.0 && r.bytes_sent == 0) ++failed_immediately;
  }
  EXPECT_GT(failed_immediately, 0u);
}

TEST(FlowSim, DeterministicAcrossRuns) {
  Topology topo(test_topology());
  auto run_once = [&]() {
    FlowSimConfig cfg = exact_config(20.0);
    cfg.recompute_interval = 0.01;
    FlowSim sim(topo, cfg);
    Rng rng(99);
    for (int i = 0; i < 50; ++i) {
      const auto t = rng.uniform(0.0, 10.0);
      const ServerId src{static_cast<std::int32_t>(rng.uniform_int(0, 19))};
      const ServerId dst{static_cast<std::int32_t>((src.value() + 1 +
                                                    rng.uniform_int(0, 18)) % 20)};
      const Bytes bytes = rng.uniform_int(100'000, 60'000'000);
      sim.at(t, [=](FlowSim& s) {
        FlowSpec fs;
        fs.src = src;
        fs.dst = dst;
        fs.bytes = bytes;
        s.start_flow(fs);
      });
    }
    sim.run();
    double signature = 0;
    for (const auto& r : sim.records()) signature += r.end * 1e-3 + double(r.bytes_sent);
    return signature;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(FlowSim, RejectsMisuse) {
  Topology topo(test_topology());
  FlowSim sim(topo, exact_config());
  EXPECT_THROW(sim.at(-1.0, [](FlowSim&) {}), Error);
  EXPECT_THROW(sim.at(1.0, nullptr), Error);
  FlowSpec bad = flow(ServerId{0}, ServerId{1}, -5);
  EXPECT_THROW(sim.start_flow(bad), Error);
  FlowSimConfig cfg;
  cfg.end_time = 0;
  EXPECT_THROW(FlowSim(topo, cfg), Error);
  cfg.end_time = 1e300;  // finite, but its bin count overflows size_t
  EXPECT_THROW(FlowSim(topo, cfg), Error);
  cfg = exact_config();
  for (const double cap : {-1.0, std::numeric_limits<double>::quiet_NaN()}) {
    cfg.per_flow_rate_cap = cap;  // a NaN cap would run uncapped
    EXPECT_THROW(FlowSim(topo, cfg), Error) << cap;
  }
}

TEST(FlowSim, RejectsNonFiniteHorizon) {
  // Validate and construct only: a run() over an infinite horizon that got
  // past validation would never return.
  Topology topo(test_topology());
  for (const double horizon : {std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::quiet_NaN()}) {
    const FlowSimConfig cfg = exact_config(horizon);
    EXPECT_THROW(cfg.validate(), Error) << horizon;
    EXPECT_THROW(FlowSim(topo, cfg), Error) << horizon;
  }
}

// Property sweep: exact and batched mode agree on totals within tolerance.
class BatchingSweep : public ::testing::TestWithParam<double> {};

TEST_P(BatchingSweep, TotalsRobustToBatching) {
  Topology topo(test_topology());
  auto run_with = [&](double interval) {
    FlowSimConfig cfg = exact_config(30.0);
    cfg.recompute_interval = interval;
    FlowSim sim(topo, cfg);
    Rng rng(123);
    for (int i = 0; i < 80; ++i) {
      const auto t = rng.uniform(0.0, 10.0);
      const ServerId src{static_cast<std::int32_t>(rng.uniform_int(0, 19))};
      const ServerId dst{static_cast<std::int32_t>((src.value() + 1 +
                                                    rng.uniform_int(0, 18)) % 20)};
      const Bytes bytes = rng.uniform_int(1'000'000, 30'000'000);
      sim.at(t, [=](FlowSim& s) {
        FlowSpec fs;
        fs.src = src;
        fs.dst = dst;
        fs.bytes = bytes;
        s.start_flow(fs);
      });
    }
    sim.run();
    Bytes total = 0;
    for (const auto& r : sim.records()) total += r.bytes_sent;
    return total;
  };
  // All batching intervals deliver all bytes (horizon is generous).
  EXPECT_EQ(run_with(0.0), run_with(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Intervals, BatchingSweep, ::testing::Values(0.01, 0.05, 0.25));

}  // namespace
}  // namespace dct
