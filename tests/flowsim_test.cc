#include "flowsim/flowsim.h"

#include <gtest/gtest.h>

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
