#include "packetsim/incast_sim.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/require.h"

namespace dct {
namespace {

IncastConfig cfg() {
  IncastConfig c;
  return c;  // defaults: 1 Gbps, 64-packet queue, 200 us RTT, 200 ms RTO
}

TEST(IncastSim, SingleSenderApproachesLineRate) {
  const auto r = run_incast(cfg(), 1, 1'000'000);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.timeouts, 0);
  EXPECT_EQ(r.packets_dropped, 0);
  // Slow-start ramp costs some time; still most of the gigabit.
  EXPECT_GT(r.barrier_goodput * 8.0, 0.5e9);
  EXPECT_LT(r.barrier_goodput * 8.0, 1.01e9);
}

TEST(IncastSim, SmallFanInIsHealthy) {
  const auto r = run_incast(cfg(), 4, 256 * 1024);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.timeouts, 0);
  EXPECT_GT(r.barrier_goodput * 8.0, 0.3e9);
}

TEST(IncastSim, LargeSynchronizedFanInCollapses) {
  const auto healthy = run_incast(cfg(), 8, 256 * 1024);
  const auto collapsed = run_incast(cfg(), 32, 256 * 1024);
  ASSERT_TRUE(healthy.completed);
  ASSERT_TRUE(collapsed.completed);
  // The classic signature: goodput drops by a large factor and RTOs appear.
  EXPECT_GT(collapsed.timeouts, 0);
  EXPECT_GT(collapsed.packets_dropped, 0);
  EXPECT_LT(collapsed.barrier_goodput * 3.0, healthy.barrier_goodput);
  // The collapse is driven by the 200 ms idle RTO periods.
  EXPECT_GT(collapsed.barrier_finish, cfg().min_rto);
}

TEST(IncastSim, ConnectionCapPreventsCollapse) {
  const auto uncapped = run_incast(cfg(), 32, 256 * 1024);
  const auto capped = run_incast_capped(cfg(), 32, 256 * 1024, 2);
  ASSERT_TRUE(capped.completed);
  EXPECT_EQ(capped.timeouts, 0);
  EXPECT_GT(capped.barrier_goodput, 3.0 * uncapped.barrier_goodput);
}

TEST(IncastSim, DeeperBuffersDelayTheCollapse) {
  IncastConfig shallow = cfg();
  shallow.queue_packets = 32;
  IncastConfig deep = cfg();
  deep.queue_packets = 512;
  const auto r_shallow = run_incast(shallow, 24, 256 * 1024);
  const auto r_deep = run_incast(deep, 24, 256 * 1024);
  EXPECT_GT(r_deep.barrier_goodput, r_shallow.barrier_goodput);
  EXPECT_LE(r_deep.timeouts, r_shallow.timeouts);
}

TEST(IncastSim, Deterministic) {
  const auto a = run_incast(cfg(), 16, 128 * 1024);
  const auto b = run_incast(cfg(), 16, 128 * 1024);
  EXPECT_DOUBLE_EQ(a.barrier_goodput, b.barrier_goodput);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.packets_dropped, b.packets_dropped);
}

TEST(IncastSim, AllBytesDeliveredOnCompletion) {
  // goodput * barrier_finish == total bytes (rounded to whole packets).
  const auto r = run_incast(cfg(), 8, 100'000);
  ASSERT_TRUE(r.completed);
  const double pkts_per_sender = std::ceil(100'000.0 / 1500.0);
  const double expected_bytes = 8 * pkts_per_sender * 1500.0;
  EXPECT_NEAR(r.barrier_goodput * r.barrier_finish, expected_bytes,
              1e-6 * expected_bytes);
}

TEST(IncastSim, SweepCoversBothArms) {
  const auto sweep = incast_sweep(cfg(), {2, 16}, 128 * 1024, 2);
  ASSERT_EQ(sweep.size(), 2u);
  EXPECT_EQ(sweep[0].senders, 2);
  EXPECT_EQ(sweep[1].senders, 16);
  EXPECT_GT(sweep[1].capped.barrier_goodput, 0.0);
}

TEST(IncastSim, HorizonStopsRunaways) {
  IncastConfig c = cfg();
  c.max_time = 0.001;  // far too short to finish
  const auto r = run_incast(c, 8, 10'000'000);
  EXPECT_FALSE(r.completed);
  EXPECT_LE(r.barrier_finish, c.max_time + 1e-9);
}

TEST(IncastSim, ValidatesConfig) {
  IncastConfig c = cfg();
  c.queue_packets = 0;
  EXPECT_THROW((void)run_incast(c, 2, 1000), Error);
  c = cfg();
  c.min_rto = c.base_rtt / 2;
  EXPECT_THROW((void)run_incast(c, 2, 1000), Error);
  EXPECT_THROW((void)run_incast(cfg(), 0, 1000), Error);
  EXPECT_THROW((void)run_incast(cfg(), 2, 0), Error);
  EXPECT_THROW((void)run_incast_capped(cfg(), 2, 1000, 0), Error);
}

}  // namespace
}  // namespace dct
