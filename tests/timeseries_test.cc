#include "common/timeseries.h"

#include <gtest/gtest.h>

#include "common/require.h"
#include "common/rng.h"

namespace dct {
namespace {

TEST(BinnedSeries, PointDeposits) {
  BinnedSeries s(0.0, 1.0, 10);
  s.add_point(0.5, 2.0);
  s.add_point(9.99, 3.0);
  s.add_point(-0.1, 100.0);  // before domain: dropped
  s.add_point(10.0, 100.0);  // after domain: dropped
  EXPECT_DOUBLE_EQ(s.value(0), 2.0);
  EXPECT_DOUBLE_EQ(s.value(9), 3.0);
  double total = 0;
  for (std::size_t i = 0; i < s.bin_count(); ++i) total += s.value(i);
  EXPECT_DOUBLE_EQ(total, 5.0);
}

TEST(BinnedSeries, IntervalSplitsProportionally) {
  BinnedSeries s(0.0, 1.0, 4);
  // 1.5 .. 3.5 spans half of bin1, all of bin2, half of bin3.
  s.add_interval(1.5, 3.5, 8.0);
  EXPECT_DOUBLE_EQ(s.value(0), 0.0);
  EXPECT_DOUBLE_EQ(s.value(1), 2.0);
  EXPECT_DOUBLE_EQ(s.value(2), 4.0);
  EXPECT_DOUBLE_EQ(s.value(3), 2.0);
}

TEST(BinnedSeries, IntervalClipsOutsideDomain) {
  BinnedSeries s(0.0, 1.0, 2);
  s.add_interval(-1.0, 3.0, 4.0);  // only half of the interval overlaps
  EXPECT_DOUBLE_EQ(s.value(0), 1.0);
  EXPECT_DOUBLE_EQ(s.value(1), 1.0);
}

TEST(BinnedSeries, ZeroLengthIntervalActsAsPoint) {
  BinnedSeries s(0.0, 1.0, 2);
  s.add_interval(1.5, 1.5, 7.0);
  EXPECT_DOUBLE_EQ(s.value(1), 7.0);
  EXPECT_THROW(s.add_interval(2.0, 1.0, 1.0), Error);
}

TEST(BinnedSeries, ToRateDividesByWidth) {
  BinnedSeries s(0.0, 2.0, 2);
  s.add_point(0.0, 10.0);
  const auto r = s.to_rate();
  EXPECT_DOUBLE_EQ(r.value(0), 5.0);
}

TEST(BinnedSeries, CoarsenSumsConstituents) {
  BinnedSeries s(0.0, 1.0, 5);
  for (std::size_t i = 0; i < 5; ++i) s.add_point(static_cast<double>(i), 1.0);
  const auto c = s.coarsen(2);
  EXPECT_EQ(c.bin_count(), 3u);
  EXPECT_DOUBLE_EQ(c.bin_width(), 2.0);
  EXPECT_DOUBLE_EQ(c.value(0), 2.0);
  EXPECT_DOUBLE_EQ(c.value(1), 2.0);
  EXPECT_DOUBLE_EQ(c.value(2), 1.0);  // tail partial bin kept
}

TEST(BinnedSeries, NonZeroStartTime) {
  BinnedSeries s(100.0, 1.0, 3);
  s.add_interval(100.5, 101.5, 2.0);
  EXPECT_DOUBLE_EQ(s.value(0), 1.0);
  EXPECT_DOUBLE_EQ(s.value(1), 1.0);
  EXPECT_DOUBLE_EQ(s.bin_time(2), 102.0);
}

TEST(EpisodesAbove, ExtractsMaximalRuns) {
  BinnedSeries s(0.0, 1.0, 8);
  const double vals[] = {0.1, 0.9, 0.8, 0.2, 0.95, 0.1, 0.9, 0.9};
  for (std::size_t i = 0; i < 8; ++i) s.add_point(static_cast<double>(i), vals[i]);
  const auto eps = episodes_above(s, 0.7);
  ASSERT_EQ(eps.size(), 3u);
  EXPECT_DOUBLE_EQ(eps[0].start, 1.0);
  EXPECT_DOUBLE_EQ(eps[0].end, 3.0);
  EXPECT_DOUBLE_EQ(eps[0].duration(), 2.0);
  EXPECT_DOUBLE_EQ(eps[0].peak, 0.9);
  EXPECT_NEAR(eps[0].mean, 0.85, 1e-12);
  EXPECT_EQ(eps[0].bins, 2u);
  EXPECT_DOUBLE_EQ(eps[1].duration(), 1.0);
  EXPECT_DOUBLE_EQ(eps[2].end, 8.0);
}

TEST(EpisodesAbove, EmptyWhenNothingQualifies) {
  BinnedSeries s(0.0, 1.0, 4);
  EXPECT_TRUE(episodes_above(s, 0.5).empty());
}

// Property: interval deposits conserve the deposited amount (when fully
// inside the domain), for random intervals.
class ConservationSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConservationSweep, IntervalMassConserved) {
  Rng rng(GetParam());
  BinnedSeries s(0.0, 0.7, 100);  // domain [0, 70)
  double deposited = 0;
  for (int i = 0; i < 200; ++i) {
    const double a = rng.uniform(0.0, 60.0);
    const double b = a + rng.uniform(0.0, 9.0);
    const double amt = rng.uniform(0.1, 5.0);
    s.add_interval(a, b, amt);
    deposited += amt;
  }
  double total = 0;
  for (std::size_t i = 0; i < s.bin_count(); ++i) total += s.value(i);
  EXPECT_NEAR(total, deposited, 1e-9 * deposited);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationSweep, ::testing::Values(3, 17, 29, 71));

// One split shared by many deposits must add exactly what add_interval adds,
// clipped intervals and intervals outside the domain included.
TEST(BinnedSeries, SharedSplitMatchesAddIntervalBitForBit) {
  Rng rng(41);
  BinnedSeries direct(2.0, 0.7, 50);  // domain [2, 37)
  BinnedSeries shared(2.0, 0.7, 50);
  IntervalSplit split;
  for (int i = 0; i < 300; ++i) {
    const double a = rng.uniform(-5.0, 40.0);
    const double b = a + rng.uniform(1e-6, 6.0);
    shared.split_interval(a, b, split);
    for (int k = 0; k < 3; ++k) {
      const double amt = rng.uniform(0.1, 5e6);
      direct.add_interval(a, b, amt);
      shared.add_split(split, amt);
    }
  }
  EXPECT_EQ(direct.values(), shared.values());

  EXPECT_THROW(shared.split_interval(3.0, 3.0, split), Error);
  BinnedSeries(0.0, 1.0, 3).split_interval(0.0, 3.0, split);
  EXPECT_THROW(BinnedSeries(0.0, 1.0, 2).add_split(split, 1.0), Error);
}

}  // namespace
}  // namespace dct
