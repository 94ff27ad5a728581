#include "common/histogram.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/require.h"
#include "common/rng.h"

namespace dct {
namespace {

TEST(LinearHistogram, BinsAndClamping) {
  LinearHistogram h(0.0, 10.0, 5);
  EXPECT_EQ(h.bin_count(), 5u);
  EXPECT_DOUBLE_EQ(h.bin_left(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_left(4), 8.0);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 1.0);
  h.add(0.5);
  h.add(9.9);
  h.add(-100.0);  // clamps into the first bin
  h.add(1e9);     // clamps into the last bin
  EXPECT_DOUBLE_EQ(h.count(0), 2.0);
  EXPECT_DOUBLE_EQ(h.count(4), 2.0);
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.5);
}

TEST(LinearHistogram, WeightsAccumulate) {
  LinearHistogram h(0.0, 1.0, 1);
  h.add(0.5, 2.5);
  h.add(0.1, 0.5);
  EXPECT_DOUBLE_EQ(h.count(0), 3.0);
  EXPECT_THROW(h.add(0.5, -1.0), Error);
}

TEST(LinearHistogram, RejectsBadConstruction) {
  EXPECT_THROW(LinearHistogram(1.0, 1.0, 4), Error);
  EXPECT_THROW(LinearHistogram(0.0, 1.0, 0), Error);
}

TEST(Cdf, EvaluationAndQuantiles) {
  Cdf c;
  c.add(1.0);
  c.add(2.0);
  c.add(3.0);
  c.add(4.0);
  c.finalize();
  EXPECT_DOUBLE_EQ(c.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(c.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(c.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(c.at(100.0), 1.0);
  EXPECT_DOUBLE_EQ(c.quantile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(c.quantile(1.0), 4.0);
}

TEST(Cdf, WeightedMass) {
  Cdf c;
  c.add(1.0, 9.0);
  c.add(10.0, 1.0);
  c.finalize();
  EXPECT_DOUBLE_EQ(c.at(1.0), 0.9);
  EXPECT_DOUBLE_EQ(c.quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(c.quantile(0.95), 10.0);
}

TEST(Cdf, RequiresFinalize) {
  Cdf c;
  c.add(1.0);
  EXPECT_THROW((void)c.at(1.0), Error);
  c.finalize();
  EXPECT_NO_THROW((void)c.at(1.0));
  // finalize is idempotent and re-finalize after add works.
  c.add(2.0);
  c.finalize();
  EXPECT_DOUBLE_EQ(c.at(2.0), 1.0);
}

TEST(Cdf, CurveSpansSupport) {
  Cdf c;
  for (int i = 1; i <= 1000; ++i) c.add(static_cast<double>(i));
  c.finalize();
  const auto curve = c.curve(10);
  ASSERT_GE(curve.size(), 2u);
  EXPECT_DOUBLE_EQ(curve.front().value, 1.0);
  EXPECT_DOUBLE_EQ(curve.back().value, 1000.0);
  EXPECT_DOUBLE_EQ(curve.back().cum_prob, 1.0);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].value, curve[i - 1].value);
    EXPECT_GE(curve[i].cum_prob, curve[i - 1].cum_prob);
  }
}

TEST(LogSpace, EndpointsAndGrowth) {
  const auto xs = log_space(1.0, 1000.0, 4);
  ASSERT_EQ(xs.size(), 4u);
  EXPECT_NEAR(xs[0], 1.0, 1e-12);
  EXPECT_NEAR(xs[1], 10.0, 1e-9);
  EXPECT_NEAR(xs[3], 1000.0, 1e-9);
  EXPECT_THROW(log_space(0.0, 10.0, 4), Error);
  EXPECT_THROW(log_space(1.0, 10.0, 1), Error);
}

// Property: CDF evaluated on random data is a valid distribution function.
class CdfProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CdfProperty, MonotoneAndBounded) {
  Rng rng(GetParam());
  Cdf c;
  for (int i = 0; i < 500; ++i) c.add(rng.lognormal(2.0, 1.5), rng.uniform(0.1, 2.0));
  c.finalize();
  double prev = 0.0;
  for (double x : log_space(0.01, 1e5, 50)) {
    const double p = c.at(x);
    EXPECT_GE(p, prev - 1e-12);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
  // Quantile is a right inverse: at(quantile(p)) >= p.
  for (double p : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_GE(c.at(c.quantile(p)), p - 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CdfProperty, ::testing::Values(1, 7, 13, 99));


TEST(KsDistance, IdenticalAndDisjointSamples) {
  Cdf a, b;
  for (int i = 1; i <= 100; ++i) {
    a.add(i);
    b.add(i);
  }
  a.finalize();
  b.finalize();
  EXPECT_NEAR(ks_distance(a, b), 0.0, 1e-12);
  Cdf c;
  for (int i = 1000; i <= 1100; ++i) c.add(i);
  c.finalize();
  EXPECT_NEAR(ks_distance(a, c), 1.0, 1e-12);
}

TEST(KsDistance, ShiftedUniformHasKnownDistance) {
  Cdf a, b;
  for (int i = 0; i < 1000; ++i) {
    a.add(i);        // uniform on [0, 1000)
    b.add(i + 500);  // uniform on [500, 1500)
  }
  a.finalize();
  b.finalize();
  EXPECT_NEAR(ks_distance(a, b), 0.5, 0.01);
}

TEST(KsDistance, RejectsEmpty) {
  Cdf a, b;
  a.add(1.0);
  a.finalize();
  b.finalize();
  EXPECT_THROW((void)ks_distance(a, b), Error);
}

}  // namespace
}  // namespace dct
