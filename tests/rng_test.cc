#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace dct {
namespace {

TEST(Rng, DeterministicUnderSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkIsIndependentOfParentConsumption) {
  Rng parent(7);
  Rng child1 = parent.fork(4);
  // Forking is a pure function of parent state + stream id.
  Rng parent2(7);
  Rng child2 = parent2.fork(4);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(child1(), child2());
}

TEST(Rng, ForkStreamsDecorrelated) {
  Rng parent(7);
  Rng a = parent.fork(0);
  Rng b = parent.fork(1);
  int equal = 0;
  for (int i = 0; i < 200; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInRange) {
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(5.0, 9.0);
    EXPECT_GE(u, 5.0);
    EXPECT_LT(u, 9.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng rng(42);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(0, 5));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 5);
}

TEST(Rng, UniformIntRejectsBadRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(3, 2), Error);
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng(9);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.15);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.15);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
  EXPECT_FALSE(Rng(1).bernoulli(0.0));
  EXPECT_TRUE(Rng(1).bernoulli(1.0));
}

TEST(Rng, BoundedParetoStaysInBounds) {
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.bounded_pareto(1.0, 100.0, 1.2);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 100.0 * (1 + 1e-9));
  }
}

TEST(Rng, PoissonSmallAndLargeMeans) {
  Rng rng(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(3.0));
  EXPECT_NEAR(sum / n, 3.0, 0.1);
  sum = 0;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(200.0));
  EXPECT_NEAR(sum / n, 200.0, 2.0);
  EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(23);
  const double w[] = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, WeightedIndexRejectsDegenerateInput) {
  Rng rng(1);
  EXPECT_THROW(rng.weighted_index(std::span<const double>{}), Error);
  const double zero[] = {0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(zero), Error);
  const double neg[] = {1.0, -1.0};
  EXPECT_THROW(rng.weighted_index(neg), Error);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(31);
  const auto s = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(s.size(), 30u);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (std::size_t v : s) EXPECT_LT(v, 100u);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), Error);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(37);
  const auto p = rng.permutation(50);
  std::set<std::size_t> uniq(p.begin(), p.end());
  EXPECT_EQ(uniq.size(), 50u);
}

// --- EmpiricalDistribution --------------------------------------------------

TEST(EmpiricalDistribution, QuantileInterpolatesLinearly) {
  EmpiricalDistribution d({{0.0, 0.0}, {10.0, 1.0}});
  EXPECT_DOUBLE_EQ(d.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(d.quantile(1.0), 10.0);
}

TEST(EmpiricalDistribution, FromSamplesMatchesOrderStatistics) {
  auto d = EmpiricalDistribution::from_samples({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(d.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(d.quantile(1.0), 4.0);
  EXPECT_NEAR(d.quantile(0.5), 2.5, 1e-12);
}

TEST(EmpiricalDistribution, SamplesStayInSupport) {
  auto d = EmpiricalDistribution::from_samples({2.0, 8.0, 5.0});
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double x = d.sample(rng);
    EXPECT_GE(x, 2.0);
    EXPECT_LE(x, 8.0);
  }
}

TEST(EmpiricalDistribution, RejectsMalformedKnots) {
  EXPECT_THROW(EmpiricalDistribution({{0.0, 0.0}}), Error);
  EXPECT_THROW(EmpiricalDistribution({{0.0, 0.1}, {1.0, 1.0}}), Error);
  EXPECT_THROW(EmpiricalDistribution({{0.0, 0.0}, {1.0, 0.9}}), Error);
  EXPECT_THROW(EmpiricalDistribution({{2.0, 0.0}, {1.0, 1.0}}), Error);
}

// Property sweep: distribution helpers stay deterministic across seeds.
class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, ReplayIsBitIdentical) {
  Rng a(GetParam());
  Rng b(GetParam());
  for (int i = 0; i < 200; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
    EXPECT_DOUBLE_EQ(a.exponential(2.0), b.exponential(2.0));
    EXPECT_EQ(a.uniform_int(0, 99), b.uniform_int(0, 99));
    EXPECT_DOUBLE_EQ(a.lognormal(1.0, 0.5), b.lognormal(1.0, 0.5));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ULL, 1ULL, 42ULL, 0xdeadbeefULL,
                                           0xffffffffffffffffULL));

}  // namespace
}  // namespace dct
