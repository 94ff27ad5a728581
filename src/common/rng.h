// Deterministic random number generation and the distribution families used
// by the workload generator.
//
// Every stochastic component of the simulator draws from a `dct::Rng` that
// is seeded explicitly, so a scenario (topology + workload + seed) replays
// bit-identically.  The generator is xoshiro256**, seeded via SplitMix64 —
// small, fast and of far higher quality than std::minstd, without the
// cross-platform distribution-implementation differences of <random>
// (all distribution transforms below are implemented in this library).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/require.h"

namespace dct {

/// Deterministic xoshiro256** pseudo-random generator with explicit seeding.
///
/// Satisfies UniformRandomBitGenerator, but the canonical use is through the
/// member distribution helpers, which are stable across platforms.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  /// Next raw 64-bit output.
  result_type operator()() noexcept;

  /// Derives an independent child generator; `stream` selects the substream.
  /// Used to give each server / job its own decorrelated sequence so adding
  /// one component does not perturb the draws of any other.
  [[nodiscard]] Rng fork(std::uint64_t stream) const noexcept;

  // --- Distribution helpers (all stable across platforms) -----------------

  /// Uniform double in [0, 1).
  double uniform() noexcept;
  /// Uniform double in [lo, hi); requires lo <= hi.
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);
  /// Exponential with given mean (> 0).
  double exponential(double mean);
  /// Log-normal parameterized by the *underlying normal's* mu and sigma.
  double lognormal(double mu, double sigma);
  /// Standard normal via Box-Muller (deterministic, no cached spare).
  double normal(double mean, double stddev);
  /// Bounded Pareto on [lo, hi] with shape alpha > 0.
  double bounded_pareto(double lo, double hi, double alpha);
  /// Poisson with given mean (>= 0); inversion for small, PTRS for large.
  std::int64_t poisson(double mean);
  /// Index in [0, weights.size()) with probability proportional to weight.
  std::size_t weighted_index(std::span<const double> weights);
  /// Samples k distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k);
  /// Fisher-Yates shuffle of an index permutation of size n.
  std::vector<std::size_t> permutation(std::size_t n);

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// A piecewise-linear empirical distribution built from (value, cdf) knots.
///
/// Used to replay the paper's published CDF shapes (e.g. flow sizes implied
/// by chunking) as sampling distributions.  Knots must be strictly
/// increasing in both value and cumulative probability, starting at cdf 0
/// and ending at cdf 1.
class EmpiricalDistribution {
 public:
  struct Knot {
    double value = 0;
    double cdf = 0;
  };

  EmpiricalDistribution() = default;
  explicit EmpiricalDistribution(std::vector<Knot> knots);

  /// Builds from raw samples: sorts them and uses each as an equi-probable
  /// knot. Requires at least two samples.
  static EmpiricalDistribution from_samples(std::vector<double> samples);

  /// Inverse-CDF sample.
  double sample(Rng& rng) const;

  /// Quantile (inverse CDF) at probability p in [0, 1].
  double quantile(double p) const;

  [[nodiscard]] bool empty() const noexcept { return knots_.empty(); }

 private:
  std::vector<Knot> knots_;
};

}  // namespace dct
