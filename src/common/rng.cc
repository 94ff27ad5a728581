#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace dct {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // xoshiro must not start from the all-zero state.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Rng Rng::fork(std::uint64_t stream) const noexcept {
  // Mix the parent's state with the stream id through SplitMix64 so sibling
  // streams are decorrelated even for adjacent stream ids.
  std::uint64_t mix = s_[0] ^ rotl(s_[3], 13) ^ (stream * 0xda942042e4dd58b5ULL);
  return Rng(splitmix64(mix));
}

double Rng::uniform() noexcept {
  // 53 random bits into [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  require(lo <= hi, "uniform: lo must be <= hi");
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  require(lo <= hi, "uniform_int: lo must be <= hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full 64-bit range
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = max() - max() % span;
  std::uint64_t draw;
  do {
    draw = (*this)();
  } while (draw >= limit);
  return lo + static_cast<std::int64_t>(draw % span);
}

bool Rng::bernoulli(double p) {
  require(p >= 0.0 && p <= 1.0, "bernoulli: p must be in [0,1]");
  return uniform() < p;
}

double Rng::exponential(double mean) {
  require(mean > 0.0, "exponential: mean must be > 0");
  // Avoid log(0).
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  require(stddev >= 0.0, "normal: stddev must be >= 0");
  // Box-Muller; we discard the second variate to keep the generator
  // stateless with respect to distribution calls (replay stability).
  double u1 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Rng::bounded_pareto(double lo, double hi, double alpha) {
  require(lo > 0.0 && hi > lo, "bounded_pareto: need 0 < lo < hi");
  require(alpha > 0.0, "bounded_pareto: alpha must be > 0");
  const double u = uniform();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

std::int64_t Rng::poisson(double mean) {
  require(mean >= 0.0, "poisson: mean must be >= 0");
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    // Knuth inversion.
    const double limit = std::exp(-mean);
    double prod = uniform();
    std::int64_t n = 0;
    while (prod > limit) {
      prod *= uniform();
      ++n;
    }
    return n;
  }
  // Normal approximation with continuity correction is adequate for the
  // large-mean arrival batching the workload generator does.
  const double draw = normal(mean, std::sqrt(mean));
  return std::max<std::int64_t>(0, static_cast<std::int64_t>(std::llround(draw)));
}

std::size_t Rng::weighted_index(std::span<const double> weights) {
  require(!weights.empty(), "weighted_index: weights must be non-empty");
  double total = 0;
  for (double w : weights) {
    require(w >= 0.0, "weighted_index: weights must be non-negative");
    total += w;
  }
  require(total > 0.0, "weighted_index: total weight must be positive");
  double draw = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    draw -= weights[i];
    if (draw < 0) return i;
  }
  return weights.size() - 1;  // numerical fallback
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n, std::size_t k) {
  require(k <= n, "sample_without_replacement: k must be <= n");
  // Partial Fisher-Yates over an index array; O(n) memory, O(n + k) time.
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(uniform_int(static_cast<std::int64_t>(i),
                                                        static_cast<std::int64_t>(n) - 1));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  return sample_without_replacement(n, n);
}

EmpiricalDistribution::EmpiricalDistribution(std::vector<Knot> knots)
    : knots_(std::move(knots)) {
  require(knots_.size() >= 2, "EmpiricalDistribution: need at least two knots");
  require(knots_.front().cdf == 0.0, "EmpiricalDistribution: first knot must have cdf 0");
  require(knots_.back().cdf == 1.0, "EmpiricalDistribution: last knot must have cdf 1");
  for (std::size_t i = 1; i < knots_.size(); ++i) {
    require(knots_[i].value >= knots_[i - 1].value,
            "EmpiricalDistribution: values must be non-decreasing");
    require(knots_[i].cdf >= knots_[i - 1].cdf,
            "EmpiricalDistribution: cdf must be non-decreasing");
  }
}

EmpiricalDistribution EmpiricalDistribution::from_samples(std::vector<double> samples) {
  require(samples.size() >= 2, "from_samples: need at least two samples");
  std::sort(samples.begin(), samples.end());
  std::vector<Knot> knots(samples.size());
  const double denom = static_cast<double>(samples.size()) - 1.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    knots[i] = {samples[i], static_cast<double>(i) / denom};
  }
  knots.back().cdf = 1.0;
  return EmpiricalDistribution(std::move(knots));
}

double EmpiricalDistribution::quantile(double p) const {
  require(!knots_.empty(), "quantile: empty distribution");
  require(p >= 0.0 && p <= 1.0, "quantile: p must be in [0,1]");
  // Binary search for the bracketing knots, then interpolate linearly.
  auto hi = std::lower_bound(knots_.begin(), knots_.end(), p,
                             [](const Knot& k, double prob) { return k.cdf < prob; });
  if (hi == knots_.begin()) return knots_.front().value;
  if (hi == knots_.end()) return knots_.back().value;
  const auto lo = hi - 1;
  const double dcdf = hi->cdf - lo->cdf;
  if (dcdf <= 0.0) return hi->value;
  const double t = (p - lo->cdf) / dcdf;
  return lo->value + t * (hi->value - lo->value);
}

double EmpiricalDistribution::sample(Rng& rng) const { return quantile(rng.uniform()); }

}  // namespace dct
