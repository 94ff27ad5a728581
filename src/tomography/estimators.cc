#include "tomography/estimators.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "common/require.h"
#include "trace/snmp.h"

namespace dct {
namespace {

// Tomogravity's solver settings: the conjugate-gradient cap and relative
// residual target, and the number of clamp-and-reproject rounds.
constexpr std::int32_t kCgIterations = 200;
constexpr double kCgTolerance = 1e-10;
constexpr std::int32_t kProjectionRounds = 4;

// sparsity_max stops once the residual falls under this share of the total
// load.  The pick cap is what ends the greedy when a load is not finite.
constexpr double kSparsityResidualFraction = 0.01;
constexpr std::int32_t kSparsityMaxEntries = 1 << 20;

// Measured index of ToR i's uplink / downlink, via any path that starts /
// ends there.
std::int32_t tor_up_idx(const RoutingMatrix& r, std::int32_t i) {
  const std::int32_t j = (i + 1) % r.tor_count();
  return r.path(i, j).front();
}
std::int32_t tor_down_idx(const RoutingMatrix& r, std::int32_t i) {
  const std::int32_t j = (i + 1) % r.tor_count();
  return r.path(j, i).back();
}

// Conjugate gradients for (A W A^T) lambda = rhs, W = diag(w) over OD
// pairs.  The operator is symmetric positive semidefinite and rhs lies in
// its range, so CG converges to a least-norm-ish solution; we stop on
// relative residual.  A non-null `mask` drops the masked measurement rows
// from the operator (their output components are pinned to zero, so lambda
// never grows support there); rhs must already be zero on masked rows.
// Each product A W A^T p is one pass over the OD pairs in (i, j) order: the
// pair's adjoint sum along its path, times its weight, scattered back along
// it.  No iteration allocates.
std::vector<double> solve_normal(const RoutingMatrix& r, const std::vector<double>& w,
                                 const std::vector<double>& rhs,
                                 const LinkLoadMask* mask = nullptr) {
  std::vector<double> lambda(rhs.size(), 0.0);
  std::vector<double> resid = rhs;
  std::vector<double> p = resid;
  std::vector<double> ap(rhs.size());
  double rr = 0;
  for (double v : resid) rr += v * v;
  const double rr0 = rr;
  if (rr0 == 0) return lambda;

  for (std::int32_t it = 0; it < kCgIterations; ++it) {
    std::fill(ap.begin(), ap.end(), 0.0);
    for (std::size_t k = 0; k < w.size(); ++k) {
      const auto path = r.od_path(k);
      double acc = 0;
      for (std::int32_t l : path) acc += p[static_cast<std::size_t>(l)];
      const double x = acc * w[k];
      if (x == 0) continue;
      for (std::int32_t l : path) ap[static_cast<std::size_t>(l)] += x;
    }
    if (mask != nullptr) {
      for (std::size_t l = 0; l < ap.size(); ++l) {
        if ((*mask)[l] == 0) ap[l] = 0.0;
      }
    }
    double pap = 0;
    for (std::size_t i = 0; i < p.size(); ++i) pap += p[i] * ap[i];
    if (pap <= 0) break;  // hit the operator's null space
    const double alpha = rr / pap;
    for (std::size_t i = 0; i < lambda.size(); ++i) {
      lambda[i] += alpha * p[i];
      resid[i] -= alpha * ap[i];
    }
    double rr_new = 0;
    for (double v : resid) rr_new += v * v;
    if (rr_new <= kCgTolerance * rr0) break;
    const double beta = rr_new / rr;
    for (std::size_t i = 0; i < p.size(); ++i) p[i] = resid[i] + beta * p[i];
    rr = rr_new;
  }
  return lambda;
}

}  // namespace

namespace {

// Product prior + IPF from already-assembled per-ToR marginals.
DenseTorTm gravity_from_marginals(std::int32_t n, const std::vector<double>& out,
                                  const std::vector<double>& in) {
  double total = 0;
  for (double v : out) total += v;
  DenseTorTm g(n);
  if (total <= 0) return g;
  for (std::int32_t i = 0; i < n; ++i) {
    for (std::int32_t j = 0; j < n; ++j) {
      if (i == j) continue;
      g.set(i, j, out[static_cast<std::size_t>(i)] * in[static_cast<std::size_t>(j)] /
                      total);
    }
  }
  // With a zero diagonal the raw product no longer reproduces the measured
  // marginals; a few rounds of iterative proportional fitting restore
  //   sum_j g_ij = out_i  and  sum_i g_ij = in_j.
  for (int round = 0; round < 25; ++round) {
    for (std::int32_t i = 0; i < n; ++i) {
      double row = 0;
      for (std::int32_t j = 0; j < n; ++j) {
        if (i != j) row += g.at(i, j);
      }
      if (row <= 0) continue;
      const double scale = out[static_cast<std::size_t>(i)] / row;
      for (std::int32_t j = 0; j < n; ++j) {
        if (i != j) g.set(i, j, g.at(i, j) * scale);
      }
    }
    for (std::int32_t j = 0; j < n; ++j) {
      double col = 0;
      for (std::int32_t i = 0; i < n; ++i) {
        if (i != j) col += g.at(i, j);
      }
      if (col <= 0) continue;
      const double scale = in[static_cast<std::size_t>(j)] / col;
      for (std::int32_t i = 0; i < n; ++i) {
        if (i != j) g.set(i, j, g.at(i, j) * scale);
      }
    }
  }
  return g;
}

}  // namespace

DenseTorTm gravity_prior(const RoutingMatrix& routing,
                         const std::vector<double>& link_loads) {
  require(link_loads.size() == static_cast<std::size_t>(routing.link_count()),
          "gravity_prior: load vector size mismatch");
  const std::int32_t n = routing.tor_count();
  std::vector<double> out(static_cast<std::size_t>(n), 0.0);
  std::vector<double> in(static_cast<std::size_t>(n), 0.0);
  for (std::int32_t i = 0; i < n; ++i) {
    out[static_cast<std::size_t>(i)] =
        link_loads[static_cast<std::size_t>(tor_up_idx(routing, i))];
    in[static_cast<std::size_t>(i)] =
        link_loads[static_cast<std::size_t>(tor_down_idx(routing, i))];
  }
  return gravity_from_marginals(n, out, in);
}

DenseTorTm gravity_prior_masked(const RoutingMatrix& routing,
                                const std::vector<double>& link_loads,
                                const LinkLoadMask& mask) {
  require(link_loads.size() == static_cast<std::size_t>(routing.link_count()),
          "gravity_prior_masked: load vector size mismatch");
  require(mask.size() == link_loads.size(),
          "gravity_prior_masked: mask size mismatch");
  const std::int32_t n = routing.tor_count();
  std::vector<double> out(static_cast<std::size_t>(n), 0.0);
  std::vector<double> in(static_cast<std::size_t>(n), 0.0);
  std::vector<std::uint8_t> out_ok(static_cast<std::size_t>(n), 0);
  std::vector<std::uint8_t> in_ok(static_cast<std::size_t>(n), 0);
  double out_sum = 0;
  double in_sum = 0;
  std::size_t out_n = 0;
  std::size_t in_n = 0;
  for (std::int32_t i = 0; i < n; ++i) {
    const auto up = static_cast<std::size_t>(tor_up_idx(routing, i));
    const auto down = static_cast<std::size_t>(tor_down_idx(routing, i));
    if (mask[up] != 0) {
      out[static_cast<std::size_t>(i)] = link_loads[up];
      out_ok[static_cast<std::size_t>(i)] = 1;
      out_sum += link_loads[up];
      ++out_n;
    }
    if (mask[down] != 0) {
      in[static_cast<std::size_t>(i)] = link_loads[down];
      in_ok[static_cast<std::size_t>(i)] = 1;
      in_sum += link_loads[down];
      ++in_n;
    }
  }
  // Unmeasured marginals get the mean of the measured ones: with no better
  // information, assume the blind ToR behaves like an average one.
  const double out_fill = out_n > 0 ? out_sum / static_cast<double>(out_n) : 0.0;
  const double in_fill = in_n > 0 ? in_sum / static_cast<double>(in_n) : 0.0;
  for (std::int32_t i = 0; i < n; ++i) {
    if (out_ok[static_cast<std::size_t>(i)] == 0) {
      out[static_cast<std::size_t>(i)] = out_fill;
    }
    if (in_ok[static_cast<std::size_t>(i)] == 0) {
      in[static_cast<std::size_t>(i)] = in_fill;
    }
  }
  return gravity_from_marginals(n, out, in);
}

namespace {

DenseTorTm tomogravity_impl(const RoutingMatrix& routing,
                            const std::vector<double>& link_loads,
                            const LinkLoadMask* mask, const DenseTorTm& prior) {
  require(link_loads.size() == static_cast<std::size_t>(routing.link_count()),
          "tomogravity: " + std::to_string(link_loads.size()) + " link loads for " +
              std::to_string(routing.link_count()) + " measured links");
  require(prior.size() == routing.tor_count(), "tomogravity: prior size mismatch");
  const std::int32_t n = routing.tor_count();
  const std::size_t odn = static_cast<std::size_t>(n) * n;

  // Relative-error weights: w = max(g, eps) so zero-prior entries stay
  // (nearly) pinned at zero.
  const double total = std::max(prior.total(), 1.0);
  const double eps = 1e-9 * total;
  std::vector<double> w(odn, 0.0);
  for (std::int32_t i = 0; i < n; ++i) {
    for (std::int32_t j = 0; j < n; ++j) {
      if (i != j) {
        w[static_cast<std::size_t>(i) * n + j] = std::max(prior.at(i, j), eps);
      }
    }
  }

  // Projection with a divergence guard.  On a consistent system each round
  // shrinks the residual and the guard is inert.  Real measured loads can be
  // INconsistent with the routing model (SNMP quantization, carried-forward
  // timeout polls, traffic the rack-level paths do not explain); there the
  // normal-equation solve can push x away from every constraint and each
  // round compounds the overshoot.  Tracking the best-residual iterate (the
  // prior included) turns that failure mode into "return the best projection
  // found" instead of returning garbage.
  DenseTorTm x = prior;
  DenseTorTm best = prior;
  double best_norm = std::numeric_limits<double>::infinity();
  for (std::int32_t round = 0; round <= kProjectionRounds; ++round) {
    // rhs = b - A x, with masked (unreliable) measurements dropped from the
    // constraint set entirely.
    const std::vector<double> ax = routing.link_loads(x);
    std::vector<double> rhs(link_loads.size());
    double rhs_norm = 0;
    for (std::size_t l = 0; l < rhs.size(); ++l) {
      rhs[l] = mask != nullptr && (*mask)[l] == 0 ? 0.0 : link_loads[l] - ax[l];
      rhs_norm += rhs[l] * rhs[l];
    }
    if (rhs_norm < best_norm) {
      best = x;
      best_norm = rhs_norm;
    }
    if (round == kProjectionRounds) break;  // last iterate evaluated
    if (rhs_norm <= 1e-16 * total * total) break;
    if (rhs_norm > 4.0 * best_norm) break;  // diverging; keep the best seen

    const std::vector<double> lambda = solve_normal(routing, w, rhs, mask);
    const std::vector<double> delta = routing.adjoint(lambda);
    for (std::int32_t i = 0; i < n; ++i) {
      for (std::int32_t j = 0; j < n; ++j) {
        if (i == j) continue;
        const std::size_t k = static_cast<std::size_t>(i) * n + j;
        x.set(i, j, std::max(0.0, x.at(i, j) + w[k] * delta[k]));
      }
    }
  }
  return best;
}

}  // namespace

DenseTorTm tomogravity(const RoutingMatrix& routing, const std::vector<double>& link_loads,
                       const DenseTorTm& prior) {
  return tomogravity_impl(routing, link_loads, nullptr, prior);
}

DenseTorTm tomogravity(const RoutingMatrix& routing,
                       const std::vector<double>& link_loads) {
  return tomogravity(routing, link_loads, gravity_prior(routing, link_loads));
}

LinkLoadMask reliable_link_mask(const RoutingMatrix& routing,
                                const SnmpCounters& counters, TimeSec t0,
                                TimeSec t1) {
  LinkLoadMask mask(static_cast<std::size_t>(routing.link_count()), 1);
  for (std::int32_t l = 0; l < routing.link_count(); ++l) {
    if (!counters.window_reliable(routing.link_at(l), t0, t1)) {
      mask[static_cast<std::size_t>(l)] = 0;
    }
  }
  return mask;
}

DenseTorTm tomogravity_masked(const RoutingMatrix& routing,
                              const std::vector<double>& link_loads,
                              const LinkLoadMask& mask, const DenseTorTm& prior) {
  require(mask.size() == link_loads.size(), "tomogravity_masked: mask size mismatch");
  return tomogravity_impl(routing, link_loads, &mask, prior);
}

DenseTorTm tomogravity_masked(const RoutingMatrix& routing,
                              const std::vector<double>& link_loads,
                              const LinkLoadMask& mask) {
  return tomogravity_masked(routing, link_loads, mask,
                            gravity_prior_masked(routing, link_loads, mask));
}

std::vector<std::vector<double>> job_tor_activity(const ClusterTrace& trace,
                                                  const Topology& topo) {
  std::int32_t max_job = -1;
  for (const SocketFlowLog& f : trace.flows()) {
    if (f.job.valid()) max_job = std::max(max_job, f.job.value());
  }
  std::vector<std::vector<double>> activity(
      static_cast<std::size_t>(max_job + 1),
      std::vector<double>(static_cast<std::size_t>(topo.rack_count()), 0.0));
  // Distinct (job, server) participation.
  std::unordered_set<std::uint64_t> seen;
  auto mark = [&](JobId job, ServerId s) {
    if (topo.is_external(s)) return;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(job.value())) << 32) |
        static_cast<std::uint32_t>(s.value());
    if (!seen.insert(key).second) return;
    activity[static_cast<std::size_t>(job.value())]
            [static_cast<std::size_t>(topo.rack_of(s).value())] += 1.0;
  };
  for (const SocketFlowLog& f : trace.flows()) {
    if (!f.job.valid()) continue;
    mark(f.job, f.local);
    mark(f.job, f.peer);
  }
  return activity;
}

DenseTorTm job_augmented_prior(const RoutingMatrix& routing,
                               const std::vector<double>& link_loads,
                               const std::vector<std::vector<double>>& activity) {
  const DenseTorTm g = gravity_prior(routing, link_loads);
  const std::int32_t n = routing.tor_count();
  const auto nn = static_cast<std::size_t>(n);

  // overlap_ij = sum_k activity[k][i] * activity[k][j]: each job adds its
  // outer product over the racks it touched.  Every cell still sums in job
  // order, and the terms skipped are exact zeros (finite activity only).
  std::vector<double> overlap(nn * nn, 0.0);
  for (std::size_t k = 0; k < activity.size(); ++k) {
    const std::vector<double>& a = activity[k];
    require(a.size() == nn && std::all_of(a.begin(), a.end(),
                                            [](double v) { return std::isfinite(v); }),
            "job_augmented_prior: activity row " + std::to_string(k) +
                " must hold " + std::to_string(n) + " finite entries");
    for (std::size_t i = 0; i < nn; ++i) {
      if (a[i] == 0) continue;
      for (std::size_t j = 0; j < nn; ++j) overlap[i * nn + j] += a[i] * a[j];
    }
  }
  DenseTorTm m(n);
  double m_total = 0;
  for (std::int32_t i = 0; i < n; ++i) {
    for (std::int32_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double v = g.at(i, j) * (1.0 + overlap[static_cast<std::size_t>(i) * nn +
                                                   static_cast<std::size_t>(j)]);
      m.set(i, j, v);
      m_total += v;
    }
  }
  // Renormalize to the gravity total so the adjustment starts unbiased.
  const double g_total = g.total();
  if (m_total > 0 && g_total > 0) {
    const double scale = g_total / m_total;
    for (std::int32_t i = 0; i < n; ++i) {
      for (std::int32_t j = 0; j < n; ++j) {
        if (i != j) m.set(i, j, m.at(i, j) * scale);
      }
    }
  }
  return m;
}

DenseTorTm sparsity_max(const RoutingMatrix& routing,
                        const std::vector<double>& link_loads) {
  require(link_loads.size() == static_cast<std::size_t>(routing.link_count()),
          "sparsity_max: load vector size mismatch");
  const std::int32_t n = routing.tor_count();
  DenseTorTm x(n);
  std::vector<double> resid = link_loads;
  double total = 0;
  for (double v : resid) total += v;
  if (total <= 0) return x;
  const double stop = kSparsityResidualFraction * total;

  std::int32_t entries = 0;
  for (;;) {
    // The OD pair that can absorb the most residual volume in one shot.
    double best = 0;
    std::int32_t bi = -1;
    std::int32_t bj = -1;
    for (std::int32_t i = 0; i < n; ++i) {
      for (std::int32_t j = 0; j < n; ++j) {
        if (i == j) continue;
        double assignable = std::numeric_limits<double>::infinity();
        for (std::int32_t l : routing.od_path(static_cast<std::size_t>(i) * n + j)) {
          assignable = std::min(assignable, resid[static_cast<std::size_t>(l)]);
        }
        if (assignable > best) {
          best = assignable;
          bi = i;
          bj = j;
        }
      }
    }
    if (bi < 0 || best <= 0) break;
    x.add(bi, bj, best);
    double remaining = 0;
    for (std::int32_t l : routing.od_path(static_cast<std::size_t>(bi) * n + bj)) {
      resid[static_cast<std::size_t>(l)] -= best;
    }
    for (double v : resid) remaining += v;
    if (++entries >= kSparsityMaxEntries || remaining <= stop) break;
  }
  return x;
}

}  // namespace dct
