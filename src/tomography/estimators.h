// Traffic-matrix estimators (§5.1-5.3).
//
// Three estimators from the paper, all consuming only SNMP-style link loads
// (plus, for the third, application metadata):
//
//  * Tomogravity (§5.1) — gravity prior g_ij ∝ out_i * in_j, then the
//    weighted least-squares adjustment of Zhang et al.:
//       minimize sum (x_ij - g_ij)^2 / g_ij   s.t.  A x = b,
//    solved in closed form via conjugate gradients on A W A^T, followed by
//    clamping to non-negativity and re-projection.
//  * Gravity + job prior (§5.3) — the gravity prior is multiplied by
//    1 + (shared job instances between ToR i and j), then the same
//    least-squares adjustment runs.
//  * Sparsity maximization (§5.2) — the paper formulates a MILP for the
//    sparsest TM consistent with the link loads; we substitute a greedy
//    matching-pursuit that repeatedly routes the largest assignable volume
//    through one OD pair (documented substitution; it shares the MILP's
//    qualitative behaviour: solutions far sparser than the ground truth).
#pragma once

#include <cstdint>
#include <vector>

#include "tomography/routing.h"
#include "trace/cluster_trace.h"

namespace dct {

/// The pure gravity prior from link loads: out_i = load(tor_up_i),
/// in_j = load(tor_down_j), g_ij = out_i * in_j / total (i != j).
[[nodiscard]] DenseTorTm gravity_prior(const RoutingMatrix& routing,
                                       const std::vector<double>& link_loads);

/// Tomogravity: least-squares adjustment of `prior` to satisfy A x = b,
/// solved by conjugate gradients (at most 200 iterations, to a 1e-10
/// relative residual) inside 4 clamp-and-reproject rounds.  `link_loads`
/// must hold one load per measured link.
[[nodiscard]] DenseTorTm tomogravity(const RoutingMatrix& routing,
                                     const std::vector<double>& link_loads,
                                     const DenseTorTm& prior);

/// Convenience: gravity prior + adjustment in one call (§5.1's estimator).
[[nodiscard]] DenseTorTm tomogravity(const RoutingMatrix& routing,
                                     const std::vector<double>& link_loads);

// ---------------------------------------------------------------------------
// Gap-aware estimation under a lossy SNMP plane (trace/collector_faults.h)
// ---------------------------------------------------------------------------

/// Per-measured-link validity for one estimation window: 0 marks a load the
/// counters cannot vouch for (timed-out poll, counter reset inside the
/// window).  Indexed like the `link_loads` vectors.
using LinkLoadMask = std::vector<std::uint8_t>;

class SnmpCounters;

/// Builds the window's mask from hardened counters: measured link `l` is
/// valid iff SnmpCounters::window_reliable holds over [t0, t1).
[[nodiscard]] LinkLoadMask reliable_link_mask(const RoutingMatrix& routing,
                                              const SnmpCounters& counters,
                                              TimeSec t0, TimeSec t1);

/// Gravity prior that tolerates invalid marginals: a ToR whose uplink
/// (downlink) measurement is masked out gets the mean of the valid uplink
/// (downlink) loads substituted — the estimator's best guess absent a
/// measurement — before the usual product-and-IPF construction.
[[nodiscard]] DenseTorTm gravity_prior_masked(const RoutingMatrix& routing,
                                              const std::vector<double>& link_loads,
                                              const LinkLoadMask& mask);

/// Tomogravity that drops masked rows from the constraint set A x = b: the
/// least-squares adjustment never sees the unreliable loads, so a reset
/// counter's wrap-"corrected" garbage cannot pull the estimate.  With an
/// all-valid mask this is exactly tomogravity(routing, loads, prior).
[[nodiscard]] DenseTorTm tomogravity_masked(const RoutingMatrix& routing,
                                            const std::vector<double>& link_loads,
                                            const LinkLoadMask& mask,
                                            const DenseTorTm& prior);

/// Convenience: masked gravity prior + masked adjustment in one call.
[[nodiscard]] DenseTorTm tomogravity_masked(const RoutingMatrix& routing,
                                            const std::vector<double>& link_loads,
                                            const LinkLoadMask& mask);

/// Per-job ToR activity: activity[job][tor] = number of distinct servers
/// under `tor` that participated in the job (recovered from the app-log /
/// socket-log join, the metadata §5.3 leverages).
[[nodiscard]] std::vector<std::vector<double>> job_tor_activity(
    const ClusterTrace& trace, const Topology& topo);

/// §5.3's job-aware prior: gravity multiplied by
///   1 + sum_k activity[k][i] * activity[k][j],
/// renormalized to the gravity prior's total.  Every activity row must hold
/// one finite entry per ToR.
[[nodiscard]] DenseTorTm job_augmented_prior(
    const RoutingMatrix& routing, const std::vector<double>& link_loads,
    const std::vector<std::vector<double>>& activity);

/// Greedy sparsity maximization (§5.2 surrogate).  Stops when the residual
/// drops below 1% of the total load, or when no OD pair can absorb more
/// volume (the greedy can strand residual that the exact MILP would place;
/// the qualitative behaviour — solutions far sparser than the ground truth,
/// worse estimates than tomogravity — is preserved).
[[nodiscard]] DenseTorTm sparsity_max(const RoutingMatrix& routing,
                                      const std::vector<double>& link_loads);

}  // namespace dct
