// Traffic matrices and the macroscopic pattern statistics of §4.1.
//
// A traffic matrix (TM) gives the bytes exchanged from the row entity to
// the column entity over a time window.  The paper computes TMs at multiple
// time-scales (1 s, 10 s, 100 s) between servers and between top-of-rack
// switches; the ToR-to-ToR TM has a zero diagonal (only cross-rack traffic).
// TMs here are sparse — the central empirical finding is exactly that most
// entries are zero.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "common/ids.h"
#include "common/units.h"
#include "topology/topology.h"
#include "trace/cluster_trace.h"

namespace dct {

/// A sparse origin-destination byte matrix over `n` entities.
class SparseTm {
 public:
  explicit SparseTm(std::int32_t n = 0) : n_(n) {}

  void add(std::int32_t from, std::int32_t to, double bytes);
  [[nodiscard]] double at(std::int32_t from, std::int32_t to) const;

  [[nodiscard]] std::int32_t size() const noexcept { return n_; }
  [[nodiscard]] std::size_t nonzero_count() const noexcept { return cells_.size(); }
  [[nodiscard]] double total() const noexcept { return total_; }

  /// Number of off-diagonal OD pairs (the denominator for sparsity).
  [[nodiscard]] std::size_t pair_count() const noexcept {
    return static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_ - 1);
  }

  /// Iteration support: (from, to, bytes) triples in unspecified order.
  struct Entry {
    std::int32_t from;
    std::int32_t to;
    double bytes;
  };
  [[nodiscard]] std::vector<Entry> entries() const;

  /// Sum of |a - b| over the union of entries (the numerator of the paper's
  /// normalized-change metric, Fig. 10 bottom).
  [[nodiscard]] static double l1_distance(const SparseTm& a, const SparseTm& b);

  /// Fraction of entries (of the non-zero support) needed to cover
  /// `volume_fraction` of the total bytes — the sparsity measure of Fig. 14,
  /// reported relative to pair_count().
  [[nodiscard]] double entries_for_volume(double volume_fraction) const;

 private:
  static std::uint64_t key(std::int32_t from, std::int32_t to) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
           static_cast<std::uint32_t>(to);
  }
  std::int32_t n_;
  double total_ = 0;
  std::unordered_map<std::uint64_t, double> cells_;
};

/// Scope of a TM series: whole servers or ToR-to-ToR (cross-rack only).
enum class TmScope : std::uint8_t { kServer, kToR };

/// Builds a sequence of TMs over consecutive `window`-second windows.
/// Flow bytes are spread uniformly over the flow's lifetime (the socket-log
/// approximation: logs record per-flow transfers, not per-packet timings).
/// ToR scope drops same-rack and external traffic, matching the paper's
/// ToR-to-ToR matrices.  Flows deposit in trace order (docs/PERFORMANCE.md).
[[nodiscard]] std::vector<SparseTm> build_tm_series(const ClusterTrace& trace,
                                                    const Topology& topo, TimeSec window,
                                                    TmScope scope);

/// One TM over [t0, t0+window), deposited in trace order like build_tm_series.
[[nodiscard]] SparseTm build_tm(const ClusterTrace& trace, const Topology& topo,
                                TimeSec t0, TimeSec window, TmScope scope);

// ---------------------------------------------------------------------------
// Gap-aware TM construction from a lossily collected trace
// ---------------------------------------------------------------------------

/// Probability that a flow between `a` and `b` ending uniformly in [t0, t1)
/// survived the lossy merge.  The hardened merge drops a record iff its end
/// time falls inside the logging server's gap, and loses the flow only when
/// BOTH copies are dropped (peer recovery), so survival is one minus the
/// fraction of the window covered by gaps(a) AND gaps(b) simultaneously.
/// Gaps on one endpoint alone cost nothing; 1.0 on a gap-free trace.
[[nodiscard]] double pair_observability(const ClusterTrace& trace, ServerId a,
                                        ServerId b, TimeSec t0, TimeSec t1);

/// Knobs for coverage-corrected TM construction.
struct TmCoverageOptions {
  /// Seconds around a gap from which a server's surviving records are drawn
  /// as references for the records the gap destroyed (size, peers and
  /// direction of the lost traffic).  A tight halo keeps the references
  /// contemporaneous with the loss; when it captures nothing, the server's
  /// whole observed record set is the fallback.
  TimeSec reference_halo = 5.0;
  /// Shrinkage constant k in the correction factor d / (d + k) applied to a
  /// gap whose estimated dual-loss count is d.  Singleton counts carry the
  /// highest relative variance (one lost record priced off a handful of
  /// references), so small d is deliberately under-corrected; the factor
  /// approaches 1 as the evidence grows.  0 disables shrinkage.
  double count_shrinkage = 1.0;
};

/// build_tm_series hardened with ledger-based gap accounting.  Naive
/// deposits first: every surviving flow contributes exactly as in
/// build_tm_series, so a gap-free trace is bit-identical by construction.
/// Then, per server and per merged coverage hole, the builder settles the
/// gap's ledger:
///
///   dual_lost = records_lost (GapRecord, exact via sequence numbers)
///             - flows still present with an end inside the hole
///               (records peer recovery saved);
///
/// dual_lost flows vanished entirely — both endpoint copies ended inside
/// gaps — and each is charged to both endpoints' ledgers, so corrections
/// carry a factor 1/2.  Their bytes are priced at the median size of the
/// server's reference records (reference_halo), shrunk by d / (d + k)
/// against small-count variance, and re-deposited along the reference
/// records' own cells and byte shares, spread over the hole widened
/// backwards by the references' byte-weighted mean duration (a lost flow
/// deposited mass before its fatal end, like its references did).
///
/// The exact count is what makes this safe where estimators that scale by
/// gap geometry are not: a gap over an idle stretch has an empty ledger and
/// triggers no correction, so no mass is ever invented where nothing was
/// lost.
/// Pass 1 is build_tm_series; pass 2 settles ledgers in ascending server
/// order straight into its matrices.
[[nodiscard]] std::vector<SparseTm> build_tm_series_gap_aware(
    const ClusterTrace& trace, const Topology& topo, TimeSec window, TmScope scope,
    const TmCoverageOptions& options = {});

// ---------------------------------------------------------------------------
// §4.1 pattern statistics
// ---------------------------------------------------------------------------

/// Fig. 3: distributions of loge(bytes) over non-zero server pairs, split by
/// rack locality, plus the zero-entry probabilities the figure's caption
/// highlights.
struct PairBytesStats {
  Cdf log_bytes_within_rack;   ///< loge(bytes) of non-zero same-rack pairs
  Cdf log_bytes_across_racks;  ///< loge(bytes) of non-zero cross-rack pairs
  double prob_zero_within_rack = 1.0;
  double prob_zero_across_racks = 1.0;
  std::size_t pairs_within_rack = 0;
  std::size_t pairs_across_racks = 0;
};
[[nodiscard]] PairBytesStats pair_bytes_stats(const SparseTm& server_tm,
                                              const Topology& topo);

/// Fig. 4: per-server correspondent fractions, within and across racks.
struct CorrespondentStats {
  Cdf frac_within_rack;   ///< fraction of same-rack servers a server talks to
  Cdf frac_across_racks;  ///< fraction of out-of-rack servers it talks to
  double median_within = 0;   ///< median count of in-rack correspondents
  double median_across = 0;   ///< median count of out-of-rack correspondents
};
[[nodiscard]] CorrespondentStats correspondent_stats(const SparseTm& server_tm,
                                                     const Topology& topo);

/// Fig. 2 quantification: how much of the traffic stays local at each tier.
/// (The heatmap itself is emitted by the bench; these scores make the
/// work-seeks-bandwidth / scatter-gather claim checkable.)
struct LocalityBreakdown {
  double frac_same_rack = 0;   ///< bytes between same-rack server pairs
  double frac_same_vlan = 0;   ///< ... same VLAN but different rack
  double frac_cross_vlan = 0;  ///< ... across VLANs (internal)
  double frac_external = 0;    ///< ... to/from external servers
};
[[nodiscard]] LocalityBreakdown locality_breakdown(const SparseTm& server_tm,
                                                   const Topology& topo);

/// Fig. 10: aggregate cluster traffic rate (bytes/s per bin) over time.
[[nodiscard]] BinnedSeries aggregate_rate_series(const ClusterTrace& trace,
                                                 TimeSec bin_width);

/// Fig. 10 (bottom): normalized L1 change between consecutive TMs,
///   |M(t+tau) - M(t)|_1 / |M(t)|_1,
/// where tau is the window the series was built with.  Windows with zero
/// traffic are skipped.
[[nodiscard]] std::vector<double> tm_change_series(const std::vector<SparseTm>& tms);

}  // namespace dct
