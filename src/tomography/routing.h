// ToR-level routing matrix and SNMP-style link-load synthesis (§5).
//
// Tomography sees only what SNMP byte counters on switch interfaces expose:
// one load value per inter-switch link.  The unknowns are the
// origin-destination volumes between ToR switches — n(n-1) of them against
// roughly 2n + 2a link measurements, the under-constrained regime the paper
// emphasizes ("the typical datacenter topology represents a worst-case
// scenario for tomography").
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.h"
#include "topology/topology.h"

namespace dct {

class SparseTm;

/// A dense ToR-to-ToR traffic matrix (diagonal unused/zero).
class DenseTorTm {
 public:
  explicit DenseTorTm(std::int32_t n = 0) : n_(n), v_(static_cast<std::size_t>(n) * n, 0.0) {}

  [[nodiscard]] std::int32_t size() const noexcept { return n_; }
  [[nodiscard]] double at(std::int32_t i, std::int32_t j) const {
    return v_[static_cast<std::size_t>(i) * n_ + j];
  }
  void set(std::int32_t i, std::int32_t j, double x) {
    v_[static_cast<std::size_t>(i) * n_ + j] = x;
  }
  void add(std::int32_t i, std::int32_t j, double x) {
    v_[static_cast<std::size_t>(i) * n_ + j] += x;
  }
  [[nodiscard]] double total() const;
  /// Count of strictly positive off-diagonal entries.
  [[nodiscard]] std::size_t nonzero_count() const;
  /// Off-diagonal pair count, the sparsity denominator.
  [[nodiscard]] std::size_t pair_count() const noexcept {
    return static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_ - 1);
  }
  /// Number of largest entries needed to cover `volume_fraction` of total.
  [[nodiscard]] std::size_t entries_for_volume(double volume_fraction) const;

  [[nodiscard]] const std::vector<double>& raw() const noexcept { return v_; }

  /// Conversion from the analysis layer's sparse ToR TM.
  static DenseTorTm from_sparse(const SparseTm& tm);

 private:
  std::int32_t n_;
  std::vector<double> v_;
};

/// The routing matrix at ToR granularity: which inter-switch links each
/// ToR-to-ToR OD pair crosses.  Rows are OD pairs in (src*n + dst) order
/// (diagonal rows empty); columns are *measured links* indexed densely.
///
/// Paths are stored flat, CSR-style: OD pair k's measured-link indices, in
/// path order, are links_[offsets_[k] .. offsets_[k + 1]).  Every product
/// below walks those two arrays in (i, j) order and each path in path
/// order, so its sums keep one fixed order of operands.
class RoutingMatrix {
 public:
  explicit RoutingMatrix(const Topology& topo);

  [[nodiscard]] std::int32_t tor_count() const noexcept { return n_; }
  [[nodiscard]] std::int32_t link_count() const noexcept {
    return static_cast<std::int32_t>(link_ids_.size());
  }

  /// Dense measured-link index of a topology link; -1 if not measured.
  [[nodiscard]] std::int32_t measured_index(LinkId l) const;
  /// Topology link behind a measured index.
  [[nodiscard]] LinkId link_at(std::int32_t measured) const;

  /// Measured-link indices crossed by OD pair (i -> j), in path order.
  [[nodiscard]] std::span<const std::int32_t> path(std::int32_t i, std::int32_t j) const;
  /// The same path by OD index k = i * n + j, unchecked (k < n * n); a
  /// diagonal pair's path is empty.  For solvers that walk every pair.
  [[nodiscard]] std::span<const std::int32_t> od_path(std::size_t k) const noexcept {
    return {links_.data() + offsets_[k], links_.data() + offsets_[k + 1]};
  }

  /// b = A x : link loads induced by a ToR TM.
  [[nodiscard]] std::vector<double> link_loads(const DenseTorTm& tm) const;

  /// y = A^T lambda : adjoint application (for least-squares solvers).
  [[nodiscard]] std::vector<double> adjoint(const std::vector<double>& lambda) const;

 private:
  std::int32_t n_;
  std::vector<LinkId> link_ids_;
  std::vector<std::int32_t> measured_of_link_;  // LinkId value -> dense idx
  std::vector<std::int32_t> offsets_;           // od index -> start in links_
  std::vector<std::int32_t> links_;             // every path's link idxs
};

}  // namespace dct
