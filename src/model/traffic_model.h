// Synthetic datacenter traffic model (the paper's stated application).
//
// "We believe that figs. 2 to 4 together form the first characterization of
// datacenter traffic at a macroscopic level and comprise a model that can
// be used in simulating such traffic" (§4.1).  This module closes that
// loop: `TrafficModel::fit` extracts the characterization from a measured
// ClusterTrace — arrival process, flow sizes and rates, locality mixture,
// per-rack activity skew — and `generate` replays a *synthetic* trace with
// the same marginal statistics, without running jobs or a network
// simulator.  Downstream users who need "traffic like a mining datacenter's"
// can fit once against the canonical scenario (or their own trace format
// adapted into ClusterTrace) and generate arbitrarily long traces cheaply.
//
// Fidelity contract (validated by tests and the model-validation bench):
// flow-size CDF, flow-duration CDF, inter-arrival CDF, locality byte
// fractions and per-rack activity match the fitted trace closely; joint
// structure beyond that (e.g. per-job correlations, congestion feedback) is
// intentionally *not* modeled — use the full WorkloadDriver when those
// matter.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "topology/topology.h"
#include "trace/cluster_trace.h"

namespace dct {

/// Locality class of a flow's endpoints (the Fig. 2 structure).
enum class FlowLocality : std::uint8_t {
  kSameRack,
  kSameVlan,   ///< different rack, same VLAN
  kCrossVlan,  ///< internal, across VLANs
  kExternal    ///< one endpoint is an ingest/egress node
};

[[nodiscard]] std::string_view to_string(FlowLocality locality);

/// A fitted generative model of cluster traffic.
class TrafficModel {
 public:
  /// Fits the model to a measured trace.  Requires a non-empty trace whose
  /// server count matches the topology.
  static TrafficModel fit(const ClusterTrace& trace, const Topology& topo);

  /// Generates `duration` seconds of synthetic traffic on `topo` (which may
  /// be a different size than the fitted cluster; rack activity is resampled
  /// proportionally).  Deterministic under `rng`.
  [[nodiscard]] ClusterTrace generate(const Topology& topo, TimeSec duration,
                                      Rng rng) const;

  // --- Fitted parameters (read-only introspection) -------------------------
  [[nodiscard]] double flows_per_second() const noexcept { return flows_per_second_; }
  [[nodiscard]] const EmpiricalDistribution& flow_bytes() const noexcept {
    return bytes_;
  }
  /// P(locality class), indexed by FlowLocality.
  [[nodiscard]] const std::array<double, 4>& locality_mix() const noexcept {
    return locality_mix_;
  }
  /// Fraction of flows originating from each rack of the fitted cluster.
  [[nodiscard]] const std::vector<double>& rack_activity() const noexcept {
    return rack_activity_;
  }

  /// Human-readable parameter dump.
  void describe(std::ostream& os) const;

 private:
  TrafficModel() = default;

  double flows_per_second_ = 0;
  EmpiricalDistribution inter_arrival_;  // seconds between flow starts
  EmpiricalDistribution bytes_;          // flow sizes (bytes)
  EmpiricalDistribution rate_;           // achieved rates (bytes/s)
  std::array<double, 4> locality_mix_{};
  std::vector<double> rack_activity_;
};

/// Classifies a flow's endpoints (helper shared with the fitter and tests).
[[nodiscard]] FlowLocality classify_locality(const Topology& topo, ServerId a,
                                             ServerId b);

}  // namespace dct
