// Network-wide anomaly detection from link counters.
//
// The paper's related work leans on two families the community used on
// exactly this kind of data: subspace/PCA methods over link-load vectors
// ("Network Anomography", Zhang et al.; "Communication-Efficient Online
// Detection of Network-Wide Anomalies", Huang et al.) and per-link
// forecasting residuals.  This module implements both and — something the
// ISP world never has — evaluates them against *ground truth*: the
// simulated cluster's evacuation events are labeled in the application
// logs, so precision/recall of "unusual traffic" detection is measurable.
//
//   * EwmaDetector: per-link exponentially weighted moving average +
//     variance; a time bin is anomalous when any link's load deviates by
//     more than `threshold_sigma` standard deviations.
//   * PcaDetector: learns the normal subspace of the link-load vector
//     (top-k principal components via power iteration on the covariance),
//     then flags bins whose residual norm (projection onto the abnormal
//     subspace) exceeds a quantile-calibrated threshold.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"

namespace dct {

class Topology;
struct LinkUtilizationMap;
class ClusterTrace;

/// A contiguous run of anomalous bins.
struct AnomalyEvent {
  TimeSec start = 0;
  TimeSec end = 0;
  double peak_score = 0;  ///< detector-specific severity at the peak bin

  [[nodiscard]] TimeSec duration() const noexcept { return end - start; }
};

/// Link-load matrix: rows = time bins, columns = monitored links.
struct LinkLoadMatrix {
  TimeSec bin_width = 1.0;
  std::size_t bins = 0;
  std::size_t links = 0;
  std::vector<double> values;  // row-major

  [[nodiscard]] double at(std::size_t bin, std::size_t link) const {
    return values[bin * links + link];
  }
};

/// Builds the load matrix over the inter-switch links (what SNMP exposes).
[[nodiscard]] LinkLoadMatrix link_load_matrix(const LinkUtilizationMap& util,
                                              const Topology& topo);

struct EwmaConfig {
  double alpha = 0.05;          ///< smoothing factor
  double threshold_sigma = 4.0; ///< deviation that flags a bin
};

/// Per-link EWMA residual detector; returns anomalous episodes.
[[nodiscard]] std::vector<AnomalyEvent> ewma_detect(const LinkLoadMatrix& loads,
                                                    const EwmaConfig& config = {});

struct PcaConfig {
  std::int32_t components = 4;      ///< dimension of the normal subspace
};

/// PCA subspace detector; returns anomalous episodes.
[[nodiscard]] std::vector<AnomalyEvent> pca_detect(const LinkLoadMatrix& loads,
                                                   const PcaConfig& config = {});

/// Top-k principal components of the (mean-centered) load matrix via
/// deflated power iteration.  Returned as k vectors of length `links`,
/// unit norm, most-variant first.  Exposed for testing and inspection.
[[nodiscard]] std::vector<std::vector<double>> principal_components(
    const LinkLoadMatrix& loads, std::int32_t k);

/// Ground-truth evaluation against labeled windows (e.g. the trace's
/// evacuation records): an event is a true positive if it overlaps any
/// truth window; a truth window is detected if any event overlaps it.
struct DetectionQuality {
  std::size_t events = 0;
  std::size_t true_positives = 0;
  std::size_t truth_windows = 0;
  std::size_t truth_detected = 0;

  [[nodiscard]] double precision() const noexcept {
    return events ? static_cast<double>(true_positives) / static_cast<double>(events)
                  : 0.0;
  }
  [[nodiscard]] double recall() const noexcept {
    return truth_windows ? static_cast<double>(truth_detected) /
                               static_cast<double>(truth_windows)
                         : 0.0;
  }
};

struct TruthWindow {
  TimeSec start = 0;
  TimeSec end = 0;
};

[[nodiscard]] DetectionQuality evaluate_detection(
    const std::vector<AnomalyEvent>& events, const std::vector<TruthWindow>& truth,
    TimeSec slack = 2.0);

/// Convenience: truth windows from a trace's evacuation log.
[[nodiscard]] std::vector<TruthWindow> evacuation_windows(const ClusterTrace& trace);

/// Truth windows from a trace's device-failure log (fault injection runs).
/// Each window is clipped to the trace horizon — repairs often land past
/// the end of the run.
[[nodiscard]] std::vector<TruthWindow> failure_windows(const ClusterTrace& trace);

}  // namespace dct
