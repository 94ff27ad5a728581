#include "anomaly/detectors.h"

#include <algorithm>
#include <cmath>

#include "analysis/congestion.h"
#include "common/require.h"
#include "common/stats.h"
#include "topology/topology.h"
#include "trace/cluster_trace.h"

namespace dct {

LinkLoadMatrix link_load_matrix(const LinkUtilizationMap& util, const Topology& topo) {
  const auto& links = topo.inter_switch_links();
  require(!links.empty(), "link_load_matrix: no inter-switch links");
  LinkLoadMatrix m;
  m.links = links.size();
  const BinnedSeries& first = util.of(links.front());
  m.bins = first.bin_count();
  m.bin_width = first.bin_width();
  m.values.assign(m.bins * m.links, 0.0);
  for (std::size_t l = 0; l < links.size(); ++l) {
    const BinnedSeries& series = util.of(links[l]);
    require(series.bin_count() == m.bins, "link_load_matrix: ragged series");
    for (std::size_t b = 0; b < m.bins; ++b) {
      m.values[b * m.links + l] = series.value(b);
    }
  }
  return m;
}

namespace {

// Collapses a per-bin anomaly flag vector into episodes.
std::vector<AnomalyEvent> episodes_from_flags(const std::vector<double>& score,
                                              const std::vector<bool>& flagged,
                                              TimeSec bin_width) {
  std::vector<AnomalyEvent> out;
  std::size_t i = 0;
  while (i < flagged.size()) {
    if (!flagged[i]) {
      ++i;
      continue;
    }
    std::size_t j = i;
    double peak = 0;
    while (j < flagged.size() && flagged[j]) {
      peak = std::max(peak, score[j]);
      ++j;
    }
    out.push_back({static_cast<double>(i) * bin_width, static_cast<double>(j) * bin_width,
                   peak});
    i = j;
  }
  return out;
}

// ewma_detect learns this many bins before it flags one.
constexpr std::size_t kEwmaWarmupBins = 30;

// Power-iteration rounds per principal component.
constexpr std::int32_t kPowerIterations = 50;
static_assert(kPowerIterations >= 1);

// pca_detect flags a bin whose residual norm exceeds this quantile of every
// bin's residual norm.
constexpr double kPcaThresholdQuantile = 0.99;
static_assert(kPcaThresholdQuantile > 0 && kPcaThresholdQuantile < 1);

}  // namespace

std::vector<AnomalyEvent> ewma_detect(const LinkLoadMatrix& loads,
                                      const EwmaConfig& config) {
  require(config.alpha > 0 && config.alpha < 1, "ewma_detect: alpha must be in (0,1)");
  require(config.threshold_sigma > 0, "ewma_detect: threshold must be > 0");
  std::vector<double> mean(loads.links, 0.0);
  std::vector<double> var(loads.links, 0.0);
  std::vector<double> score(loads.bins, 0.0);
  std::vector<bool> flagged(loads.bins, false);

  for (std::size_t b = 0; b < loads.bins; ++b) {
    double bin_score = 0;
    for (std::size_t l = 0; l < loads.links; ++l) {
      const double x = loads.at(b, l);
      const double dev = x - mean[l];
      const double sigma = std::sqrt(std::max(var[l], 1e-8));
      if (b >= kEwmaWarmupBins) {
        bin_score = std::max(bin_score, std::fabs(dev) / sigma);
      }
      // Update after scoring so the anomaly does not mask itself entirely
      // (it still leaks in, as in any online EWMA).
      mean[l] += config.alpha * dev;
      var[l] = (1 - config.alpha) * (var[l] + config.alpha * dev * dev);
    }
    score[b] = bin_score;
    flagged[b] = b >= kEwmaWarmupBins && bin_score >= config.threshold_sigma;
  }
  return episodes_from_flags(score, flagged, loads.bin_width);
}

std::vector<std::vector<double>> principal_components(const LinkLoadMatrix& loads,
                                                      std::int32_t k) {
  require(k >= 1, "principal_components: k must be >= 1");
  require(loads.bins >= 2, "principal_components: need at least two bins");
  const std::size_t n = loads.links;
  k = std::min<std::int32_t>(k, static_cast<std::int32_t>(n));

  // Mean-center the rows.
  std::vector<double> mean(n, 0.0);
  for (std::size_t b = 0; b < loads.bins; ++b) {
    for (std::size_t l = 0; l < n; ++l) mean[l] += loads.at(b, l);
  }
  for (auto& v : mean) v /= static_cast<double>(loads.bins);

  // Covariance (n x n); n = #inter-switch links is small (tens).
  std::vector<double> cov(n * n, 0.0);
  for (std::size_t b = 0; b < loads.bins; ++b) {
    for (std::size_t i = 0; i < n; ++i) {
      const double di = loads.at(b, i) - mean[i];
      for (std::size_t j = i; j < n; ++j) {
        cov[i * n + j] += di * (loads.at(b, j) - mean[j]);
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) cov[i * n + j] = cov[j * n + i];
  }

  std::vector<std::vector<double>> comps;
  std::vector<double> work(n);
  for (std::int32_t c = 0; c < k; ++c) {
    // Deterministic start vector (varies per component).
    std::vector<double> v(n, 1.0);
    v[static_cast<std::size_t>(c) % n] += 1.0;
    for (std::int32_t it = 0; it < kPowerIterations; ++it) {
      // Orthogonalize against found components.
      for (const auto& u : comps) {
        double dot = 0;
        for (std::size_t i = 0; i < n; ++i) dot += v[i] * u[i];
        for (std::size_t i = 0; i < n; ++i) v[i] -= dot * u[i];
      }
      // w = C v
      for (std::size_t i = 0; i < n; ++i) {
        double acc = 0;
        for (std::size_t j = 0; j < n; ++j) acc += cov[i * n + j] * v[j];
        work[i] = acc;
      }
      double norm = 0;
      for (double x : work) norm += x * x;
      norm = std::sqrt(norm);
      if (norm <= 1e-15) break;  // no variance left
      for (std::size_t i = 0; i < n; ++i) v[i] = work[i] / norm;
    }
    // Final orthogonalization + normalization.
    for (const auto& u : comps) {
      double dot = 0;
      for (std::size_t i = 0; i < n; ++i) dot += v[i] * u[i];
      for (std::size_t i = 0; i < n; ++i) v[i] -= dot * u[i];
    }
    double norm = 0;
    for (double x : v) norm += x * x;
    norm = std::sqrt(norm);
    if (norm <= 1e-12) break;
    for (auto& x : v) x /= norm;
    comps.push_back(std::move(v));
  }
  return comps;
}

std::vector<AnomalyEvent> pca_detect(const LinkLoadMatrix& loads,
                                     const PcaConfig& config) {
  const auto comps = principal_components(loads, config.components);
  const std::size_t n = loads.links;

  std::vector<double> mean(n, 0.0);
  for (std::size_t b = 0; b < loads.bins; ++b) {
    for (std::size_t l = 0; l < n; ++l) mean[l] += loads.at(b, l);
  }
  for (auto& v : mean) v /= static_cast<double>(std::max<std::size_t>(loads.bins, 1));

  // Residual norm per bin: || (I - P P^T) (x - mean) ||.
  std::vector<double> score(loads.bins, 0.0);
  std::vector<double> x(n);
  for (std::size_t b = 0; b < loads.bins; ++b) {
    for (std::size_t l = 0; l < n; ++l) x[l] = loads.at(b, l) - mean[l];
    for (const auto& u : comps) {
      double dot = 0;
      for (std::size_t l = 0; l < n; ++l) dot += x[l] * u[l];
      for (std::size_t l = 0; l < n; ++l) x[l] -= dot * u[l];
    }
    double norm = 0;
    for (double v : x) norm += v * v;
    score[b] = std::sqrt(norm);
  }

  const double threshold = quantile(score, kPcaThresholdQuantile);
  std::vector<bool> flagged(loads.bins, false);
  for (std::size_t b = 0; b < loads.bins; ++b) {
    flagged[b] = score[b] > threshold && score[b] > 1e-9;
  }
  return episodes_from_flags(score, flagged, loads.bin_width);
}

DetectionQuality evaluate_detection(const std::vector<AnomalyEvent>& events,
                                    const std::vector<TruthWindow>& truth,
                                    TimeSec slack) {
  DetectionQuality q;
  q.events = events.size();
  q.truth_windows = truth.size();
  auto overlaps = [&](const AnomalyEvent& e, const TruthWindow& w) {
    return e.start <= w.end + slack && w.start <= e.end + slack;
  };
  for (const auto& e : events) {
    for (const auto& w : truth) {
      if (overlaps(e, w)) {
        ++q.true_positives;
        break;
      }
    }
  }
  for (const auto& w : truth) {
    for (const auto& e : events) {
      if (overlaps(e, w)) {
        ++q.truth_detected;
        break;
      }
    }
  }
  return q;
}

std::vector<TruthWindow> evacuation_windows(const ClusterTrace& trace) {
  std::vector<TruthWindow> out;
  for (const auto& ev : trace.evacuations()) {
    out.push_back({ev.start, ev.end});
  }
  return out;
}

std::vector<TruthWindow> failure_windows(const ClusterTrace& trace) {
  std::vector<TruthWindow> out;
  for (const auto& f : trace.device_failures()) {
    // Repair times routinely land past the horizon; clip so recall is
    // measured only over the observed interval.
    out.push_back({f.start, std::min(f.end, trace.duration())});
  }
  return out;
}

}  // namespace dct
