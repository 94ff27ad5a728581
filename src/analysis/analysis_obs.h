// Module-level metrics binding for the analysis layer.
//
// The analysis entry points (traffic_matrix.h, congestion.h, flowstats.h)
// are free functions, so — like the trace codec (trace/codec.h) — their
// instrumentation is bound at module level: one registry at a time, the
// last bound wins, nullptr unbinds.  The metrics are per-stage wall-clock
// histograms (docs/METRICS.md, subsystem "analysis") that show where a run's
// analysis time went and how many calls each stage took.
#pragma once

#include "obs/obs.h"

namespace dct {

/// Registers the analysis stage timers on `registry` and starts feeding
/// them from every traffic-matrix / congestion / flow-statistics call.
/// Pass nullptr to unbind.
void bind_analysis_metrics(obs::Registry* registry);

namespace detail {

/// Bound instruments (null when unbound); internal to the analysis layer.
struct AnalysisMetrics {
  obs::Histogram* tm_build_wall_ns = nullptr;
  obs::Histogram* util_build_wall_ns = nullptr;
  obs::Histogram* congestion_wall_ns = nullptr;
  obs::Histogram* flowstats_wall_ns = nullptr;
};

extern AnalysisMetrics g_analysis_metrics;

}  // namespace detail

}  // namespace dct
