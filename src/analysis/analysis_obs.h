// Module-level metrics binding for the analysis layer.
//
// The analysis entry points (traffic_matrix.h, congestion.h, flowstats.h)
// are free functions, so — like the trace codec (trace/codec.h) — their
// instrumentation is bound at module level: one registry at a time, the
// last bound wins, nullptr unbinds.  The metrics are per-stage wall-clock
// totals (docs/METRICS.md, subsystem "analysis") that show where a run's
// analysis time went.
#pragma once

#include "obs/obs.h"

namespace dct {

/// Registers the analysis stage timers on `registry` and starts feeding
/// them from every traffic-matrix / congestion / flow-statistics call.
/// Pass nullptr to unbind.  No-op in a DCT_OBS=OFF build.
void bind_analysis_metrics(obs::Registry* registry);

#if DCT_OBS_ENABLED
namespace detail {

/// Bound instruments (null when unbound); internal to the analysis layer.
struct AnalysisMetrics {
  obs::Counter* tm_build_wall_ns = nullptr;
  obs::Counter* util_build_wall_ns = nullptr;
  obs::Counter* congestion_wall_ns = nullptr;
  obs::Counter* flowstats_wall_ns = nullptr;
};

extern AnalysisMetrics g_analysis_metrics;

}  // namespace detail
#endif

}  // namespace dct
