#include "analysis/analysis_obs.h"

namespace dct {

namespace detail {
AnalysisMetrics g_analysis_metrics;
}  // namespace detail

void bind_analysis_metrics(obs::Registry* registry) {
  if (registry == nullptr) {
    detail::g_analysis_metrics = {};
    return;
  }
  detail::g_analysis_metrics.tm_build_wall_ns =
      registry->histogram("analysis", "tm_build_wall_ns", "ns");
  detail::g_analysis_metrics.util_build_wall_ns =
      registry->histogram("analysis", "util_build_wall_ns", "ns");
  detail::g_analysis_metrics.congestion_wall_ns =
      registry->histogram("analysis", "congestion_wall_ns", "ns");
  detail::g_analysis_metrics.flowstats_wall_ns =
      registry->histogram("analysis", "flowstats_wall_ns", "ns");
}

}  // namespace dct
