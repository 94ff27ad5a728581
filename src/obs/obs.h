// Hot-path instrumentation macros.
//
// The paper's first contribution is instrumentation whose overhead it
// quantifies (Table 1) and finds small enough to leave on; the library holds
// its own instrumentation to the same bar, so there is one build and the
// hooks are always compiled in.  Every hot-path observation in the library
// goes through these macros.
//
// Convention: instrumented classes hold plain pointers to obs::Counter /
// obs::Gauge / obs::Histogram members, null until bind_metrics(registry) is
// called.  The macros tolerate null, so an unbound (dormant) object costs one
// predictable branch per site; bench/obs_overhead measures the live cost
// against that dormant floor.  Scopes are timed with obs::ScopedTimer.
#pragma once

#include "obs/metrics.h"  // IWYU pragma: export

namespace dct::obs {
/// Always true: the hooks are compiled into every build.  Kept because
/// perfbench's build check reads it (with BuildInfo::obs_enabled).
inline constexpr bool kEnabled = true;
}  // namespace dct::obs

/// Increments counter pointer `m` by 1 (no-op when null).
#define DCT_OBS_INC(m)                 \
  do {                                 \
    if ((m) != nullptr) (m)->inc();    \
  } while (0)
/// Adds `d` to counter pointer `m`.
#define DCT_OBS_ADD(m, d)                                        \
  do {                                                           \
    if ((m) != nullptr) (m)->inc(static_cast<std::uint64_t>(d)); \
  } while (0)
/// Sets gauge pointer `g` to `v`.
#define DCT_OBS_SET(g, v)                                  \
  do {                                                     \
    if ((g) != nullptr) (g)->set(static_cast<double>(v));  \
  } while (0)
/// Records `v` into histogram pointer `h`.
#define DCT_OBS_OBSERVE(h, v)                                  \
  do {                                                         \
    if ((h) != nullptr) (h)->observe(static_cast<double>(v));  \
  } while (0)
