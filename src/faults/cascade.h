// Overload-induced cascades: congestion as a *cause* of gray failure.
//
// The paper's hotspot analysis (Figs. 5-6) shows congestion episodes are
// correlated in time and across links; one mechanism behind that coupling
// is feedback — a link driven near saturation starts dropping/corrupting
// frames, CRC errors pile up, and the link goes lossy, which pushes traffic
// (and the overload) elsewhere.  CascadeConfig parameterizes that feedback
// rule for the FaultInjector's cascade monitor:
//
//   * a monitored (inter-switch) link whose utilization stays at or above
//     `util_threshold` for `sustain_window` seconds becomes trip-eligible;
//   * an eligible link trips with `trip_probability` per sustained window
//     (seeded coin, drawn only when eligible — zero draws when disabled);
//   * a trip injects a secondary kLinkLossy degradation on the overloaded
//     link, with severity drawn from [severity_floor, severity_ceil] and an
//     exponential duration;
//   * each trip carries a *depth*: 1 + the deepest cascade degradation
//     still active anywhere, so chains of induced failures are explicit in
//     the trace (CascadeRecord, the codec's cascade section) and capped at
//     `max_depth` — would-be deeper trips are suppressed and counted,
//     never injected.
//
// The monitor polls only when enabled (`util_threshold > 0`); a disabled
// config schedules nothing, draws nothing, and leaves runs bit-identical.
#pragma once

#include <cstdint>

#include "common/units.h"

namespace dct {

/// Cascade feedback knobs.  Default-off (`util_threshold = 0`): no monitor,
/// no rng stream, no trace section.
struct CascadeConfig {
  /// Utilization (fraction of *nominal* capacity) a link must sustain to
  /// become trip-eligible.  0 disables the whole subsystem.
  double util_threshold = 0.0;
  /// How long the overload must persist, and how often the monitor polls.
  TimeSec sustain_window = 5.0;
  TimeSec check_interval = 1.0;
  /// Probability an eligible link actually trips per sustained window.
  double trip_probability = 0.25;
  /// Depth cap: a trip whose depth would exceed this is suppressed (and
  /// counted), so induced-failure chains are bounded by construction.
  std::int32_t max_depth = 3;
  /// Severity band (surviving goodput fraction) of induced lossy episodes.
  double severity_floor = 0.3;
  double severity_ceil = 0.8;
  /// Mean duration of induced episodes (exponential, floored at 1 ms).
  TimeSec mean_duration = 20.0;
  /// Seed of the cascade coin/severity stream, independent of the fault,
  /// degradation, workload and simulator seeds.
  std::uint64_t seed = 0xCA5CULL;

  /// True when the monitor is off — nothing scheduled, nothing drawn.
  [[nodiscard]] bool empty() const noexcept { return util_threshold <= 0; }

  void validate() const;
};

}  // namespace dct
