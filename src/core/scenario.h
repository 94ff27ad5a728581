// Scenario presets: named (topology, workload, simulator, seed) bundles.
//
// The *canonical* scenario is this library's stand-in for the paper's
// instrumented production cluster, scaled down so every experiment runs on
// a laptop (DESIGN.md §5 discusses what survives the scaling).  The other
// presets are the load variants used by the Fig. 8 day-by-day experiment
// and the ablations called out in DESIGN.md §4.
#pragma once

#include <cstdint>
#include <string>

#include "ckpt/checkpoint.h"
#include "common/units.h"
#include "faults/cascade.h"
#include "faults/degradation.h"
#include "faults/fault_schedule.h"
#include "flowsim/flowsim.h"
#include "topology/topology.h"
#include "trace/collector_faults.h"
#include "workload/driver.h"

namespace dct {

/// A complete, reproducible experiment description.
struct ScenarioConfig {
  std::string name = "canonical";
  TopologyConfig topology;
  WorkloadConfig workload;
  FlowSimConfig sim;
  /// Device-failure process; empty (all rates zero) by default, in which
  /// case no injector is built and the run is byte-identical to a build
  /// without the faults subsystem.
  FaultConfig faults;
  /// Gray-failure process (partial faults: throttled / lossy / flapping
  /// links, straggler servers); empty by default, in which case no
  /// degradation schedule is generated and the run is byte-identical to a
  /// build without the degradation subsystem.
  DegradationConfig degradations;
  /// Overload-cascade feedback (faults/cascade.h); empty (threshold zero) by
  /// default, in which case no monitor is armed, no callbacks are scheduled
  /// and the run is byte-identical to a build without cascades.
  CascadeConfig cascades;
  /// Measurement-plane fault process (trace/collector_faults.h): telemetry
  /// loss coupled to the fault and degradation schedules above.  Empty by
  /// default, in which case ClusterExperiment::observed_trace() is the full
  /// trace itself and every encoded artifact stays byte-identical to a build
  /// without the telemetry subsystem.
  TelemetryFaultConfig telemetry;
  std::uint64_t seed = 42;
  /// Crash-safe checkpoint/restart (src/ckpt, docs/CHECKPOINT.md): when a
  /// checkpoint directory is set, run() spools every flow record to a
  /// write-ahead log there, made durable one append buffer at a time, and
  /// a rerun pointed at the same directory resumes a killed run, verifying
  /// the replay against the durable log byte-for-byte.  Disabled (empty
  /// dir) by default, in which case no manager is built, no record tap is
  /// installed and the run is byte-identical to a build without the
  /// subsystem.
  ckpt::CheckpointConfig checkpoint;
  /// When false, run() skips bind_metrics on every subsystem, so every hook
  /// site stays a dormant null-pointer check and the manifest carries no
  /// metrics.  bench/obs_overhead flips this to measure live
  /// instrumentation against its dormant floor; leave it on otherwise.
  bool obs_bind_metrics = true;
};

namespace scenarios {

/// The paper-analogue cluster under its normal mixed workload.
[[nodiscard]] ScenarioConfig canonical(TimeSec duration = 600.0, std::uint64_t seed = 42);

/// Lightly loaded cluster (the paper's weekend days in Fig. 8).
[[nodiscard]] ScenarioConfig weekend(TimeSec duration = 600.0, std::uint64_t seed = 42);

/// Heavily loaded cluster (the paper's congested weekdays in Fig. 8).
[[nodiscard]] ScenarioConfig heavy(TimeSec duration = 600.0, std::uint64_t seed = 42);

/// Ablation: random placement instead of the locality ladder
/// (work-seeks-bandwidth off).
[[nodiscard]] ScenarioConfig no_locality(TimeSec duration = 600.0,
                                         std::uint64_t seed = 42);

/// Ablation: no connection cap / no stop-and-go release of shuffle fetches.
[[nodiscard]] ScenarioConfig uncapped_connections(TimeSec duration = 600.0,
                                                  std::uint64_t seed = 42);

/// Ablation: whole-partition transfers instead of chunked ones.
[[nodiscard]] ScenarioConfig unchunked(TimeSec duration = 600.0, std::uint64_t seed = 42);

/// Architecture study: the same workload on a non-oversubscribed fabric
/// (ToR uplinks sized to the rack's full NIC capacity, aggregation sized to
/// carry every ToR) — the VL2-style "what if bandwidth were not scarce"
/// question the paper says its characterization enables designers to ask.
[[nodiscard]] ScenarioConfig full_bisection(TimeSec duration = 600.0,
                                            std::uint64_t seed = 42);

/// The paper's actual scale: 75 racks x 20 servers = 1500 servers (plus
/// externals).  Same workload intensity per server as `canonical`.  A
/// 600 s run takes a few minutes of wall clock and several GB of memory;
/// use for final-fidelity reproductions, not for iteration.
[[nodiscard]] ScenarioConfig paper_scale(TimeSec duration = 600.0,
                                         std::uint64_t seed = 42);

/// Robustness study: the canonical cluster with redundant ToR uplinks and
/// an aggressive device-failure process — link flaps, server crashes and
/// occasional ToR / aggregation switch outages.  Exercises rerouting,
/// vertex re-execution and block re-replication all at once.
[[nodiscard]] ScenarioConfig fault_storm(TimeSec duration = 600.0,
                                         std::uint64_t seed = 42);

/// Robustness study: the canonical cluster under gray failures — partial
/// faults that degrade without disconnecting (throttled, lossy and flapping
/// links; straggler servers) — with the workload's degraded-mode
/// mitigations (speculative re-execution and hedged block reads) switched
/// on.  bench/gray_failure compares this against the same schedule with
/// mitigations off.
[[nodiscard]] ScenarioConfig gray_failure(TimeSec duration = 600.0,
                                          std::uint64_t seed = 42);

/// Robustness study: correlated failure domains + overload cascades +
/// recovery-storm control, all at once.  Rack power events take whole racks
/// down in a jittered burst, domain-level gray failures degrade a rack's or
/// VLAN's uplinks together, the cascade monitor trips secondary lossy
/// episodes on sustained overload, and the repair path runs paced
/// (prioritized queue + token bucket + congestion backoff).
/// bench/recovery_storm compares this against the identical schedule with
/// pacing off.
[[nodiscard]] ScenarioConfig correlated_burst(TimeSec duration = 600.0,
                                              std::uint64_t seed = 42);

/// Robustness study: the canonical cluster with a realistic device-failure
/// process AND a lossy measurement plane coupled to it — crashed servers
/// lose their buffered socket-log tail, stragglers upload late or
/// truncated, flaky collection paths drop or duplicate uploads, SNMP polls
/// time out and rebooting switches reset their counters.  The *network* is
/// the same as fault_storm-lite; what degrades is the analyst's view of it.
/// bench/telemetry_loss compares gap-aware analysis against naive analysis
/// on this scenario's identical telemetry schedule.
[[nodiscard]] ScenarioConfig lossy_telemetry(TimeSec duration = 600.0,
                                             std::uint64_t seed = 42);

/// A very small, fast configuration for unit tests (4 racks, exact-mode
/// simulator).
[[nodiscard]] ScenarioConfig tiny(TimeSec duration = 60.0, std::uint64_t seed = 42);

}  // namespace scenarios
}  // namespace dct
