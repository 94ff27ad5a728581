// ClusterExperiment: the top-level entry point of the library.
//
// One experiment = one simulated measurement campaign: build the cluster,
// run the workload under server-centric instrumentation, and hand the
// resulting ClusterTrace (socket + application logs) and exact link
// utilization to the analysis and tomography layers.
//
//   dct::ClusterExperiment exp(dct::scenarios::canonical(600.0));
//   exp.run();
//   auto tms  = dct::build_tm_series(exp.trace(), exp.topology(), 10.0,
//                                    dct::TmScope::kServer);
//   auto cong = dct::congestion_report(exp.utilization(), exp.topology(), 0.7);
#pragma once

#include <memory>
#include <string>

#include "analysis/congestion.h"
#include "ckpt/checkpoint.h"
#include "core/scenario.h"
#include "faults/injector.h"
#include "flowsim/flowsim.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "topology/network_state.h"
#include "topology/topology.h"
#include "trace/cluster_trace.h"
#include "workload/driver.h"

namespace dct {

/// Owns the whole simulation stack for one scenario and runs it to the
/// horizon.  All accessors require run() to have completed.
class ClusterExperiment {
 public:
  explicit ClusterExperiment(ScenarioConfig config);
  // Unbinds the codec's process-wide metric pointers, which would otherwise
  // dangle into this experiment's registry after it is gone.
  ~ClusterExperiment();

  // The simulator, trace and driver hold references into this object, so it
  // must stay put.  Construct in place (guaranteed prvalue elision makes
  // `auto exp = ClusterExperiment(cfg);` fine).
  ClusterExperiment(const ClusterExperiment&) = delete;
  ClusterExperiment& operator=(const ClusterExperiment&) = delete;
  ClusterExperiment(ClusterExperiment&&) = delete;
  ClusterExperiment& operator=(ClusterExperiment&&) = delete;

  /// Installs the workload and runs the simulator to the horizon.
  /// Idempotent.  When the scenario's checkpoint config is enabled this
  /// transparently recovers any prior progress in the checkpoint directory
  /// (docs/CHECKPOINT.md): flow records are verified against the durable
  /// WAL prefix, and the run throws rather than silently diverge.
  void run();

  /// run() against the checkpoint directory `dir` of a killed run:
  /// overrides the scenario's checkpoint dir and runs to the horizon,
  /// replaying and extending the durable progress found there.  The rest of
  /// the scenario config must be the one the crashed run used (enforced via
  /// the scenario fingerprint bound into the directory's WAL).
  void resume(const std::string& dir);

  [[nodiscard]] const ScenarioConfig& scenario() const noexcept { return config_; }
  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }
  [[nodiscard]] const FlowSim& sim() const noexcept { return sim_; }
  [[nodiscard]] const ClusterTrace& trace() const noexcept { return trace_; }
  [[nodiscard]] const WorkloadDriver& workload() const noexcept { return driver_; }
  [[nodiscard]] const WorkloadStats& workload_stats() const noexcept {
    return driver_.stats();
  }

  /// Exact per-link utilization from the simulator (computed once, cached).
  [[nodiscard]] const LinkUtilizationMap& utilization();

  /// Live/down state of every device; all-up unless the scenario's
  /// FaultConfig is non-empty.
  [[nodiscard]] const NetworkState& network_state() const noexcept { return net_; }
  /// The injector, or nullptr when the scenario has neither faults nor
  /// degradations.
  [[nodiscard]] const FaultInjector* fault_injector() const noexcept {
    return injector_.get();
  }
  /// Stable FNV-1a hash of the installed fault + degradation schedules
  /// (faults/degradation.h); 0 when both are empty.  Available after run().
  [[nodiscard]] std::uint64_t schedule_hash() const noexcept {
    return schedule_hash_;
  }

  // --- Lossy measurement plane (trace/collector_faults.h) -----------------
  /// The trace as the (possibly faulty) measurement plane delivered it: the
  /// telemetry fault schedule applied to trace(), computed once and cached.
  /// When the scenario's telemetry config is empty this returns trace()
  /// itself — same object, no copy, bit-identical encoding.  Requires run().
  [[nodiscard]] const ClusterTrace& observed_trace();
  /// The deterministic telemetry fault plan (empty when the config is).
  /// Available after run().
  [[nodiscard]] const TelemetryFaultSchedule& telemetry_schedule() const noexcept {
    return telemetry_schedule_;
  }
  /// Stable FNV-1a hash of the telemetry schedule; 0 when it is empty.
  /// Folded into manifests as config key `telemetry_schedule_hash`.
  [[nodiscard]] std::uint64_t telemetry_schedule_hash() const noexcept {
    return telemetry_hash_;
  }
  /// What the hardened merge did (all zero until observed_trace() runs the
  /// merge, and forever on an empty telemetry config).
  [[nodiscard]] const TelemetryMergeStats& telemetry_stats() const noexcept {
    return telemetry_stats_;
  }

  // --- Checkpoint/restart (src/ckpt, docs/CHECKPOINT.md) ------------------
  /// The run's checkpoint manager, or nullptr when checkpointing is
  /// disabled.  Counters and lineage are final once run() returns.
  [[nodiscard]] const ckpt::CheckpointManager* checkpoint_manager() const noexcept {
    return ckpt_.get();
  }
  /// Scenario identity that binds checkpoint artifacts to this experiment:
  /// name, seed, horizon, topology shape, subsystem-enable flags and the
  /// job rate.
  [[nodiscard]] std::uint64_t scenario_fingerprint() const;

  // --- Self-instrumentation (src/obs, docs/METRICS.md) --------------------
  /// The run's metric registry.  run() binds every subsystem into it; all
  /// values are final once run() returns.
  [[nodiscard]] const obs::Registry& registry() const noexcept { return registry_; }
  /// Wall-clock seconds spent inside run() (0 before the run).
  [[nodiscard]] double wall_seconds() const noexcept { return wall_seconds_; }
  /// Builds the reproducibility record for this run: scenario identity,
  /// config summary, build flags, final metrics, wall time.  `harness`
  /// names the producing binary.  Requires run() to have completed.
  [[nodiscard]] obs::RunManifest manifest(const std::string& harness) const;

 private:
  void publish_ckpt_metrics();
  void publish_telemetry_metrics();
  ScenarioConfig config_;
  Topology topo_;
  NetworkState net_;
  FlowSim sim_;
  ClusterTrace trace_;
  TraceCollector collector_;
  WorkloadDriver driver_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<ckpt::CheckpointManager> ckpt_;
  std::uint64_t schedule_hash_ = 0;
  TelemetryFaultSchedule telemetry_schedule_;
  std::uint64_t telemetry_hash_ = 0;
  std::unique_ptr<LossyCollection> observed_cache_;
  TelemetryMergeStats telemetry_stats_;
  bool ran_ = false;
  bool process_metrics_bound_ = false;  // codec/analysis hooks point into registry_
  std::unique_ptr<LinkUtilizationMap> util_cache_;
  obs::Registry registry_;
  double wall_seconds_ = 0;
};

}  // namespace dct
