// FaultInjector: replays a fault schedule onto a running simulation.
//
// At each event's start time the injector marks the device down in the
// NetworkState, notifies the workload layer (server crashes only — the
// workload re-executes vertices and re-replicates blocks via the handlers
// wired up by ClusterExperiment), asks the flow simulator to kill or
// reroute in-flight flows whose path died, and appends a
// DeviceFailureRecord to the trace with the observed blast radius.  At the
// event's end time the device is repaired and, for servers, the recovery
// handler fires.
//
// The injector is decoupled from dct_workload by design: it only knows
// std::function handlers, so the dependency chain stays acyclic
// (faults -> {topology, flowsim, trace}; core wires faults <-> workload).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "faults/cascade.h"
#include "faults/degradation.h"
#include "faults/fault_schedule.h"
#include "flowsim/flowsim.h"
#include "obs/obs.h"
#include "topology/network_state.h"
#include "trace/cluster_trace.h"

namespace dct {

class FaultInjector {
 public:
  using ServerHandler = std::function<void(ServerId)>;
  /// (server, slowdown factor > 1): the server entered a straggler episode.
  using StragglerHandler = std::function<void(ServerId, double)>;

  /// `trace` may be null (no failure records kept).  All references must
  /// outlive the simulation run.
  FaultInjector(FlowSim& sim, NetworkState& net, ClusterTrace* trace);

  /// Called right after a server is marked down and before in-flight flows
  /// are killed; the workload re-executes the victim's vertices and starts
  /// re-replication.
  void set_server_crash_handler(ServerHandler h) { on_server_crash_ = std::move(h); }
  /// Called right after a server is repaired and marked up.
  void set_server_recovery_handler(ServerHandler h) {
    on_server_recovery_ = std::move(h);
  }
  /// Called when a server enters a straggler episode; the workload scales
  /// subsequent service times on that server by the slowdown factor.
  void set_straggler_handler(StragglerHandler h) { on_straggler_ = std::move(h); }
  /// Called when a straggler episode ends and service times recover.
  void set_straggler_clear_handler(ServerHandler h) {
    on_straggler_clear_ = std::move(h);
  }

  /// Schedules every event onto the simulator.  Call once, before
  /// FlowSim::run().  Events starting at or after the horizon never fire.
  void install(std::vector<FaultEvent> schedule);

  /// Schedules every degradation episode onto the simulator.  Call once,
  /// before FlowSim::run().  Capacity/lossy episodes throttle the link via
  /// the FlowSim effective-capacity overlay; flap episodes toggle the link
  /// fully down and up (killing or rerouting in-flight flows on each down
  /// transition); straggler episodes fire the straggler handlers.
  void install_degradations(std::vector<DegradationEvent> schedule);

  /// Arms the overload-cascade monitor (faults/cascade.h): polls link
  /// utilization every `check_interval` and probabilistically trips
  /// secondary lossy degradations on links sustaining overload, with chain
  /// depth capped at `config.max_depth`.  Call once, before FlowSim::run();
  /// a no-op for an empty config (nothing scheduled, nothing drawn).
  void enable_cascades(const CascadeConfig& config);

  /// Faults actually applied (excludes overlaps on already-down devices).
  [[nodiscard]] std::size_t injected() const noexcept { return injected_; }
  /// Faults skipped because the device was already down when they fired.
  [[nodiscard]] std::size_t skipped() const noexcept { return skipped_; }
  /// Degradation episodes applied (excludes overlaps on busy entities).
  [[nodiscard]] std::size_t degradations_injected() const noexcept {
    return degradations_injected_;
  }
  /// Degradation episodes dropped because the entity was already degraded.
  [[nodiscard]] std::size_t degradations_skipped() const noexcept {
    return degradations_skipped_;
  }
  /// Individual link-down/link-up transitions applied by flap episodes.
  [[nodiscard]] std::size_t flap_transitions() const noexcept {
    return flap_transitions_;
  }
  /// Overload-cascade trips actually injected.
  [[nodiscard]] std::size_t cascade_trips() const noexcept { return cascade_trips_; }
  /// Eligible trips suppressed by the depth cap.
  [[nodiscard]] std::size_t cascades_suppressed() const noexcept {
    return cascades_suppressed_;
  }
  /// Deepest cascade chain observed (0 when no trip ever fired; never
  /// exceeds CascadeConfig::max_depth by construction).
  [[nodiscard]] std::int32_t max_cascade_depth_observed() const noexcept {
    return max_cascade_depth_observed_;
  }

  /// Registers the injector's metrics (docs/METRICS.md, subsystem "faults")
  /// and starts feeding them.  Optional; call before install().  No-op in a
  /// DCT_OBS=OFF build.
  void bind_metrics(obs::Registry& registry);

 private:
  void inject(const FaultEvent& e);
  void repair(const FaultEvent& e);
  [[nodiscard]] bool device_down(const FaultEvent& e) const;
  void set_device_up(const FaultEvent& e, bool up);
  void inject_degradation(const DegradationEvent& e);
  void end_degradation(const DegradationEvent& e);
  void flap_cycle(const DegradationEvent& e, TimeSec cycle_start);
  void cascade_poll();
  void maybe_trip_cascade(LinkId link, double utilization);

  FlowSim& sim_;
  NetworkState& net_;
  ClusterTrace* trace_;
  ServerHandler on_server_crash_;
  ServerHandler on_server_recovery_;
  StragglerHandler on_straggler_;
  ServerHandler on_straggler_clear_;
  std::size_t injected_ = 0;
  std::size_t skipped_ = 0;
  std::size_t degradations_injected_ = 0;
  std::size_t degradations_skipped_ = 0;
  std::size_t flap_transitions_ = 0;
  // Occupancy guards: at most one active degradation per link / server, so
  // overlapping episodes never fight over the capacity overlay or the
  // straggler factor.  Sized lazily on install_degradations().
  std::vector<std::uint8_t> link_degraded_;
  std::vector<std::uint8_t> server_straggling_;

  // Cascade-monitor state; all empty/zero until enable_cascades().
  CascadeConfig cascade_cfg_;
  bool cascades_enabled_ = false;
  Rng cascade_rng_{0};
  std::vector<LinkId> monitored_links_;       // inter-switch fabric
  std::vector<TimeSec> above_since_;          // per link, -1 = below threshold
  std::vector<std::int32_t> cascade_depth_;   // per link, 0 = no active cascade
  std::vector<double> rate_snapshot_;         // scratch for snapshot_link_rates
  std::size_t cascade_trips_ = 0;
  std::size_t cascades_suppressed_ = 0;
  std::int32_t max_cascade_depth_observed_ = 0;

  // Self-instrumentation handles; null until bind_metrics() (obs/obs.h).
  obs::Counter* m_injected_ = nullptr;
  obs::Counter* m_skipped_ = nullptr;
  obs::Counter* m_link_incidents_ = nullptr;
  obs::Counter* m_server_incidents_ = nullptr;
  obs::Counter* m_tor_incidents_ = nullptr;
  obs::Counter* m_agg_incidents_ = nullptr;
  obs::Histogram* m_repair_s_ = nullptr;
  obs::Counter* m_degradations_injected_ = nullptr;
  obs::Counter* m_degradations_skipped_ = nullptr;
  obs::Counter* m_flap_transitions_ = nullptr;
  obs::Histogram* m_degraded_link_s_ = nullptr;
  obs::Histogram* m_straggler_s_ = nullptr;
  obs::Counter* m_cascade_trips_ = nullptr;
  obs::Counter* m_cascades_suppressed_ = nullptr;
  obs::Gauge* m_cascade_depth_ = nullptr;
};

}  // namespace dct
