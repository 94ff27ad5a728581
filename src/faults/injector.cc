#include "faults/injector.h"

#include <algorithm>

#include "common/require.h"

namespace dct {

FaultInjector::FaultInjector(FlowSim& sim, NetworkState& net, ClusterTrace* trace)
    : sim_(sim), net_(net), trace_(trace) {}

bool FaultInjector::device_down(const FaultEvent& e) const {
  switch (e.device) {
    case DeviceKind::kServer: return !net_.server_up(ServerId{e.entity});
    case DeviceKind::kTor: return !net_.tor_up(RackId{e.entity});
    case DeviceKind::kAgg: return !net_.agg_up(e.entity);
    case DeviceKind::kLink: return !net_.link_up(LinkId{e.entity});
  }
  return false;
}

void FaultInjector::set_device_up(const FaultEvent& e, bool up) {
  switch (e.device) {
    case DeviceKind::kServer: net_.set_server_up(ServerId{e.entity}, up); return;
    case DeviceKind::kTor: net_.set_tor_up(RackId{e.entity}, up); return;
    case DeviceKind::kAgg: net_.set_agg_up(e.entity, up); return;
    case DeviceKind::kLink: net_.set_link_up(LinkId{e.entity}, up); return;
  }
}

void FaultInjector::inject(const FaultEvent& e) {
  // An overlapping schedule entry on an already-down device is dropped
  // whole: applying it would double-book the repair.
  if (device_down(e)) {
    ++skipped_;
    DCT_OBS_INC(m_skipped_);
    return;
  }
#if DCT_OBS_ENABLED
  switch (e.device) {
    case DeviceKind::kLink: DCT_OBS_INC(m_link_incidents_); break;
    case DeviceKind::kServer: DCT_OBS_INC(m_server_incidents_); break;
    case DeviceKind::kTor: DCT_OBS_INC(m_tor_incidents_); break;
    case DeviceKind::kAgg: DCT_OBS_INC(m_agg_incidents_); break;
  }
  DCT_OBS_OBSERVE(m_repair_s_, e.end - e.start);
#endif
  set_device_up(e, false);
  // Workload reacts first (epoch bumps, re-execution, re-replication) so
  // its recovery flows route around the fault; then the simulator sweeps
  // in-flight flows whose path died.
  if (e.device == DeviceKind::kServer && on_server_crash_) {
    on_server_crash_(ServerId{e.entity});
  }
  const FlowSim::NetworkChangeStats stats = sim_.handle_network_change();
  if (trace_ != nullptr) {
    DeviceFailureRecord rec;
    rec.start = e.start;
    rec.end = e.end;
    rec.device = e.device;
    rec.entity = e.entity;
    rec.flows_killed = stats.flows_killed;
    rec.flows_rerouted = stats.flows_rerouted;
    trace_->record_device_failure(rec);
  }
  ++injected_;
  DCT_OBS_INC(m_injected_);
  sim_.at(e.end, [this, e](FlowSim&) { repair(e); });
}

void FaultInjector::repair(const FaultEvent& e) {
  set_device_up(e, true);
  if (e.device == DeviceKind::kServer && on_server_recovery_) {
    on_server_recovery_(ServerId{e.entity});
  }
  // Repairs never sever a live path, so no sweep is needed: flows that
  // failed over stay on their backup path, new flows prefer the restored
  // primary at the next route computation.
}

void FaultInjector::inject_degradation(const DegradationEvent& e) {
  const bool is_link = e.kind != DegradationKind::kServerStraggler;
  const auto slot = static_cast<std::size_t>(e.entity);
  std::uint8_t& busy = is_link ? link_degraded_[slot] : server_straggling_[slot];
  // One active degradation per entity: an overlapping episode is dropped
  // whole, like an overlapping fail-stop event on a down device.
  if (busy != 0) {
    ++degradations_skipped_;
    DCT_OBS_INC(m_degradations_skipped_);
    return;
  }
  busy = 1;
  ++degradations_injected_;
  DCT_OBS_INC(m_degradations_injected_);

  const TimeSec horizon = sim_.config().end_time;
  const TimeSec active = std::min(e.end, horizon) - e.start;
  if (trace_ != nullptr) {
    DegradationRecord rec;
    rec.start = e.start;
    rec.end = e.end;
    rec.kind = e.kind;
    rec.entity = e.entity;
    rec.severity = e.severity;
    rec.period = e.period;
    trace_->record_degradation(rec);
  }
  switch (e.kind) {
    case DegradationKind::kLinkCapacity:
    case DegradationKind::kLinkLossy:
      // Both present as a throttled link: capacity loss directly, loss via
      // the goodput it destroys.  The link stays routable.
      DCT_OBS_OBSERVE(m_degraded_link_s_, active);
      sim_.set_link_capacity_factor(LinkId{e.entity}, e.severity);
      break;
    case DegradationKind::kLinkFlap:
      DCT_OBS_OBSERVE(m_degraded_link_s_, active);
      flap_cycle(e, e.start);
      break;
    case DegradationKind::kServerStraggler:
      DCT_OBS_OBSERVE(m_straggler_s_, active);
      if (on_straggler_) on_straggler_(ServerId{e.entity}, e.severity);
      break;
  }
  // Episodes running past the horizon are never repaired: the run simply
  // ends degraded, which is fine because nothing executes afterwards.
  if (e.end < horizon) {
    sim_.at(e.end, [this, e](FlowSim&) { end_degradation(e); });
  }
}

void FaultInjector::end_degradation(const DegradationEvent& e) {
  switch (e.kind) {
    case DegradationKind::kLinkCapacity:
    case DegradationKind::kLinkLossy:
      sim_.set_link_capacity_factor(LinkId{e.entity}, 1.0);
      break;
    case DegradationKind::kLinkFlap:
      // The final up-transition of flap_cycle restores the link; nothing to
      // undo here beyond freeing the occupancy slot.
      break;
    case DegradationKind::kServerStraggler:
      if (on_straggler_clear_) on_straggler_clear_(ServerId{e.entity});
      break;
  }
  if (e.kind == DegradationKind::kServerStraggler) {
    server_straggling_[static_cast<std::size_t>(e.entity)] = 0;
  } else {
    link_degraded_[static_cast<std::size_t>(e.entity)] = 0;
  }
}

void FaultInjector::flap_cycle(const DegradationEvent& e, TimeSec cycle_start) {
  // One flap period: down at cycle_start, up after the down fraction
  // (severity) of the period, next cycle one period after cycle_start.
  const TimeSec horizon = sim_.config().end_time;
  const LinkId link{e.entity};
  // A concurrent fail-stop outage may already hold the link down; then this
  // cycle neither takes it down nor brings it back up.
  const bool took_down = net_.link_up(link);
  if (took_down) {
    net_.set_link_up(link, false);
    ++flap_transitions_;
    DCT_OBS_INC(m_flap_transitions_);
    sim_.handle_network_change();
  }
  const TimeSec up_at = std::min(cycle_start + e.severity * e.period, e.end);
  if (up_at >= horizon) return;
  sim_.at(up_at, [this, e, cycle_start, took_down](FlowSim&) {
    const LinkId l{e.entity};
    if (took_down && !net_.link_up(l)) {
      net_.set_link_up(l, true);
      ++flap_transitions_;
      DCT_OBS_INC(m_flap_transitions_);
    }
    const TimeSec next = cycle_start + e.period;
    if (next < e.end && next < sim_.config().end_time) {
      sim_.at(next, [this, e, next](FlowSim&) { flap_cycle(e, next); });
    }
  });
}

void FaultInjector::enable_cascades(const CascadeConfig& config) {
  config.validate();
  if (config.empty()) return;
  cascade_cfg_ = config;
  cascades_enabled_ = true;
  cascade_rng_ = Rng(config.seed);
  const Topology& topo = sim_.topology();
  monitored_links_ = topo.inter_switch_links();
  above_since_.assign(topo.link_count(), -1.0);
  cascade_depth_.assign(topo.link_count(), 0);
  // The occupancy guard is shared with scheduled degradations; size it here
  // in case install_degradations() is never called this run.
  if (link_degraded_.empty()) link_degraded_.assign(topo.link_count(), 0);
  if (cascade_cfg_.check_interval < sim_.config().end_time) {
    sim_.at(cascade_cfg_.check_interval, [this](FlowSim&) { cascade_poll(); });
  }
}

void FaultInjector::cascade_poll() {
  const TimeSec now = sim_.now();
  sim_.snapshot_link_rates(rate_snapshot_);
  const Topology& topo = sim_.topology();
  for (LinkId l : monitored_links_) {
    const auto slot = static_cast<std::size_t>(l.value());
    const double cap = topo.link(l).capacity;
    const double util = cap > 0 ? rate_snapshot_[slot] / cap : 0.0;
    // A down link carries nothing; its overload clock resets.
    if (!net_.link_up(l) || util < cascade_cfg_.util_threshold) {
      above_since_[slot] = -1;
      continue;
    }
    if (above_since_[slot] < 0) {
      above_since_[slot] = now;
      continue;
    }
    if (now - above_since_[slot] + 1e-9 < cascade_cfg_.sustain_window) continue;
    maybe_trip_cascade(l, util);
    // Tripped, suppressed or coin said no: either way the sustained window
    // is consumed and the overload clock restarts.
    above_since_[slot] = -1;
  }
  const TimeSec next = now + cascade_cfg_.check_interval;
  if (next < sim_.config().end_time) {
    sim_.at(next, [this](FlowSim&) { cascade_poll(); });
  }
}

void FaultInjector::maybe_trip_cascade(LinkId link, double utilization) {
  const auto slot = static_cast<std::size_t>(link.value());
  // Already degraded (possibly by this very monitor): nothing left to trip.
  if (link_degraded_[slot] != 0) return;
  // This trip's depth: one deeper than the deepest induced episode still
  // active anywhere — cascades chain through the traffic they displace.
  std::int32_t deepest = 0;
  for (std::int32_t d : cascade_depth_) deepest = std::max(deepest, d);
  const std::int32_t depth = deepest + 1;
  // The cap is checked before the coin: a would-be over-deep trip is
  // suppressed without consuming a draw, so max_depth also bounds rng use.
  if (depth > cascade_cfg_.max_depth) {
    ++cascades_suppressed_;
    DCT_OBS_INC(m_cascades_suppressed_);
    return;
  }
  if (!cascade_rng_.bernoulli(cascade_cfg_.trip_probability)) return;

  const TimeSec now = sim_.now();
  DegradationEvent e;
  e.start = now;
  e.end = now + std::max(1e-3, cascade_rng_.exponential(cascade_cfg_.mean_duration));
  e.kind = DegradationKind::kLinkLossy;
  e.entity = link.value();
  e.severity =
      cascade_rng_.uniform(cascade_cfg_.severity_floor, cascade_cfg_.severity_ceil);
  inject_degradation(e);  // slot is free: never skipped

  cascade_depth_[slot] = depth;
  max_cascade_depth_observed_ = std::max(max_cascade_depth_observed_, depth);
  ++cascade_trips_;
  DCT_OBS_INC(m_cascade_trips_);
  DCT_OBS_SET(m_cascade_depth_, max_cascade_depth_observed_);
  if (trace_ != nullptr) {
    CascadeRecord rec;
    rec.start = now;
    rec.end = e.end;
    rec.link = link.value();
    rec.depth = depth;
    rec.severity = e.severity;
    rec.utilization = utilization;
    trace_->record_cascade(rec);
  }
  if (e.end < sim_.config().end_time) {
    sim_.at(e.end, [this, slot](FlowSim&) { cascade_depth_[slot] = 0; });
  }
}

void FaultInjector::bind_metrics(obs::Registry& registry) {
#if DCT_OBS_ENABLED
  m_injected_ = registry.counter("faults", "injected", "incidents");
  m_skipped_ = registry.counter("faults", "skipped", "incidents");
  m_link_incidents_ = registry.counter("faults", "link_incidents", "incidents");
  m_server_incidents_ = registry.counter("faults", "server_incidents", "incidents");
  m_tor_incidents_ = registry.counter("faults", "tor_incidents", "incidents");
  m_agg_incidents_ = registry.counter("faults", "agg_incidents", "incidents");
  m_repair_s_ = registry.histogram("faults", "repair_seconds", "s");
  m_degradations_injected_ = registry.counter("faults", "degradations_injected", "episodes");
  m_degradations_skipped_ = registry.counter("faults", "degradations_skipped", "episodes");
  m_flap_transitions_ = registry.counter("faults", "flap_transitions", "transitions");
  m_degraded_link_s_ = registry.histogram("faults", "degraded_link_seconds", "s");
  m_straggler_s_ = registry.histogram("faults", "straggler_seconds", "s");
  m_cascade_trips_ = registry.counter("faults", "cascade_trips", "trips");
  m_cascades_suppressed_ = registry.counter("faults", "cascades_suppressed", "trips");
  m_cascade_depth_ = registry.gauge("faults", "cascade_max_depth", "depth");
#else
  (void)registry;
#endif
}

void FaultInjector::install(std::vector<FaultEvent> schedule) {
  const TimeSec horizon = sim_.config().end_time;
  for (const FaultEvent& e : schedule) {
    require(e.end > e.start, "FaultInjector: event with non-positive duration");
    if (e.start >= horizon) continue;
    sim_.at(e.start, [this, e](FlowSim&) { inject(e); });
  }
}

void FaultInjector::install_degradations(std::vector<DegradationEvent> schedule) {
  const Topology& topo = sim_.topology();
  link_degraded_.assign(topo.link_count(), 0);
  server_straggling_.assign(static_cast<std::size_t>(topo.server_count()), 0);
  const TimeSec horizon = sim_.config().end_time;
  for (const DegradationEvent& e : schedule) {
    require(e.end > e.start, "FaultInjector: degradation with non-positive duration");
    const bool is_link = e.kind != DegradationKind::kServerStraggler;
    const auto limit = is_link ? topo.link_count()
                               : static_cast<std::size_t>(topo.server_count());
    require(e.entity >= 0 && static_cast<std::size_t>(e.entity) < limit,
            "FaultInjector: degradation entity out of range");
    if (is_link && e.kind != DegradationKind::kLinkFlap) {
      require(e.severity > 0 && e.severity < 1,
              "FaultInjector: link degradation severity must be in (0, 1)");
    }
    if (e.kind == DegradationKind::kLinkFlap) {
      require(e.period > 0 && e.severity > 0 && e.severity < 1,
              "FaultInjector: flap needs period > 0 and duty in (0, 1)");
    }
    if (e.kind == DegradationKind::kServerStraggler) {
      require(e.severity >= 1, "FaultInjector: straggler slowdown must be >= 1");
    }
    if (e.start >= horizon) continue;
    sim_.at(e.start, [this, e](FlowSim&) { inject_degradation(e); });
  }
}

}  // namespace dct
