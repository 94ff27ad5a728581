// Gray failures: seeded generation of *degradation* schedules.
//
// The fail-stop schedule (fault_schedule.h) models clean crashes; real
// clusters mostly suffer something murkier — links that stay up but run
// slow, links that flap, servers that keep accepting work while serving it
// at a crawl.  The paper's long-lived congestion episodes and the read
// failures that track them (§4.2, Fig. 8) are symptoms of exactly this
// class of fault.  This header turns per-entity-hour degradation rates into
// a deterministic schedule of DegradationEvents that the FaultInjector
// replays alongside fail-stop events.
//
// Like the fail-stop schedule, the output is a pure function of
// (topology, DegradationConfig, horizon): every (kind, entity) pair draws
// from its own forked rng substream, so tweaking one knob never perturbs
// another entity's episode times.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "faults/fault_schedule.h"
#include "topology/topology.h"
#include "trace/events.h"

namespace dct {

/// Degradation-process knobs.  Rates are episodes per entity per hour;
/// episode durations are exponential with the given mean.  All rates
/// default to zero: the subsystem is strictly opt-in, and an empty config
/// leaves every simulation bit-identical to a build without it.
struct DegradationConfig {
  /// Capacity-reduction episodes per *inter-switch* link per hour (e.g. a
  /// 10 Gb/s link renegotiated down to 1 Gb/s).  Severity is the remaining
  /// capacity fraction, drawn uniformly from [floor, ceil].
  double link_capacity_rate = 0.0;
  TimeSec link_capacity_mean_duration = 60.0;
  double link_capacity_floor = 0.1;
  double link_capacity_ceil = 0.5;

  /// Flapping episodes per inter-switch link per hour: the link oscillates
  /// down/up with a uniform-drawn period and duty cycle (the severity field
  /// is the fraction of each period spent *down*).  Flaps fully drop the
  /// link, so in-flight flows are killed or rerouted, not throttled.
  double link_flap_rate = 0.0;
  TimeSec link_flap_mean_duration = 30.0;
  TimeSec link_flap_period_min = 2.0;
  TimeSec link_flap_period_max = 8.0;
  double link_flap_duty_min = 0.2;
  double link_flap_duty_max = 0.6;

  /// Lossy episodes per inter-switch link per hour: persistent loss and the
  /// retransmissions it forces eat goodput.  Severity is the surviving
  /// goodput fraction, drawn uniformly from [floor, ceil].
  double link_lossy_rate = 0.0;
  TimeSec link_lossy_mean_duration = 90.0;
  double link_lossy_floor = 0.3;
  double link_lossy_ceil = 0.8;

  /// Straggler episodes per internal server per hour: the server stays up
  /// but every vertex service time (startup, disk, compute) stretches by a
  /// slowdown factor drawn uniformly from [min, max] (> 1).
  double straggler_rate = 0.0;
  TimeSec straggler_mean_duration = 120.0;
  double straggler_slowdown_min = 2.0;
  double straggler_slowdown_max = 6.0;

  /// Correlated link-domain episodes (fault_domain.h): one domain event
  /// turns EVERY uplink of the domain lossy at once.  `tor_domain_rate` is
  /// events per rack per hour over all uplink/downlink pairs of one ToR (a
  /// failing uplink linecard); `vlan_domain_rate` is events per VLAN per
  /// hour over the ToR uplinks of every rack in the VLAN (a sick
  /// aggregation VLAN).  Each member draws its own severity (surviving
  /// goodput fraction) from a fixed band (degradation.cc) and a start
  /// jittered inside [t, t + domain_burst_jitter); all members share the
  /// event's duration.
  double tor_domain_rate = 0.0;
  TimeSec tor_domain_mean_duration = 45.0;
  double vlan_domain_rate = 0.0;
  TimeSec vlan_domain_mean_duration = 60.0;
  TimeSec domain_burst_jitter = 2.0;

  /// Seed of the degradation stream, independent of the fail-stop,
  /// workload and simulator seeds.
  std::uint64_t seed = 0x6DE6ULL;

  /// True when every rate is zero — no schedule, no overlay, no handlers.
  [[nodiscard]] bool empty() const noexcept {
    return link_capacity_rate <= 0 && link_flap_rate <= 0 && link_lossy_rate <= 0 &&
           straggler_rate <= 0 && tor_domain_rate <= 0 && vlan_domain_rate <= 0;
  }

  void validate() const;
};

/// One degradation episode of one entity.  Field semantics follow
/// DegradationRecord (trace/events.h): `severity` is kind-specific and
/// `period` is nonzero only for flaps.
struct DegradationEvent {
  TimeSec start = 0;
  TimeSec end = 0;
  DegradationKind kind = DegradationKind::kLinkCapacity;
  std::int32_t entity = -1;  ///< link id, or server id for kServerStraggler
  double severity = 0.0;
  TimeSec period = 0.0;
};

/// Seeded degradation model: validates a config once and produces the
/// deterministic episode schedule for any (topology, horizon).
class DegradationModel {
 public:
  explicit DegradationModel(DegradationConfig config);

  [[nodiscard]] const DegradationConfig& config() const noexcept { return config_; }

  /// All episodes with start < `horizon`, sorted by start time (ties broken
  /// by kind, then entity).  Within one (kind, entity) the episodes never
  /// overlap; across entities they may.
  [[nodiscard]] std::vector<DegradationEvent> schedule(const Topology& topo,
                                                       TimeSec horizon) const;

 private:
  DegradationConfig config_;
};

/// Convenience wrapper mirroring generate_fault_schedule().
[[nodiscard]] std::vector<DegradationEvent> generate_degradation_schedule(
    const Topology& topo, const DegradationConfig& config, TimeSec horizon);

/// Stable 64-bit FNV-1a hash of an installed fault + degradation schedule,
/// recorded in the run manifest so runs under different fault regimes are
/// distinguishable at a glance.  0 is reserved for "no schedule at all";
/// times and severities are quantized to 1e-6 (the codec's resolution) so
/// the hash survives an encode/decode round trip.
[[nodiscard]] std::uint64_t schedule_hash(const std::vector<FaultEvent>& faults,
                                          const std::vector<DegradationEvent>& degradations);

}  // namespace dct
