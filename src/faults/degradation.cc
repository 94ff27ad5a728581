#include "faults/degradation.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>

#include "common/fnv.h"
#include "common/require.h"
#include "common/rng.h"
#include "faults/fault_domain.h"

namespace dct {

namespace {

void require_rate(double value, const char* what) {
  require(value >= 0, std::string(what) + " must be >= 0, got " + std::to_string(value));
}

void require_duration(double value, const char* what) {
  require(value > 0, std::string(what) + " must be > 0, got " + std::to_string(value));
}

void require_severity_band(double floor, double ceil, const char* what) {
  require(floor > 0 && ceil < 1 && floor <= ceil,
          std::string(what) + " must satisfy 0 < floor <= ceil < 1, got [" +
              std::to_string(floor) + ", " + std::to_string(ceil) + "]");
}

}  // namespace

void DegradationConfig::validate() const {
  require_rate(link_capacity_rate, "DegradationConfig: link_capacity_rate");
  require_rate(link_flap_rate, "DegradationConfig: link_flap_rate");
  require_rate(link_lossy_rate, "DegradationConfig: link_lossy_rate");
  require_rate(straggler_rate, "DegradationConfig: straggler_rate");
  require_rate(tor_domain_rate, "DegradationConfig: tor_domain_rate");
  require_rate(vlan_domain_rate, "DegradationConfig: vlan_domain_rate");
  require_duration(link_capacity_mean_duration,
                   "DegradationConfig: link_capacity_mean_duration");
  require_duration(link_flap_mean_duration, "DegradationConfig: link_flap_mean_duration");
  require_duration(link_lossy_mean_duration, "DegradationConfig: link_lossy_mean_duration");
  require_duration(straggler_mean_duration, "DegradationConfig: straggler_mean_duration");
  require_duration(tor_domain_mean_duration, "DegradationConfig: tor_domain_mean_duration");
  require_duration(vlan_domain_mean_duration,
                   "DegradationConfig: vlan_domain_mean_duration");
  require_rate(domain_burst_jitter, "DegradationConfig: domain_burst_jitter");
  require_severity_band(link_capacity_floor, link_capacity_ceil,
                        "DegradationConfig: capacity severity");
  require_severity_band(link_lossy_floor, link_lossy_ceil,
                        "DegradationConfig: lossy severity");
  require_severity_band(domain_severity_floor, domain_severity_ceil,
                        "DegradationConfig: domain severity");
  // The period floor bounds the number of down/up transitions one flap
  // episode can schedule.
  require(link_flap_period_min >= 0.5 && link_flap_period_min <= link_flap_period_max,
          "DegradationConfig: flap period must satisfy 0.5 <= min <= max");
  require(link_flap_duty_min > 0 && link_flap_duty_max < 1 &&
              link_flap_duty_min <= link_flap_duty_max,
          "DegradationConfig: flap duty cycle must satisfy 0 < min <= max < 1");
  require(straggler_slowdown_min >= 1 &&
              straggler_slowdown_min <= straggler_slowdown_max,
          "DegradationConfig: straggler slowdown must satisfy 1 <= min <= max");
}

namespace {

// Substream spacing: one stream per (degradation kind, entity) pair, same
// discipline as the fail-stop generator.
constexpr std::uint64_t kStreamStride = 1u << 20;

// Renewal process for one entity: exponential healthy gaps at `rate` per
// hour, exponential episodes with mean `mean_duration`, severity (and flap
// period) drawn per episode from the same substream.
void emit_entity(const Rng& base, std::uint64_t stream, double rate_per_hour,
                 TimeSec mean_duration, TimeSec horizon, DegradationKind kind,
                 std::int32_t entity, const DegradationConfig& cfg,
                 std::vector<DegradationEvent>& out) {
  Rng rng = base.fork(stream);
  const double mean_gap = 3600.0 / rate_per_hour;
  TimeSec t = rng.exponential(mean_gap);
  while (t < horizon) {
    // Floor episodes at 1 ms so every event has strictly positive duration.
    const TimeSec duration = std::max(1e-3, rng.exponential(mean_duration));
    DegradationEvent e;
    e.start = t;
    e.end = t + duration;
    e.kind = kind;
    e.entity = entity;
    switch (kind) {
      case DegradationKind::kLinkCapacity:
        e.severity = rng.uniform(cfg.link_capacity_floor, cfg.link_capacity_ceil);
        break;
      case DegradationKind::kLinkFlap:
        e.severity = rng.uniform(cfg.link_flap_duty_min, cfg.link_flap_duty_max);
        e.period = rng.uniform(cfg.link_flap_period_min, cfg.link_flap_period_max);
        break;
      case DegradationKind::kLinkLossy:
        e.severity = rng.uniform(cfg.link_lossy_floor, cfg.link_lossy_ceil);
        break;
      case DegradationKind::kServerStraggler:
        e.severity = rng.uniform(cfg.straggler_slowdown_min, cfg.straggler_slowdown_max);
        break;
    }
    out.push_back(e);
    t = e.end + rng.exponential(mean_gap);
  }
}

// Renewal process for one link *domain*: domain-level events at
// `rate_per_hour`, each expanding into one kLinkLossy episode per member
// link.  Members share the event's duration; each draws its own severity
// from the domain band and a start jittered inside [t, t + jitter), in the
// domain's fixed member order.  The next domain event starts after the
// whole burst window has cleared, so one domain never overlaps itself.
void emit_domain(const Rng& base, std::uint64_t stream, const FaultDomain& domain,
                 double rate_per_hour, TimeSec mean_duration, TimeSec horizon,
                 const DegradationConfig& cfg, std::vector<DegradationEvent>& out) {
  Rng rng = base.fork(stream);
  const double mean_gap = 3600.0 / rate_per_hour;
  const TimeSec jitter = cfg.domain_burst_jitter;
  TimeSec t = rng.exponential(mean_gap);
  while (t < horizon) {
    const TimeSec duration = std::max(1e-3, rng.exponential(mean_duration));
    for (const FaultDomainMember& m : domain.members) {
      const TimeSec start = t + (jitter > 0 ? rng.uniform(0.0, jitter) : 0.0);
      const double severity =
          rng.uniform(cfg.domain_severity_floor, cfg.domain_severity_ceil);
      if (start >= horizon) continue;  // draws made either way: stream stays aligned
      DegradationEvent e;
      e.start = start;
      e.end = start + duration;
      e.kind = DegradationKind::kLinkLossy;
      e.entity = m.entity;
      e.severity = severity;
      out.push_back(e);
    }
    t = t + jitter + duration + rng.exponential(mean_gap);
  }
}

}  // namespace

DegradationModel::DegradationModel(DegradationConfig config) : config_(config) {
  config_.validate();
}

std::vector<DegradationEvent> DegradationModel::schedule(const Topology& topo,
                                                         TimeSec horizon) const {
  require(horizon > 0, "DegradationModel::schedule: horizon must be > 0");
  std::vector<DegradationEvent> out;
  if (config_.empty()) return out;

  const Rng base(config_.seed);
  const auto link_stream = [](DegradationKind kind, LinkId l) {
    return static_cast<std::uint64_t>(kind) * kStreamStride +
           static_cast<std::uint64_t>(l.value());
  };
  // Throttle / loss episodes can hit ANY link, including server access
  // links — a NIC auto-negotiating down or a bad cable is the classic gray
  // failure, and it is what makes one replica of a block slow while the
  // others stay fast (the case hedged reads exist for).  Flaps stay on the
  // inter-switch fabric like fail-stop flaps: a flapping access link
  // presents as a flapping server, which is fail-stop territory.
  if (config_.link_capacity_rate > 0) {
    for (std::int32_t l = 0; l < topo.link_count(); ++l) {
      emit_entity(base, link_stream(DegradationKind::kLinkCapacity, LinkId{l}),
                  config_.link_capacity_rate, config_.link_capacity_mean_duration,
                  horizon, DegradationKind::kLinkCapacity, l, config_, out);
    }
  }
  if (config_.link_flap_rate > 0) {
    for (LinkId l : topo.inter_switch_links()) {
      emit_entity(base, link_stream(DegradationKind::kLinkFlap, l),
                  config_.link_flap_rate, config_.link_flap_mean_duration, horizon,
                  DegradationKind::kLinkFlap, l.value(), config_, out);
    }
  }
  if (config_.link_lossy_rate > 0) {
    for (std::int32_t l = 0; l < topo.link_count(); ++l) {
      emit_entity(base, link_stream(DegradationKind::kLinkLossy, LinkId{l}),
                  config_.link_lossy_rate, config_.link_lossy_mean_duration, horizon,
                  DegradationKind::kLinkLossy, l, config_, out);
    }
  }
  if (config_.straggler_rate > 0) {
    for (std::int32_t s = 0; s < topo.internal_server_count(); ++s) {
      emit_entity(base,
                  static_cast<std::uint64_t>(DegradationKind::kServerStraggler) *
                          kStreamStride +
                      static_cast<std::uint64_t>(s),
                  config_.straggler_rate, config_.straggler_mean_duration, horizon,
                  DegradationKind::kServerStraggler, s, config_, out);
    }
  }
  // Domain streams live above the four per-kind strides (kinds 0..3), so
  // enabling them never perturbs the i.i.d. draws.
  if (config_.tor_domain_rate > 0) {
    for (const FaultDomain& d :
         build_fault_domains(topo, FaultDomainKind::kTorUplinks)) {
      emit_domain(base, 4 * kStreamStride + static_cast<std::uint64_t>(d.id), d,
                  config_.tor_domain_rate, config_.tor_domain_mean_duration, horizon,
                  config_, out);
    }
  }
  if (config_.vlan_domain_rate > 0) {
    for (const FaultDomain& d : build_fault_domains(topo, FaultDomainKind::kAggVlan)) {
      emit_domain(base, 5 * kStreamStride + static_cast<std::uint64_t>(d.id), d,
                  config_.vlan_domain_rate, config_.vlan_domain_mean_duration, horizon,
                  config_, out);
    }
  }

  std::sort(out.begin(), out.end(),
            [](const DegradationEvent& a, const DegradationEvent& b) {
              return std::tie(a.start, a.kind, a.entity) <
                     std::tie(b.start, b.kind, b.entity);
            });
  return out;
}

std::vector<DegradationEvent> generate_degradation_schedule(
    const Topology& topo, const DegradationConfig& config, TimeSec horizon) {
  return DegradationModel(config).schedule(topo, horizon);
}

std::uint64_t schedule_hash(const std::vector<FaultEvent>& faults,
                            const std::vector<DegradationEvent>& degradations) {
  if (faults.empty() && degradations.empty()) return 0;
  Fingerprint fp(kScheduleHashBasis);
  const auto mix_time = [&fp](TimeSec t) {
    fp.u64(static_cast<std::uint64_t>(std::llround(t * 1e6)));
  };
  for (const FaultEvent& e : faults) {
    fp.u64(0xFA);
    mix_time(e.start);
    mix_time(e.end);
    fp.u64(static_cast<std::uint64_t>(e.device));
    fp.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(e.entity)));
  }
  for (const DegradationEvent& e : degradations) {
    fp.u64(0xDE);
    mix_time(e.start);
    mix_time(e.end);
    fp.u64(static_cast<std::uint64_t>(e.kind));
    fp.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(e.entity)));
    fp.u64(static_cast<std::uint64_t>(std::llround(e.severity * 1e6)));
    mix_time(e.period);
  }
  const std::uint64_t h = fp.value();
  return h != 0 ? h : 1;  // 0 stays reserved for "no schedule"
}

}  // namespace dct
