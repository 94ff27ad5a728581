#include "trace/collector_faults.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <unordered_map>

#include "common/fnv.h"
#include "common/require.h"
#include "common/rng.h"

namespace dct {
namespace {

// Substream selectors, disjoint from every other subsystem's fork streams.
constexpr std::uint64_t kUploadStream = 0x7E1E'0001ULL;
constexpr std::uint64_t kStragglerStream = 0x7E1E'0002ULL;
constexpr std::uint64_t kSnmpTorStream = 0x7E1E'0003ULL;
constexpr std::uint64_t kSnmpAggStream = 0x7E1E'0004ULL;

void check_prob(double p, const char* what) {
  require(p >= 0.0 && p <= 1.0, std::string("TelemetryFaultConfig: ") + what +
                                    " must be in [0, 1], got " + std::to_string(p));
}

}  // namespace

void TelemetryFaultConfig::validate() const {
  require(crash_buffer_window >= 0,
          "TelemetryFaultConfig: crash_buffer_window must be >= 0");
  check_prob(upload_loss_prob, "upload_loss_prob");
  check_prob(upload_truncate_prob, "upload_truncate_prob");
  check_prob(straggler_truncate_prob, "straggler_truncate_prob");
  check_prob(duplicate_prob, "duplicate_prob");
  check_prob(snmp_timeout_prob, "snmp_timeout_prob");
  require(upload_interval >= 0,
          "TelemetryFaultConfig: upload_interval must be >= 0");
  require(snmp_poll_interval > 0,
          "TelemetryFaultConfig: snmp_poll_interval must be > 0");
  require(snmp_counter_width == 0 ||
              (snmp_counter_width >= 16 && snmp_counter_width <= 64),
          "TelemetryFaultConfig: snmp_counter_width must be 0 or in [16, 64]");
}

TelemetryFaultSchedule generate_telemetry_schedule(
    const Topology& topo, const TelemetryFaultConfig& config,
    const std::vector<FaultEvent>& faults,
    const std::vector<DegradationEvent>& degradations, TimeSec horizon) {
  config.validate();
  require(horizon > 0, "generate_telemetry_schedule: horizon must be > 0");
  TelemetryFaultSchedule out;
  if (config.empty()) return out;
  const Rng root(config.seed);

  // Crash tail loss couples directly to the fail-stop schedule: no draws of
  // its own, so its presence never perturbs the upload/SNMP substreams.
  if (config.crash_buffer_window > 0) {
    for (const FaultEvent& e : faults) {
      if (e.device != DeviceKind::kServer) continue;
      if (e.start <= 0 || e.start >= horizon) continue;
      out.gaps.push_back({ServerId{e.entity},
                          std::max<TimeSec>(0.0, e.start - config.crash_buffer_window),
                          e.start, GapCause::kCrashTailLoss});
    }
  }

  // Upload fates: one substream per server, with a fixed draw order so each
  // knob reads its own value regardless of the others' settings.
  for (std::int32_t s = 0; s < topo.server_count(); ++s) {
    Rng rng = root.fork(kUploadStream).fork(static_cast<std::uint64_t>(s));
    if (config.upload_interval <= 0) {
      // One-shot end-of-run collection: one upload per server, and any
      // loss or truncation opens a gap running to the horizon.
      UploadPlan plan;
      plan.server = ServerId{s};
      plan.lost = rng.bernoulli(config.upload_loss_prob);
      const bool truncate_draw = rng.bernoulli(config.upload_truncate_prob);
      const TimeSec cut = rng.uniform(0.0, horizon);
      plan.duplicated = rng.bernoulli(config.duplicate_prob);
      if (plan.lost) {
        out.gaps.push_back({plan.server, 0.0, horizon, GapCause::kUploadLost});
      } else if (truncate_draw) {
        plan.truncated = true;
        plan.truncate_at = cut;
        out.gaps.push_back({plan.server, cut, horizon, GapCause::kUploadTruncated});
      }
      if (plan.lost || plan.truncated || plan.duplicated) {
        out.uploads.push_back(plan);
      }
      continue;
    }
    // Periodic collection: each server ships chunks on its own staggered
    // grid (a uniform phase offset, so uploads don't synchronize into
    // collector hot spots and chunk boundaries don't align with analysis
    // windows), and every chunk draws its fate independently.
    const TimeSec offset = rng.uniform(0.0, config.upload_interval);
    TimeSec lo = 0.0;
    for (TimeSec hi = offset > 0 ? std::min(offset, horizon) : horizon; lo < horizon;
         lo = hi, hi = std::min(hi + config.upload_interval, horizon)) {
      UploadPlan plan;
      plan.server = ServerId{s};
      plan.chunk_start = lo;
      plan.chunk_end = hi;
      plan.lost = rng.bernoulli(config.upload_loss_prob);
      const bool truncate_draw = rng.bernoulli(config.upload_truncate_prob);
      const TimeSec cut = rng.uniform(lo, hi);
      plan.duplicated = rng.bernoulli(config.duplicate_prob);
      if (plan.lost) {
        out.gaps.push_back({plan.server, lo, hi, GapCause::kUploadLost});
      } else if (truncate_draw) {
        plan.truncated = true;
        plan.truncate_at = cut;
        out.gaps.push_back({plan.server, cut, hi, GapCause::kUploadTruncated});
      }
      if (plan.lost || plan.truncated || plan.duplicated) {
        out.uploads.push_back(plan);
      }
    }
  }

  // Straggler episodes: the slowed server's upload misses the merge
  // deadline, losing everything it finalized after the episode began.
  // Under periodic collection the damage is bounded: once the episode ends
  // the uploads catch back up, so only the episode's own chunks are late.
  if (config.straggler_truncate_prob > 0) {
    std::unordered_map<std::int32_t, std::uint64_t> episode_index;
    for (const DegradationEvent& e : degradations) {
      if (e.kind != DegradationKind::kServerStraggler) continue;
      const std::uint64_t k = episode_index[e.entity]++;
      Rng rng = root.fork(kStragglerStream)
                    .fork(static_cast<std::uint64_t>(e.entity))
                    .fork(k);
      if (!rng.bernoulli(config.straggler_truncate_prob)) continue;
      if (e.start <= 0 || e.start >= horizon) continue;
      const TimeSec gap_end = config.upload_interval > 0
                                  ? std::min(std::max(e.end, e.start), horizon)
                                  : horizon;
      if (gap_end <= e.start) continue;
      out.gaps.push_back(
          {ServerId{e.entity}, e.start, gap_end, GapCause::kUploadTruncated});
    }
  }

  // SNMP poll timeouts: one substream per switch, one draw per poll.
  if (config.snmp_timeout_prob > 0) {
    // The poll count is cast to size_t; an out-of-range cast is undefined.
    require(horizon / config.snmp_poll_interval < 0x1p63,
            "generate_telemetry_schedule: horizon / snmp_poll_interval overflows "
            "the poll count");
    const auto last_poll = static_cast<std::size_t>(
        std::ceil(horizon / config.snmp_poll_interval));
    const auto draw_switch = [&](DeviceKind device, std::int32_t entity,
                                 std::uint64_t stream) {
      Rng rng = root.fork(stream).fork(static_cast<std::uint64_t>(entity));
      for (std::size_t p = 1; p <= last_poll; ++p) {
        if (!rng.bernoulli(config.snmp_timeout_prob)) continue;
        out.snmp_timeouts.push_back(
            {device, entity,
             static_cast<TimeSec>(p) * config.snmp_poll_interval});
      }
    };
    for (std::int32_t r = 0; r < topo.rack_count(); ++r) {
      draw_switch(DeviceKind::kTor, r, kSnmpTorStream);
    }
    for (std::int32_t a = 0; a < topo.agg_count(); ++a) {
      draw_switch(DeviceKind::kAgg, a, kSnmpAggStream);
    }
  }

  // Counter resets couple to switch crashes: the counter restarts when the
  // switch comes back (the repair time).
  if (config.counter_reset_on_reboot) {
    for (const FaultEvent& e : faults) {
      if (e.device != DeviceKind::kTor && e.device != DeviceKind::kAgg) continue;
      if (e.end <= 0 || e.end >= horizon) continue;
      out.counter_resets.push_back({e.device, e.entity, e.end});
    }
  }

  std::sort(out.gaps.begin(), out.gaps.end(),
            [](const GapRecord& a, const GapRecord& b) {
              return std::make_tuple(a.server.value(), a.start, a.end) <
                     std::make_tuple(b.server.value(), b.start, b.end);
            });
  return out;
}

std::uint64_t telemetry_schedule_hash(const TelemetryFaultSchedule& schedule) {
  if (schedule.empty()) return 0;
  Fingerprint fp(kScheduleHashBasis);
  const auto mix_time = [&fp](TimeSec t) {
    fp.u64(static_cast<std::uint64_t>(std::llround(t * 1e6)));
  };
  for (const GapRecord& g : schedule.gaps) {
    fp.u64(0x6A);
    fp.u64(static_cast<std::uint64_t>(g.server.value()));
    mix_time(g.start);
    mix_time(g.end);
    fp.u64(static_cast<std::uint64_t>(g.cause));
  }
  for (const UploadPlan& u : schedule.uploads) {
    fp.u64(0x0B);
    fp.u64(static_cast<std::uint64_t>(u.server.value()));
    fp.u64(static_cast<std::uint64_t>((u.lost ? 1 : 0) | (u.truncated ? 2 : 0) |
                                      (u.duplicated ? 4 : 0)));
    mix_time(u.truncate_at);
    mix_time(u.chunk_start);
    mix_time(u.chunk_end);
  }
  for (const SnmpTimeoutEvent& t : schedule.snmp_timeouts) {
    fp.u64(0x50);
    fp.u64(static_cast<std::uint64_t>(t.device));
    fp.u64(static_cast<std::uint64_t>(t.entity));
    mix_time(t.time);
  }
  for (const CounterResetEvent& c : schedule.counter_resets) {
    fp.u64(0xCE);
    fp.u64(static_cast<std::uint64_t>(c.device));
    fp.u64(static_cast<std::uint64_t>(c.entity));
    mix_time(c.time);
  }
  return fp.value();
}

LossyCollection apply_telemetry_faults(const ClusterTrace& full,
                                       const TelemetryFaultSchedule& schedule) {
  LossyCollection out{ClusterTrace(full.server_count(), full.duration()), {}};

  // Gaps are re-emitted with per-gap lost-record counts (the sequence-number
  // discontinuity a real collector reads off each server's log stream).
  std::vector<GapRecord> gaps_out = schedule.gaps;
  std::vector<std::vector<std::size_t>> server_gaps(
      static_cast<std::size_t>(full.server_count()));

  // Per-server merged drop intervals: a record is lost when it finalized
  // (end time) inside one.
  std::vector<std::vector<std::pair<TimeSec, TimeSec>>> drops(
      static_cast<std::size_t>(full.server_count()));
  for (std::size_t i = 0; i < gaps_out.size(); ++i) {
    const GapRecord& g = gaps_out[i];
    require(g.server.valid() && g.server.value() < full.server_count(),
            "apply_telemetry_faults: gap server out of range");
    drops[static_cast<std::size_t>(g.server.value())].emplace_back(g.start, g.end);
    server_gaps[static_cast<std::size_t>(g.server.value())].push_back(i);
  }
  // Overlapping gaps both "contain" a record; attributing it to the first
  // containing gap keeps per-server totals exact, which is all the analysis
  // side consumes (it sums counts over each merged coverage hole).
  const auto charge_gap = [&](ServerId s, TimeSec end) {
    for (const std::size_t i : server_gaps[static_cast<std::size_t>(s.value())]) {
      GapRecord& g = gaps_out[i];
      if (end >= g.start && end < g.end) {
        ++g.records_lost;
        return;
      }
    }
  };
  for (auto& intervals : drops) {
    std::sort(intervals.begin(), intervals.end());
    std::vector<std::pair<TimeSec, TimeSec>> merged;
    for (const auto& [lo, hi] : intervals) {
      if (!merged.empty() && lo <= merged.back().second) {
        merged.back().second = std::max(merged.back().second, hi);
      } else {
        merged.emplace_back(lo, hi);
      }
    }
    intervals = std::move(merged);
  }
  const auto dropped = [&](ServerId s, TimeSec end) {
    for (const auto& [lo, hi] : drops[static_cast<std::size_t>(s.value())]) {
      if (end < lo) return false;
      if (end < hi) return true;
    }
    return false;
  };

  // Per-server intervals whose upload arrived twice (chunk_end == 0 means
  // the whole run: one-shot collection duplicates everything).
  std::vector<std::vector<std::pair<TimeSec, TimeSec>>> dup_intervals(
      static_cast<std::size_t>(full.server_count()));
  for (const UploadPlan& u : schedule.uploads) {
    require(u.server.valid() && u.server.value() < full.server_count(),
            "apply_telemetry_faults: upload server out of range");
    if (u.duplicated) {
      dup_intervals[static_cast<std::size_t>(u.server.value())].emplace_back(
          u.chunk_start, u.chunk_end > 0
                             ? u.chunk_end
                             : std::numeric_limits<TimeSec>::infinity());
    }
    if (u.lost) ++out.stats.uploads_lost;
    if (u.truncated) ++out.stats.uploads_truncated;
    if (u.duplicated) ++out.stats.uploads_duplicated;
  }
  const auto duplicated = [&](ServerId s, TimeSec end) {
    for (const auto& [lo, hi] : dup_intervals[static_cast<std::size_t>(s.value())]) {
      if (end >= lo && end < hi) return true;
    }
    return false;
  };

  // One pass decides both copies of each flow: the send copy in src's log
  // and the receive copy in dst's, each with the flow's own fields and end
  // time (collector_faults.h says why that is exact).  The merged record is
  // those fields, whichever copy survived: peer recovery.
  std::vector<FlowRecord> unified;
  unified.reserve(full.flows().size());
  for (const SocketFlowLog& f : full.flows()) {
    const auto survives = [&](ServerId s) {
      if (dropped(s, f.end)) {
        ++out.stats.records_lost;
        charge_gap(s, f.end);
        return false;
      }
      if (duplicated(s, f.end)) ++out.stats.duplicates_dropped;
      return true;
    };
    const bool have_send = survives(f.local);
    const bool have_recv = survives(f.peer);
    if (!have_send && !have_recv) {
      ++out.stats.flows_lost;
      continue;
    }
    if (!have_send) ++out.stats.flows_recovered;
    FlowRecord rec;
    rec.id = f.flow;
    rec.src = f.local;
    rec.dst = f.peer;
    rec.start = f.start;
    rec.end = f.end;
    rec.bytes_sent = f.bytes;
    rec.bytes_requested = f.bytes_requested;
    rec.failed = f.failed;
    rec.truncated = f.truncated;
    rec.job = f.job;
    rec.phase = f.phase;
    rec.kind = f.kind;
    unified.push_back(rec);
  }
  // The original global finalization order is unrecoverable from partial
  // uploads; the merge emits the canonical (end, flow id, src) order so the
  // result is a deterministic function of what survived.
  std::sort(unified.begin(), unified.end(),
            [](const FlowRecord& a, const FlowRecord& b) {
              return std::make_tuple(a.end, a.id.value(), a.src.value()) <
                     std::make_tuple(b.end, b.id.value(), b.src.value());
            });
  for (const FlowRecord& rec : unified) out.trace.record_flow(rec);

  for (const GapRecord& g : gaps_out) out.trace.record_gap(g);

  // Application logs are centrally collected (job scheduler / cosmos store),
  // not uploaded from servers: they pass through untouched.
  for (const auto& j : full.jobs()) out.trace.record_job(j);
  for (const auto& p : full.phase_logs()) out.trace.record_phase(p);
  for (const auto& rf : full.read_failures()) out.trace.record_read_failure(rf);
  for (const auto& e : full.evacuations()) out.trace.record_evacuation(e);
  for (const auto& d : full.device_failures()) out.trace.record_device_failure(d);
  for (const auto& d : full.degradations()) out.trace.record_degradation(d);
  for (const auto& c : full.cascades()) out.trace.record_cascade(c);
  out.trace.build_indices();
  return out;
}

void apply_snmp_faults(SnmpCounters& counters, const Topology& topo,
                       const TelemetryFaultSchedule& schedule) {
  // Interfaces polled on one switch.  ToR interfaces are the rack's
  // uplink/downlink pair (the links §4.2's congestion analysis watches);
  // agg interfaces are the core uplink pair.
  const auto switch_links = [&](DeviceKind device, std::int32_t entity) {
    std::vector<LinkId> links;
    if (device == DeviceKind::kTor) {
      const RackId r{entity};
      links.push_back(topo.tor_up_link(r));
      links.push_back(topo.tor_down_link(r));
      if (topo.has_redundant_uplinks()) {
        links.push_back(topo.tor_up2_link(r));
        links.push_back(topo.tor_down2_link(r));
      }
    } else if (device == DeviceKind::kAgg) {
      links.push_back(topo.agg_up_link(entity));
      links.push_back(topo.agg_down_link(entity));
    }
    return links;
  };

  for (const SnmpTimeoutEvent& t : schedule.snmp_timeouts) {
    // The schedule's poll grid need not match the collector's; the timeout
    // lands on the poller's nearest poll.
    const auto poll = static_cast<std::size_t>(std::clamp<long long>(
        std::llround(t.time / counters.poll_interval()), 0,
        static_cast<long long>(counters.poll_count()) - 1));
    if (poll == 0) continue;  // the t=0 sample is definitionally present
    for (const LinkId l : switch_links(t.device, t.entity)) {
      counters.invalidate_poll(l, poll);
    }
  }
  for (const CounterResetEvent& c : schedule.counter_resets) {
    for (const LinkId l : switch_links(c.device, c.entity)) {
      counters.reset_counter(l, c.time);
    }
  }
}

}  // namespace dct
