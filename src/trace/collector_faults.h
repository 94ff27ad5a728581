// The measurement plane's own faults: lossy collection of the cluster trace.
//
// The paper's instrumentation is itself a distributed system running on the
// same unreliable hardware it measures ("data collected from a large
// fraction of the servers", §2 — not all of them).  A server that crashes
// loses the buffered tail of its socket log; a straggler uploads after the
// merge deadline and contributes a truncated segment; a flaky uplink drops
// a whole upload or delivers it twice; SNMP pollers time out; a rebooted
// switch restarts its byte counters from zero.  This module turns those
// failure modes into a deterministic TelemetryFaultSchedule — coupled to
// the fail-stop and degradation schedules that drive the *measured* faults
// — and applies it to a perfectly collected ClusterTrace to produce the
// trace an operator would actually have, with per-server coverage gaps
// recorded alongside (GapRecord, the trace codec's gap section).
//
// Like every other schedule in this codebase, the output is a pure function
// of (topology, config, fault events, degradation events, horizon): each
// server and switch draws from its own forked rng substream, so adding a
// rack or tweaking one probability never perturbs another entity's draws.
// An empty config produces an empty schedule, and apply_telemetry_faults is
// never called for one — the observed trace IS the collected trace,
// bit-identical to a build without this subsystem.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "faults/degradation.h"
#include "faults/fault_schedule.h"
#include "topology/topology.h"
#include "trace/cluster_trace.h"
#include "trace/snmp.h"

namespace dct {

/// Telemetry-plane failure knobs.  All probabilities default to zero: the
/// subsystem is strictly opt-in, and an empty config leaves the collected
/// trace (and its encoding) bit-identical to a perfect measurement plane.
struct TelemetryFaultConfig {
  /// Seconds of buffered-but-unflushed socket log a server crash destroys.
  /// Every kServer fault event erases [crash - window, crash) of the
  /// victim's log.  0 disables crash tail loss.
  TimeSec crash_buffer_window = 0.0;

  /// Probability one log upload never reaches the merge (flaky uplink,
  /// collector restart).  With one-shot collection (upload_interval == 0)
  /// the server contributes nothing and its flows survive only through its
  /// peers' logs; with periodic collection only that chunk's records go.
  double upload_loss_prob = 0.0;

  /// Probability an upload is cut short in transit at a uniform point:
  /// records finalized after the cut are lost.
  double upload_truncate_prob = 0.0;

  /// Cadence of periodic log collection.  0 (the default) models one-shot
  /// end-of-run collection: each server uploads its whole log once, so a
  /// lost or truncated upload opens a gap running to the horizon.  > 0
  /// models a production pipeline where every server ships the records it
  /// finalized in the last `upload_interval` seconds as one chunk, on a
  /// per-server staggered grid (uploads are deliberately desynchronized to
  /// avoid collector hot spots).  Loss, truncation and duplication are then
  /// drawn per chunk, so gaps are interior intervals with observable data
  /// on both sides — the regime gap-aware analysis can actually correct.
  TimeSec upload_interval = 0.0;

  /// Probability that a server under a kServerStraggler degradation
  /// episode misses the merge deadline: records finalized after the
  /// episode started arrive too late to be merged.  Evaluated per episode.
  /// With periodic collection (upload_interval > 0) only the episode's own
  /// chunks are late — the gap closes when the episode ends and uploads
  /// catch back up; one-shot collection loses everything to the horizon.
  double straggler_truncate_prob = 0.0;

  /// Probability a flaky uplink delivers a server's upload twice; the
  /// hardened merge counts the re-delivered records and merges them once.
  double duplicate_prob = 0.0;

  /// Probability one SNMP poll of one switch times out (per switch, per
  /// poll); the poller carries the previous counter value forward.
  double snmp_timeout_prob = 0.0;
  /// Poll grid the timeout draws are made on (the classic SNMP cadence is
  /// 300 s; benches here poll faster to match their shorter horizons).
  TimeSec snmp_poll_interval = 30.0;

  /// When true, every ToR/agg crash in the fault schedule resets the
  /// switch's byte counters at repair time (the reboot), making the delta
  /// across the boundary garbage.
  bool counter_reset_on_reboot = false;

  /// SNMP counter register width in bits for SnmpCounters::collect: 0 =
  /// unbounded (ideal), 32 = classic ifInOctets which wraps at 4 GiB.
  int snmp_counter_width = 0;

  /// Seed of the telemetry stream, independent of the workload, fault and
  /// degradation seeds.
  std::uint64_t seed = 0x7E1EULL;

  /// True when no knob can alter observed data — no schedule, no merge,
  /// the observed trace is the collected trace by reference.  Note the
  /// counter width is a fidelity knob, not a fault, and does not count.
  [[nodiscard]] bool empty() const noexcept {
    return crash_buffer_window <= 0 && upload_loss_prob <= 0 &&
           upload_truncate_prob <= 0 && straggler_truncate_prob <= 0 &&
           duplicate_prob <= 0 && snmp_timeout_prob <= 0 && !counter_reset_on_reboot;
  }

  void validate() const;
};

/// Planned fate of one log upload.  Only uploads with a non-default fate
/// appear in the schedule.  One-shot collection has at most one plan per
/// server covering the whole run; periodic collection has one plan per
/// afflicted chunk.
struct UploadPlan {
  ServerId server;
  bool lost = false;        ///< upload missing
  bool truncated = false;   ///< cut at `truncate_at`
  TimeSec truncate_at = 0;  ///< records with end >= this are lost
  bool duplicated = false;  ///< upload arrives twice (merged once)
  /// Records covered by this upload: end times in [chunk_start, chunk_end).
  /// chunk_end == 0 means the whole run (one-shot collection).
  TimeSec chunk_start = 0;
  TimeSec chunk_end = 0;
};

/// One SNMP poll that timed out on one switch (kTor entity = rack id,
/// kAgg entity = agg index).
struct SnmpTimeoutEvent {
  DeviceKind device = DeviceKind::kTor;
  std::int32_t entity = -1;
  TimeSec time = 0;  ///< the poll instant that returned nothing
};

/// One switch counter reset (reboot completing at `time`).
struct CounterResetEvent {
  DeviceKind device = DeviceKind::kTor;
  std::int32_t entity = -1;
  TimeSec time = 0;
};

/// The full deterministic plan of telemetry faults for one run.
struct TelemetryFaultSchedule {
  /// Per-server coverage gaps (crash tails, lost and truncated uploads),
  /// sorted by (server, start, end).  These become the merged trace's
  /// GapRecords verbatim.
  std::vector<GapRecord> gaps;
  /// Upload fates for servers whose upload is not simply intact-once.
  std::vector<UploadPlan> uploads;
  std::vector<SnmpTimeoutEvent> snmp_timeouts;
  std::vector<CounterResetEvent> counter_resets;

  [[nodiscard]] bool empty() const noexcept {
    return gaps.empty() && uploads.empty() && snmp_timeouts.empty() &&
           counter_resets.empty();
  }
};

/// Generates the telemetry fault schedule.  Pure function of its inputs;
/// `faults` / `degradations` are the already-generated device schedules the
/// telemetry losses couple to (crashes lose log tails, stragglers upload
/// late, reboots reset counters).
[[nodiscard]] TelemetryFaultSchedule generate_telemetry_schedule(
    const Topology& topo, const TelemetryFaultConfig& config,
    const std::vector<FaultEvent>& faults,
    const std::vector<DegradationEvent>& degradations, TimeSec horizon);

/// Stable FNV-1a hash of a telemetry schedule, 0 for an empty one.  Folded
/// into run manifests (config key `telemetry_schedule_hash`) so runs under
/// different telemetry regimes are distinguishable at a glance.  Times are
/// quantized to 1e-6, the codec's resolution.
[[nodiscard]] std::uint64_t telemetry_schedule_hash(
    const TelemetryFaultSchedule& schedule);

/// Counters of what the lossy merge did, exported as run metrics
/// (docs/METRICS.md, subsystem "telemetry").
struct TelemetryMergeStats {
  std::size_t uploads_lost = 0;
  std::size_t uploads_truncated = 0;
  std::size_t uploads_duplicated = 0;
  std::size_t records_lost = 0;         ///< socket records erased by gaps
  std::size_t duplicates_dropped = 0;   ///< re-delivered records, not merged
  std::size_t flows_recovered = 0;      ///< sender copy lost, receiver's used
  std::size_t flows_lost = 0;           ///< both endpoint copies lost
};

/// A merged-under-faults trace plus the merge's bookkeeping.
struct LossyCollection {
  ClusterTrace trace;
  TelemetryMergeStats stats;
};

/// The hardened merge: applies `schedule`'s upload fates to a perfectly
/// collected trace and merges what survives, in one pass over
/// `full.flows()`.
///
///  - a flow's send copy (at src) and receive copy (at dst) each survive
///    unless a gap on that server covers the flow's end time;
///  - a surviving copy in an upload that arrived twice is counted in
///    `duplicates_dropped` and merged once: a duplicate never changes the
///    output;
///  - a flow whose sender-side record was lost is recovered from the
///    receiver's copy when that survived (peer recovery);
///  - flows that lost both copies are gone, and the schedule's gaps are
///    recorded on the merged trace so gap-aware analysis can correct for
///    them.
///
/// One pass is exact because a ClusterTrace's server logs are views of its
/// flows(): a flow's send copy and receive copy are two views of one stored
/// record, so both carry the flow's own fields and end time.  Nothing is
/// keyed on the flow id, so ids need not be unique.
///
/// Because the original global finalization order is unrecoverable from
/// partial uploads, merged flows are emitted in the canonical order
/// (end time, flow id, src).  Centrally collected application logs (jobs,
/// phases, failures, degradations, cascades) pass through untouched.
[[nodiscard]] LossyCollection apply_telemetry_faults(
    const ClusterTrace& full, const TelemetryFaultSchedule& schedule);

/// Applies the schedule's SNMP-plane faults to collected counters: each
/// switch timeout invalidates the nearest poll on every interface of that
/// switch, and each reset event restarts those interfaces' counters.  ToR
/// interfaces are the rack's uplink/downlink pair (plus secondaries on
/// redundant topologies); agg interfaces are the agg's core uplink pair.
void apply_snmp_faults(SnmpCounters& counters, const Topology& topo,
                       const TelemetryFaultSchedule& schedule);

}  // namespace dct
