// ClusterTrace: the cluster-wide measurement product.
//
// One ClusterTrace is what two months of the paper's instrumentation yields
// after upload: every server's socket-level flow log plus the cluster's
// application logs, with enough metadata to interpret them.  Each server
// logs its own sockets, but the trace keeps the merged view the analysis
// works on: each network flow once, with the per-server logs as views of
// it.  The analysis layer (traffic matrices, congestion, flow statistics)
// and the tomography layer both consume this type; nothing downstream of
// the trace touches the simulator, mirroring the paper's separation between
// collection and analysis.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "trace/events.h"

namespace dct {

class Topology;
class FlowSim;

/// One server's socket log as uploaded: all flows this server participated
/// in, in the order they finalized.  The codec's unit for one upload
/// (encode_server_log / decode_server_log); a ClusterTrace does not store
/// these, it serves each server's log as a ServerLogView.
struct ServerLog {
  ServerId server;
  std::vector<SocketFlowLog> flows;
};

/// One server's socket log, read from the trace's single copy of each flow.
/// Entry i is built on read: a send entry is the flow's record as stored; a
/// receive entry swaps `local` and `peer` and sets kRecv.  A view reads the
/// trace it came from, so it is valid while that trace is alive and
/// unmoved, and it sees flows recorded after it was made.
class ServerLogView {
 public:
  [[nodiscard]] ServerId server() const noexcept { return server_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_->size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_->empty(); }
  /// Entry i in record order (unchecked, like std::vector::operator[]).
  [[nodiscard]] SocketFlowLog operator[](std::size_t i) const {
    const std::uint32_t entry = (*entries_)[i];
    SocketFlowLog f = (*flows_)[entry >> 1];
    if ((entry & 1u) != 0) {
      std::swap(f.local, f.peer);
      f.direction = SocketDirection::kRecv;
    }
    return f;
  }

 private:
  friend class ClusterTrace;
  ServerLogView(ServerId server, const std::vector<SocketFlowLog>& flows,
                const std::vector<std::uint32_t>& entries) noexcept
      : server_(server), flows_(&flows), entries_(&entries) {}

  ServerId server_;
  const std::vector<SocketFlowLog>* flows_;
  const std::vector<std::uint32_t>* entries_;
};

/// Cluster-wide trace: every network flow once, each server's socket log as
/// a view over those flows, and the application logs.
class ClusterTrace {
 public:
  /// Creates an empty trace for a cluster of `server_count` servers
  /// observing [0, duration).
  ClusterTrace(std::int32_t server_count, TimeSec duration);

  // --- Collection (called by the TraceCollector / workload executor) ------
  void record_flow(const FlowRecord& rec);
  void record_job(const JobLogRecord& rec) { jobs_.push_back(rec); }
  void record_phase(const PhaseLogRecord& rec) { phases_.push_back(rec); }
  void record_read_failure(const ReadFailureRecord& rec) { read_failures_.push_back(rec); }
  void record_evacuation(const EvacuationRecord& rec) { evacuations_.push_back(rec); }
  void record_device_failure(const DeviceFailureRecord& rec) {
    device_failures_.push_back(rec);
  }
  void record_degradation(const DegradationRecord& rec) {
    degradations_.push_back(rec);
  }
  void record_cascade(const CascadeRecord& rec) { cascades_.push_back(rec); }
  /// Records a per-server telemetry coverage gap (lossy collection; see
  /// trace/collector_faults.h).  Times are clamped to [0, duration); empty
  /// or inverted intervals are dropped.  Invalidates the coverage index.
  void record_gap(const GapRecord& rec);

  // --- Metadata -------------------------------------------------------------
  [[nodiscard]] std::int32_t server_count() const noexcept {
    return static_cast<std::int32_t>(server_entries_.size());
  }
  [[nodiscard]] TimeSec duration() const noexcept { return duration_; }

  // --- Socket-level views ----------------------------------------------------
  /// The socket log of one server: the flows it sent or received, in
  /// record order, each seen from `s`'s end.
  [[nodiscard]] ServerLogView server_log(ServerId s) const;

  /// A unified flow view: every *network* flow exactly once (the sender's
  /// record), in finalization order.  Loopback never appears (local reads
  /// do not traverse sockets in this system).
  [[nodiscard]] const std::vector<SocketFlowLog>& flows() const noexcept { return flows_; }

  /// Total bytes moved across the network during the trace.
  [[nodiscard]] Bytes total_bytes() const noexcept { return total_bytes_; }
  /// Total number of network flows observed.
  [[nodiscard]] std::size_t flow_count() const noexcept { return flows_.size(); }

  // --- Application-log views --------------------------------------------------
  [[nodiscard]] const std::vector<JobLogRecord>& jobs() const noexcept { return jobs_; }
  [[nodiscard]] const std::vector<PhaseLogRecord>& phase_logs() const noexcept {
    return phases_;
  }
  [[nodiscard]] const std::vector<ReadFailureRecord>& read_failures() const noexcept {
    return read_failures_;
  }
  [[nodiscard]] const std::vector<EvacuationRecord>& evacuations() const noexcept {
    return evacuations_;
  }
  [[nodiscard]] const std::vector<DeviceFailureRecord>& device_failures() const noexcept {
    return device_failures_;
  }
  [[nodiscard]] const std::vector<DegradationRecord>& degradations() const noexcept {
    return degradations_;
  }
  [[nodiscard]] const std::vector<CascadeRecord>& cascades() const noexcept {
    return cascades_;
  }

  // --- Telemetry coverage (lossy measurement plane) --------------------------
  /// All recorded coverage gaps, in recording order.  Empty for a trace
  /// collected with a perfect (fault-free) telemetry plane.
  [[nodiscard]] const std::vector<GapRecord>& gaps() const noexcept { return gaps_; }

  /// Fraction of [t0, t1) over which server `s`'s socket log is present
  /// (1.0 when the server has no gaps).  Overlapping gaps are merged, so
  /// the result is always in [0, 1].
  [[nodiscard]] double coverage(ServerId s, TimeSec t0, TimeSec t1) const;

  /// Whole-trace coverage of one server: coverage(s, 0, duration()).
  [[nodiscard]] double coverage(ServerId s) const;

  /// Mean whole-trace coverage over all servers (1.0 when gap-free).
  [[nodiscard]] double mean_coverage() const;

  /// Total gap seconds summed over servers (after per-server merging).
  [[nodiscard]] double gap_seconds() const;

  /// Server `s`'s gaps as merged, sorted, disjoint [start, end) intervals
  /// (empty when the server has none).  The reference stays valid until the
  /// next record_gap.
  [[nodiscard]] const std::vector<std::pair<TimeSec, TimeSec>>& gap_intervals(
      ServerId s) const;

  /// Looks up the phase-kind of a phase id (the app-log join that lets
  /// analysis attribute flows to map/reduce activity).  Empty when the
  /// phase id was never logged.
  [[nodiscard]] std::optional<PhaseKind> phase_kind(PhaseId phase) const;

  /// Finalizes indices after collection; called once by the collector.
  /// Idempotent; analysis accessors that need the indices call it lazily
  /// through the collector instead.
  void build_indices();

 private:
  TimeSec duration_;
  std::vector<SocketFlowLog> flows_;
  /// Per server, in record order: a flows_ index shifted left by one, the
  /// low bit set for a receive entry.
  std::vector<std::vector<std::uint32_t>> server_entries_;
  Bytes total_bytes_ = 0;
  std::vector<JobLogRecord> jobs_;
  std::vector<PhaseLogRecord> phases_;
  std::vector<ReadFailureRecord> read_failures_;
  std::vector<EvacuationRecord> evacuations_;
  std::vector<DeviceFailureRecord> device_failures_;
  std::vector<DegradationRecord> degradations_;
  std::vector<CascadeRecord> cascades_;
  std::vector<GapRecord> gaps_;
  std::vector<std::int32_t> phase_kind_index_;  // PhaseId -> PhaseKind ordinal, -1 unset
  /// Per-server merged gap intervals (sorted, disjoint), built lazily from
  /// gaps_; empty while no gaps are recorded.
  mutable std::vector<std::vector<std::pair<TimeSec, TimeSec>>> merged_gaps_;
  mutable bool merged_gaps_stale_ = false;
  void rebuild_merged_gaps() const;
};

/// Connects a FlowSim to a ClusterTrace: installs a record sink that
/// records every finalized FlowRecord, which both endpoints' socket logs
/// then show.
/// Keeps overhead counters so the instrumentation-cost experiment (§2) can
/// report events/bytes logged per server.
class TraceCollector {
 public:
  /// Attaches to `sim`; the collector must outlive the simulation run.
  TraceCollector(FlowSim& sim, ClusterTrace& trace);

  /// Number of socket log records written (2 per network flow).
  [[nodiscard]] std::size_t socket_records() const noexcept { return socket_records_; }

 private:
  ClusterTrace& trace_;
  std::size_t socket_records_ = 0;
};

}  // namespace dct
