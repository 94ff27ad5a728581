// Event records produced by the server-centric instrumentation layer.
//
// The paper's methodology instruments *servers*, not switches: an ETW
// session on every machine records one socket-level event per application
// read/write (aggregating over packets), and application logs (job queues,
// phase activity, error codes) are collected alongside so network traffic
// can be attributed to the jobs that caused it.  This header defines the
// analogous record types for the simulated cluster.
#pragma once

#include <cstdint>
#include <string>

#include "common/ids.h"
#include "common/units.h"
#include "flowsim/flowsim.h"

namespace dct {

/// Direction of a socket-level log entry relative to the logging server.
enum class SocketDirection : std::uint8_t { kSend, kRecv };

/// One flow as logged by a server's socket instrumentation.  Each network
/// flow appears in two servers' logs: the sender's (kSend) and the
/// receiver's (kRecv).  A cluster trace stores the sender's record once and
/// builds the receiver's entry from it on read.
struct SocketFlowLog {
  FlowId flow;
  ServerId local;   ///< the logging server
  ServerId peer;    ///< the other endpoint
  SocketDirection direction = SocketDirection::kSend;
  TimeSec start = 0;
  TimeSec end = 0;
  Bytes bytes = 0;             ///< bytes actually transferred
  Bytes bytes_requested = 0;   ///< bytes the application asked for
  bool failed = false;
  bool truncated = false;
  JobId job;       ///< invalid for infrastructure traffic
  PhaseId phase;   ///< invalid for infrastructure traffic
  FlowKind kind = FlowKind::kOther;

  [[nodiscard]] TimeSec duration() const noexcept { return end - start; }
};

/// Phase types of the Scope/Dryad-style workflow (§3 of the paper).
enum class PhaseKind : std::uint8_t {
  kExtract,    ///< parse raw data blocks into records
  kPartition,  ///< divide a stream into hash buckets (pipelines with extract)
  kAggregate,  ///< reduce; barrier: needs every partition output
  kCombine,    ///< join of two streams
  kOutput      ///< write job output to the replicated store
};

[[nodiscard]] std::string_view to_string(PhaseKind kind);

/// Application log: lifetime of one job.
struct JobLogRecord {
  JobId job;
  TimeSec submit = 0;
  TimeSec start = 0;
  TimeSec end = 0;
  bool completed = false;  ///< false: killed (read failure) or truncated
  bool failed = false;     ///< killed after exhausting read retries
  std::int32_t phases = 0;
  Bytes input_bytes = 0;
};

/// Application log: one phase of a job.
struct PhaseLogRecord {
  JobId job;
  PhaseId phase;
  PhaseKind kind = PhaseKind::kExtract;
  TimeSec start = 0;
  TimeSec end = 0;
  std::int32_t vertices = 0;
  Bytes bytes_in = 0;
  Bytes bytes_out = 0;
};

/// Application log: a vertex could not read its input (stuck / unable to
/// connect / no steady progress).  §4.2 correlates these with congestion.
struct ReadFailureRecord {
  TimeSec time = 0;
  JobId job;
  PhaseId phase;
  ServerId reader;   ///< server whose vertex failed to read
  ServerId source;   ///< server it was reading from
  bool fatal = false;  ///< retries exhausted; job will be killed
};

/// Application log: the automated management system evacuated a flaky
/// server's blocks (an unexpected congestion source found in §4.2).
struct EvacuationRecord {
  TimeSec start = 0;
  TimeSec end = 0;
  ServerId server;
  Bytes bytes_moved = 0;
  std::int32_t blocks_moved = 0;
};

/// Which piece of infrastructure a DeviceFailureRecord refers to.
enum class DeviceKind : std::uint8_t {
  kServer,  ///< a racked (or external) server crashed
  kTor,     ///< a top-of-rack switch crashed (whole rack off the network)
  kAgg,     ///< an aggregation switch crashed
  kLink     ///< a single link flapped
};

[[nodiscard]] std::string_view to_string(DeviceKind kind);

/// Application log: one injected device failure epoch, as the management
/// system's incident log would record it.  `start`..`end` is the outage
/// (end is the scheduled repair time); the kill/reroute counts capture the
/// immediate blast radius observed by the flow simulator at `start`.
struct DeviceFailureRecord {
  TimeSec start = 0;
  TimeSec end = 0;                    ///< repair time
  DeviceKind device = DeviceKind::kServer;
  std::int32_t entity = -1;           ///< server/rack/agg/link id per `device`
  std::int32_t flows_killed = 0;      ///< in-flight flows with no surviving path
  std::int32_t flows_rerouted = 0;    ///< in-flight flows moved to a backup path
};

/// Gray-failure taxonomy: partial degradations, as opposed to the clean
/// fail-stop outages of DeviceFailureRecord.  The paper's long-lived
/// congestion episodes (§4.2) come from exactly this class of fault.
enum class DegradationKind : std::uint8_t {
  kLinkCapacity,     ///< link runs at a fraction of nominal capacity
  kLinkFlap,         ///< link oscillates down/up with a period and duty cycle
  kLinkLossy,        ///< loss retransmissions eat a fraction of goodput
  kServerStraggler   ///< server's vertex service times stretch by a factor
};

[[nodiscard]] std::string_view to_string(DegradationKind kind);

/// Application log: one injected degradation epoch.  `severity` is the
/// kind-specific magnitude — the remaining capacity fraction for
/// kLinkCapacity/kLinkLossy (0 < severity < 1), the fraction of each flap
/// period spent down for kLinkFlap, and the service-time slowdown factor
/// (> 1) for kServerStraggler.  `period` is the flap cycle length and 0 for
/// every other kind.
struct DegradationRecord {
  TimeSec start = 0;
  TimeSec end = 0;
  DegradationKind kind = DegradationKind::kLinkCapacity;
  std::int32_t entity = -1;  ///< link id, or server id for kServerStraggler
  double severity = 0.0;
  TimeSec period = 0.0;
};

/// Why a stretch of one server's socket log is missing from the merged
/// trace (trace/collector_faults.h).  The collection pipeline itself is
/// fallible: crashes lose buffered log tails, straggler uploads miss the
/// merge deadline, flaky uplinks drop whole uploads, and payloads truncate
/// in transit.
enum class GapCause : std::uint8_t {
  kCrashTailLoss,     ///< server crash lost the buffered (unflushed) log tail
  kUploadLost,        ///< the server's whole upload never arrived
  kUploadTruncated    ///< upload cut short (late straggler / transit loss)
};

[[nodiscard]] std::string_view to_string(GapCause cause);

/// One per-server coverage gap in the merged trace: flow records this
/// server finalized inside [start, end) were lost before the merge.  The
/// complement of a server's gaps is its coverage interval set; gap-aware
/// analysis (traffic_matrix.h, congestion.h) consumes these through
/// ClusterTrace::coverage().
struct GapRecord {
  ServerId server;
  TimeSec start = 0;
  TimeSec end = 0;
  GapCause cause = GapCause::kUploadLost;
  /// Exactly how many of this server's records the gap destroyed.  A real
  /// pipeline knows this without seeing the records: per-server logs carry
  /// monotone sequence numbers, so the merge reads the count straight off
  /// the discontinuity.  This is the signal that lets gap-aware analysis
  /// correct only where data was actually lost — a gap over an idle span
  /// has records_lost == 0 and triggers no correction.
  std::int32_t records_lost = 0;
};

/// Lineage of one overload-induced cascade trip (faults/cascade.h): sustained
/// overload on `link` injected a secondary kLinkLossy degradation on it.  The
/// matching DegradationRecord carries the episode itself; this record carries
/// the *cause* — the utilization that tripped it and the chain depth (1 =
/// induced by organic congestion, d > 1 = induced while a depth d-1 cascade
/// was still active).  Encoded in the trace codec's cascade section.
struct CascadeRecord {
  TimeSec start = 0;           ///< trip time
  TimeSec end = 0;             ///< end of the induced lossy episode
  std::int32_t link = -1;      ///< the overloaded (and degraded) link
  std::int32_t depth = 0;      ///< chain depth, capped by CascadeConfig::max_depth
  double severity = 0.0;       ///< surviving goodput fraction of the episode
  double utilization = 0.0;    ///< observed utilization at trip time
};

}  // namespace dct
