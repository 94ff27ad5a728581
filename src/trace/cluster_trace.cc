#include "trace/cluster_trace.h"

#include <algorithm>
#include <limits>

#include "common/require.h"
#include "flowsim/flowsim.h"

namespace dct {

std::string_view to_string(PhaseKind kind) {
  switch (kind) {
    case PhaseKind::kExtract: return "extract";
    case PhaseKind::kPartition: return "partition";
    case PhaseKind::kAggregate: return "aggregate";
    case PhaseKind::kCombine: return "combine";
    case PhaseKind::kOutput: return "output";
  }
  return "unknown";
}

std::string_view to_string(DeviceKind kind) {
  switch (kind) {
    case DeviceKind::kServer: return "server";
    case DeviceKind::kTor: return "tor";
    case DeviceKind::kAgg: return "agg";
    case DeviceKind::kLink: return "link";
  }
  return "unknown";
}

std::string_view to_string(GapCause cause) {
  switch (cause) {
    case GapCause::kCrashTailLoss: return "crash_tail_loss";
    case GapCause::kUploadLost: return "upload_lost";
    case GapCause::kUploadTruncated: return "upload_truncated";
  }
  return "unknown";
}

std::string_view to_string(DegradationKind kind) {
  switch (kind) {
    case DegradationKind::kLinkCapacity: return "link_capacity";
    case DegradationKind::kLinkFlap: return "link_flap";
    case DegradationKind::kLinkLossy: return "link_lossy";
    case DegradationKind::kServerStraggler: return "server_straggler";
  }
  return "unknown";
}

ClusterTrace::ClusterTrace(std::int32_t server_count, TimeSec duration)
    : duration_(duration) {
  require(server_count >= 1, "ClusterTrace: need at least one server");
  require(duration > 0, "ClusterTrace: duration must be > 0");
  server_entries_.resize(static_cast<std::size_t>(server_count));
}

void ClusterTrace::record_flow(const FlowRecord& rec) {
  // Loopback transfers never reach a socket; skip them like ETW would.
  if (rec.src == rec.dst) return;
  // Value-bearing rejection: a decoded (possibly corrupt) payload can carry
  // arbitrary ids, and "out of range" without the offending value makes the
  // resulting report useless for triage.
  const auto check_endpoint = [&](ServerId s, const char* which) {
    if (s.valid() && s.value() < server_count()) return;
    require(false, std::string("record_flow: ") + which + " server id " +
                       std::to_string(s.value()) + " outside [0, " +
                       std::to_string(server_count()) + ") for flow " +
                       std::to_string(rec.id.value()));
  };
  check_endpoint(rec.src, "src");
  check_endpoint(rec.dst, "dst");
  // An entry keeps the flow's index in its upper 31 bits.
  require(flows_.size() < (std::size_t{1} << 31),
          "record_flow: trace is full, a flow index must fit in 31 bits");

  SocketFlowLog log;
  log.flow = rec.id;
  log.local = rec.src;
  log.peer = rec.dst;
  log.direction = SocketDirection::kSend;
  log.start = rec.start;
  log.end = rec.end;
  log.bytes = rec.bytes_sent;
  log.bytes_requested = rec.bytes_requested;
  log.failed = rec.failed;
  log.truncated = rec.truncated;
  log.job = rec.job;
  log.phase = rec.phase;
  log.kind = rec.kind;

  const auto entry = static_cast<std::uint32_t>(flows_.size()) << 1;
  flows_.push_back(log);
  server_entries_[static_cast<std::size_t>(rec.src.value())].push_back(entry);
  server_entries_[static_cast<std::size_t>(rec.dst.value())].push_back(entry | 1u);
  // Saturate instead of overflowing: a decoded trace may carry arbitrary
  // per-flow byte counts, and the sum wrapping would be UB.
  if (__builtin_add_overflow(total_bytes_, rec.bytes_sent, &total_bytes_)) {
    total_bytes_ = std::numeric_limits<Bytes>::max();
  }
}

ServerLogView ClusterTrace::server_log(ServerId s) const {
  require(s.valid() && s.value() < server_count(), "server_log: out of range");
  return {s, flows_, server_entries_[static_cast<std::size_t>(s.value())]};
}

std::optional<PhaseKind> ClusterTrace::phase_kind(PhaseId phase) const {
  if (!phase.valid()) return std::nullopt;
  const auto idx = static_cast<std::size_t>(phase.value());
  if (idx >= phase_kind_index_.size() || phase_kind_index_[idx] < 0) {
    // Indices may not have been built; fall back to a linear scan.
    for (const auto& p : phases_) {
      if (p.phase == phase) return p.kind;
    }
    return std::nullopt;
  }
  return static_cast<PhaseKind>(phase_kind_index_[idx]);
}

void ClusterTrace::build_indices() {
  std::int32_t max_phase = -1;
  for (const auto& p : phases_) max_phase = std::max(max_phase, p.phase.value());
  if (max_phase < 0) {
    phase_kind_index_.clear();
    return;
  }
  // Phase ids are dense in any trace this library produced; a corrupted
  // payload can carry arbitrary ids, and sizing the index by the largest of
  // them would be an allocation bomb.  phase_kind() falls back to a linear
  // scan, so just skip the index for implausibly sparse ids.
  if (static_cast<std::size_t>(max_phase) > phases_.size() * 4 + 1024) {
    phase_kind_index_.clear();
    return;
  }
  phase_kind_index_.assign(static_cast<std::size_t>(max_phase + 1), -1);
  for (const auto& p : phases_) {
    if (p.phase.value() < 0) continue;
    phase_kind_index_[static_cast<std::size_t>(p.phase.value())] =
        static_cast<std::int32_t>(p.kind);
  }
}

void ClusterTrace::record_gap(const GapRecord& rec) {
  require(rec.server.valid() && rec.server.value() < server_count(),
          "record_gap: server id " + std::to_string(rec.server.value()) +
              " outside [0, " + std::to_string(server_count()) + ")");
  GapRecord g = rec;
  g.start = std::max<TimeSec>(0.0, g.start);
  g.end = std::min<TimeSec>(duration_, g.end);
  if (g.end <= g.start) return;
  gaps_.push_back(g);
  merged_gaps_stale_ = true;
}

void ClusterTrace::rebuild_merged_gaps() const {
  merged_gaps_.assign(server_entries_.size(), {});
  for (const GapRecord& g : gaps_) {
    merged_gaps_[static_cast<std::size_t>(g.server.value())].emplace_back(g.start,
                                                                          g.end);
  }
  for (auto& intervals : merged_gaps_) {
    if (intervals.empty()) continue;
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
  merged_gaps_stale_ = false;
}

double ClusterTrace::coverage(ServerId s, TimeSec t0, TimeSec t1) const {
  require(s.valid() && s.value() < server_count(), "coverage: server out of range");
  require(t1 >= t0, "coverage: t1 must be >= t0");
  if (gaps_.empty()) return 1.0;
  if (t1 <= t0) return 1.0;
  if (merged_gaps_stale_ || merged_gaps_.empty()) rebuild_merged_gaps();
  double lost = 0;
  for (const auto& [lo, hi] : merged_gaps_[static_cast<std::size_t>(s.value())]) {
    lost += std::max<TimeSec>(0.0, std::min(hi, t1) - std::max(lo, t0));
  }
  return std::clamp(1.0 - lost / (t1 - t0), 0.0, 1.0);
}

double ClusterTrace::coverage(ServerId s) const { return coverage(s, 0.0, duration_); }

double ClusterTrace::mean_coverage() const {
  if (gaps_.empty()) return 1.0;
  double sum = 0;
  for (std::int32_t s = 0; s < server_count(); ++s) sum += coverage(ServerId{s});
  return sum / static_cast<double>(server_count());
}

const std::vector<std::pair<TimeSec, TimeSec>>& ClusterTrace::gap_intervals(
    ServerId s) const {
  require(s.valid() && s.value() < server_count(),
          "gap_intervals: server out of range");
  static const std::vector<std::pair<TimeSec, TimeSec>> kNone;
  if (gaps_.empty()) return kNone;
  if (merged_gaps_stale_ || merged_gaps_.empty()) rebuild_merged_gaps();
  return merged_gaps_[static_cast<std::size_t>(s.value())];
}

double ClusterTrace::gap_seconds() const {
  if (gaps_.empty()) return 0.0;
  if (merged_gaps_stale_ || merged_gaps_.empty()) rebuild_merged_gaps();
  double total = 0;
  for (const auto& intervals : merged_gaps_) {
    for (const auto& [lo, hi] : intervals) total += hi - lo;
  }
  return total;
}

TraceCollector::TraceCollector(FlowSim& sim, ClusterTrace& trace) : trace_(trace) {
  sim.set_record_sink([this](const FlowRecord& rec) {
    if (rec.src != rec.dst) socket_records_ += 2;
    trace_.record_flow(rec);
  });
}

}  // namespace dct
