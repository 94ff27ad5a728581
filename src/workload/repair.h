// Recovery-storm control: a prioritized, paced repair queue.
//
// The paper finds recovery traffic (evacuations, re-replication) among the
// "unexpected sources of congestion" (§4.2) — the system's own healing can
// amplify the very overload that triggered it.  With `RepairConfig::paced`
// off (the default) the workload driver heals crashed servers' blocks with
// the legacy immediate fan-out; with it on, repairs flow through a
// RepairQueue instead:
//
//   * priority: fewest live replicas first (FIFO within a priority), so the
//     blocks closest to data loss heal first;
//   * token-bucket pacing: at most `tokens_per_second` repair dispatches per
//     second (burst `token_burst`), smoothing a correlated burst's repair
//     storm over time;
//   * concurrency caps: a global in-flight ceiling plus per-source and
//     per-destination caps, so no single server's NIC is swamped by repair
//     traffic in either direction;
//   * congestion-aware backoff: a dispatch whose source/destination path is
//     already running above `congestion_util_threshold` is deferred with a
//     capped exponential backoff (deterministic — no rng) instead of piling
//     on;
//   * bounded retries: a failed repair flow re-enters the queue up to
//     `max_attempts` times (the legacy path never retries).
//
// The queue is a pure data structure + policy; the driver supplies sources,
// targets and link utilization.  Everything is deterministic given the
// enqueue/dispatch sequence: the queue itself draws no randomness.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/units.h"

namespace dct {

/// Recovery-storm-control knobs.  `paced = false` (default) preserves the
/// legacy immediate-fan-out re-replication path bit-for-bit.
struct RepairConfig {
  bool paced = false;
  /// Global ceiling on concurrently in-flight repair flows.  The legacy path
  /// fans out `kEvacuationConcurrency` (driver.cc) flows per crashed server
  /// at once — a whole-rack burst launches that times the rack size — so
  /// this cap is the smoothing lever, not a throughput one.
  std::int32_t max_in_flight = 64;
  /// Per-server caps on concurrent repair flows sourced from / sent to it.
  /// These, not the global ceiling, protect individual access links: repair
  /// sources and destinations are spread across the cluster, so wide global
  /// concurrency is fine as long as no single NIC serves several repairs
  /// while foreground traffic fights for it.
  std::int32_t per_source_cap = 1;
  std::int32_t per_dest_cap = 2;
  /// Token bucket: dispatches per second, and the burst ceiling.  Smooths
  /// the first seconds of a correlated burst (the storm's leading edge);
  /// it is not the steady-state throughput limit.
  double tokens_per_second = 40.0;
  double token_burst = 48.0;
  /// Pacer wake-up period.
  TimeSec pacer_interval = 0.5;
  /// A dispatch whose path utilization exceeds this is deferred instead —
  /// hot paths are where repair and foreground traffic actually collide.
  double congestion_util_threshold = 0.8;
  /// Deterministic capped exponential backoff for deferrals and retries.
  TimeSec congestion_backoff_base = 1.0;
  TimeSec congestion_backoff_max = 8.0;
  /// Attempts per block before the repair is abandoned to a later crash /
  /// recovery cycle.  Congestion deferrals do not count as attempts; only
  /// failed flows and missing sources/targets do.
  std::int32_t max_attempts = 6;

  void validate() const;
};

/// One queued block repair: heal `block`, which lost the replica held by
/// `failed`.
struct RepairItem {
  BlockId block;
  ServerId failed;
  std::int32_t live_replicas = 0;  ///< priority key at enqueue time
  std::int32_t attempts = 0;       ///< failed dispatch attempts so far
  TimeSec not_before = 0;          ///< backoff gate
  std::uint64_t seq = 0;           ///< FIFO tie-break within a priority
};

/// The prioritized repair queue + pacing state.  Not thread-safe (the
/// simulator is single-threaded); draws no randomness.
class RepairQueue {
 public:
  explicit RepairQueue(const RepairConfig& config);

  /// Adds a block repair.  `live_replicas` is the block's surviving replica
  /// count; fewer replicas = higher priority.
  void enqueue(BlockId block, ServerId failed, std::int32_t live_replicas,
               TimeSec now);
  /// Re-queues a deferred or failed item, gated until `not_before`.
  void requeue(RepairItem item, TimeSec not_before);

  /// Pops the highest-priority item whose backoff gate has passed (fewest
  /// live replicas first, then FIFO).  nullopt when nothing is ready.
  [[nodiscard]] std::optional<RepairItem> pop_ready(TimeSec now);

  // --- Token bucket --------------------------------------------------------
  void refill(TimeSec now);
  [[nodiscard]] bool has_token() const noexcept { return tokens_ >= 1.0; }
  void take_token();

  // --- Concurrency caps ----------------------------------------------------
  [[nodiscard]] bool can_dispatch(ServerId src, ServerId dst) const;
  void note_dispatch(ServerId src, ServerId dst);
  void note_done(ServerId src, ServerId dst);

  [[nodiscard]] std::size_t depth() const noexcept { return items_.size(); }
  [[nodiscard]] std::int32_t in_flight() const noexcept { return in_flight_; }
  [[nodiscard]] bool idle() const noexcept {
    return items_.empty() && in_flight_ == 0;
  }
  /// Largest queue depth ever observed.
  [[nodiscard]] std::size_t peak_depth() const noexcept { return peak_depth_; }

 private:
  RepairConfig cfg_;
  std::vector<RepairItem> items_;  // unordered; pop_ready selects by priority
  std::uint64_t next_seq_ = 0;
  std::size_t peak_depth_ = 0;
  double tokens_;
  TimeSec last_refill_ = 0;
  std::int32_t in_flight_ = 0;
  std::map<std::int32_t, std::int32_t> src_in_flight_;
  std::map<std::int32_t, std::int32_t> dst_in_flight_;
};

}  // namespace dct
