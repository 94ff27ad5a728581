// Event-driven fluid (flow-level) network simulator.
//
// The paper measures traffic at socket granularity: what matters is how many
// bytes each flow moved and when, not per-packet dynamics.  The standard
// abstraction at that granularity is a *fluid* model: at any instant the
// active flows share link bandwidth max-min fairly (the long-run behaviour
// of many competing TCP flows), rates are piecewise-constant between
// arrival/departure events, and each flow's remaining bytes drain linearly.
//
// Engine design
//   * A time-ordered event queue carries user callbacks (the workload layer
//     schedules job arrivals and reacts to flow completions) plus internal
//     recompute / stall events.  Flow completions live in a second,
//     indexed min-heap with at most one entry per flow: each flow knows
//     where its entry sits, a recompute replaces or removes only the entries
//     of flows whose rate moved, and a finish, kill or reroute removes its
//     flow's entry, so no superseded deadline is ever queued.  Both queues
//     draw their tie-break sequence numbers from one counter and the loop
//     always dispatches the smaller head by (time, seq): events fire in one
//     total order, as if the two were a single queue.
//   * Rate recomputation (progressive filling) is *batched*: the active set
//     may change many times within `recompute_interval`; rates are refreshed
//     at most once per interval.  Exact mode (interval 0) recomputes after
//     every change and is used by the unit tests.
//   * The fill scans only links that can set the water level.  A link
//     whose effective capacity exceeds its flow count times
//     `per_flow_rate_cap` (beyond the freeze tolerance) keeps a share above
//     the cap however its flows freeze, so it never binds; without a cap
//     every link can.  Skipping the rest changes no rate.
//   * The link -> flow incidence is kept, not rebuilt.  Each link lists the
//     active flows that cross it, each flow knows where its entries sit, and
//     start, finalize and reroute update the lists by append and
//     swap-remove; a recompute resets only the links that some list names.
//     A link's list is not in slot order, and the fill's result does not
//     depend on that order (docs/PERFORMANCE.md rule 1).
//   * A recompute touches only the flows whose rate moved (compared
//     exactly) and the flows started or rerouted since the last one.  Each
//     such flow deposits its bytes since its last deposit at its old rate,
//     takes its new rate, and has its completion and stall state redone.
//     Any other flow keeps its last deposit, its queued completion and its
//     stall state: its rate, which produced all three, did not change.
//   * Per-link utilization is accounted exactly for the piecewise-constant
//     rate process: whenever a flow's rate changes, and when it finishes or
//     is rerouted, its contribution since its previous deposit goes into
//     each on-path link's time series.  Each bin sums deposits in event
//     order, within a recompute in flow order, then path order, each a
//     flow's own bytes over its own interval; that order is pinned
//     (docs/PERFORMANCE.md).  Flows that move in consecutive recomputes
//     share one interval, so deposits reuse the last interval's split into
//     bins and split again only when the interval changes.
//   * A flow whose allocated rate stays below `fail_rate_floor` for
//     `fail_timeout` seconds is killed and recorded as failed — the
//     mechanism by which congestion causes the read failures of §4.2.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <string_view>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/timeseries.h"
#include "common/units.h"
#include "obs/obs.h"
#include "topology/network_state.h"
#include "topology/topology.h"

namespace dct {

/// Why a flow exists; used when attributing congestion to application
/// activity (§4.2's reduce / extract / evacuation attribution).
enum class FlowKind : std::uint8_t {
  kBlockRead,     ///< vertex reading an input block over the network
  kShuffle,       ///< partition -> aggregate data movement
  kReplicaWrite,  ///< block-store replication traffic
  kIngest,        ///< external server uploading new data
  kEgress,        ///< results pulled out by an external server
  kEvacuation,    ///< automated evacuation of a flaky server's blocks
  kControl,       ///< small control/heartbeat exchanges
  kOther
};

[[nodiscard]] std::string_view to_string(FlowKind kind);

/// Immutable description of a flow to inject.
struct FlowSpec {
  ServerId src;
  ServerId dst;
  Bytes bytes = 0;
  JobId job;        ///< invalid for non-job traffic (ingest, evacuation, ...)
  PhaseId phase;    ///< invalid for non-job traffic
  FlowKind kind = FlowKind::kOther;
};

/// Completed (or failed / truncated) flow as the socket logs would record it.
struct FlowRecord {
  FlowId id;
  ServerId src;
  ServerId dst;
  Bytes bytes_requested = 0;
  Bytes bytes_sent = 0;
  TimeSec start = 0;
  TimeSec end = 0;
  bool failed = false;     ///< killed by the stall detector
  bool truncated = false;  ///< still active when the simulation horizon hit
  JobId job;
  PhaseId phase;
  FlowKind kind = FlowKind::kOther;

  [[nodiscard]] TimeSec duration() const noexcept { return end - start; }
  /// Mean achieved rate in bytes/second (0 for zero-duration flows).
  [[nodiscard]] BytesPerSec mean_rate() const noexcept {
    return duration() > 0 ? static_cast<double>(bytes_sent) / duration() : 0.0;
  }
};

/// Simulator tuning knobs.
struct FlowSimConfig {
  TimeSec end_time = 600.0;  ///< horizon; active flows are truncated here
  /// Minimum spacing between max-min rate recomputations.  0 = exact mode
  /// (recompute after every arrival/departure).
  TimeSec recompute_interval = 0.025;
  /// Bin width of the per-link utilization series.
  TimeSec util_bin_width = 1.0;
  /// Per-flow rate ceiling (bytes/s): the aggregate effect of TCP windows,
  /// sender disk contention and application throttling, which keep a single
  /// 2009-era socket well below NIC line rate.  0 disables the cap.
  BytesPerSec per_flow_rate_cap = 16e6;
  /// A flow allocated less than this (bytes/s) is considered stalled.
  BytesPerSec fail_rate_floor = 0.25e6 / 8.0;
  /// Stall duration after which a flow is killed as failed.
  TimeSec fail_timeout = 10.0;
  /// Connection-establishment failure model (the SYN-timeout / incast
  /// analogue): when a new flow's prospective fair share on its bottleneck
  /// link — capacity / (active flows + 1) — falls below this floor, the
  /// connection attempt fails outright with a probability that grows with
  /// the overload, up to `connect_fail_max_prob`.  This is how congestion
  /// causes the read failures of §4.2 in this simulator.
  BytesPerSec connect_share_floor = 8e6 / 8.0;  ///< 8 Mbps
  double connect_fail_max_prob = 0.8;
  /// Seed for the connection-failure coin flips (kept inside the simulator
  /// so workload-level draws stay independent of network state).
  std::uint64_t seed = 0x5eed;
  /// Keep every FlowRecord in memory (benches disable to stream to a sink).
  bool keep_records = true;

  void validate() const;
};

/// The fluid simulator.  Construct, schedule workload callbacks with `at`,
/// inject flows with `start_flow`, then `run()`.
class FlowSim {
 public:
  using UserCallback = std::function<void(FlowSim&)>;
  using CompletionCallback = std::function<void(FlowSim&, const FlowRecord&)>;
  using RecordSink = std::function<void(const FlowRecord&)>;

  FlowSim(const Topology& topo, FlowSimConfig config);

  /// Schedules `fn` to run at simulation time `t` (>= now).
  void at(TimeSec t, UserCallback fn);

  /// Injects a flow starting now.  May only be called before `run()` (for
  /// time-0 flows) or from inside a callback.  Returns the flow's id.
  /// `on_complete`, if given, fires when the flow finishes, fails or is
  /// truncated; it may start further flows (the stop-and-go chains of §4.3).
  FlowId start_flow(const FlowSpec& spec, CompletionCallback on_complete = {});

  /// Installs a sink that receives every FlowRecord as it finalizes
  /// (in addition to, or instead of, the in-memory `records()` vector).
  void set_record_sink(RecordSink sink) { record_sink_ = std::move(sink); }

  /// Installs a secondary tap invoked after the sink for every finalized
  /// record.  The checkpoint subsystem (src/ckpt) spools records to its
  /// write-ahead log through this without displacing the trace collector,
  /// which owns the sink.  Unset (the default) costs one null check.
  void set_record_tap(RecordSink tap) { record_tap_ = std::move(tap); }

  /// Installs a failure-aware routing overlay.  New flows route through it
  /// (an unreachable destination fails the connection immediately), and
  /// `handle_network_change()` re-validates in-flight flows against it.
  /// While the overlay is fault-free the simulator behaves bit-identically
  /// to having no overlay at all.  The pointer must outlive the simulator.
  void set_network_state(const NetworkState* net) noexcept { net_ = net; }

  /// Outcome of re-validating the active set after a fault or repair.
  struct NetworkChangeStats {
    std::int32_t flows_killed = 0;    ///< no surviving path: failed records
    std::int32_t flows_rerouted = 0;  ///< moved onto a live alternate path
  };

  /// Re-checks every active flow against the installed NetworkState: flows
  /// whose path died are rerouted when a live alternate exists (secondary
  /// ToR uplinks) and killed as failed otherwise.  Call after every
  /// NetworkState transition; a no-op without an overlay.
  NetworkChangeStats handle_network_change();

  /// Degraded-mode overlay: scales `link`'s effective capacity by `factor`
  /// (0 < factor <= 1) for both the max-min recompute and the
  /// connection-admission share estimate.  Flows on a degraded link throttle
  /// rather than die; restoring factor 1.0 ends the episode.  At 1.0 the
  /// arithmetic is bit-identical to an undegraded simulator, so fault-free
  /// runs are unchanged.  Utilization series stay normalized to *nominal*
  /// capacity: a degraded link saturating at 40% of nominal reads as 0.4.
  void set_link_capacity_factor(LinkId link, double factor);
  [[nodiscard]] double link_capacity_factor(LinkId link) const;

  /// Runs until the event queue drains and no flows remain, or until the
  /// configured horizon, whichever is earlier.  Idempotent: returns
  /// immediately if already run.
  void run();

  [[nodiscard]] TimeSec now() const noexcept { return now_; }
  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }
  [[nodiscard]] const FlowSimConfig& config() const noexcept { return config_; }

  /// All finalized flow records (empty when keep_records is false).
  [[nodiscard]] const std::vector<FlowRecord>& records() const noexcept {
    return records_;
  }

  /// Bytes carried per utilization bin on `link`.  Utilization of bin i is
  /// value(i) / (capacity * bin_width).
  [[nodiscard]] const BinnedSeries& link_bytes(LinkId link) const;

  /// Convenience: utilization (0..1+) series for a link.
  [[nodiscard]] BinnedSeries link_utilization(LinkId link) const;

  /// Instantaneous allocated rate (bytes/s) per link: `out` is resized to
  /// link_count() and out[l] sums the current rate of every active flow
  /// whose path crosses link l.  Reflects the latest (possibly batched)
  /// max-min recompute.  Used by the cascade monitor and the repair pacer
  /// to read utilization without touching the binned series.
  void snapshot_link_rates(std::vector<double>& out) const;

  [[nodiscard]] std::size_t active_flow_count() const noexcept { return active_.size(); }
  /// Number of flows killed by the stall detector.
  [[nodiscard]] std::size_t failed_flow_count() const noexcept { return failed_; }
  /// Flows killed because a device failure severed their only path (a
  /// subset of `failed_flow_count()`).
  [[nodiscard]] std::size_t fault_killed_flow_count() const noexcept {
    return fault_killed_;
  }
  /// Flows moved onto an alternate path after a device failure.
  [[nodiscard]] std::size_t fault_rerouted_flow_count() const noexcept {
    return fault_rerouted_;
  }
  /// Count of max-min recomputations performed (performance introspection).
  [[nodiscard]] std::size_t recompute_count() const noexcept { return recomputes_; }

  /// Registers this simulator's metrics (see docs/METRICS.md, subsystem
  /// "flowsim") and starts feeding them.  Call before run(); optional — an
  /// unbound simulator records nothing.
  void bind_metrics(obs::Registry& registry);

 private:
  static constexpr std::uint32_t kNoCompletion = std::numeric_limits<std::uint32_t>::max();

  struct ActiveFlow {
    FlowId id;
    FlowSpec spec;
    std::vector<LinkId> path;
    std::vector<std::uint32_t> link_pos;  // its entry's index in each path link's list
    double remaining = 0;            // bytes left to send
    BytesPerSec rate = 0;            // current allocated rate
    TimeSec start = 0;
    TimeSec last_deposit = 0;        // utilization accounted up to here
    TimeSec stall_since = -1;        // -1: not stalled
    std::uint32_t heap_pos = kNoCompletion;  // its entry's index in completions_
    bool fresh = true;               // started or rerouted since the last recompute
    CompletionCallback on_complete;
  };

  // An active flow crossing a link: its active_ slot and its index in its path.
  struct LinkEntry {
    std::uint32_t slot;
    std::uint32_t hop;
  };

  enum class EventKind : std::uint8_t { kUser, kStall, kRecompute };

  // The (time, seq) order of both queues.  Every entry of either draws seq
  // from seq_, so the order is total across them.
  struct Due {
    TimeSec time;
    std::uint64_t seq;  // FIFO tie-break for determinism

    friend bool operator>(const Due& a, const Due& b) {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  struct Event : Due {
    EventKind kind;
    std::int32_t flow_id = -1;        // kStall
    std::uint32_t user_index = 0;     // kUser -> user_callbacks_
  };

  // A flow's finish time at the rate of the recompute that queued it.
  struct Completion : Due {
    std::uint32_t slot;  // the flow's active_ slot
  };

  void push_event(Event e);
  void schedule_recompute();
  void recompute_rates();
  // Add the flow at `slot` to its path links' lists, or take it off them.
  void attach(std::size_t slot);
  void detach(std::size_t slot);
  void deposit(ActiveFlow& f, TimeSec up_to);
  // Queue or move the flow at `slot`'s completion to `done`, or remove it.
  void set_completion(std::size_t slot, TimeSec done);
  void drop_completion(std::size_t slot);
  // Moves the entry at `pos` up or down until completions_ is a heap again,
  // and tells every entry it moves where it now sits.
  void restore_heap(std::size_t pos);
  // The fields a finalized record copies from its flow, ending now; the
  // caller sets bytes_sent, failed and truncated.
  [[nodiscard]] FlowRecord base_record(const ActiveFlow& f) const;
  // Hands a finalized record to records(), the sink and then the tap.
  void emit(const FlowRecord& rec);
  void finalize_flow(std::size_t slot, bool failed, bool truncated);
  void drain_horizon();
  [[nodiscard]] std::ptrdiff_t slot_of(std::int32_t flow_id) const;

  const Topology& topo_;
  FlowSimConfig config_;
  TimeSec now_ = 0;
  std::uint64_t seq_ = 0;
  bool ran_ = false;
  bool running_ = false;
  bool dirty_ = false;             // active set changed since last recompute
  bool recompute_scheduled_ = false;
  TimeSec last_recompute_ = -std::numeric_limits<TimeSec>::infinity();

  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  std::vector<Completion> completions_;  // min-heap, at most one entry per flow
  std::vector<UserCallback> user_callbacks_;    // by Event::user_index
  std::vector<std::uint32_t> free_user_slots_;  // dispatched slots, reused by at()
  std::vector<ActiveFlow> active_;  // dense, swap-remove
  std::vector<FlowRecord> records_;
  RecordSink record_sink_;
  RecordSink record_tap_;  // checkpoint WAL spool (src/ckpt); after the sink
  std::vector<BinnedSeries> link_series_;
  std::size_t started_ = 0;
  std::size_t failed_ = 0;
  std::size_t fault_killed_ = 0;
  std::size_t fault_rerouted_ = 0;
  std::size_t recomputes_ = 0;
  const NetworkState* net_ = nullptr;

  std::vector<std::int32_t> slot_by_flow_;  // flow id -> active_ slot, -1 if gone
  std::vector<std::vector<LinkEntry>> link_flows_;  // per link, in no set order
  std::vector<std::int32_t> used_links_;    // links whose list is not empty
  std::vector<std::uint32_t> used_pos_;     // link -> its index in used_links_
  std::vector<double> link_cap_factor_;     // effective-capacity overlay, 1.0 = nominal
  Rng rng_{0x5eed};

  // Scratch buffers for progressive filling (avoid per-recompute allocation).
  std::vector<double> link_residual_;
  std::vector<std::int32_t> link_nflows_;
  std::vector<std::int32_t> bind_links_;     // used links that can set the water level
  std::vector<BytesPerSec> rate_next_;       // the fill's rate per active_ slot
  IntervalSplit deposit_split_;              // the last deposit's interval over the bins
  std::vector<std::uint8_t> flow_frozen_;

  // Self-instrumentation handles; null until bind_metrics() (obs/obs.h).
  obs::Counter* m_flows_started_ = nullptr;
  obs::Counter* m_flows_completed_ = nullptr;
  obs::Counter* m_flows_failed_ = nullptr;
  obs::Counter* m_flows_truncated_ = nullptr;
  obs::Counter* m_connect_failures_ = nullptr;
  obs::Counter* m_fault_kills_ = nullptr;
  obs::Counter* m_fault_reroutes_ = nullptr;
  obs::Counter* m_bytes_delivered_ = nullptr;
  obs::Counter* m_recomputes_ = nullptr;
  obs::Counter* m_events_ = nullptr;
  obs::Counter* m_flow_deposits_ = nullptr;
  obs::Counter* m_link_deposits_ = nullptr;
  obs::Counter* m_completions_queued_ = nullptr;
  obs::Gauge* m_active_flows_ = nullptr;
  obs::Histogram* m_recompute_ns_ = nullptr;
  obs::Histogram* m_network_change_ns_ = nullptr;
};

}  // namespace dct
