// WorkloadDriver: runs the cluster's application mix on the flow simulator.
//
// The driver reproduces every traffic-generating mechanism the paper
// identifies:
//   * MapReduce-style jobs (Extract -> Partition -> Aggregate [-> Combine]
//     -> Output) with locality-seeking placement — the work-seeks-bandwidth
//     pattern — and cross-cluster shuffles — the scatter-gather pattern.
//   * Connection-capped, stop-and-go shuffle fetches (§4.4's engineering
//     decisions; the source of the ~15 ms inter-arrival modes of Fig. 11).
//   * Chunked transfers (block-store chunking bounds flow sizes; §7 "flow
//     sizes being determined largely by chunking considerations").
//   * Read failures: a flow starved below the stall floor is killed by the
//     simulator; the vertex retries, and a second failure kills the job —
//     §4.2's congestion/read-failure coupling (Fig. 8).
//   * Infrastructure traffic: external ingest and egress, replica writes,
//     server evacuations (§4.2's "unexpected sources of congestion"),
//     and small control flows.
//
// Everything is deterministic given (topology, config, seed).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "flowsim/flowsim.h"
#include "obs/obs.h"
#include "topology/topology.h"
#include "trace/cluster_trace.h"
#include "workload/blockstore.h"
#include "workload/job.h"
#include "workload/placement.h"
#include "workload/repair.h"

namespace dct {

/// All workload knobs.  Defaults give the canonical scaled scenario; the
/// ablation benches flip `locality_enabled`, `chunked_transfers` and
/// `max_fetch_connections`.
struct WorkloadConfig {
  // --- Job mix --------------------------------------------------------------
  double jobs_per_second = 2.5;
  /// Cluster scheduler admission: at most this many jobs run concurrently;
  /// later submissions wait in the job queue (the paper's application logs
  /// include job queues; submit time != start time under load).
  std::int32_t max_concurrent_jobs = 64;
  /// Optional sinusoidal load modulation: the arrival rate becomes
  /// jobs_per_second * (1 + amplitude * sin(2*pi*t/period)).  Amplitude 0
  /// disables.  Long traces use this to show the slow swings of Fig. 10 on
  /// top of the fast churn.
  double diurnal_amplitude = 0.0;
  TimeSec diurnal_period = 3600.0;
  JobClassParams short_jobs{
      .weight = 0.62,
      .input_log_mu = 19.5,  // exp(19.5) ~ 0.3 GB
      .input_log_sigma = 0.8,
      .input_min = 64 * kMB,
      .input_max = 4 * kGB,
      .reducers_min = 2,
      .reducers_max = 4,
      .combine_probability = 0.10,
      .egress_probability = 0.10};
  JobClassParams medium_jobs{
      .weight = 0.30,
      .input_log_mu = 21.5,  // ~ 2.2 GB
      .input_log_sigma = 0.7,
      .input_min = 256 * kMB,
      .input_max = 16 * kGB,
      .reducers_min = 3,
      .reducers_max = 8,
      .combine_probability = 0.25,
      .egress_probability = 0.15};
  JobClassParams production_jobs{
      .weight = 0.08,
      .input_log_mu = 23.0,  // ~ 9.7 GB
      .input_log_sigma = 0.6,
      .input_min = 2 * kGB,
      .input_max = 64 * kGB,
      .reducers_min = 6,
      .reducers_max = 16,
      .combine_probability = 0.35,
      .egress_probability = 0.40};

  // --- Execution model --------------------------------------------------------
  std::int32_t cores_per_server = 2;
  /// §4.4: "applications limit their simultaneously open connections to a
  /// small number" — the shuffle fetch window per aggregate vertex.
  std::int32_t max_fetch_connections = 2;
  /// Stop-and-go pause before launching the next fetch after one completes
  /// (rate-limits flow creation; Fig. 11's periodic inter-arrival modes).
  TimeSec fetch_gap = 0.015;
  TimeSec vertex_startup_min = 0.02;      ///< scheduling+process launch delay
  TimeSec vertex_startup_max = 0.25;
  std::int32_t max_read_retries = 1;      ///< retries before a fatal read failure
  /// Jitter half-width for every backoff draw: the capped delay is scaled
  /// by U[1 - j, 1 + j).  Must be in [0, 1); 0 makes backoffs deterministic
  /// (still seeded-reproducible, the draw is simply degenerate).
  double read_retry_jitter = 0.5;
  /// Baseline probability that a network read fails for non-network reasons
  /// (unresponsive machine, bad software, bad disk sectors — §4.2 notes not
  /// all read failures are congestion).  Gives Fig. 8 its clear-day floor.
  double spontaneous_read_failure_prob = 0.004;
  bool locality_enabled = true;           ///< ablation: random placement
  bool chunked_transfers = true;          ///< ablation: unchunked shuffles

  // --- Placement biases --------------------------------------------------------
  /// Probability an aggregate vertex of a regional job is placed near the
  /// job's home VLAN (the rest spread cluster-wide: scatter-gather).
  double aggregate_home_bias = 0.85;

  // --- Infrastructure traffic ---------------------------------------------------
  double evacuations_per_hour = 6.0;
  std::int32_t evacuation_max_blocks = 150;
  double ingest_interval_mean = 150.0;  ///< seconds between ingest sessions

  // --- Pre-population -------------------------------------------------------------
  std::int32_t initial_datasets = 48;

  // --- Gray-failure mitigations ----------------------------------------------------
  // Both mitigations default OFF and, when off, add zero events and zero
  // rng draws: default-config runs stay bit-identical to older builds.
  /// Dryad/MapReduce-style speculative re-execution: a periodic checker
  /// launches a backup copy of a vertex that has run far longer than the
  /// phase's median; first finisher wins, the loser is cancelled.
  bool speculative_execution = false;
  TimeSec spec_check_interval = 2.0;      ///< straggler-scan period
  /// A vertex is a straggler once its elapsed time exceeds this multiple of
  /// the median completed-vertex duration in the same phase.
  double spec_slowdown_threshold = 2.5;
  /// Fraction of a phase's vertices that must finish before the median is
  /// trusted enough to speculate.
  double spec_min_done_fraction = 0.5;
  std::int32_t spec_budget_per_job = 4;   ///< max backups per job
  /// Jittered pause between speculative launches for one job, so a sick
  /// phase does not spawn its whole backup budget in one scan.
  TimeSec spec_relaunch_backoff = 5.0;

  /// Hedged block reads: if a remote extract read outlives the recent
  /// p`hedge_quantile` read latency, issue a second read from another
  /// replica; first success wins, a lone failure waits for its twin instead
  /// of burning a retry.
  bool hedged_reads = false;
  double hedge_quantile = 0.95;
  TimeSec hedge_min_timeout = 2.0;        ///< hedge-timer floor, seconds
  std::int32_t hedge_budget_per_job = 8;  ///< max hedges per job

  // --- Recovery-storm control ---------------------------------------------------
  /// Paced block repair after server crashes (workload/repair.h).  Off by
  /// default: crash recovery uses the legacy immediate fan-out, bit-identical
  /// to older builds.
  RepairConfig repair;

  void validate() const;
};

/// Post-run workload statistics (placement tiers, read locality, failures).
struct WorkloadStats {
  std::int64_t jobs_submitted = 0;
  std::int64_t jobs_completed = 0;
  std::int64_t jobs_failed = 0;
  std::int64_t extract_reads_local = 0;
  std::int64_t extract_reads_remote = 0;
  std::int64_t shuffle_fetches = 0;
  std::int64_t read_failures = 0;
  std::int64_t evacuations = 0;
  std::int64_t ingest_sessions = 0;
  std::int64_t server_crashes = 0;        ///< injected server faults observed
  std::int64_t vertices_reexecuted = 0;   ///< vertices restarted after a crash
  std::int64_t blocks_rereplicated = 0;   ///< under-replicated blocks healed
  std::int64_t stragglers_observed = 0;   ///< straggler episodes seen by the driver
  std::int64_t spec_launched = 0;         ///< speculative backup vertices started
  std::int64_t spec_wins = 0;             ///< backups that beat their primary
  std::int64_t spec_cancelled = 0;        ///< losing twins cancelled (either side)
  std::int64_t hedges_launched = 0;       ///< hedged second reads issued
  std::int64_t hedge_wins = 0;            ///< hedges that settled their read
  std::int64_t repairs_enqueued = 0;      ///< block repairs queued (paced mode)
  std::int64_t repairs_dispatched = 0;    ///< repair flows actually started
  std::int64_t repairs_deferred = 0;      ///< dispatches deferred by congestion
  std::int64_t repairs_retried = 0;       ///< failed repairs re-queued
  std::int64_t repairs_abandoned = 0;     ///< repairs dropped after max_attempts
  std::int64_t placement_tier[4] = {0, 0, 0, 0};

  [[nodiscard]] double remote_read_fraction() const noexcept {
    const double total =
        static_cast<double>(extract_reads_local + extract_reads_remote);
    return total > 0 ? static_cast<double>(extract_reads_remote) / total : 0.0;
  }
};

/// Replica-redundancy accounting over a run: how many blocks are currently
/// missing at least one replica (a replica on a crashed server is lost until
/// the block is healed or the server recovers), when redundancy was first
/// lost and last fully restored, and the integral of the under-replicated
/// count over time (block-seconds of exposure).  Maintained identically in
/// paced and legacy repair modes so the recovery-storm bench can compare
/// time-to-full-redundancy across arms.
struct RedundancyStats {
  std::int64_t under_replicated = 0;  ///< blocks missing >= 1 replica now
  std::int64_t loss_episodes = 0;     ///< per-block fully->under transitions
  TimeSec first_loss = -1;            ///< first 0 -> >0 transition, -1 = never
  TimeSec last_full_restore = -1;     ///< last >0 -> 0 transition, -1 = never
  double debt_block_seconds = 0;      ///< integral of under_replicated dt
};

/// Drives the workload on a FlowSim.  Construct, call install(), then run
/// the simulator; the trace fills as a side effect.
class WorkloadDriver {
 public:
  WorkloadDriver(const Topology& topo, FlowSim& sim, ClusterTrace& trace,
                 WorkloadConfig config, std::uint64_t seed);
  ~WorkloadDriver();  // out-of-line: JobExec is an implementation detail
  WorkloadDriver(const WorkloadDriver&) = delete;
  WorkloadDriver& operator=(const WorkloadDriver&) = delete;

  /// Pre-populates the block store and schedules job arrivals, ingest and
  /// evacuation processes onto the simulator.  Call exactly once, before
  /// FlowSim::run().
  void install();

  [[nodiscard]] const WorkloadStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const BlockStore& block_store() const noexcept { return store_; }
  [[nodiscard]] const WorkloadConfig& config() const noexcept { return config_; }

  /// Redundancy accounting as of `now` (typically the horizon); the debt
  /// integral is extended to `now` without mutating driver state.
  [[nodiscard]] RedundancyStats redundancy(TimeSec now) const;
  /// Peak depth the repair queue reached (0 on the legacy path).
  [[nodiscard]] std::size_t repair_queue_peak() const noexcept {
    return repair_queue_.peak_depth();
  }

  /// Registers the workload's metrics (docs/METRICS.md, subsystem
  /// "workload") and starts feeding them.  Optional; call before install().
  void bind_metrics(obs::Registry& registry);

  // --- Device-failure integration (wired up by ClusterExperiment) ---------
  /// Reacts to an injected server crash: stops placing work there, orphans
  /// the victim's in-flight callbacks (vertex epochs), re-executes its
  /// unfinished vertices elsewhere, and re-replicates its blocks from
  /// surviving replicas (recovery traffic, FlowKind::kEvacuation).
  void handle_server_crash(ServerId server);
  /// Marks a repaired server placeable again.
  void handle_server_recovery(ServerId server);
  /// Enters a straggler episode: service times (startup, disk, compute) on
  /// `server` stretch by `slowdown` (>= 1) until handle_straggler_end.
  void handle_straggler_start(ServerId server, double slowdown);
  /// Ends a straggler episode; service times on `server` recover.
  void handle_straggler_end(ServerId server);

 private:
  struct JobExec;
  struct HedgeRace;
  struct BlockMover;
  /// Starts one block's transfer and returns true, or returns false to skip
  /// the block.  A started transfer calls block_settled() once.
  using BlockStart = std::function<bool(const std::shared_ptr<BlockMover>&, BlockId)>;
  using BlocksMoved = std::function<void(const BlockMover&)>;

  // --- Job lifecycle ------------------------------------------------------------
  JobSpec sample_job();
  /// Starts queued jobs while admission slots are free.
  void try_admit();
  void submit_job(JobSpec spec);
  void launch_extract_vertex(JobExec& job, std::size_t vertex_index);
  /// Reads the vertex's input block, locally or over the network, and arms
  /// the hedge timer for a remote read when hedging and budget allow.
  void extract_read(JobExec& job, std::size_t vertex_index);
  /// Issues one leg (primary or hedge) of a remote extract read; all legs
  /// of one block share a HedgeRace that arbitrates first-success-wins.
  void start_extract_read_flow(JobExec& job, std::size_t vertex_index, ServerId source,
                               std::shared_ptr<HedgeRace> race, bool is_hedge);
  void extract_vertex_done(JobExec& job, std::size_t vertex_index);
  void start_aggregate_phase(JobExec& job);
  void aggregate_fetch_next(JobExec& job, std::size_t vertex_index);
  /// Closes an aggregate run once none of its fetches is in flight.
  void close_agg_if_idle(JobExec& job, std::size_t vertex_index);
  void aggregate_vertex_done(JobExec& job, std::size_t vertex_index);
  void start_combine_reads(JobExec& job, std::size_t vertex_index);
  void start_output_phase(JobExec& job);
  /// One hop of an output block's replica-write chain.
  void write_output_hop(JobExec& job, std::shared_ptr<const Block> block,
                        std::size_t hop);
  void finish_job(JobExec& job, bool failed);
  void start_egress(JobExec& job);
  void fail_job(JobExec& job);
  /// Decides whether a finished read failed (the network killed it, or a
  /// spontaneous failure strikes) and, if so, logs `rf`.
  bool read_failed(const FlowRecord& rec, ReadFailureRecord rf);
  void record_phase(JobId job, PhaseId phase, PhaseKind kind, TimeSec start,
                    std::size_t vertices, Bytes bytes_in, Bytes bytes_out);

  // --- Vertex runs: one lifecycle for extract and aggregate -----------------------
  // A `Phase` is a job's extract or aggregate runs (JobExec::extract, ::agg);
  // kPhase points at one, kStep at the member function a run calls next.
  /// Idempotently releases a run's core and, for a primary, decrements the
  /// phase's pending count.  Returns false when the run was already closed —
  /// the guard that makes concurrent completion callbacks safe.
  template <class Phase>
  bool close_run(Phase& phase, std::size_t vertex_index);
  /// Cancels one run of a speculation pair: bumps the epoch so in-flight
  /// callbacks orphan, discards its output, and closes it.
  template <class Phase>
  void cancel_run(Phase& phase, std::size_t vertex_index);
  /// Cancels a backup and unlinks it from its primary, which still runs.
  template <class Phase>
  void abandon_backup(Phase& phase, std::size_t vertex_index);
  /// Ends a run that finished its work.  First finisher wins: the run's twin
  /// is cancelled while still open.  Returns true when this run completes
  /// the phase of a job that is still live.
  template <class Phase>
  bool finish_run(JobExec& job, Phase& phase, std::size_t vertex_index);
  /// Appends `backup` as the twin of primary `vertex_index`, charges the
  /// job's speculation budget and returns the backup's index.
  template <class Phase, class Vertex>
  std::size_t add_backup(JobExec& job, Phase& phase, std::size_t vertex_index,
                         Vertex backup);
  /// Launches a backup of the phase's first straggling primary.
  template <class Phase>
  void speculate(JobExec& job, Phase& phase,
                 void (WorkloadDriver::*launch_backup)(JobExec&, std::size_t));
  /// Handles the phase's open runs on a crashed server: a backup is
  /// abandoned, a primary whose twin survives is retired, and any other run
  /// restarts from scratch through `relaunch(vertex_index)`.
  template <class Phase, class Relaunch>
  void recover_runs(Phase& phase, ServerId server, Relaunch relaunch);
  /// Takes a core on the run's server, waits out the startup delay, tells
  /// the job manager and calls kFirstStep.
  template <auto kPhase, auto kFirstStep>
  void start_run(JobExec& job, std::size_t vertex_index);
  /// Calls kStep for the run at `t`, or closes the run when `t` is past the
  /// horizon.  A callback of an older incarnation (epoch) is dropped.
  template <auto kPhase, auto kStep>
  void step_at(JobExec& job, std::size_t vertex_index, TimeSec t);

  // --- Speculative execution ------------------------------------------------------
  void schedule_spec_check();
  /// Scans running jobs for straggling vertices and launches backups.
  void run_spec_check();
  void launch_extract_backup(JobExec& job, std::size_t vertex_index);
  void launch_agg_backup(JobExec& job, std::size_t vertex_index);

  // --- Block mover: evacuation, crash re-replication, ingest, egress ------------
  /// Starts the transfer of each block in order, at most `concurrency` at
  /// once, and calls `finish` (when set) once the last one has settled.
  void move_blocks(std::vector<BlockId> blocks, std::int32_t concurrency,
                   BlockStart start, BlocksMoved finish = {});
  void pump_blocks(const std::shared_ptr<BlockMover>& mover);
  void block_settled(const std::shared_ptr<BlockMover>& mover);
  /// The blocks an evacuation or a crash repair moves off `server`.
  [[nodiscard]] std::vector<BlockId> blocks_to_move(ServerId server) const;
  /// A new holder for the replica of `block` on `from`, re-drawn up to
  /// four times while the pick is down.
  [[nodiscard]] ServerId repair_target(BlockId block, ServerId from);
  /// Moves the replica of `block` from `from` to `to` after a copy lands,
  /// unless the copy failed or the block moved meanwhile.
  bool land_replica(const FlowRecord& rec, BlockId block, ServerId from, ServerId to);
  /// land_replica for a crash repair, counted as a healed block.
  bool heal_block(const FlowRecord& rec, BlockId block, ServerId failed, ServerId to);
  /// An evacuation or repair copy of `block` from `src` to `dst`.
  [[nodiscard]] FlowSpec block_copy(BlockId block, ServerId src, ServerId dst) const;

  // --- Infrastructure processes ---------------------------------------------------
  void schedule_next_job_arrival();
  void schedule_next_evacuation();
  void run_evacuation(ServerId victim);
  /// Heals blocks that lost the replica on `failed`: copies them from a
  /// surviving replica to a fresh target (the crash-triggered
  /// generalization of run_evacuation, which streams off the victim).
  /// Legacy immediate fan-out when `repair.paced` is off; when on, the
  /// blocks join the repair queue and the pacer dispatches them.
  void run_rereplication(ServerId failed);

  // --- Recovery-storm control (workload/repair.h) ----------------------------------
  /// Publishes the repair queue's depth and arms the pacer unless idle.
  void schedule_repair_pacer();
  void repair_pacer_tick();
  void dispatch_repair(RepairItem item, ServerId src, ServerId target);
  /// Charges a failed repair attempt: requeues the item after backoff, or
  /// abandons it once max_attempts are spent.  Returns whether it requeued.
  bool requeue_repair(RepairItem item, TimeSec now);
  /// True when the repair path src -> dst crosses a link already running
  /// above the congestion threshold (per the last pacer-tick snapshot).
  [[nodiscard]] bool repair_path_congested(ServerId src, ServerId dst) const;
  /// A link's utilization at the last pacer tick (0 when unknown).
  [[nodiscard]] double snapshot_util(LinkId link) const;
  [[nodiscard]] std::int32_t live_replica_count(BlockId block) const;
  /// Deterministic capped exponential backoff for repair attempt `attempts`.
  [[nodiscard]] TimeSec repair_backoff(std::int32_t attempts) const;

  // --- Redundancy accounting --------------------------------------------------------
  void redundancy_advance(TimeSec now);
  void note_replica_lost(BlockId block, TimeSec now);
  void note_replica_restored(BlockId block, TimeSec now);
  void schedule_next_ingest();
  void run_ingest();
  /// One hop of an ingest block's chain: external -> replica 0 -> 1 -> 2.
  void ingest_hop(const std::shared_ptr<BlockMover>& mover, BlockId block,
                  ServerId ext, std::size_t hop);

  // --- Helpers -------------------------------------------------------------------
  void acquire_core(ServerId server, std::function<void()> fn);
  void release_core(ServerId server);
  void control_flow(ServerId from, ServerId to, JobId job, PhaseId phase);
  /// Straggler slowdown currently in force on `server` (1.0 when healthy).
  [[nodiscard]] double server_slowdown(ServerId server) const;
  [[nodiscard]] TimeSec startup_delay(ServerId server);
  /// A uniformly drawn server in [first, end).
  [[nodiscard]] ServerId draw_server(std::int32_t first, std::int32_t end);
  [[nodiscard]] TimeSec compute_delay(ServerId server, Bytes bytes);
  [[nodiscard]] TimeSec disk_read_delay(ServerId server, Bytes bytes) const;
  /// Capped exponential backoff with jitter for read retry `attempt` (1-based).
  [[nodiscard]] TimeSec retry_backoff(std::int32_t attempt);
  /// Hedge-timer delay: jittered p-quantile of recent remote read times.
  [[nodiscard]] TimeSec hedge_timeout();
  void note_remote_read_duration(TimeSec duration);
  [[nodiscard]] bool is_server_down(ServerId s) const;
  /// Returns `s` when it is up, otherwise re-places onto a live server.
  /// Draws no randomness while every server is up.
  [[nodiscard]] ServerId ensure_up(ServerId s);
  /// Closest replica that is up; falls back to the closest one when every
  /// holder is down (the read then fails and retries later).
  [[nodiscard]] ServerId pick_live_replica(BlockId block, ServerId near);
  /// The first live holder of `block` other than `than`, or `than` if none.
  [[nodiscard]] ServerId other_live_replica(BlockId block, ServerId than) const;
  /// (Re)builds an aggregate vertex's shuffle fetch list from the extract
  /// outputs; also used when a crashed reducer is re-executed.
  void populate_agg_fetches(JobExec& job, std::size_t vertex_index);
  [[nodiscard]] PhaseId new_phase();
  [[nodiscard]] bool horizon_reached() const;

  const Topology& topo_;
  FlowSim& sim_;
  ClusterTrace& trace_;
  WorkloadConfig config_;
  Rng rng_;
  BlockStore store_;
  ServerResources resources_;
  Placer placer_;
  WorkloadStats stats_;

  std::vector<DatasetId> available_datasets_;
  std::vector<std::uint8_t> server_down_;  ///< crash state (faults subsystem)
  std::vector<double> server_slowdown_;    ///< straggler factor per server (1 = healthy)
  /// Ring buffer of recent remote extract-read durations feeding the hedge
  /// timeout quantile.  Only maintained while hedged_reads is on.
  std::vector<TimeSec> remote_read_durations_;
  std::size_t remote_read_cursor_ = 0;
  /// Separate substream for mitigation decisions (hedge jitter, backup
  /// placement retries) so turning a mitigation on cannot shift the draws
  /// of the main workload stream.
  Rng mitigation_rng_;
  std::vector<std::unique_ptr<JobExec>> jobs_;
  std::vector<std::deque<std::function<void()>>> core_waiters_;
  std::deque<JobSpec> job_queue_;  ///< submitted, waiting for admission
  std::int32_t running_jobs_ = 0;
  std::int32_t next_phase_ = 0;
  std::int32_t next_job_ = 0;

  // Recovery-storm control state (all quiescent when repair.paced is off).
  RepairQueue repair_queue_;
  bool repair_pacer_scheduled_ = false;
  std::vector<double> repair_rate_snapshot_;  // refreshed each pacer tick

  // Redundancy accounting (maintained in both repair modes; empty/zero in
  // fault-free runs, so default-off behavior is untouched).
  std::vector<std::int32_t> block_down_replicas_;  // lazily sized by block id
  RedundancyStats redundancy_;  // its debt integral runs to redundancy_last_update_
  TimeSec redundancy_last_update_ = 0;

  // Self-instrumentation handles; null until bind_metrics() (obs/obs.h).
  obs::Counter* m_jobs_submitted_ = nullptr;
  obs::Counter* m_jobs_completed_ = nullptr;
  obs::Counter* m_jobs_failed_ = nullptr;
  obs::Counter* m_read_failures_ = nullptr;
  obs::Counter* m_read_retries_ = nullptr;
  obs::Counter* m_rereplication_bytes_ = nullptr;
  obs::Counter* m_vertices_reexecuted_ = nullptr;
  obs::Histogram* m_phase_extract_s_ = nullptr;
  obs::Histogram* m_phase_aggregate_s_ = nullptr;
  obs::Histogram* m_phase_combine_s_ = nullptr;
  obs::Histogram* m_phase_output_s_ = nullptr;
  obs::Histogram* m_job_s_ = nullptr;
  obs::Histogram* m_retry_backoff_s_ = nullptr;
  obs::Counter* m_stragglers_ = nullptr;
  obs::Counter* m_spec_launched_ = nullptr;
  obs::Counter* m_spec_wins_ = nullptr;
  obs::Counter* m_hedges_ = nullptr;
  obs::Counter* m_hedge_wins_ = nullptr;
  obs::Gauge* m_repair_queue_depth_ = nullptr;
  obs::Counter* m_repairs_dispatched_ = nullptr;
  obs::Counter* m_repairs_deferred_ = nullptr;
  obs::Gauge* m_under_replicated_ = nullptr;
  obs::Gauge* m_time_to_redundancy_s_ = nullptr;
};

}  // namespace dct
