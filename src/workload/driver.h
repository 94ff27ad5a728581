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
  std::int32_t blocks_per_extract_vertex = 1;
  /// §4.4: "applications limit their simultaneously open connections to a
  /// small number" — the shuffle fetch window per aggregate vertex.
  std::int32_t max_fetch_connections = 2;
  /// Stop-and-go pause before launching the next fetch after one completes
  /// (rate-limits flow creation; Fig. 11's periodic inter-arrival modes).
  TimeSec fetch_gap = 0.015;
  BytesPerSec disk_read_rate = 200.0e6;   ///< local block read, bytes/s
  BytesPerSec compute_rate = 250.0e6;     ///< record processing, bytes/s/core
  TimeSec vertex_startup_min = 0.02;      ///< scheduling+process launch delay
  TimeSec vertex_startup_max = 0.25;
  std::int32_t max_read_retries = 1;      ///< retries before a fatal read failure
  /// Backoff before the first read retry; each further retry doubles it up
  /// to `read_retry_max_backoff`, then a seeded +-`read_retry_jitter` jitter
  /// is applied — capped exponential backoff instead of a fixed retry gap.
  TimeSec read_retry_base_backoff = 0.75;
  TimeSec read_retry_max_backoff = 8.0;
  /// Jitter half-width for every backoff draw: the capped delay is scaled
  /// by U[1 - j, 1 + j).  Must be in [0, 1); 0 makes backoffs deterministic
  /// (still seeded-reproducible, the draw is simply degenerate).
  double read_retry_jitter = 0.5;
  /// Baseline probability that a network read fails for non-network reasons
  /// (unresponsive machine, bad software, bad disk sectors — §4.2 notes not
  /// all read failures are congestion).  Gives Fig. 8 its clear-day floor.
  double spontaneous_read_failure_prob = 0.004;
  Bytes control_flow_min = 1 * kKB;       ///< job-manager chatter sizes
  Bytes control_flow_max = 24 * kKB;
  bool locality_enabled = true;           ///< ablation: random placement
  bool chunked_transfers = true;          ///< ablation: unchunked shuffles

  // --- Placement biases --------------------------------------------------------
  /// Probability an aggregate vertex of a regional job is placed near the
  /// job's home VLAN (the rest spread cluster-wide: scatter-gather).
  double aggregate_home_bias = 0.85;
  /// Probability a Combine job's second input is drawn from datasets homed
  /// in the same VLAN as the first input (related datasets co-locate).
  double second_input_locality = 0.8;

  // --- Infrastructure traffic ---------------------------------------------------
  double evacuations_per_hour = 6.0;
  std::int32_t evacuation_max_blocks = 150;
  std::int32_t evacuation_concurrency = 4;
  double ingest_interval_mean = 150.0;  ///< seconds between ingest sessions
  std::int32_t ingest_concurrency = 2;
  std::int32_t egress_concurrency = 2;

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

  // --- Job lifecycle ------------------------------------------------------------
  JobSpec sample_job();
  /// Starts queued jobs while admission slots are free.
  void try_admit();
  void submit_job(JobSpec spec);
  void launch_extract_vertex(JobExec& job, std::size_t vertex_index);
  void extract_read_next(JobExec& job, std::size_t vertex_index);
  /// Issues one leg (primary or hedge) of a remote extract read; all legs
  /// of one block share a HedgeRace that arbitrates first-success-wins.
  void start_extract_read_flow(JobExec& job, std::size_t vertex_index,
                               std::uint32_t epoch, ServerId source, Bytes bytes,
                               std::shared_ptr<HedgeRace> race, bool is_hedge);
  /// Arms the hedge timer for an in-flight remote read when budget allows.
  void maybe_schedule_hedge(JobExec& job, std::size_t vertex_index,
                            std::uint32_t epoch, BlockId block,
                            ServerId primary_source, Bytes bytes,
                            std::shared_ptr<HedgeRace> race);
  void extract_vertex_done(JobExec& job, std::size_t vertex_index);
  void start_aggregate_phase(JobExec& job);
  void launch_aggregate_vertex(JobExec& job, std::size_t vertex_index);
  void aggregate_fetch_next(JobExec& job, std::size_t vertex_index);
  void aggregate_vertex_done(JobExec& job, std::size_t vertex_index);
  void start_combine_reads(JobExec& job, std::size_t vertex_index);
  void start_output_phase(JobExec& job);
  void finish_job(JobExec& job, bool failed);
  void start_egress(JobExec& job);
  void fail_job(JobExec& job);

  // --- Speculative execution ------------------------------------------------------
  void schedule_spec_check();
  /// Scans running jobs for straggling vertices and launches backups.
  void run_spec_check();
  void launch_extract_backup(JobExec& job, std::size_t vertex_index);
  void launch_agg_backup(JobExec& job, std::size_t vertex_index);
  /// Cancels one run of a speculation pair: bumps the epoch so in-flight
  /// callbacks orphan, zeroes its phase outputs, and closes the vertex.
  void cancel_extract_run(JobExec& job, std::size_t vertex_index);
  void cancel_agg_run(JobExec& job, std::size_t vertex_index);

  // --- Infrastructure processes ---------------------------------------------------
  void schedule_next_job_arrival();
  void schedule_next_evacuation();
  void run_evacuation(ServerId victim);
  /// Heals blocks that lost the replica on `failed`: copies them from a
  /// surviving replica to a fresh target (the crash-triggered
  /// generalization of run_evacuation, which streams off the victim).
  /// Legacy immediate fan-out when `repair.paced` is off; queue-based
  /// (enqueue_repairs + pacer) when on.
  void run_rereplication(ServerId failed);

  // --- Recovery-storm control (workload/repair.h) ----------------------------------
  void enqueue_repairs(ServerId failed);
  void schedule_repair_pacer();
  void repair_pacer_tick();
  void dispatch_repair(RepairItem item, ServerId src, ServerId target);
  /// True when the repair path src -> dst crosses a link already running
  /// above the congestion threshold (per the last pacer-tick snapshot).
  [[nodiscard]] bool repair_path_congested(ServerId src, ServerId dst) const;
  [[nodiscard]] std::int32_t live_replica_count(BlockId block) const;
  /// Deterministic capped exponential backoff for repair attempt `attempts`.
  [[nodiscard]] TimeSec repair_backoff(std::int32_t attempts) const;

  // --- Redundancy accounting --------------------------------------------------------
  void redundancy_advance(TimeSec now);
  void note_replica_lost(BlockId block, TimeSec now);
  void note_replica_restored(BlockId block, TimeSec now);
  void schedule_next_ingest();
  void run_ingest();

  // --- Helpers -------------------------------------------------------------------
  void acquire_core(ServerId server, std::function<void()> fn);
  void release_core(ServerId server);
  /// Idempotently releases a vertex's core and decrements the phase's
  /// pending count.  Returns false when the vertex was already closed —
  /// the guard that makes concurrent completion callbacks safe.
  bool close_extract_vertex(JobExec& job, std::size_t vertex_index);
  bool close_agg_vertex(JobExec& job, std::size_t vertex_index);
  void control_flow(ServerId from, ServerId to, JobId job, PhaseId phase);
  /// Straggler slowdown currently in force on `server` (1.0 when healthy).
  [[nodiscard]] double server_slowdown(ServerId server) const;
  [[nodiscard]] TimeSec startup_delay(ServerId server);
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
  /// (Re)builds an aggregate vertex's shuffle fetch list from the extract
  /// outputs; also used when a crashed reducer is re-executed.
  void populate_agg_fetches(JobExec& job, std::size_t vertex_index);
  [[nodiscard]] PhaseId new_phase();
  [[nodiscard]] bool horizon_reached() const;
  /// Feeds the per-phase latency histograms; call after record_phase.
  void note_phase(PhaseKind kind, TimeSec duration);

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
  std::int64_t under_replicated_blocks_ = 0;
  std::int64_t redundancy_loss_episodes_ = 0;
  TimeSec redundancy_first_loss_ = -1;
  TimeSec redundancy_last_restore_ = -1;
  double redundancy_debt_ = 0;
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
