#include "workload/driver.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numbers>

#include "common/require.h"

namespace dct {

void WorkloadConfig::validate() const {
  require(jobs_per_second >= 0, "WorkloadConfig: jobs_per_second must be >= 0");
  require(max_concurrent_jobs >= 1, "WorkloadConfig: max_concurrent_jobs must be >= 1");
  require(diurnal_amplitude >= 0 && diurnal_amplitude <= 1,
          "WorkloadConfig: diurnal_amplitude must be in [0,1]");
  require(diurnal_period > 0, "WorkloadConfig: diurnal_period must be > 0");
  require(cores_per_server >= 1, "WorkloadConfig: cores_per_server must be >= 1");
  require(max_fetch_connections >= 1,
          "WorkloadConfig: max_fetch_connections must be >= 1");
  require(fetch_gap >= 0, "WorkloadConfig: fetch_gap must be >= 0");
  require(vertex_startup_min >= 0 && vertex_startup_max >= vertex_startup_min,
          "WorkloadConfig: bad vertex startup range");
  require(max_read_retries >= 0, "WorkloadConfig: max_read_retries must be >= 0");
  require(read_retry_jitter >= 0 && read_retry_jitter < 1,
          "WorkloadConfig: read_retry_jitter must be in [0, 1)");
  require(spec_check_interval > 0, "WorkloadConfig: spec_check_interval must be > 0");
  require(spec_slowdown_threshold >= 1,
          "WorkloadConfig: spec_slowdown_threshold must be >= 1");
  require(spec_min_done_fraction > 0 && spec_min_done_fraction <= 1,
          "WorkloadConfig: spec_min_done_fraction must be in (0, 1]");
  require(spec_budget_per_job >= 0, "WorkloadConfig: spec_budget_per_job must be >= 0");
  require(spec_relaunch_backoff >= 0,
          "WorkloadConfig: spec_relaunch_backoff must be >= 0");
  require(hedge_quantile > 0 && hedge_quantile < 1,
          "WorkloadConfig: hedge_quantile must be in (0, 1)");
  require(hedge_min_timeout > 0, "WorkloadConfig: hedge_min_timeout must be > 0");
  require(hedge_budget_per_job >= 0,
          "WorkloadConfig: hedge_budget_per_job must be >= 0");
  require(aggregate_home_bias >= 0 && aggregate_home_bias <= 1,
          "WorkloadConfig: aggregate_home_bias must be in [0,1]");
  require(initial_datasets >= 1, "WorkloadConfig: need at least one initial dataset");
  repair.validate();
}

namespace {
/// One bounded-size shuffle/combine fetch.
struct FetchItem {
  ServerId src;
  Bytes bytes = 0;
  FlowKind kind = FlowKind::kShuffle;
  PhaseId phase;
};

/// One run of a vertex, extract or aggregate.
struct VertexRun {
  ServerId server;
  std::int32_t retries_left = 0;
  bool closed = false;  ///< core released & pending decremented
  bool has_core = false;
  /// Bumped when the run is re-executed after a server crash or cancelled;
  /// every queued callback captures the epoch it was created under and
  /// no-ops when it no longer matches.
  std::uint32_t epoch = 0;
  TimeSec run_start = 0;           ///< when this run was (re)launched
  std::int32_t backup_of = -1;     ///< >= 0: speculative twin of that primary
  std::int32_t backup_index = -1;  ///< primary only: index of its live backup
};

/// An extract vertex reads one input block, then extracts and partitions
/// it (pipelined).
struct ExtractVertex : VertexRun {
  BlockId block;
  Bytes bytes_read = 0;
  Bytes map_output = 0;
  /// A cancelled or re-executed run contributes nothing downstream.
  void discard_output() { bytes_read = map_output = 0; }
};

struct AggVertex : VertexRun {
  std::vector<FetchItem> fetches;
  std::size_t next_fetch = 0;
  std::int32_t in_flight = 0;
  Bytes bytes_fetched = 0;
  bool in_combine = false;  ///< currently reading the second input
  /// The output phase must not bill a cancelled or re-executed run's bytes.
  void discard_output() {
    in_flight = 0;
    bytes_fetched = 0;
    in_combine = false;
  }
};

/// The k-th smallest of `values` (k < size).
TimeSec nth_value(std::vector<TimeSec> values, std::size_t k) {
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(k),
                   values.end());
  return values[k];
}

/// One phase's runs: the primaries, then speculative backups appended at
/// the tail.  Phase records and the pending count cover primaries only.
template <class Vertex>
struct PhaseRuns {
  std::vector<Vertex> runs;
  std::size_t pending = 0;
  std::size_t primaries = 0;
  std::vector<TimeSec> durations;  ///< completed runs (spec median)
  PhaseId id;
  TimeSec start = 0;
};
}  // namespace

/// Execution state of one job.
struct WorkloadDriver::JobExec {
  JobSpec spec;
  ServerId manager;          ///< server running the job manager (control flows)
  TimeSec start_time = 0;
  bool failed = false;
  bool finished = false;

  PhaseRuns<ExtractVertex> extract;
  Bytes extract_bytes_in = 0;

  PhaseRuns<AggVertex> agg;
  PhaseId combine_phase;     ///< invalid unless the job joins a second input
  TimeSec combine_start = -1;
  Bytes shuffle_bytes = 0;
  Bytes combine_bytes = 0;

  PhaseId output_phase;
  TimeSec output_start = 0;
  std::size_t output_writes_pending = 0;
  Bytes output_bytes = 0;
  DatasetId output_dataset = -1;

  std::int32_t spec_budget = 0;   ///< speculative backups launched so far
  TimeSec next_spec_time = 0;     ///< earliest time the next backup may launch
  std::int32_t hedge_budget = 0;  ///< hedged reads issued so far
};

/// Shared arbitration state between the legs (primary + optional hedge) of
/// one remote block read: first success wins, a lone failure waits for its
/// twin, and whoever finds the race settled simply drops out.
struct WorkloadDriver::HedgeRace {
  bool settled = false;          ///< a leg already delivered the block
  std::int32_t outstanding = 0;  ///< legs still in flight
};

/// A bounded block mover's state.  Its in-flight transfers own it, so it
/// is freed when the last one settles.
struct WorkloadDriver::BlockMover {
  std::vector<BlockId> blocks;
  std::size_t next = 0;
  std::int32_t in_flight = 0;
  std::int32_t concurrency = 1;
  Bytes moved_bytes = 0;
  std::int32_t moved_blocks = 0;
  BlockStart start;
  BlocksMoved finish;
};

WorkloadDriver::~WorkloadDriver() = default;

WorkloadDriver::WorkloadDriver(const Topology& topo, FlowSim& sim, ClusterTrace& trace,
                               WorkloadConfig config, std::uint64_t seed)
    : topo_(topo),
      sim_(sim),
      trace_(trace),
      config_(config),
      rng_(seed),
      store_(topo, BlockStoreConfig{}, rng_.fork(1)),
      resources_(topo, config.cores_per_server),
      placer_(topo, resources_, rng_.fork(2), config.locality_enabled),
      server_down_(static_cast<std::size_t>(topo.server_count()), 0),
      server_slowdown_(static_cast<std::size_t>(topo.server_count()), 1.0),
      mitigation_rng_(rng_.fork(3)),
      core_waiters_(static_cast<std::size_t>(topo.server_count())),
      repair_queue_(config_.repair) {
  config_.validate();
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

bool WorkloadDriver::horizon_reached() const {
  return sim_.now() >= sim_.config().end_time;
}

PhaseId WorkloadDriver::new_phase() { return PhaseId{next_phase_++}; }

double WorkloadDriver::server_slowdown(ServerId server) const {
  const auto si = static_cast<std::size_t>(server.value());
  return si < server_slowdown_.size() ? server_slowdown_[si] : 1.0;
}

ServerId WorkloadDriver::draw_server(std::int32_t first, std::int32_t end) {
  return ServerId{static_cast<std::int32_t>(rng_.uniform_int(first, end - 1))};
}

TimeSec WorkloadDriver::startup_delay(ServerId server) {
  // The straggler factor multiplies *after* the draw, so a healthy cluster
  // (factor 1.0 everywhere) stays bit-identical to builds without it.
  return rng_.uniform(config_.vertex_startup_min, config_.vertex_startup_max) *
         server_slowdown(server);
}

// Record processing per core, and local block reads, in bytes/s.
constexpr BytesPerSec kComputeRate = 250.0e6;
constexpr BytesPerSec kDiskReadRate = 200.0e6;
static_assert(kComputeRate > 0 && kDiskReadRate > 0);

TimeSec WorkloadDriver::compute_delay(ServerId server, Bytes bytes) {
  // +-20% jitter around bytes / per-core rate.
  const double base = static_cast<double>(bytes) / kComputeRate;
  return base * rng_.uniform(0.8, 1.2) * server_slowdown(server);
}

TimeSec WorkloadDriver::disk_read_delay(ServerId server, Bytes bytes) const {
  return static_cast<double>(bytes) / kDiskReadRate * server_slowdown(server);
}

// Backoff before the first read retry; each further retry doubles it up
// to kReadRetryMaxBackoff, then a seeded +-`read_retry_jitter` jitter is
// applied — capped exponential backoff instead of a fixed retry gap.
constexpr TimeSec kReadRetryBaseBackoff = 0.75;
constexpr TimeSec kReadRetryMaxBackoff = 8.0;
static_assert(kReadRetryBaseBackoff > 0 &&
              kReadRetryMaxBackoff >= kReadRetryBaseBackoff);

TimeSec WorkloadDriver::retry_backoff(std::int32_t attempt) {
  // min(max, base * 2^(attempt-1)) scaled by U[1-j, 1+j) jitter — exactly
  // one rng draw, like the fixed gap it replaced.
  const double doubled =
      kReadRetryBaseBackoff * std::ldexp(1.0, std::min(attempt - 1, 30));
  const double capped = std::min<double>(kReadRetryMaxBackoff, doubled);
  const TimeSec backoff = capped * rng_.uniform(1.0 - config_.read_retry_jitter,
                                                1.0 + config_.read_retry_jitter);
  DCT_OBS_INC(m_read_retries_);
  DCT_OBS_OBSERVE(m_retry_backoff_s_, backoff);
  return backoff;
}

TimeSec WorkloadDriver::hedge_timeout() {
  // Jittered p-quantile of the recent remote-read window, floored so the
  // hedge never fires inside the normal service-time band.
  TimeSec q = config_.hedge_min_timeout;
  if (!remote_read_durations_.empty()) {
    q = std::max(q, nth_value(remote_read_durations_,
                              static_cast<std::size_t>(
                                  config_.hedge_quantile *
                                  static_cast<double>(remote_read_durations_.size() - 1))));
  }
  return q * mitigation_rng_.uniform(1.0, 1.0 + config_.read_retry_jitter);
}

void WorkloadDriver::note_remote_read_duration(TimeSec duration) {
  constexpr std::size_t kWindow = 512;
  if (remote_read_durations_.size() < kWindow) {
    remote_read_durations_.push_back(duration);
    return;
  }
  remote_read_durations_[remote_read_cursor_] = duration;
  remote_read_cursor_ = (remote_read_cursor_ + 1) % kWindow;
}

void WorkloadDriver::record_phase(JobId job, PhaseId phase, PhaseKind kind,
                                  TimeSec start, std::size_t vertices, Bytes bytes_in,
                                  Bytes bytes_out) {
  const TimeSec duration = sim_.now() - start;
  trace_.record_phase({.job = job,
                       .phase = phase,
                       .kind = kind,
                       .start = start,
                       .end = sim_.now(),
                       .vertices = static_cast<std::int32_t>(vertices),
                       .bytes_in = bytes_in,
                       .bytes_out = bytes_out});
  switch (kind) {
    case PhaseKind::kExtract: DCT_OBS_OBSERVE(m_phase_extract_s_, duration); break;
    case PhaseKind::kPartition: break;  // pipelined with extract, never recorded
    case PhaseKind::kAggregate: DCT_OBS_OBSERVE(m_phase_aggregate_s_, duration); break;
    case PhaseKind::kCombine: DCT_OBS_OBSERVE(m_phase_combine_s_, duration); break;
    case PhaseKind::kOutput: DCT_OBS_OBSERVE(m_phase_output_s_, duration); break;
  }
}

void WorkloadDriver::bind_metrics(obs::Registry& registry) {
  m_jobs_submitted_ = registry.counter("workload", "jobs_submitted", "jobs");
  m_jobs_completed_ = registry.counter("workload", "jobs_completed", "jobs");
  m_jobs_failed_ = registry.counter("workload", "jobs_failed", "jobs");
  m_read_failures_ = registry.counter("workload", "read_failures", "reads");
  m_read_retries_ = registry.counter("workload", "read_retries", "retries");
  m_rereplication_bytes_ =
      registry.counter("workload", "rereplication_bytes", "bytes");
  m_vertices_reexecuted_ =
      registry.counter("workload", "vertices_reexecuted", "vertices");
  m_phase_extract_s_ = registry.histogram("workload", "phase_seconds_extract", "s");
  m_phase_aggregate_s_ = registry.histogram("workload", "phase_seconds_aggregate", "s");
  m_phase_combine_s_ = registry.histogram("workload", "phase_seconds_combine", "s");
  m_phase_output_s_ = registry.histogram("workload", "phase_seconds_output", "s");
  m_job_s_ = registry.histogram("workload", "job_seconds", "s");
  m_retry_backoff_s_ = registry.histogram("workload", "retry_backoff_seconds", "s");
  m_stragglers_ = registry.counter("workload", "stragglers_observed", "episodes");
  m_spec_launched_ = registry.counter("workload", "spec_launched", "vertices");
  m_spec_wins_ = registry.counter("workload", "spec_wins", "vertices");
  m_hedges_ = registry.counter("workload", "hedges_launched", "reads");
  m_hedge_wins_ = registry.counter("workload", "hedge_wins", "reads");
  m_repair_queue_depth_ = registry.gauge("workload", "repair_queue_depth", "blocks");
  m_repairs_dispatched_ = registry.counter("workload", "repairs_dispatched", "flows");
  m_repairs_deferred_ =
      registry.counter("workload", "repairs_deferred", "dispatches");
  m_under_replicated_ =
      registry.gauge("workload", "under_replicated_blocks", "blocks");
  m_time_to_redundancy_s_ = registry.gauge("workload", "time_to_redundancy", "s");
}

bool WorkloadDriver::is_server_down(ServerId s) const {
  return server_down_[static_cast<std::size_t>(s.value())] != 0;
}

ServerId WorkloadDriver::ensure_up(ServerId s) {
  if (!is_server_down(s)) return s;
  for (int attempt = 0; attempt < 8; ++attempt) {
    const PlacementDecision d = placer_.place_anywhere();
    if (!is_server_down(d.server)) return d.server;
  }
  for (std::int32_t i = 0; i < topo_.internal_server_count(); ++i) {
    if (server_down_[static_cast<std::size_t>(i)] == 0) return ServerId{i};
  }
  return s;  // the whole cluster is down; nothing better to offer
}

ServerId WorkloadDriver::pick_live_replica(BlockId block, ServerId near) {
  const ServerId closest = store_.closest_replica(block, near);
  // Every holder down: the closest it is, and the read fails and retries.
  return is_server_down(closest) ? other_live_replica(block, closest) : closest;
}

ServerId WorkloadDriver::other_live_replica(BlockId block, ServerId than) const {
  for (ServerId r : store_.block(block).replicas) {
    if (r != than && !is_server_down(r)) return r;
  }
  return than;
}

void WorkloadDriver::acquire_core(ServerId server, std::function<void()> fn) {
  if (resources_.try_acquire(server)) {
    fn();
    return;
  }
  core_waiters_[static_cast<std::size_t>(server.value())].push_back(std::move(fn));
}

void WorkloadDriver::release_core(ServerId server) {
  resources_.release(server);
  auto& q = core_waiters_[static_cast<std::size_t>(server.value())];
  if (q.empty()) return;
  auto fn = std::move(q.front());
  q.pop_front();
  const bool ok = resources_.try_acquire(server);
  ensure(ok, "core handoff failed");
  fn();
}

// Job-manager chatter sizes, drawn uniformly.
constexpr Bytes kControlFlowMin = 1 * kKB;
constexpr Bytes kControlFlowMax = 24 * kKB;

void WorkloadDriver::control_flow(ServerId from, ServerId to, JobId job, PhaseId phase) {
  if (from == to) return;
  sim_.start_flow({.src = from,
                   .dst = to,
                   .bytes = rng_.uniform_int(kControlFlowMin, kControlFlowMax),
                   .job = job,
                   .phase = phase,
                   .kind = FlowKind::kControl});
}

bool WorkloadDriver::read_failed(const FlowRecord& rec, ReadFailureRecord rf) {
  if (!rec.failed && !rng_.bernoulli(config_.spontaneous_read_failure_prob)) {
    return false;
  }
  ++stats_.read_failures;
  DCT_OBS_INC(m_read_failures_);
  rf.time = sim_.now();
  trace_.record_read_failure(rf);
  return true;
}

// ---------------------------------------------------------------------------
// Vertex runs: the lifecycle extract and aggregate share
// ---------------------------------------------------------------------------

template <class Phase>
bool WorkloadDriver::close_run(Phase& phase, std::size_t vertex_index) {
  auto& v = phase.runs[vertex_index];
  if (v.closed) return false;
  v.closed = true;
  if (v.has_core) {
    v.has_core = false;
    release_core(v.server);
  }
  // Backups ride along: the phase's pending count tracks primaries only.
  // When a backup wins, cancelling the primary performs the decrement.
  if (v.backup_of < 0) --phase.pending;
  return true;
}

template <class Phase>
void WorkloadDriver::cancel_run(Phase& phase, std::size_t vertex_index) {
  auto& v = phase.runs[vertex_index];
  if (v.closed) return;
  ++v.epoch;  // orphan every in-flight callback of this run
  v.discard_output();
  ++stats_.spec_cancelled;
  close_run(phase, vertex_index);
}

template <class Phase>
void WorkloadDriver::abandon_backup(Phase& phase, std::size_t vertex_index) {
  auto& primary = phase.runs[static_cast<std::size_t>(phase.runs[vertex_index].backup_of)];
  if (primary.backup_index == static_cast<std::int32_t>(vertex_index)) {
    primary.backup_index = -1;
  }
  cancel_run(phase, vertex_index);
}

template <class Phase>
bool WorkloadDriver::finish_run(JobExec& job, Phase& phase, std::size_t vertex_index) {
  // Cancel the losing twin before this run closes, so only one copy's
  // output feeds the next phase.
  const auto& v = phase.runs[vertex_index];
  if (v.backup_of >= 0) {
    if (!phase.runs[static_cast<std::size_t>(v.backup_of)].closed) {
      ++stats_.spec_wins;
      DCT_OBS_INC(m_spec_wins_);
      cancel_run(phase, static_cast<std::size_t>(v.backup_of));
    }
  } else if (v.backup_index >= 0 &&
             !phase.runs[static_cast<std::size_t>(v.backup_index)].closed) {
    cancel_run(phase, static_cast<std::size_t>(v.backup_index));
  }
  if (!close_run(phase, vertex_index)) return false;
  phase.durations.push_back(sim_.now() - v.run_start);
  control_flow(v.server, job.manager, job.spec.id, phase.id);
  return phase.pending == 0 && !job.failed && !horizon_reached();
}

template <class Phase, class Vertex>
std::size_t WorkloadDriver::add_backup(JobExec& job, Phase& phase,
                                       std::size_t vertex_index, Vertex backup) {
  backup.retries_left = config_.max_read_retries;
  backup.backup_of = static_cast<std::int32_t>(vertex_index);
  const std::size_t bi = phase.runs.size();
  phase.runs.push_back(std::move(backup));
  phase.runs[vertex_index].backup_index = static_cast<std::int32_t>(bi);
  ++job.spec_budget;
  job.next_spec_time =
      sim_.now() + config_.spec_relaunch_backoff *
                       mitigation_rng_.uniform(1.0 - config_.read_retry_jitter,
                                               1.0 + config_.read_retry_jitter);
  ++stats_.spec_launched;
  DCT_OBS_INC(m_spec_launched_);
  return bi;
}

template <class Phase>
void WorkloadDriver::speculate(JobExec& job, Phase& phase,
                               void (WorkloadDriver::*launch_backup)(JobExec&,
                                                                     std::size_t)) {
  if (phase.primaries == 0 ||
      static_cast<double>(phase.durations.size()) <
          config_.spec_min_done_fraction * static_cast<double>(phase.primaries)) {
    return;
  }
  // Straggler test: elapsed time vs a multiple of the median completed
  // duration of the same phase (Dryad/MapReduce backup-task heuristic).
  const TimeSec threshold = std::max(
      config_.spec_slowdown_threshold *
          nth_value(phase.durations, phase.durations.size() / 2),
      1e-3);
  // At most one backup per job per scan; add_backup pushes next_spec_time
  // forward, so a sick phase drains its budget gradually.
  for (std::size_t vi = 0; vi < phase.primaries; ++vi) {
    const auto& v = phase.runs[vi];
    if (v.closed || v.backup_index >= 0) continue;
    if (sim_.now() - v.run_start <= threshold) continue;
    (this->*launch_backup)(job, vi);
    return;
  }
}

template <class Phase, class Relaunch>
void WorkloadDriver::recover_runs(Phase& phase, ServerId server, Relaunch relaunch) {
  for (std::size_t vi = 0; vi < phase.runs.size(); ++vi) {
    auto& v = phase.runs[vi];
    if (v.closed || v.server != server) continue;
    if (v.backup_of >= 0) {
      abandon_backup(phase, vi);  // its primary still runs
      continue;
    }
    if (v.backup_index >= 0 &&
        !phase.runs[static_cast<std::size_t>(v.backup_index)].closed) {
      // The primary died but its speculative twin survives: the twin IS
      // the re-execution, so just retire the dead run.
      cancel_run(phase, vi);
      continue;
    }
    ++v.epoch;  // orphan every callback of the old incarnation
    if (v.has_core) {
      v.has_core = false;
      release_core(v.server);
    }
    if (horizon_reached()) {
      close_run(phase, vi);
      continue;
    }
    // Re-execute from scratch: partial output died with the server.
    v.discard_output();
    v.retries_left = config_.max_read_retries;
    ++stats_.vertices_reexecuted;
    DCT_OBS_INC(m_vertices_reexecuted_);
    relaunch(vi);
  }
}

template <auto kPhase, auto kFirstStep>
void WorkloadDriver::start_run(JobExec& job, std::size_t vertex_index) {
  auto& v = (job.*kPhase).runs[vertex_index];
  v.run_start = sim_.now();
  JobExec* jp = &job;
  const std::uint32_t ep = v.epoch;
  const ServerId srv = v.server;
  acquire_core(srv, [this, jp, vertex_index, ep, srv] {
    auto& phase = jp->*kPhase;
    auto& vertex = phase.runs[vertex_index];
    if (vertex.epoch != ep) {
      // Granted to a stale incarnation (the vertex was re-executed elsewhere
      // while this waited in the core queue): hand the core straight back.
      release_core(srv);
      return;
    }
    vertex.has_core = true;
    if (jp->failed || horizon_reached()) {
      close_run(phase, vertex_index);
      return;
    }
    const TimeSec t = sim_.now() + startup_delay(srv);
    if (t >= sim_.config().end_time) {
      close_run(phase, vertex_index);
      return;
    }
    sim_.at(t, [this, jp, vertex_index, ep](FlowSim&) {
      const auto& run = (jp->*kPhase).runs[vertex_index];
      if (run.epoch != ep) return;
      control_flow(jp->manager, run.server, jp->spec.id, (jp->*kPhase).id);
      (this->*kFirstStep)(*jp, vertex_index);
    });
  });
}

template <auto kPhase, auto kStep>
void WorkloadDriver::step_at(JobExec& job, std::size_t vertex_index, TimeSec t) {
  if (t >= sim_.config().end_time) {
    close_run(job.*kPhase, vertex_index);
    return;
  }
  JobExec* jp = &job;
  const std::uint32_t ep = (job.*kPhase).runs[vertex_index].epoch;
  sim_.at(t, [this, jp, vertex_index, ep](FlowSim&) {
    if ((jp->*kPhase).runs[vertex_index].epoch != ep) return;
    (this->*kStep)(*jp, vertex_index);
  });
}

namespace {
// The job mix: a class drawn by weight, and an input size drawn from the
// class's lognormal, clamped to its range.
JobClass draw_job_class(Rng& rng, const WorkloadConfig& config) {
  const double weights[3] = {config.short_jobs.weight, config.medium_jobs.weight,
                             config.production_jobs.weight};
  const std::size_t i = rng.weighted_index(weights);
  return i == 0   ? JobClass::kShortInteractive
         : i == 1 ? JobClass::kMediumBatch
                  : JobClass::kLongProduction;
}

const JobClassParams& class_params(const WorkloadConfig& config, JobClass cls) {
  return cls == JobClass::kShortInteractive ? config.short_jobs
         : cls == JobClass::kMediumBatch    ? config.medium_jobs
                                            : config.production_jobs;
}

Bytes draw_input_size(Rng& rng, const JobClassParams& p) {
  return std::clamp<Bytes>(
      static_cast<Bytes>(rng.lognormal(p.input_log_mu, p.input_log_sigma)), p.input_min,
      p.input_max);
}
}  // namespace

// ---------------------------------------------------------------------------
// Installation
// ---------------------------------------------------------------------------

void WorkloadDriver::install() {
  require(sim_.now() == 0, "install: must be called before the simulation starts");

  // Pre-populate the store so day-0 jobs have data to read.  Sizes come
  // from the job mix: sample a class, then its input-size distribution.
  for (std::int32_t i = 0; i < config_.initial_datasets; ++i) {
    available_datasets_.push_back(
        store_.create_dataset(draw_input_size(rng_, class_params(config_, draw_job_class(rng_, config_)))));
  }

  schedule_next_job_arrival();
  if (config_.evacuations_per_hour > 0) schedule_next_evacuation();
  if (topo_.config().external_servers > 0 && config_.ingest_interval_mean > 0) {
    schedule_next_ingest();
  }
  if (config_.speculative_execution) schedule_spec_check();
}

// ---------------------------------------------------------------------------
// Job sampling & arrival process
// ---------------------------------------------------------------------------

// Probability a Combine job's second input is drawn from datasets homed in
// the same VLAN as the first input (related datasets co-locate).
constexpr double kSecondInputLocality = 0.8;

JobSpec WorkloadDriver::sample_job() {
  JobSpec spec;
  spec.cls = draw_job_class(rng_, config_);
  const JobClassParams& p = class_params(config_, spec.cls);
  // Target size from the class, then the closest existing dataset.
  const Bytes target = draw_input_size(rng_, p);
  if (!available_datasets_.empty()) {
    DatasetId best = available_datasets_.front();
    Bytes best_gap = std::numeric_limits<Bytes>::max();
    for (DatasetId d : available_datasets_) {
      const Bytes gap = std::llabs(store_.dataset(d).bytes - target);
      if (gap < best_gap) {
        best_gap = gap;
        best = d;
      }
    }
    spec.input = best;
  }
  spec.reducers = static_cast<std::int32_t>(rng_.uniform_int(p.reducers_min, p.reducers_max));
  spec.shuffle_selectivity =
      rng_.uniform(p.shuffle_selectivity_min, p.shuffle_selectivity_max);
  spec.output_selectivity =
      rng_.uniform(p.output_selectivity_min, p.output_selectivity_max);
  if (rng_.bernoulli(p.combine_probability) && available_datasets_.size() >= 2) {
    // Related datasets co-locate: prefer a second input homed in the same
    // VLAN as the first.
    const VlanId home =
        spec.input >= 0 ? store_.dataset(spec.input).home_vlan : VlanId{};
    DatasetId pick = -1;
    if (home.valid() && rng_.bernoulli(kSecondInputLocality)) {
      for (int attempt = 0; attempt < 16 && pick < 0; ++attempt) {
        const DatasetId cand = available_datasets_[static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(available_datasets_.size()) - 1))];
        if (cand != spec.input && store_.dataset(cand).home_vlan == home) pick = cand;
      }
    }
    if (pick < 0) {
      pick = available_datasets_[static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(available_datasets_.size()) - 1))];
    }
    spec.second_input = pick;
  }
  spec.egress = rng_.bernoulli(p.egress_probability) && topo_.config().external_servers > 0;
  return spec;
}

void WorkloadDriver::schedule_next_job_arrival() {
  if (config_.jobs_per_second <= 0) return;
  // Thinning for the (optionally) time-varying rate: draw at the peak rate,
  // then accept with probability rate(t)/peak — an exact nonhomogeneous
  // Poisson sampler.
  const double peak = config_.jobs_per_second * (1.0 + config_.diurnal_amplitude);
  const TimeSec t = sim_.now() + rng_.exponential(1.0 / peak);
  if (t >= sim_.config().end_time) return;
  sim_.at(t, [this, peak](FlowSim&) {
    double rate_now = config_.jobs_per_second;
    if (config_.diurnal_amplitude > 0) {
      rate_now *= 1.0 + config_.diurnal_amplitude *
                            std::sin(2.0 * std::numbers::pi * sim_.now() /
                                     config_.diurnal_period);
    }
    if (rng_.bernoulli(std::clamp(rate_now / peak, 0.0, 1.0))) {
      JobSpec spec = sample_job();
      spec.id = JobId{next_job_++};
      spec.submit_time = sim_.now();
      job_queue_.push_back(std::move(spec));
      try_admit();
    }
    schedule_next_job_arrival();
  });
}

void WorkloadDriver::try_admit() {
  while (running_jobs_ < config_.max_concurrent_jobs && !job_queue_.empty() &&
         !horizon_reached()) {
    JobSpec spec = std::move(job_queue_.front());
    job_queue_.pop_front();
    ++running_jobs_;
    submit_job(std::move(spec));
  }
}

// ---------------------------------------------------------------------------
// Extract (+ pipelined Partition)
// ---------------------------------------------------------------------------

void WorkloadDriver::submit_job(JobSpec spec) {
  require(spec.input >= 0, "submit_job: job needs an input dataset");
  ++stats_.jobs_submitted;
  DCT_OBS_INC(m_jobs_submitted_);
  auto exec = std::make_unique<JobExec>();
  JobExec& job = *exec;
  job.spec = std::move(spec);
  // The job manager runs where the job was scheduled: in its input data's
  // home rack for regional datasets (keeping control chatter mostly local).
  const Dataset& input_ds = store_.dataset(job.spec.input);
  std::int32_t first = 0;
  std::int32_t end = topo_.internal_server_count();
  if (input_ds.home_rack.valid()) {
    first = input_ds.home_rack.value() * topo_.config().servers_per_rack;
    end = std::min(first + topo_.config().servers_per_rack, end);
  }
  job.manager = draw_server(first, end);
  job.start_time = sim_.now();
  job.extract.id = new_phase();
  job.agg.id = new_phase();
  if (job.spec.second_input >= 0) job.combine_phase = new_phase();
  job.output_phase = new_phase();
  job.extract.start = sim_.now();

  // One extract vertex per input block.
  for (BlockId b : input_ds.blocks) {
    ExtractVertex v;
    v.block = b;
    v.retries_left = config_.max_read_retries;
    job.extract.runs.push_back(v);
  }
  job.extract.primaries = job.extract.runs.size();
  job.extract.pending = job.extract.primaries;

  jobs_.push_back(std::move(exec));
  for (std::size_t vi = 0; vi < job.extract.runs.size(); ++vi) {
    launch_extract_vertex(job, vi);
  }
}

void WorkloadDriver::launch_extract_vertex(JobExec& job, std::size_t vertex_index) {
  auto& v = job.extract.runs[vertex_index];
  // Home: the replica holder with the most free cores.
  const Block& blk = store_.block(v.block);
  ServerId home = blk.replicas.front();
  std::int32_t best_free = -1;
  for (ServerId r : blk.replicas) {
    const std::int32_t free_cores = resources_.available(r);
    if (free_cores > best_free) {
      best_free = free_cores;
      home = r;
    }
  }
  const PlacementDecision d = placer_.place_near(home);
  ++stats_.placement_tier[std::clamp(d.tier, 0, 3)];
  v.server = ensure_up(d.server);
  if (v.backup_of >= 0) {
    // A speculative backup must run away from its (possibly straggling)
    // primary, or it inherits the very slowness it is meant to escape.
    const ServerId avoid = job.extract.runs[static_cast<std::size_t>(v.backup_of)].server;
    for (int attempt = 0;
         attempt < 8 && (v.server == avoid || is_server_down(v.server)); ++attempt) {
      v.server = placer_.place_anywhere().server;
    }
  }
  start_run<&JobExec::extract, &WorkloadDriver::extract_read>(job, vertex_index);
}

void WorkloadDriver::extract_read(JobExec& job, std::size_t vertex_index) {
  if (job.failed || horizon_reached()) {
    close_run(job.extract, vertex_index);
    return;
  }
  auto& v = job.extract.runs[vertex_index];
  const Block& blk = store_.block(v.block);
  const ServerId replica = pick_live_replica(v.block, v.server);

  if (replica == v.server) {
    // Local read: disk + pipelined extract/partition compute; no socket.
    ++stats_.extract_reads_local;
    const TimeSec done = sim_.now() + disk_read_delay(v.server, blk.size) +
                         compute_delay(v.server, blk.size);
    v.bytes_read += blk.size;
    step_at<&JobExec::extract, &WorkloadDriver::extract_vertex_done>(job, vertex_index,
                                                                      done);
    return;
  }

  // Remote read over the network, possibly hedged with a second replica.
  ++stats_.extract_reads_remote;
  auto race = std::make_shared<HedgeRace>();
  race->outstanding = 1;
  const std::uint32_t ep = v.epoch;
  start_extract_read_flow(job, vertex_index, replica, race, /*is_hedge=*/false);
  if (!config_.hedged_reads || job.hedge_budget >= config_.hedge_budget_per_job) return;
  const TimeSec t = sim_.now() + hedge_timeout();
  if (t >= sim_.config().end_time) return;
  JobExec* jp = &job;
  sim_.at(t, [this, jp, vertex_index, ep, replica, race](FlowSim&) {
    const auto& run = jp->extract.runs[vertex_index];
    if (run.epoch != ep || run.closed || jp->failed || horizon_reached()) return;
    // Settled: the primary already delivered.  Zero outstanding: the
    // primary failed and the retry path owns the block now.
    if (race->settled || race->outstanding == 0) return;
    if (jp->hedge_budget >= config_.hedge_budget_per_job) return;
    // Second replica: a live holder other than the slow primary source.
    const ServerId alt = other_live_replica(run.block, replica);
    if (alt == replica) return;  // no second copy to hedge from
    ++jp->hedge_budget;
    ++stats_.hedges_launched;
    DCT_OBS_INC(m_hedges_);
    ++race->outstanding;
    start_extract_read_flow(*jp, vertex_index, alt, race, /*is_hedge=*/true);
  });
}

void WorkloadDriver::start_extract_read_flow(JobExec& job, std::size_t vertex_index,
                                             ServerId source,
                                             std::shared_ptr<HedgeRace> race,
                                             bool is_hedge) {
  JobExec* jp = &job;
  const ExtractVertex& v = job.extract.runs[vertex_index];
  const std::uint32_t ep = v.epoch;
  sim_.start_flow({.src = source,
                   .dst = v.server,
                   .bytes = store_.block(v.block).size,
                   .job = job.spec.id,
                   .phase = job.extract.id,
                   .kind = FlowKind::kBlockRead},
                  [this, jp, vertex_index, source, ep, race,
                   is_hedge](FlowSim&, const FlowRecord& rec) {
    auto& vertex = jp->extract.runs[vertex_index];
    if (vertex.epoch != ep) return;  // vertex re-executed or cancelled
    if (race->settled) return;       // the twin leg already won this block
    --race->outstanding;
    if (jp->failed || horizon_reached()) {
      close_run(jp->extract, vertex_index);
      return;
    }
    if (read_failed(rec, {.job = jp->spec.id,
                          .phase = jp->extract.id,
                          .reader = vertex.server,
                          .source = source,
                          .fatal = vertex.retries_left == 0 && race->outstanding == 0 &&
                                   vertex.backup_of < 0})) {
      // With the twin leg still in flight the failure costs nothing yet:
      // wait for the other replica instead of burning a retry.
      if (race->outstanding > 0) return;
      if (vertex.retries_left-- > 0) {
        // Back off and retry (the replica choice re-runs and may select a
        // different holder if the load changed or a server crashed).
        step_at<&JobExec::extract, &WorkloadDriver::extract_read>(
            *jp, vertex_index,
            sim_.now() + retry_backoff(config_.max_read_retries - vertex.retries_left));
      } else if (vertex.backup_of >= 0) {
        // A speculative backup that cannot read its input is abandoned, not
        // fatal: the primary is still running.
        abandon_backup(jp->extract, vertex_index);
      } else {
        close_run(jp->extract, vertex_index);
        fail_job(*jp);
      }
      return;
    }
    race->settled = true;
    if (is_hedge) {
      ++stats_.hedge_wins;
      DCT_OBS_INC(m_hedge_wins_);
    }
    if (config_.hedged_reads) note_remote_read_duration(rec.duration());
    vertex.bytes_read += rec.bytes_sent;
    step_at<&JobExec::extract, &WorkloadDriver::extract_vertex_done>(
        *jp, vertex_index, sim_.now() + compute_delay(vertex.server, rec.bytes_sent));
  });
}

void WorkloadDriver::extract_vertex_done(JobExec& job, std::size_t vertex_index) {
  if (job.failed || horizon_reached()) {
    close_run(job.extract, vertex_index);
    return;
  }
  auto& v = job.extract.runs[vertex_index];
  v.map_output = static_cast<Bytes>(static_cast<double>(v.bytes_read) *
                                    job.spec.shuffle_selectivity);
  job.extract_bytes_in += v.bytes_read;
  job.shuffle_bytes += v.map_output;
  if (!finish_run(job, job.extract, vertex_index)) return;
  record_phase(job.spec.id, job.extract.id, PhaseKind::kExtract, job.extract.start,
               job.extract.primaries, job.extract_bytes_in, job.shuffle_bytes);
  start_aggregate_phase(job);
}

// ---------------------------------------------------------------------------
// Speculative re-execution (gray-failure mitigation)
// ---------------------------------------------------------------------------

void WorkloadDriver::schedule_spec_check() {
  const TimeSec t = sim_.now() + config_.spec_check_interval;
  if (t >= sim_.config().end_time) return;
  sim_.at(t, [this](FlowSim&) {
    run_spec_check();
    schedule_spec_check();
  });
}

void WorkloadDriver::run_spec_check() {
  for (auto& jptr : jobs_) {
    JobExec& job = *jptr;
    if (job.finished || job.failed) continue;
    if (job.spec_budget >= config_.spec_budget_per_job) continue;
    if (sim_.now() < job.next_spec_time) continue;
    if (job.extract.pending > 0) {
      speculate(job, job.extract, &WorkloadDriver::launch_extract_backup);
    } else if (job.agg.pending > 0 && job.spec.second_input < 0) {
      // Combine jobs interleave their second input into the same reducer
      // state; re-deriving that in a backup is not modeled, so skip them.
      speculate(job, job.agg, &WorkloadDriver::launch_agg_backup);
    }
  }
}

void WorkloadDriver::launch_extract_backup(JobExec& job, std::size_t vertex_index) {
  ExtractVertex b;
  b.block = job.extract.runs[vertex_index].block;
  launch_extract_vertex(job, add_backup(job, job.extract, vertex_index, b));
}

void WorkloadDriver::launch_agg_backup(JobExec& job, std::size_t vertex_index) {
  AggVertex b;
  // Place away from the straggling primary.
  const ServerId avoid = job.agg.runs[vertex_index].server;
  b.server = ensure_up(placer_.place_anywhere().server);
  for (int attempt = 0; attempt < 8 && b.server == avoid; ++attempt) {
    b.server = ensure_up(placer_.place_anywhere().server);
  }
  const std::size_t bi = add_backup(job, job.agg, vertex_index, std::move(b));
  populate_agg_fetches(job, bi);
  start_run<&JobExec::agg, &WorkloadDriver::aggregate_fetch_next>(job, bi);
}

// ---------------------------------------------------------------------------
// Aggregate (shuffle) + optional Combine
// ---------------------------------------------------------------------------

void WorkloadDriver::start_aggregate_phase(JobExec& job) {
  job.agg.start = sim_.now();
  const std::int32_t r_count = std::max<std::int32_t>(1, job.spec.reducers);
  const Dataset& in = store_.dataset(job.spec.input);

  job.agg.runs.resize(static_cast<std::size_t>(r_count));
  job.agg.primaries = job.agg.runs.size();
  for (std::size_t vi = 0; vi < job.agg.runs.size(); ++vi) {
    auto& agg = job.agg.runs[vi];
    // Placement: mostly near the job's home region (work-seeks-bandwidth),
    // sometimes spread across the cluster (scatter-gather).
    PlacementDecision d{};
    if (in.home_vlan.valid() && rng_.bernoulli(config_.aggregate_home_bias)) {
      // Mostly the dataset's home rack, sometimes elsewhere in its VLAN —
      // the same concentration the block store used for the input.
      std::int32_t rack = in.home_rack.value();
      if (!rng_.bernoulli(store_.config().home_rack_bias)) {
        const std::int32_t first_rack =
            in.home_vlan.value() * topo_.config().racks_per_vlan;
        rack = std::min(topo_.rack_count() - 1,
                        static_cast<std::int32_t>(rng_.uniform_int(
                            first_rack, first_rack + topo_.config().racks_per_vlan - 1)));
      }
      const std::int32_t base = rack * topo_.config().servers_per_rack;
      d = placer_.place_near(draw_server(base, base + topo_.config().servers_per_rack));
    } else {
      d = placer_.place_anywhere();
    }
    ++stats_.placement_tier[std::clamp(d.tier, 0, 3)];
    agg.server = ensure_up(d.server);
    agg.retries_left = config_.max_read_retries;
    populate_agg_fetches(job, vi);
  }
  job.agg.pending = job.agg.runs.size();
  for (std::size_t vi = 0; vi < job.agg.runs.size(); ++vi) {
    start_run<&JobExec::agg, &WorkloadDriver::aggregate_fetch_next>(job, vi);
  }
}

void WorkloadDriver::populate_agg_fetches(JobExec& job, std::size_t vertex_index) {
  auto& agg = job.agg.runs[vertex_index];
  agg.fetches.clear();
  agg.next_fetch = 0;
  const std::int32_t r_count = std::max<std::int32_t>(1, job.spec.reducers);
  // Each reducer pulls 1/R of every map vertex's output.
  for (const auto& ev : job.extract.runs) {
    if (ev.map_output <= 0) continue;
    const Bytes part = std::max<Bytes>(ev.map_output / r_count, 512);
    const Bytes chunk = config_.chunked_transfers ? store_.config().block_size : part;
    Bytes remaining = part;
    while (remaining > 0) {
      const Bytes piece = std::min(remaining, std::max<Bytes>(chunk, 512));
      remaining -= piece;
      agg.fetches.push_back(FetchItem{ev.server, piece, FlowKind::kShuffle, job.agg.id});
    }
  }
  // Randomize fetch order so sources interleave.
  const auto perm = rng_.permutation(agg.fetches.size());
  std::vector<FetchItem> shuffled(agg.fetches.size());
  for (std::size_t i = 0; i < perm.size(); ++i) shuffled[i] = agg.fetches[perm[i]];
  agg.fetches = std::move(shuffled);
}

void WorkloadDriver::close_agg_if_idle(JobExec& job, std::size_t vertex_index) {
  if (job.agg.runs[vertex_index].in_flight == 0) close_run(job.agg, vertex_index);
}

void WorkloadDriver::aggregate_fetch_next(JobExec& job, std::size_t vertex_index) {
  auto& v = job.agg.runs[vertex_index];
  const std::uint32_t ep = v.epoch;
  if (job.failed || horizon_reached()) {
    close_agg_if_idle(job, vertex_index);
    return;
  }
  // All fetches issued and drained?
  if (v.next_fetch >= v.fetches.size() && v.in_flight == 0) {
    if (!v.in_combine && job.spec.second_input >= 0) {
      start_combine_reads(job, vertex_index);
      return;
    }
    // Reduce compute, then done.
    step_at<&JobExec::agg, &WorkloadDriver::aggregate_vertex_done>(
        job, vertex_index, sim_.now() + compute_delay(v.server, v.bytes_fetched));
    return;
  }

  JobExec* jp = &job;
  while (v.in_flight < config_.max_fetch_connections && v.next_fetch < v.fetches.size()) {
    // A connection failure invokes its handler synchronously and may kill
    // the job mid-loop; stop issuing work for it.
    if (jp->failed || v.closed) break;
    const FetchItem item = v.fetches[v.next_fetch++];
    ++v.in_flight;
    ++stats_.shuffle_fetches;

    if (item.src == v.server) {
      // Mapper colocated with this reducer: a local disk read.
      const TimeSec done = sim_.now() + disk_read_delay(v.server, item.bytes);
      if (done >= sim_.config().end_time) {
        --v.in_flight;
        close_agg_if_idle(job, vertex_index);
        return;
      }
      sim_.at(done, [this, jp, vertex_index, item, ep](FlowSim&) {
        auto& vv = jp->agg.runs[vertex_index];
        if (vv.epoch != ep) return;  // vertex re-executed after a crash
        vv.bytes_fetched += item.bytes;
        --vv.in_flight;
        aggregate_fetch_next(*jp, vertex_index);
      });
      continue;
    }

    sim_.start_flow({.src = item.src,
                     .dst = v.server,
                     .bytes = item.bytes,
                     .job = job.spec.id,
                     .phase = item.phase,
                     .kind = item.kind},
                    [this, jp, vertex_index, item, ep](FlowSim&, const FlowRecord& rec) {
      auto& vv = jp->agg.runs[vertex_index];
      // Epoch check must precede the in_flight decrement: re-execution
      // resets the counter and this completion belongs to the old run.
      if (vv.epoch != ep) return;
      --vv.in_flight;
      if (jp->failed || horizon_reached()) {
        close_agg_if_idle(*jp, vertex_index);
        return;
      }
      const bool failed = read_failed(rec, {.job = jp->spec.id,
                                            .phase = item.phase,
                                            .reader = vv.server,
                                            .source = item.src,
                                            .fatal = vv.retries_left == 0 && vv.backup_of < 0});
      if (failed) {
        if (vv.retries_left-- > 0) {
          vv.fetches.push_back(item);  // re-queue at the tail
        } else if (vv.backup_of >= 0) {
          // A speculative backup that cannot fetch is abandoned, not fatal:
          // the primary is still running.
          abandon_backup(jp->agg, vertex_index);
          return;
        } else {
          close_agg_if_idle(*jp, vertex_index);
          fail_job(*jp);
          return;
        }
      } else {
        vv.bytes_fetched += rec.bytes_sent;
        if (vv.in_combine) jp->combine_bytes += rec.bytes_sent;
      }
      // Stop-and-go: pause before opening the next connection; failed
      // fetches back off exponentially instead.
      const TimeSec t =
          sim_.now() + (failed ? retry_backoff(config_.max_read_retries - vv.retries_left)
                               : config_.fetch_gap);
      if (t >= sim_.config().end_time) {
        close_agg_if_idle(*jp, vertex_index);
        return;
      }
      step_at<&JobExec::agg, &WorkloadDriver::aggregate_fetch_next>(*jp, vertex_index, t);
    });
  }
}

void WorkloadDriver::start_combine_reads(JobExec& job, std::size_t vertex_index) {
  auto& v = job.agg.runs[vertex_index];
  v.in_combine = true;
  if (job.combine_start < 0) job.combine_start = sim_.now();
  const Dataset& ds2 = store_.dataset(job.spec.second_input);
  const auto r_count = static_cast<std::size_t>(job.agg.runs.size());
  v.fetches.clear();
  v.next_fetch = 0;
  // Reducer k joins against blocks j with j % R == k.
  for (std::size_t j = vertex_index; j < ds2.blocks.size(); j += r_count) {
    const Block& blk = store_.block(ds2.blocks[j]);
    const ServerId src = pick_live_replica(blk.id, v.server);
    if (src == v.server) {
      v.bytes_fetched += blk.size;  // local join input
      job.combine_bytes += blk.size;
      continue;
    }
    v.fetches.push_back(FetchItem{src, blk.size, FlowKind::kBlockRead, job.combine_phase});
  }
  aggregate_fetch_next(job, vertex_index);
}

void WorkloadDriver::aggregate_vertex_done(JobExec& job, std::size_t vertex_index) {
  if (!finish_run(job, job.agg, vertex_index)) return;
  record_phase(job.spec.id, job.agg.id, PhaseKind::kAggregate, job.agg.start,
               job.agg.primaries, job.shuffle_bytes, job.shuffle_bytes);
  if (job.spec.second_input >= 0 && job.combine_start >= 0) {
    record_phase(job.spec.id, job.combine_phase, PhaseKind::kCombine, job.combine_start,
                 job.agg.primaries, job.combine_bytes, job.combine_bytes);
  }
  start_output_phase(job);
}

// ---------------------------------------------------------------------------
// Output (replicated writes), job completion, egress
// ---------------------------------------------------------------------------

void WorkloadDriver::start_output_phase(JobExec& job) {
  job.output_start = sim_.now();
  std::vector<std::pair<ServerId, Bytes>> parts;
  for (const auto& v : job.agg.runs) {
    const Bytes out = static_cast<Bytes>(static_cast<double>(v.bytes_fetched) *
                                         job.spec.output_selectivity);
    if (out > 0) parts.emplace_back(v.server, out);
    job.output_bytes += out;
  }
  if (parts.empty()) {
    finish_job(job, /*failed=*/false);
    return;
  }
  job.output_dataset = store_.register_output(parts);
  const Dataset& out_ds = store_.dataset(job.output_dataset);
  job.output_writes_pending = out_ds.blocks.size();
  for (BlockId bid : out_ds.blocks) {
    write_output_hop(job, std::make_shared<const Block>(store_.block(bid)), 0);
  }
}

// Replica-write chain: writer -> same-rack replica -> off-rack replica, down
// the replica list as it stood when the output phase began (a repair that
// moves a replica meanwhile does not redirect the chain; ingest_hop, whose
// blocks are on the store from the start, re-reads the list at each hop).
void WorkloadDriver::write_output_hop(JobExec& job, std::shared_ptr<const Block> block,
                                      std::size_t hop) {
  if (hop + 1 >= block->replicas.size() || job.failed || horizon_reached()) {
    if (--job.output_writes_pending == 0 && !job.failed && !horizon_reached()) {
      record_phase(job.spec.id, job.output_phase, PhaseKind::kOutput, job.output_start,
                   job.agg.primaries, job.output_bytes, job.output_bytes);
      finish_job(job, /*failed=*/false);
    }
    return;
  }
  JobExec* jp = &job;
  sim_.start_flow({.src = block->replicas[hop],
                   .dst = block->replicas[hop + 1],
                   .bytes = block->size,
                   .job = job.spec.id,
                   .phase = job.output_phase,
                   .kind = FlowKind::kReplicaWrite},
                  [this, jp, block, hop](FlowSim&, const FlowRecord&) {
                    write_output_hop(*jp, block, hop + 1);
                  });
}

void WorkloadDriver::finish_job(JobExec& job, bool failed) {
  if (job.finished) return;
  job.finished = true;
  --running_jobs_;
  if (failed) {
    ++stats_.jobs_failed;
    DCT_OBS_INC(m_jobs_failed_);
  } else {
    ++stats_.jobs_completed;
    DCT_OBS_INC(m_jobs_completed_);
    DCT_OBS_OBSERVE(m_job_s_, sim_.now() - job.start_time);
    // Freshly written outputs become candidate inputs for later jobs.
    if (job.output_dataset >= 0) available_datasets_.push_back(job.output_dataset);
  }
  JobLogRecord rec;
  rec.job = job.spec.id;
  rec.submit = job.spec.submit_time;
  rec.start = job.start_time;
  rec.end = sim_.now();
  rec.completed = !failed;
  rec.failed = failed;
  rec.phases = job.spec.second_input >= 0 ? 4 : 3;
  rec.input_bytes = store_.dataset(job.spec.input).bytes;
  trace_.record_job(rec);

  if (!failed && job.spec.egress && job.output_dataset >= 0) start_egress(job);
  try_admit();
}

void WorkloadDriver::fail_job(JobExec& job) {
  if (job.failed || job.finished) return;
  job.failed = true;
  finish_job(job, /*failed=*/true);
}

// ---------------------------------------------------------------------------
// Block mover: evacuation, crash re-replication, ingest and egress
// ---------------------------------------------------------------------------

void WorkloadDriver::move_blocks(std::vector<BlockId> blocks, std::int32_t concurrency,
                                 BlockStart start, BlocksMoved finish) {
  auto mover = std::make_shared<BlockMover>();
  mover->blocks = std::move(blocks);
  mover->concurrency = concurrency;
  mover->start = std::move(start);
  mover->finish = std::move(finish);
  pump_blocks(mover);
}

void WorkloadDriver::pump_blocks(const std::shared_ptr<BlockMover>& mover) {
  BlockMover& m = *mover;
  while (m.in_flight < m.concurrency && m.next < m.blocks.size()) {
    // Counted before the start: a transfer that fails at once settles
    // inside it, and re-enters this pump.
    ++m.in_flight;
    if (!m.start(mover, m.blocks[m.next++])) --m.in_flight;
  }
  if (m.in_flight == 0 && m.next == m.blocks.size() && m.finish) {
    ++m.next;  // finish once
    m.finish(m);
  }
}

void WorkloadDriver::block_settled(const std::shared_ptr<BlockMover>& mover) {
  --mover->in_flight;
  pump_blocks(mover);
}

std::vector<BlockId> WorkloadDriver::blocks_to_move(ServerId server) const {
  std::vector<BlockId> blocks = store_.blocks_on(server);
  if (static_cast<std::int32_t>(blocks.size()) > config_.evacuation_max_blocks) {
    blocks.resize(static_cast<std::size_t>(config_.evacuation_max_blocks));
  }
  return blocks;
}

ServerId WorkloadDriver::repair_target(BlockId block, ServerId from) {
  // The store never picks a server that already holds the block.
  ServerId target = store_.pick_evacuation_target(block, from);
  for (int attempt = 0; attempt < 4 && is_server_down(target); ++attempt) {
    target = store_.pick_evacuation_target(block, from);
  }
  return target;
}

bool WorkloadDriver::land_replica(const FlowRecord& rec, BlockId block, ServerId from,
                                  ServerId to) {
  if (rec.failed || !store_.has_replica(block, from) || store_.has_replica(block, to)) {
    return false;
  }
  store_.move_replica(block, from, to);
  return true;
}

bool WorkloadDriver::heal_block(const FlowRecord& rec, BlockId block, ServerId failed,
                                ServerId to) {
  if (!land_replica(rec, block, failed, to)) return false;
  ++stats_.blocks_rereplicated;
  DCT_OBS_ADD(m_rereplication_bytes_, rec.bytes_sent);
  if (is_server_down(failed)) note_replica_restored(block, sim_.now());
  return true;
}

FlowSpec WorkloadDriver::block_copy(BlockId block, ServerId src, ServerId dst) const {
  // Repair traffic shares the evacuation kind.
  return {.src = src,
          .dst = dst,
          .bytes = store_.block(block).size,
          .job = {},
          .phase = {},
          .kind = FlowKind::kEvacuation};
}

// Output blocks one egress session pulls at once.
constexpr std::int32_t kEgressConcurrency = 2;
static_assert(kEgressConcurrency >= 1);

void WorkloadDriver::start_egress(JobExec& job) {
  const ServerId ext = draw_server(topo_.internal_server_count(), topo_.server_count());
  const JobId id = job.spec.id;
  move_blocks(store_.dataset(job.output_dataset).blocks, kEgressConcurrency,
              [this, ext, id](const std::shared_ptr<BlockMover>& m, BlockId bid) {
                sim_.start_flow({.src = store_.closest_replica(bid, ext),
                                 .dst = ext,
                                 .bytes = store_.block(bid).size,
                                 .job = id,
                                 .phase = {},
                                 .kind = FlowKind::kEgress},
                                [this, m](FlowSim&, const FlowRecord&) { block_settled(m); });
                return true;
              });
}

// ---------------------------------------------------------------------------
// Evacuations
// ---------------------------------------------------------------------------

void WorkloadDriver::schedule_next_evacuation() {
  const double mean_gap = 3600.0 / config_.evacuations_per_hour;
  const TimeSec t = sim_.now() + rng_.exponential(mean_gap);
  if (t >= sim_.config().end_time) return;
  sim_.at(t, [this](FlowSim&) {
    const ServerId victim = draw_server(0, topo_.internal_server_count());
    // A crashed server cannot stream its blocks anywhere; skip the round
    // (the draw still happens, keeping the rng sequence fault-independent).
    if (!is_server_down(victim)) run_evacuation(victim);
    schedule_next_evacuation();
  });
}

// Blocks one evacuation, or one crashed server's immediate re-replication,
// moves at once.
constexpr std::int32_t kEvacuationConcurrency = 4;
static_assert(kEvacuationConcurrency >= 1);

void WorkloadDriver::run_evacuation(ServerId victim) {
  std::vector<BlockId> blocks = blocks_to_move(victim);
  if (blocks.empty()) return;
  ++stats_.evacuations;
  const TimeSec start = sim_.now();
  move_blocks(
      std::move(blocks), kEvacuationConcurrency,
      [this, victim](const std::shared_ptr<BlockMover>& m, BlockId bid) {
        if (!store_.has_replica(bid, victim)) return false;  // already moved elsewhere
        const ServerId target = repair_target(bid, victim);
        if (is_server_down(target)) return false;  // cluster too degraded; skip block
        sim_.start_flow(block_copy(bid, victim, target),
                        [this, m, victim, bid, target](FlowSim&, const FlowRecord& rec) {
                          if (land_replica(rec, bid, victim, target)) {
                            m->moved_bytes += rec.bytes_sent;
                            ++m->moved_blocks;
                          }
                          block_settled(m);
                        });
        return true;
      },
      [this, victim, start](const BlockMover& m) {
        trace_.record_evacuation({.start = start,
                                  .end = sim_.now(),
                                  .server = victim,
                                  .bytes_moved = m.moved_bytes,
                                  .blocks_moved = m.moved_blocks});
      });
}

// ---------------------------------------------------------------------------
// Server crash recovery (driven by the faults subsystem)
// ---------------------------------------------------------------------------

void WorkloadDriver::handle_server_crash(ServerId server) {
  const auto si = static_cast<std::size_t>(server.value());
  if (si >= server_down_.size() || server_down_[si]) return;
  server_down_[si] = 1;
  ++stats_.server_crashes;
  {
    const TimeSec now = sim_.now();
    for (BlockId b : store_.blocks_on(server)) note_replica_lost(b, now);
  }
  // Waiters queued for a core on the dead machine will never run there;
  // their vertices get a fresh epoch and a new placement below.  Clear the
  // queue *before* any release_core so no waiter is handed a dead core.
  core_waiters_[si].clear();

  for (auto& jptr : jobs_) {
    JobExec& job = *jptr;
    if (job.finished || job.failed) continue;
    // The job manager is a lightweight process; model failover as instant
    // re-placement (control flows simply originate elsewhere afterwards).
    if (job.manager == server) job.manager = ensure_up(job.manager);
    recover_runs(job.extract, server,
                 [&](std::size_t vi) { launch_extract_vertex(job, vi); });
    recover_runs(job.agg, server, [&](std::size_t vi) {
      auto& v = job.agg.runs[vi];
      v.server = ensure_up(v.server);
      // Re-fetch everything.  Fetches sourced at the crashed server will
      // fail and retry; if the mapper's output is truly gone the retries
      // exhaust and the job fails — lost map output is not re-derived.
      populate_agg_fetches(job, vi);
      start_run<&JobExec::agg, &WorkloadDriver::aggregate_fetch_next>(job, vi);
    });
  }
  run_rereplication(server);
}

void WorkloadDriver::handle_server_recovery(ServerId server) {
  const auto si = static_cast<std::size_t>(server.value());
  if (si >= server_down_.size() || !server_down_[si]) return;
  server_down_[si] = 0;
  // Replicas the server still holds come back with it; any blocks healed
  // elsewhere in the meantime were already restored by the repair path.
  const TimeSec now = sim_.now();
  for (BlockId b : store_.blocks_on(server)) note_replica_restored(b, now);
}

void WorkloadDriver::handle_straggler_start(ServerId server, double slowdown) {
  const auto si = static_cast<std::size_t>(server.value());
  if (si >= server_slowdown_.size()) return;
  server_slowdown_[si] = std::max(1.0, slowdown);
  ++stats_.stragglers_observed;
  DCT_OBS_INC(m_stragglers_);
}

void WorkloadDriver::handle_straggler_end(ServerId server) {
  const auto si = static_cast<std::size_t>(server.value());
  if (si < server_slowdown_.size()) server_slowdown_[si] = 1.0;
}

void WorkloadDriver::run_rereplication(ServerId failed) {
  if (horizon_reached()) return;
  if (config_.repair.paced) {
    for (BlockId bid : blocks_to_move(failed)) {
      repair_queue_.enqueue(bid, failed, live_replica_count(bid), sim_.now());
      ++stats_.repairs_enqueued;
    }
    schedule_repair_pacer();
    return;
  }
  move_blocks(
      blocks_to_move(failed), kEvacuationConcurrency,
      [this, failed](const std::shared_ptr<BlockMover>& m, BlockId bid) {
        if (!store_.has_replica(bid, failed)) return false;  // healed already
        // Source: any surviving replica (the victim itself cannot serve).
        const ServerId src = other_live_replica(bid, failed);
        if (src == failed) return false;  // no live copy left to heal from
        const ServerId target = repair_target(bid, failed);
        if (is_server_down(target)) return false;
        sim_.start_flow(block_copy(bid, src, target),
                        [this, m, failed, bid, target](FlowSim&, const FlowRecord& rec) {
                          heal_block(rec, bid, failed, target);
                          block_settled(m);
                        });
        return true;
      });
}

// ---------------------------------------------------------------------------
// Recovery-storm control (workload/repair.h)
// ---------------------------------------------------------------------------

void WorkloadDriver::schedule_repair_pacer() {
  DCT_OBS_SET(m_repair_queue_depth_, static_cast<double>(repair_queue_.depth()));
  if (repair_pacer_scheduled_ || repair_queue_.idle()) return;
  const TimeSec t = sim_.now() + config_.repair.pacer_interval;
  if (t >= sim_.config().end_time) return;
  repair_pacer_scheduled_ = true;
  sim_.at(t, [this](FlowSim&) {
    repair_pacer_scheduled_ = false;
    repair_pacer_tick();
  });
}

void WorkloadDriver::repair_pacer_tick() {
  const TimeSec now = sim_.now();
  repair_queue_.refill(now);
  sim_.snapshot_link_rates(repair_rate_snapshot_);
  // Bound the scan to the depth at tick start so requeued items (backoffs,
  // cap deferrals) are not reconsidered until the next tick.
  std::size_t budget = repair_queue_.depth();
  while (budget-- > 0 && repair_queue_.has_token() &&
         repair_queue_.in_flight() < config_.repair.max_in_flight) {
    std::optional<RepairItem> popped = repair_queue_.pop_ready(now);
    if (!popped) break;
    RepairItem item = *popped;
    const BlockId bid = item.block;
    // The block may have healed (or its loss become moot) while queued.
    if (!store_.has_replica(bid, item.failed) || !is_server_down(item.failed)) {
      continue;
    }
    // Source: the surviving replica whose access link is least loaded right
    // now (the legacy path grabs the first one it sees), so repair flows
    // both finish sooner and stay off already-hot servers.
    ServerId src = item.failed;
    double src_util = 0;
    for (ServerId r : store_.block(bid).replicas) {
      if (r == item.failed || is_server_down(r)) continue;
      const double util = snapshot_util(topo_.server_up_link(r));
      if (src == item.failed || util < src_util) {
        src = r;
        src_util = util;
      }
    }
    if (src == item.failed) {
      // No live copy right now; retry after backoff in case a holder recovers.
      requeue_repair(item, now);
      continue;
    }
    const ServerId target = repair_target(bid, item.failed);
    if (is_server_down(target)) {
      requeue_repair(item, now);
      continue;
    }
    if (!repair_queue_.can_dispatch(src, target)) {
      // Concurrency cap, not a failure: revisit next tick, no attempt charged.
      repair_queue_.requeue(item, now + config_.repair.pacer_interval);
      continue;
    }
    if (repair_path_congested(src, target)) {
      // Back off without charging an attempt: congestion is the fabric's
      // problem, not this block's, and the retry budget is for real failures.
      ++stats_.repairs_deferred;
      DCT_OBS_INC(m_repairs_deferred_);
      repair_queue_.requeue(item, now + config_.repair.congestion_backoff_base);
      continue;
    }
    dispatch_repair(item, src, target);
  }
  schedule_repair_pacer();
}

void WorkloadDriver::dispatch_repair(RepairItem item, ServerId src,
                                     ServerId target) {
  repair_queue_.take_token();
  repair_queue_.note_dispatch(src, target);
  ++stats_.repairs_dispatched;
  DCT_OBS_INC(m_repairs_dispatched_);
  sim_.start_flow(block_copy(item.block, src, target),
                  [this, item, src, target](FlowSim&, const FlowRecord& rec) {
    repair_queue_.note_done(src, target);
    if (!heal_block(rec, item.block, item.failed, target) && rec.failed &&
        !horizon_reached() && requeue_repair(item, sim_.now())) {
      ++stats_.repairs_retried;
    }
    schedule_repair_pacer();
  });
}

bool WorkloadDriver::requeue_repair(RepairItem item, TimeSec now) {
  if (++item.attempts < config_.repair.max_attempts) {
    repair_queue_.requeue(item, now + repair_backoff(item.attempts));
    return true;
  }
  ++stats_.repairs_abandoned;
  return false;
}

double WorkloadDriver::snapshot_util(LinkId l) const {
  const auto slot = static_cast<std::size_t>(l.value());
  const double cap = topo_.link(l).capacity;
  return slot < repair_rate_snapshot_.size() && cap > 0
             ? repair_rate_snapshot_[slot] / cap
             : 0.0;
}

bool WorkloadDriver::repair_path_congested(ServerId src, ServerId dst) const {
  if (repair_rate_snapshot_.empty()) return false;
  // The threshold is > 0, so a link without a reading never counts.
  const auto util_above = [this](LinkId l) {
    return snapshot_util(l) > config_.repair.congestion_util_threshold;
  };
  if (util_above(topo_.server_up_link(src)) ||
      util_above(topo_.server_down_link(dst))) {
    return true;
  }
  if (!topo_.is_external(src) && !topo_.is_external(dst) &&
      topo_.rack_of(src) != topo_.rack_of(dst)) {
    if (util_above(topo_.tor_up_link(topo_.rack_of(src))) ||
        util_above(topo_.tor_down_link(topo_.rack_of(dst)))) {
      return true;
    }
  }
  return false;
}

std::int32_t WorkloadDriver::live_replica_count(BlockId block) const {
  std::int32_t live = 0;
  for (ServerId r : store_.block(block).replicas) {
    if (!is_server_down(r)) ++live;
  }
  return live;
}

TimeSec WorkloadDriver::repair_backoff(std::int32_t attempts) const {
  const double doubled = config_.repair.congestion_backoff_base *
                         std::ldexp(1.0, std::min(attempts - 1, 30));
  return std::min<double>(config_.repair.congestion_backoff_max, doubled);
}

// ---------------------------------------------------------------------------
// Redundancy accounting
// ---------------------------------------------------------------------------

void WorkloadDriver::redundancy_advance(TimeSec now) {
  redundancy_ = redundancy(now);
  redundancy_last_update_ = std::max(redundancy_last_update_, now);
}

void WorkloadDriver::note_replica_lost(BlockId block, TimeSec now) {
  redundancy_advance(now);
  const auto slot = static_cast<std::size_t>(block.value());
  if (slot >= block_down_replicas_.size()) {
    block_down_replicas_.resize(slot + 1, 0);
  }
  if (block_down_replicas_[slot]++ == 0) {
    ++redundancy_.under_replicated;
    ++redundancy_.loss_episodes;
    if (redundancy_.first_loss < 0) redundancy_.first_loss = now;
    DCT_OBS_SET(m_under_replicated_, static_cast<double>(redundancy_.under_replicated));
  }
}

void WorkloadDriver::note_replica_restored(BlockId block, TimeSec now) {
  redundancy_advance(now);
  const auto slot = static_cast<std::size_t>(block.value());
  if (slot >= block_down_replicas_.size() || block_down_replicas_[slot] == 0) {
    return;  // e.g. replica placed on a down server, never counted as lost
  }
  if (--block_down_replicas_[slot] == 0) {
    --redundancy_.under_replicated;
    DCT_OBS_SET(m_under_replicated_, static_cast<double>(redundancy_.under_replicated));
    if (redundancy_.under_replicated == 0) {
      redundancy_.last_full_restore = now;
      if (redundancy_.first_loss >= 0) {
        DCT_OBS_SET(m_time_to_redundancy_s_, now - redundancy_.first_loss);
      }
    }
  }
}

RedundancyStats WorkloadDriver::redundancy(TimeSec now) const {
  RedundancyStats out = redundancy_;
  if (now > redundancy_last_update_) {
    out.debt_block_seconds += static_cast<double>(out.under_replicated) *
                              (now - redundancy_last_update_);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Ingest
// ---------------------------------------------------------------------------

void WorkloadDriver::schedule_next_ingest() {
  const TimeSec t = sim_.now() + rng_.exponential(config_.ingest_interval_mean);
  if (t >= sim_.config().end_time) return;
  sim_.at(t, [this](FlowSim&) {
    run_ingest();
    schedule_next_ingest();
  });
}

// Blocks one ingest session uploads at once.
constexpr std::int32_t kIngestConcurrency = 2;
static_assert(kIngestConcurrency >= 1);

void WorkloadDriver::run_ingest() {
  ++stats_.ingest_sessions;
  const DatasetId ds = store_.create_dataset(draw_input_size(rng_, config_.medium_jobs));
  const ServerId ext = draw_server(topo_.internal_server_count(), topo_.server_count());
  move_blocks(
      store_.dataset(ds).blocks, kIngestConcurrency,
      [this, ext](const std::shared_ptr<BlockMover>& m, BlockId bid) {
        ingest_hop(m, bid, ext, 0);
        return true;
      },
      [this, ds](const BlockMover&) { available_datasets_.push_back(ds); });
}

void WorkloadDriver::ingest_hop(const std::shared_ptr<BlockMover>& mover, BlockId block,
                                ServerId ext, std::size_t hop) {
  const Block& b = store_.block(block);
  if (hop >= b.replicas.size()) {
    block_settled(mover);
    return;
  }
  sim_.start_flow({.src = hop == 0 ? ext : b.replicas[hop - 1],
                   .dst = b.replicas[hop],
                   .bytes = b.size,
                   .job = {},
                   .phase = {},
                   .kind = hop == 0 ? FlowKind::kIngest : FlowKind::kReplicaWrite},
                  [this, mover, block, ext, hop](FlowSim&, const FlowRecord&) {
                    ingest_hop(mover, block, ext, hop + 1);
                  });
}

}  // namespace dct
