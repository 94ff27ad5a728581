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
  require(blocks_per_extract_vertex >= 1,
          "WorkloadConfig: blocks_per_extract_vertex must be >= 1");
  require(max_fetch_connections >= 1,
          "WorkloadConfig: max_fetch_connections must be >= 1");
  require(fetch_gap >= 0, "WorkloadConfig: fetch_gap must be >= 0");
  require(disk_read_rate > 0 && compute_rate > 0,
          "WorkloadConfig: disk/compute rates must be > 0");
  require(vertex_startup_min >= 0 && vertex_startup_max >= vertex_startup_min,
          "WorkloadConfig: bad vertex startup range");
  require(max_read_retries >= 0, "WorkloadConfig: max_read_retries must be >= 0");
  require(read_retry_base_backoff > 0,
          "WorkloadConfig: read_retry_base_backoff must be > 0");
  require(read_retry_max_backoff >= read_retry_base_backoff,
          "WorkloadConfig: read_retry_max_backoff must be >= the base backoff");
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
  require(evacuation_concurrency >= 1 && ingest_concurrency >= 1 &&
              egress_concurrency >= 1,
          "WorkloadConfig: concurrencies must be >= 1");
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
}  // namespace

/// Execution state of one job.
struct WorkloadDriver::JobExec {
  JobSpec spec;
  ServerId manager;          ///< server running the job manager (control flows)
  TimeSec start_time = 0;
  bool failed = false;
  bool finished = false;

  PhaseId extract_phase;
  PhaseId aggregate_phase;
  PhaseId combine_phase;     ///< invalid unless the job joins a second input
  PhaseId output_phase;

  struct ExtractVertex {
    std::vector<BlockId> blocks;
    std::size_t next_block = 0;
    ServerId server;
    std::int32_t retries_left = 0;
    Bytes bytes_read = 0;
    Bytes map_output = 0;
    bool closed = false;  ///< core released & pending decremented
    bool has_core = false;
    /// Bumped when the vertex is re-executed after a server crash; every
    /// queued callback captures the epoch it was created under and no-ops
    /// when it no longer matches.
    std::uint32_t epoch = 0;
    TimeSec run_start = 0;           ///< when this run was (re)launched
    std::int32_t backup_of = -1;     ///< >= 0: speculative twin of that primary
    std::int32_t backup_index = -1;  ///< primary only: index of its live backup
    bool cancelled = false;          ///< lost a speculation race
  };
  std::vector<ExtractVertex> extracts;
  std::size_t extracts_pending = 0;
  /// Vertex count excluding speculative backups appended at the tail;
  /// phase records and the backups-pending accounting use this.
  std::size_t extract_primaries = 0;
  std::vector<TimeSec> extract_durations;  ///< completed runs (spec median)
  TimeSec extract_start = 0;
  Bytes extract_bytes_in = 0;

  struct AggVertex {
    ServerId server;
    std::vector<FetchItem> fetches;
    std::size_t next_fetch = 0;
    std::int32_t in_flight = 0;
    std::int32_t retries_left = 0;
    Bytes bytes_fetched = 0;
    bool in_combine = false;   ///< currently reading the second input
    bool closed = false;       ///< core released & pending decremented
    bool has_core = false;
    std::uint32_t epoch = 0;   ///< see ExtractVertex::epoch
    TimeSec run_start = 0;
    std::int32_t backup_of = -1;
    std::int32_t backup_index = -1;
    bool cancelled = false;
  };
  std::vector<AggVertex> aggs;
  std::size_t aggs_pending = 0;
  std::size_t agg_primaries = 0;      ///< see extract_primaries
  std::vector<TimeSec> agg_durations;
  TimeSec aggregate_start = 0;
  TimeSec combine_start = -1;
  Bytes shuffle_bytes = 0;
  Bytes combine_bytes = 0;

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

TimeSec WorkloadDriver::startup_delay(ServerId server) {
  // The straggler factor multiplies *after* the draw, so a healthy cluster
  // (factor 1.0 everywhere) stays bit-identical to builds without it.
  return rng_.uniform(config_.vertex_startup_min, config_.vertex_startup_max) *
         server_slowdown(server);
}

TimeSec WorkloadDriver::compute_delay(ServerId server, Bytes bytes) {
  // +-20% jitter around bytes / per-core rate.
  const double base = static_cast<double>(bytes) / config_.compute_rate;
  return base * rng_.uniform(0.8, 1.2) * server_slowdown(server);
}

TimeSec WorkloadDriver::disk_read_delay(ServerId server, Bytes bytes) const {
  return static_cast<double>(bytes) / config_.disk_read_rate * server_slowdown(server);
}

TimeSec WorkloadDriver::retry_backoff(std::int32_t attempt) {
  // min(max, base * 2^(attempt-1)) scaled by U[1-j, 1+j) jitter — exactly
  // one rng draw, like the fixed gap it replaced.
  const double doubled =
      config_.read_retry_base_backoff * std::ldexp(1.0, std::min(attempt - 1, 30));
  const double capped = std::min<double>(config_.read_retry_max_backoff, doubled);
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
    std::vector<TimeSec> tmp = remote_read_durations_;
    const auto k = static_cast<std::size_t>(config_.hedge_quantile *
                                            static_cast<double>(tmp.size() - 1));
    std::nth_element(tmp.begin(), tmp.begin() + static_cast<std::ptrdiff_t>(k),
                     tmp.end());
    q = std::max(q, tmp[k]);
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

void WorkloadDriver::note_phase(PhaseKind kind, TimeSec duration) {
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
  if (!is_server_down(closest)) return closest;
  for (ServerId r : store_.block(block).replicas) {
    if (!is_server_down(r)) return r;
  }
  return closest;  // every holder is down: the read will fail and retry
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

bool WorkloadDriver::close_extract_vertex(JobExec& job, std::size_t vertex_index) {
  auto& v = job.extracts[vertex_index];
  if (v.closed) return false;
  v.closed = true;
  if (v.has_core) {
    v.has_core = false;
    release_core(v.server);
  }
  // Backups ride along: the phase's pending count tracks primaries only.
  // When a backup wins, cancelling the primary performs the decrement.
  if (v.backup_of < 0) --job.extracts_pending;
  return true;
}

bool WorkloadDriver::close_agg_vertex(JobExec& job, std::size_t vertex_index) {
  auto& v = job.aggs[vertex_index];
  if (v.closed) return false;
  v.closed = true;
  if (v.has_core) {
    v.has_core = false;
    release_core(v.server);
  }
  if (v.backup_of < 0) --job.aggs_pending;  // see close_extract_vertex
  return true;
}

void WorkloadDriver::control_flow(ServerId from, ServerId to, JobId job, PhaseId phase) {
  if (from == to) return;
  FlowSpec spec;
  spec.src = from;
  spec.dst = to;
  spec.bytes = rng_.uniform_int(config_.control_flow_min, config_.control_flow_max);
  spec.job = job;
  spec.phase = phase;
  spec.kind = FlowKind::kControl;
  sim_.start_flow(spec);
}

// ---------------------------------------------------------------------------
// Installation
// ---------------------------------------------------------------------------

void WorkloadDriver::install() {
  require(sim_.now() == 0, "install: must be called before the simulation starts");

  // Pre-populate the store so day-0 jobs have data to read.  Sizes come
  // from the job mix: sample a class, then its input-size distribution.
  const double weights[3] = {config_.short_jobs.weight, config_.medium_jobs.weight,
                             config_.production_jobs.weight};
  for (std::int32_t i = 0; i < config_.initial_datasets; ++i) {
    const std::size_t cls = rng_.weighted_index(weights);
    const JobClassParams& p = cls == 0   ? config_.short_jobs
                              : cls == 1 ? config_.medium_jobs
                                         : config_.production_jobs;
    const Bytes size = std::clamp<Bytes>(
        static_cast<Bytes>(rng_.lognormal(p.input_log_mu, p.input_log_sigma)),
        p.input_min, p.input_max);
    available_datasets_.push_back(store_.create_dataset(size));
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

JobSpec WorkloadDriver::sample_job() {
  const double weights[3] = {config_.short_jobs.weight, config_.medium_jobs.weight,
                             config_.production_jobs.weight};
  const std::size_t cls_idx = rng_.weighted_index(weights);
  const JobClassParams& p = cls_idx == 0   ? config_.short_jobs
                            : cls_idx == 1 ? config_.medium_jobs
                                           : config_.production_jobs;
  JobSpec spec;
  spec.cls = cls_idx == 0   ? JobClass::kShortInteractive
             : cls_idx == 1 ? JobClass::kMediumBatch
                            : JobClass::kLongProduction;
  // Target size from the class, then the closest existing dataset.
  const Bytes target = std::clamp<Bytes>(
      static_cast<Bytes>(rng_.lognormal(p.input_log_mu, p.input_log_sigma)), p.input_min,
      p.input_max);
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
    if (home.valid() && rng_.bernoulli(config_.second_input_locality)) {
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
  if (input_ds.home_rack.valid()) {
    const std::int32_t first = input_ds.home_rack.value() *
                               topo_.config().servers_per_rack;
    const std::int32_t last =
        std::min(first + topo_.config().servers_per_rack, topo_.internal_server_count());
    job.manager = ServerId{static_cast<std::int32_t>(rng_.uniform_int(first, last - 1))};
  } else {
    job.manager = ServerId{static_cast<std::int32_t>(
        rng_.uniform_int(0, topo_.internal_server_count() - 1))};
  }
  job.start_time = sim_.now();
  job.extract_phase = new_phase();
  job.aggregate_phase = new_phase();
  if (job.spec.second_input >= 0) job.combine_phase = new_phase();
  job.output_phase = new_phase();
  job.extract_start = sim_.now();

  // Group input blocks into extract vertices.
  const Dataset& ds = store_.dataset(job.spec.input);
  const std::size_t per_vertex = static_cast<std::size_t>(config_.blocks_per_extract_vertex);
  for (std::size_t i = 0; i < ds.blocks.size(); i += per_vertex) {
    JobExec::ExtractVertex v;
    for (std::size_t j = i; j < std::min(i + per_vertex, ds.blocks.size()); ++j) {
      v.blocks.push_back(ds.blocks[j]);
    }
    v.retries_left = config_.max_read_retries;
    job.extracts.push_back(std::move(v));
  }
  job.extract_primaries = job.extracts.size();
  job.extracts_pending = job.extract_primaries;

  jobs_.push_back(std::move(exec));
  JobExec* jp = jobs_.back().get();
  for (std::size_t vi = 0; vi < jp->extracts.size(); ++vi) {
    launch_extract_vertex(*jp, vi);
  }
}

void WorkloadDriver::launch_extract_vertex(JobExec& job, std::size_t vertex_index) {
  auto& v = job.extracts[vertex_index];
  // Home: the replica holder of the first block with the most free cores.
  const Block& first = store_.block(v.blocks.front());
  ServerId home = first.replicas.front();
  std::int32_t best_free = -1;
  for (ServerId r : first.replicas) {
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
    const ServerId avoid = job.extracts[static_cast<std::size_t>(v.backup_of)].server;
    for (int attempt = 0;
         attempt < 8 && (v.server == avoid || is_server_down(v.server)); ++attempt) {
      v.server = placer_.place_anywhere().server;
    }
  }
  v.run_start = sim_.now();

  JobExec* jp = &job;
  const std::uint32_t ep = v.epoch;
  const ServerId srv = v.server;
  acquire_core(srv, [this, jp, vertex_index, ep, srv] {
    auto& vertex = jp->extracts[vertex_index];
    if (vertex.epoch != ep) {
      // Granted to a stale incarnation (the vertex was re-executed elsewhere
      // while this waited in the core queue): hand the core straight back.
      release_core(srv);
      return;
    }
    vertex.has_core = true;
    if (jp->failed || horizon_reached()) {
      close_extract_vertex(*jp, vertex_index);
      return;
    }
    const TimeSec t = sim_.now() + startup_delay(srv);
    if (t >= sim_.config().end_time) {
      close_extract_vertex(*jp, vertex_index);
      return;
    }
    sim_.at(t, [this, jp, vertex_index, ep](FlowSim&) {
      if (jp->extracts[vertex_index].epoch != ep) return;
      control_flow(jp->manager, jp->extracts[vertex_index].server, jp->spec.id,
                   jp->extract_phase);
      extract_read_next(*jp, vertex_index);
    });
  });
}

void WorkloadDriver::extract_read_next(JobExec& job, std::size_t vertex_index) {
  auto& v = job.extracts[vertex_index];
  if (job.failed || horizon_reached()) {
    close_extract_vertex(job, vertex_index);
    return;
  }
  if (v.next_block == v.blocks.size()) {
    extract_vertex_done(job, vertex_index);
    return;
  }
  const BlockId bid = v.blocks[v.next_block];
  const Block& blk = store_.block(bid);
  const ServerId replica = pick_live_replica(bid, v.server);
  JobExec* jp = &job;
  const std::uint32_t ep = v.epoch;

  if (replica == v.server) {
    // Local read: disk + pipelined extract/partition compute; no socket.
    ++stats_.extract_reads_local;
    const TimeSec done = sim_.now() + disk_read_delay(v.server, blk.size) +
                         compute_delay(v.server, blk.size);
    v.bytes_read += blk.size;
    ++v.next_block;
    if (done >= sim_.config().end_time) {
      close_extract_vertex(job, vertex_index);
      return;
    }
    sim_.at(done, [this, jp, vertex_index, ep](FlowSim&) {
      if (jp->extracts[vertex_index].epoch != ep) return;
      extract_read_next(*jp, vertex_index);
    });
    return;
  }

  // Remote read over the network, possibly hedged with a second replica.
  ++stats_.extract_reads_remote;
  auto race = std::make_shared<HedgeRace>();
  race->outstanding = 1;
  start_extract_read_flow(job, vertex_index, ep, replica, blk.size, race,
                          /*is_hedge=*/false);
  if (config_.hedged_reads) {
    maybe_schedule_hedge(job, vertex_index, ep, bid, replica, blk.size, race);
  }
}

void WorkloadDriver::start_extract_read_flow(JobExec& job, std::size_t vertex_index,
                                             std::uint32_t epoch, ServerId source,
                                             Bytes bytes,
                                             std::shared_ptr<HedgeRace> race,
                                             bool is_hedge) {
  FlowSpec fs;
  fs.src = source;
  fs.dst = job.extracts[vertex_index].server;
  fs.bytes = bytes;
  fs.job = job.spec.id;
  fs.phase = job.extract_phase;
  fs.kind = FlowKind::kBlockRead;
  JobExec* jp = &job;
  const std::uint32_t ep = epoch;
  sim_.start_flow(fs, [this, jp, vertex_index, source, ep, race,
                       is_hedge](FlowSim&, const FlowRecord& rec) {
    auto& vertex = jp->extracts[vertex_index];
    if (vertex.epoch != ep) return;  // vertex re-executed or cancelled
    if (race->settled) return;       // the twin leg already won this block
    --race->outstanding;
    if (jp->failed || horizon_reached()) {
      close_extract_vertex(*jp, vertex_index);
      return;
    }
    const bool read_failed =
        rec.failed || rng_.bernoulli(config_.spontaneous_read_failure_prob);
    if (read_failed) {
      ++stats_.read_failures;
      DCT_OBS_INC(m_read_failures_);
      ReadFailureRecord rf;
      rf.time = sim_.now();
      rf.job = jp->spec.id;
      rf.phase = jp->extract_phase;
      rf.reader = vertex.server;
      rf.source = source;
      rf.fatal = vertex.retries_left == 0 && race->outstanding == 0 &&
                 vertex.backup_of < 0;
      trace_.record_read_failure(rf);
      // With the twin leg still in flight the failure costs nothing yet:
      // wait for the other replica instead of burning a retry.
      if (race->outstanding > 0) return;
      if (vertex.retries_left-- > 0) {
        // Back off and retry (the replica choice re-runs and may select a
        // different holder if the load changed or a server crashed).
        const TimeSec t =
            sim_.now() + retry_backoff(config_.max_read_retries - vertex.retries_left);
        if (t >= sim_.config().end_time) {
          close_extract_vertex(*jp, vertex_index);
          return;
        }
        sim_.at(t, [this, jp, vertex_index, ep](FlowSim&) {
          if (jp->extracts[vertex_index].epoch != ep) return;
          extract_read_next(*jp, vertex_index);
        });
      } else if (vertex.backup_of >= 0) {
        // A speculative backup that cannot read its input is abandoned, not
        // fatal: the primary is still running.
        auto& primary = jp->extracts[static_cast<std::size_t>(vertex.backup_of)];
        if (primary.backup_index == static_cast<std::int32_t>(vertex_index)) {
          primary.backup_index = -1;
        }
        cancel_extract_run(*jp, vertex_index);
      } else {
        close_extract_vertex(*jp, vertex_index);
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
    ++vertex.next_block;
    const TimeSec done = sim_.now() + compute_delay(vertex.server, rec.bytes_sent);
    if (done >= sim_.config().end_time) {
      close_extract_vertex(*jp, vertex_index);
      return;
    }
    sim_.at(done, [this, jp, vertex_index, ep](FlowSim&) {
      if (jp->extracts[vertex_index].epoch != ep) return;
      extract_read_next(*jp, vertex_index);
    });
  });
}

void WorkloadDriver::maybe_schedule_hedge(JobExec& job, std::size_t vertex_index,
                                          std::uint32_t epoch, BlockId block,
                                          ServerId primary_source, Bytes bytes,
                                          std::shared_ptr<HedgeRace> race) {
  if (job.hedge_budget >= config_.hedge_budget_per_job) return;
  const TimeSec t = sim_.now() + hedge_timeout();
  if (t >= sim_.config().end_time) return;
  JobExec* jp = &job;
  sim_.at(t, [this, jp, vertex_index, epoch, block, primary_source, bytes,
              race](FlowSim&) {
    auto& v = jp->extracts[vertex_index];
    if (v.epoch != epoch || v.closed || jp->failed || horizon_reached()) return;
    // Settled: the primary already delivered.  Zero outstanding: the
    // primary failed and the retry path owns the block now.
    if (race->settled || race->outstanding == 0) return;
    if (jp->hedge_budget >= config_.hedge_budget_per_job) return;
    // Second replica: a live holder other than the slow primary source.
    ServerId alt = primary_source;
    for (ServerId r : store_.block(block).replicas) {
      if (r != primary_source && !is_server_down(r)) {
        alt = r;
        break;
      }
    }
    if (alt == primary_source) return;  // no second copy to hedge from
    ++jp->hedge_budget;
    ++stats_.hedges_launched;
    DCT_OBS_INC(m_hedges_);
    ++race->outstanding;
    start_extract_read_flow(*jp, vertex_index, epoch, alt, bytes, race,
                            /*is_hedge=*/true);
  });
}

void WorkloadDriver::extract_vertex_done(JobExec& job, std::size_t vertex_index) {
  auto& v = job.extracts[vertex_index];
  // First finisher wins a speculation race: cancel the losing twin before
  // this run's output is committed, so only one copy feeds the shuffle.
  if (v.backup_of >= 0) {
    if (!job.extracts[static_cast<std::size_t>(v.backup_of)].closed) {
      ++stats_.spec_wins;
      DCT_OBS_INC(m_spec_wins_);
      cancel_extract_run(job, static_cast<std::size_t>(v.backup_of));
    }
  } else if (v.backup_index >= 0 &&
             !job.extracts[static_cast<std::size_t>(v.backup_index)].closed) {
    cancel_extract_run(job, static_cast<std::size_t>(v.backup_index));
  }
  v.map_output = static_cast<Bytes>(static_cast<double>(v.bytes_read) *
                                    job.spec.shuffle_selectivity);
  job.extract_bytes_in += v.bytes_read;
  job.shuffle_bytes += v.map_output;
  if (!close_extract_vertex(job, vertex_index)) return;
  job.extract_durations.push_back(sim_.now() - v.run_start);
  control_flow(v.server, job.manager, job.spec.id, job.extract_phase);
  if (job.extracts_pending == 0 && !job.failed && !horizon_reached()) {
    PhaseLogRecord p;
    p.job = job.spec.id;
    p.phase = job.extract_phase;
    p.kind = PhaseKind::kExtract;
    p.start = job.extract_start;
    p.end = sim_.now();
    p.vertices = static_cast<std::int32_t>(job.extract_primaries);
    p.bytes_in = job.extract_bytes_in;
    p.bytes_out = job.shuffle_bytes;
    trace_.record_phase(p);
    note_phase(p.kind, p.end - p.start);
    start_aggregate_phase(job);
  }
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
    const bool extract_phase = job.extracts_pending > 0;
    const bool agg_phase = !extract_phase && job.aggs_pending > 0;
    if (!extract_phase && !agg_phase) continue;
    // Combine jobs interleave their second input into the same reducer
    // state; re-deriving that in a backup is not modeled, so skip them.
    if (agg_phase && job.spec.second_input >= 0) continue;
    const std::vector<TimeSec>& done =
        extract_phase ? job.extract_durations : job.agg_durations;
    const std::size_t primaries =
        extract_phase ? job.extract_primaries : job.agg_primaries;
    if (primaries == 0 ||
        static_cast<double>(done.size()) <
            config_.spec_min_done_fraction * static_cast<double>(primaries)) {
      continue;
    }
    // Straggler test: elapsed time vs a multiple of the median completed
    // duration of the same phase (Dryad/MapReduce backup-task heuristic).
    std::vector<TimeSec> tmp = done;
    const std::size_t mid = tmp.size() / 2;
    std::nth_element(tmp.begin(),
                     tmp.begin() + static_cast<std::ptrdiff_t>(mid), tmp.end());
    const TimeSec threshold =
        std::max(config_.spec_slowdown_threshold * tmp[mid], 1e-3);
    // At most one backup per job per scan; launch_*_backup pushes
    // next_spec_time forward, so a sick phase drains its budget gradually.
    if (extract_phase) {
      for (std::size_t vi = 0; vi < job.extract_primaries; ++vi) {
        const auto& v = job.extracts[vi];
        if (v.closed || v.backup_index >= 0) continue;
        if (sim_.now() - v.run_start <= threshold) continue;
        launch_extract_backup(job, vi);
        break;
      }
    } else {
      for (std::size_t vi = 0; vi < job.agg_primaries; ++vi) {
        const auto& v = job.aggs[vi];
        if (v.closed || v.backup_index >= 0) continue;
        if (sim_.now() - v.run_start <= threshold) continue;
        launch_agg_backup(job, vi);
        break;
      }
    }
  }
}

void WorkloadDriver::launch_extract_backup(JobExec& job, std::size_t vertex_index) {
  JobExec::ExtractVertex b;
  b.blocks = job.extracts[vertex_index].blocks;
  b.retries_left = config_.max_read_retries;
  b.backup_of = static_cast<std::int32_t>(vertex_index);
  const std::size_t bi = job.extracts.size();
  job.extracts.push_back(std::move(b));
  job.extracts[vertex_index].backup_index = static_cast<std::int32_t>(bi);
  ++job.spec_budget;
  job.next_spec_time =
      sim_.now() + config_.spec_relaunch_backoff *
                       mitigation_rng_.uniform(1.0 - config_.read_retry_jitter,
                                               1.0 + config_.read_retry_jitter);
  ++stats_.spec_launched;
  DCT_OBS_INC(m_spec_launched_);
  launch_extract_vertex(job, bi);
}

void WorkloadDriver::launch_agg_backup(JobExec& job, std::size_t vertex_index) {
  JobExec::AggVertex b;
  b.retries_left = config_.max_read_retries;
  b.backup_of = static_cast<std::int32_t>(vertex_index);
  // Place away from the straggling primary.
  const ServerId avoid = job.aggs[vertex_index].server;
  ServerId srv = ensure_up(placer_.place_anywhere().server);
  for (int attempt = 0; attempt < 8 && srv == avoid; ++attempt) {
    srv = ensure_up(placer_.place_anywhere().server);
  }
  b.server = srv;
  const std::size_t bi = job.aggs.size();
  job.aggs.push_back(std::move(b));
  job.aggs[vertex_index].backup_index = static_cast<std::int32_t>(bi);
  ++job.spec_budget;
  job.next_spec_time =
      sim_.now() + config_.spec_relaunch_backoff *
                       mitigation_rng_.uniform(1.0 - config_.read_retry_jitter,
                                               1.0 + config_.read_retry_jitter);
  ++stats_.spec_launched;
  DCT_OBS_INC(m_spec_launched_);
  populate_agg_fetches(job, bi);
  launch_aggregate_vertex(job, bi);
}

void WorkloadDriver::cancel_extract_run(JobExec& job, std::size_t vertex_index) {
  auto& v = job.extracts[vertex_index];
  if (v.closed) return;
  ++v.epoch;  // orphan every in-flight callback of this run
  v.cancelled = true;
  v.map_output = 0;  // a cancelled run contributes nothing downstream
  ++stats_.spec_cancelled;
  close_extract_vertex(job, vertex_index);
}

void WorkloadDriver::cancel_agg_run(JobExec& job, std::size_t vertex_index) {
  auto& v = job.aggs[vertex_index];
  if (v.closed) return;
  ++v.epoch;
  v.cancelled = true;
  v.in_flight = 0;
  v.bytes_fetched = 0;  // the output phase must not bill the loser's bytes
  ++stats_.spec_cancelled;
  close_agg_vertex(job, vertex_index);
}

// ---------------------------------------------------------------------------
// Aggregate (shuffle) + optional Combine
// ---------------------------------------------------------------------------

void WorkloadDriver::start_aggregate_phase(JobExec& job) {
  job.aggregate_start = sim_.now();
  const std::int32_t r_count = std::max<std::int32_t>(1, job.spec.reducers);
  const Dataset& in = store_.dataset(job.spec.input);

  job.aggs.resize(static_cast<std::size_t>(r_count));
  job.agg_primaries = job.aggs.size();
  for (std::size_t vi = 0; vi < job.aggs.size(); ++vi) {
    auto& agg = job.aggs[vi];
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
      const ServerId near{static_cast<std::int32_t>(
          rng_.uniform_int(base, base + topo_.config().servers_per_rack - 1))};
      d = placer_.place_near(near);
    } else {
      d = placer_.place_anywhere();
    }
    ++stats_.placement_tier[std::clamp(d.tier, 0, 3)];
    agg.server = ensure_up(d.server);
    agg.retries_left = config_.max_read_retries;
    populate_agg_fetches(job, vi);
  }
  job.aggs_pending = job.aggs.size();
  for (std::size_t vi = 0; vi < job.aggs.size(); ++vi) {
    launch_aggregate_vertex(job, vi);
  }
}

void WorkloadDriver::populate_agg_fetches(JobExec& job, std::size_t vertex_index) {
  auto& agg = job.aggs[vertex_index];
  agg.fetches.clear();
  agg.next_fetch = 0;
  const std::int32_t r_count = std::max<std::int32_t>(1, job.spec.reducers);
  // Each reducer pulls 1/R of every map vertex's output.
  for (const auto& ev : job.extracts) {
    if (ev.map_output <= 0) continue;
    const Bytes part = std::max<Bytes>(ev.map_output / r_count, 512);
    const Bytes chunk = config_.chunked_transfers ? store_.config().block_size : part;
    Bytes remaining = part;
    while (remaining > 0) {
      const Bytes piece = std::min(remaining, std::max<Bytes>(chunk, 512));
      remaining -= piece;
      agg.fetches.push_back(
          FetchItem{ev.server, piece, FlowKind::kShuffle, job.aggregate_phase});
    }
  }
  // Randomize fetch order so sources interleave.
  const auto perm = rng_.permutation(agg.fetches.size());
  std::vector<FetchItem> shuffled(agg.fetches.size());
  for (std::size_t i = 0; i < perm.size(); ++i) shuffled[i] = agg.fetches[perm[i]];
  agg.fetches = std::move(shuffled);
}

void WorkloadDriver::launch_aggregate_vertex(JobExec& job, std::size_t vertex_index) {
  JobExec* jp = &job;
  job.aggs[vertex_index].run_start = sim_.now();
  const std::uint32_t ep = job.aggs[vertex_index].epoch;
  const ServerId server = job.aggs[vertex_index].server;
  acquire_core(server, [this, jp, vertex_index, ep, server] {
    auto& vertex = jp->aggs[vertex_index];
    if (vertex.epoch != ep) {
      // Granted to a stale incarnation — see launch_extract_vertex.
      release_core(server);
      return;
    }
    vertex.has_core = true;
    if (jp->failed || horizon_reached()) {
      close_agg_vertex(*jp, vertex_index);
      return;
    }
    const TimeSec t = sim_.now() + startup_delay(server);
    if (t >= sim_.config().end_time) {
      close_agg_vertex(*jp, vertex_index);
      return;
    }
    sim_.at(t, [this, jp, vertex_index, ep](FlowSim&) {
      if (jp->aggs[vertex_index].epoch != ep) return;
      control_flow(jp->manager, jp->aggs[vertex_index].server, jp->spec.id,
                   jp->aggregate_phase);
      aggregate_fetch_next(*jp, vertex_index);
    });
  });
}

void WorkloadDriver::aggregate_fetch_next(JobExec& job, std::size_t vertex_index) {
  auto& v = job.aggs[vertex_index];
  const std::uint32_t ep = v.epoch;
  if (job.failed || horizon_reached()) {
    if (v.in_flight == 0) {
      close_agg_vertex(job, vertex_index);
    }
    return;
  }
  // All fetches issued and drained?
  if (v.next_fetch >= v.fetches.size() && v.in_flight == 0) {
    if (!v.in_combine && job.spec.second_input >= 0) {
      start_combine_reads(job, vertex_index);
      return;
    }
    // Reduce compute, then done.
    JobExec* jp = &job;
    const TimeSec done = sim_.now() + compute_delay(v.server, v.bytes_fetched);
    if (done >= sim_.config().end_time) {
      close_agg_vertex(job, vertex_index);
      return;
    }
    sim_.at(done, [this, jp, vertex_index, ep](FlowSim&) {
      if (jp->aggs[vertex_index].epoch != ep) return;
      aggregate_vertex_done(*jp, vertex_index);
    });
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
        if (v.in_flight == 0) {
          close_agg_vertex(job, vertex_index);
        }
        return;
      }
      sim_.at(done, [this, jp, vertex_index, item, ep](FlowSim&) {
        auto& vv = jp->aggs[vertex_index];
        if (vv.epoch != ep) return;  // vertex re-executed after a crash
        vv.bytes_fetched += item.bytes;
        --vv.in_flight;
        aggregate_fetch_next(*jp, vertex_index);
      });
      continue;
    }

    FlowSpec fs;
    fs.src = item.src;
    fs.dst = v.server;
    fs.bytes = item.bytes;
    fs.job = job.spec.id;
    fs.phase = item.phase;
    fs.kind = item.kind;
    sim_.start_flow(fs, [this, jp, vertex_index, item,
                         ep](FlowSim&, const FlowRecord& rec) {
      auto& vv = jp->aggs[vertex_index];
      // Epoch check must precede the in_flight decrement: re-execution
      // resets the counter and this completion belongs to the old run.
      if (vv.epoch != ep) return;
      --vv.in_flight;
      if (jp->failed || horizon_reached()) {
        if (vv.in_flight == 0) {
          close_agg_vertex(*jp, vertex_index);
        }
        return;
      }
      const bool read_failed =
          rec.failed || rng_.bernoulli(config_.spontaneous_read_failure_prob);
      if (read_failed) {
        ++stats_.read_failures;
        DCT_OBS_INC(m_read_failures_);
        ReadFailureRecord rf;
        rf.time = sim_.now();
        rf.job = jp->spec.id;
        rf.phase = item.phase;
        rf.reader = vv.server;
        rf.source = item.src;
        rf.fatal = vv.retries_left == 0 && vv.backup_of < 0;
        trace_.record_read_failure(rf);
        if (vv.retries_left-- > 0) {
          vv.fetches.push_back(item);  // re-queue at the tail
        } else if (vv.backup_of >= 0) {
          // A speculative backup that cannot fetch is abandoned, not fatal:
          // the primary is still running.
          auto& primary = jp->aggs[static_cast<std::size_t>(vv.backup_of)];
          if (primary.backup_index == static_cast<std::int32_t>(vertex_index)) {
            primary.backup_index = -1;
          }
          cancel_agg_run(*jp, vertex_index);
          return;
        } else {
          if (vv.in_flight == 0) {
            close_agg_vertex(*jp, vertex_index);
          }
          fail_job(*jp);
          return;
        }
      } else {
        vv.bytes_fetched += rec.bytes_sent;
        if (vv.in_combine) {
          jp->combine_bytes += rec.bytes_sent;
        }
      }
      // Stop-and-go: pause before opening the next connection; failed
      // fetches back off exponentially instead.
      const TimeSec t =
          sim_.now() +
          (read_failed ? retry_backoff(config_.max_read_retries - vv.retries_left)
                       : config_.fetch_gap);
      if (t >= sim_.config().end_time) {
        if (vv.in_flight == 0) {
          close_agg_vertex(*jp, vertex_index);
        }
        return;
      }
      sim_.at(t, [this, jp, vertex_index, ep](FlowSim&) {
        if (jp->aggs[vertex_index].epoch != ep) return;
        aggregate_fetch_next(*jp, vertex_index);
      });
    });
  }
}

void WorkloadDriver::start_combine_reads(JobExec& job, std::size_t vertex_index) {
  auto& v = job.aggs[vertex_index];
  v.in_combine = true;
  if (job.combine_start < 0) job.combine_start = sim_.now();
  const Dataset& ds2 = store_.dataset(job.spec.second_input);
  const auto r_count = static_cast<std::size_t>(job.aggs.size());
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
  auto& v = job.aggs[vertex_index];
  // Speculation race arbitration — see extract_vertex_done.
  if (v.backup_of >= 0) {
    if (!job.aggs[static_cast<std::size_t>(v.backup_of)].closed) {
      ++stats_.spec_wins;
      DCT_OBS_INC(m_spec_wins_);
      cancel_agg_run(job, static_cast<std::size_t>(v.backup_of));
    }
  } else if (v.backup_index >= 0 &&
             !job.aggs[static_cast<std::size_t>(v.backup_index)].closed) {
    cancel_agg_run(job, static_cast<std::size_t>(v.backup_index));
  }
  if (!close_agg_vertex(job, vertex_index)) return;
  job.agg_durations.push_back(sim_.now() - v.run_start);
  control_flow(v.server, job.manager, job.spec.id, job.aggregate_phase);
  if (job.aggs_pending == 0 && !job.failed && !horizon_reached()) {
    PhaseLogRecord p;
    p.job = job.spec.id;
    p.phase = job.aggregate_phase;
    p.kind = PhaseKind::kAggregate;
    p.start = job.aggregate_start;
    p.end = sim_.now();
    p.vertices = static_cast<std::int32_t>(job.agg_primaries);
    p.bytes_in = job.shuffle_bytes;
    p.bytes_out = job.shuffle_bytes;
    trace_.record_phase(p);
    note_phase(p.kind, p.end - p.start);
    if (job.spec.second_input >= 0 && job.combine_start >= 0) {
      PhaseLogRecord c;
      c.job = job.spec.id;
      c.phase = job.combine_phase;
      c.kind = PhaseKind::kCombine;
      c.start = job.combine_start;
      c.end = sim_.now();
      c.vertices = static_cast<std::int32_t>(job.agg_primaries);
      c.bytes_in = job.combine_bytes;
      c.bytes_out = job.combine_bytes;
      trace_.record_phase(c);
      note_phase(c.kind, c.end - c.start);
    }
    start_output_phase(job);
  }
}

// ---------------------------------------------------------------------------
// Output (replicated writes), job completion, egress
// ---------------------------------------------------------------------------

void WorkloadDriver::start_output_phase(JobExec& job) {
  job.output_start = sim_.now();
  std::vector<std::pair<ServerId, Bytes>> parts;
  for (const auto& v : job.aggs) {
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

  // Replica-write chains: writer -> same-rack replica -> off-rack replica.
  JobExec* jp = &job;
  job.output_writes_pending = out_ds.blocks.size();
  for (BlockId bid : out_ds.blocks) {
    const Block& blk = store_.block(bid);
    const ServerId writer = blk.replicas.front();
    // Build the chain of (from, to) hops.  The chain holds itself only
    // weakly; the pending flow's completion callback owns it, so it is freed
    // once the last hop completes.
    auto advance = std::make_shared<std::function<void(std::size_t)>>();
    *advance = [this, jp, blk, writer, self = std::weak_ptr(advance)](std::size_t hop) {
      if (hop + 1 >= blk.replicas.size() || jp->failed || horizon_reached()) {
        if (--jp->output_writes_pending == 0 && !jp->failed && !horizon_reached()) {
          PhaseLogRecord p;
          p.job = jp->spec.id;
          p.phase = jp->output_phase;
          p.kind = PhaseKind::kOutput;
          p.start = jp->output_start;
          p.end = sim_.now();
          p.vertices = static_cast<std::int32_t>(jp->agg_primaries);
          p.bytes_in = jp->output_bytes;
          p.bytes_out = jp->output_bytes;
          trace_.record_phase(p);
          note_phase(p.kind, p.end - p.start);
          finish_job(*jp, /*failed=*/false);
        }
        return;
      }
      FlowSpec fs;
      fs.src = blk.replicas[hop];
      fs.dst = blk.replicas[hop + 1];
      fs.bytes = blk.size;
      fs.job = jp->spec.id;
      fs.phase = jp->output_phase;
      fs.kind = FlowKind::kReplicaWrite;
      sim_.start_flow(fs, [next = self.lock(), hop](FlowSim&, const FlowRecord&) {
        (*next)(hop + 1);
      });
    };
    (void)writer;
    (*advance)(0);
  }
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

void WorkloadDriver::start_egress(JobExec& job) {
  const Dataset& out = store_.dataset(job.output_dataset);
  const std::int32_t first_ext = topo_.internal_server_count();
  const ServerId ext{static_cast<std::int32_t>(
      rng_.uniform_int(first_ext, topo_.server_count() - 1))};

  // Pull output blocks with bounded concurrency.
  auto state = std::make_shared<std::pair<std::size_t, std::int32_t>>(0, 0);
  auto pump = std::make_shared<std::function<void()>>();
  const std::vector<BlockId> blocks = out.blocks;
  JobExec* jp = &job;
  // Weak self-reference: in-flight flows' callbacks own the pump.
  *pump = [this, jp, blocks, ext, state, self = std::weak_ptr(pump)] {
    while (state->second < config_.egress_concurrency && state->first < blocks.size()) {
      const Block& blk = store_.block(blocks[state->first++]);
      ++state->second;
      FlowSpec fs;
      fs.src = store_.closest_replica(blk.id, ext);
      fs.dst = ext;
      fs.bytes = blk.size;
      fs.job = jp->spec.id;
      fs.kind = FlowKind::kEgress;
      sim_.start_flow(fs, [state, pump = self.lock()](FlowSim&, const FlowRecord&) {
        --state->second;
        (*pump)();
      });
    }
  };
  (*pump)();
}

void WorkloadDriver::fail_job(JobExec& job) {
  if (job.failed || job.finished) return;
  job.failed = true;
  finish_job(job, /*failed=*/true);
}

// ---------------------------------------------------------------------------
// Evacuations
// ---------------------------------------------------------------------------

void WorkloadDriver::schedule_next_evacuation() {
  const double mean_gap = 3600.0 / config_.evacuations_per_hour;
  const TimeSec t = sim_.now() + rng_.exponential(mean_gap);
  if (t >= sim_.config().end_time) return;
  sim_.at(t, [this](FlowSim&) {
    const ServerId victim{static_cast<std::int32_t>(
        rng_.uniform_int(0, topo_.internal_server_count() - 1))};
    // A crashed server cannot stream its blocks anywhere; skip the round
    // (the draw still happens, keeping the rng sequence fault-independent).
    if (!is_server_down(victim)) run_evacuation(victim);
    schedule_next_evacuation();
  });
}

void WorkloadDriver::run_evacuation(ServerId victim) {
  std::vector<BlockId> blocks = store_.blocks_on(victim);
  if (blocks.empty()) return;
  if (static_cast<std::int32_t>(blocks.size()) > config_.evacuation_max_blocks) {
    blocks.resize(static_cast<std::size_t>(config_.evacuation_max_blocks));
  }
  ++stats_.evacuations;

  struct EvacState {
    std::vector<BlockId> blocks;
    std::size_t next = 0;
    std::int32_t in_flight = 0;
    Bytes moved = 0;
    std::int32_t count = 0;
    TimeSec start = 0;
  };
  auto st = std::make_shared<EvacState>();
  st->blocks = std::move(blocks);
  st->start = sim_.now();

  // Weak self-reference: in-flight flows' callbacks own the pump.
  auto pump = std::make_shared<std::function<void()>>();
  *pump = [this, victim, st, self = std::weak_ptr(pump)] {
    while (st->in_flight < config_.evacuation_concurrency &&
           st->next < st->blocks.size()) {
      const BlockId bid = st->blocks[st->next++];
      if (!store_.has_replica(bid, victim)) continue;  // already moved elsewhere
      ServerId target = store_.pick_evacuation_target(bid, victim);
      for (int attempt = 0; attempt < 4 && is_server_down(target); ++attempt) {
        target = store_.pick_evacuation_target(bid, victim);
      }
      if (is_server_down(target)) continue;  // cluster too degraded; skip block
      ++st->in_flight;
      FlowSpec fs;
      fs.src = victim;
      fs.dst = target;
      fs.bytes = store_.block(bid).size;
      fs.kind = FlowKind::kEvacuation;
      sim_.start_flow(fs, [this, victim, bid, target, st,
                           pump = self.lock()](FlowSim&, const FlowRecord& rec) {
        --st->in_flight;
        if (!rec.failed && store_.has_replica(bid, victim) &&
            !store_.has_replica(bid, target)) {
          store_.move_replica(bid, victim, target);
          st->moved += rec.bytes_sent;
          ++st->count;
        }
        (*pump)();
      });
    }
    if (st->in_flight == 0 && st->next == st->blocks.size()) {
      EvacuationRecord er;
      er.start = st->start;
      er.end = sim_.now();
      er.server = victim;
      er.bytes_moved = st->moved;
      er.blocks_moved = st->count;
      trace_.record_evacuation(er);
      st->next = st->blocks.size() + 1;  // make the record idempotent
    }
  };
  (*pump)();
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
    for (std::size_t vi = 0; vi < job.extracts.size(); ++vi) {
      auto& v = job.extracts[vi];
      if (v.closed || v.server != server) continue;
      if (v.backup_of >= 0) {
        // A crashed backup is simply abandoned; its primary still runs.
        auto& primary = job.extracts[static_cast<std::size_t>(v.backup_of)];
        if (primary.backup_index == static_cast<std::int32_t>(vi)) {
          primary.backup_index = -1;
        }
        cancel_extract_run(job, vi);
        continue;
      }
      if (v.backup_index >= 0 &&
          !job.extracts[static_cast<std::size_t>(v.backup_index)].closed) {
        // The primary died but its speculative twin survives: the twin IS
        // the re-execution, so just retire the dead run.
        cancel_extract_run(job, vi);
        continue;
      }
      ++v.epoch;  // orphan every callback of the old incarnation
      if (v.has_core) {
        v.has_core = false;
        release_core(v.server);
      }
      if (horizon_reached()) {
        close_extract_vertex(job, vi);
        continue;
      }
      // Re-execute from scratch: partial map output died with the server.
      v.next_block = 0;
      v.bytes_read = 0;
      v.map_output = 0;
      v.retries_left = config_.max_read_retries;
      ++stats_.vertices_reexecuted;
      DCT_OBS_INC(m_vertices_reexecuted_);
      launch_extract_vertex(job, vi);
    }
    for (std::size_t vi = 0; vi < job.aggs.size(); ++vi) {
      auto& v = job.aggs[vi];
      if (v.closed || v.server != server) continue;
      if (v.backup_of >= 0) {
        auto& primary = job.aggs[static_cast<std::size_t>(v.backup_of)];
        if (primary.backup_index == static_cast<std::int32_t>(vi)) {
          primary.backup_index = -1;
        }
        cancel_agg_run(job, vi);
        continue;
      }
      if (v.backup_index >= 0 &&
          !job.aggs[static_cast<std::size_t>(v.backup_index)].closed) {
        cancel_agg_run(job, vi);
        continue;
      }
      ++v.epoch;
      if (v.has_core) {
        v.has_core = false;
        release_core(v.server);
      }
      if (horizon_reached()) {
        close_agg_vertex(job, vi);
        continue;
      }
      v.in_flight = 0;
      v.bytes_fetched = 0;
      v.in_combine = false;
      v.retries_left = config_.max_read_retries;
      v.server = ensure_up(v.server);
      ++stats_.vertices_reexecuted;
      DCT_OBS_INC(m_vertices_reexecuted_);
      // Re-fetch everything.  Fetches sourced at the crashed server will
      // fail and retry; if the mapper's output is truly gone the retries
      // exhaust and the job fails — lost map output is not re-derived.
      populate_agg_fetches(job, vi);
      launch_aggregate_vertex(job, vi);
    }
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
    enqueue_repairs(failed);
    return;
  }
  std::vector<BlockId> blocks = store_.blocks_on(failed);
  if (blocks.empty()) return;
  if (static_cast<std::int32_t>(blocks.size()) > config_.evacuation_max_blocks) {
    blocks.resize(static_cast<std::size_t>(config_.evacuation_max_blocks));
  }

  struct ReplState {
    std::vector<BlockId> blocks;
    std::size_t next = 0;
    std::int32_t in_flight = 0;
  };
  auto st = std::make_shared<ReplState>();
  st->blocks = std::move(blocks);

  // Weak self-reference: in-flight flows' callbacks own the pump.
  auto pump = std::make_shared<std::function<void()>>();
  *pump = [this, failed, st, self = std::weak_ptr(pump)] {
    while (st->in_flight < config_.evacuation_concurrency &&
           st->next < st->blocks.size()) {
      const BlockId bid = st->blocks[st->next++];
      if (!store_.has_replica(bid, failed)) continue;  // healed already
      // Source: any surviving replica (the victim itself cannot serve).
      ServerId src = failed;
      for (ServerId r : store_.block(bid).replicas) {
        if (r != failed && !is_server_down(r)) {
          src = r;
          break;
        }
      }
      if (src == failed) continue;  // no live copy left to heal from
      ServerId target = store_.pick_evacuation_target(bid, failed);
      for (int attempt = 0;
           attempt < 4 && (is_server_down(target) || store_.has_replica(bid, target));
           ++attempt) {
        target = store_.pick_evacuation_target(bid, failed);
      }
      if (is_server_down(target) || store_.has_replica(bid, target)) continue;
      ++st->in_flight;
      FlowSpec fs;
      fs.src = src;
      fs.dst = target;
      fs.bytes = store_.block(bid).size;
      fs.kind = FlowKind::kEvacuation;  // recovery traffic shares the kind
      sim_.start_flow(fs, [this, failed, bid, target, st,
                           pump = self.lock()](FlowSim&, const FlowRecord& rec) {
        --st->in_flight;
        if (!rec.failed && store_.has_replica(bid, failed) &&
            !store_.has_replica(bid, target)) {
          store_.move_replica(bid, failed, target);
          ++stats_.blocks_rereplicated;
          DCT_OBS_ADD(m_rereplication_bytes_, rec.bytes_sent);
          if (is_server_down(failed)) note_replica_restored(bid, sim_.now());
        }
        (*pump)();
      });
    }
  };
  (*pump)();
}

// ---------------------------------------------------------------------------
// Recovery-storm control (workload/repair.h)
// ---------------------------------------------------------------------------

void WorkloadDriver::enqueue_repairs(ServerId failed) {
  std::vector<BlockId> blocks = store_.blocks_on(failed);
  if (static_cast<std::int32_t>(blocks.size()) > config_.evacuation_max_blocks) {
    blocks.resize(static_cast<std::size_t>(config_.evacuation_max_blocks));
  }
  const TimeSec now = sim_.now();
  for (BlockId bid : blocks) {
    repair_queue_.enqueue(bid, failed, live_replica_count(bid), now);
    ++stats_.repairs_enqueued;
  }
  DCT_OBS_SET(m_repair_queue_depth_, static_cast<double>(repair_queue_.depth()));
  schedule_repair_pacer();
}

void WorkloadDriver::schedule_repair_pacer() {
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
      const auto slot =
          static_cast<std::size_t>(topo_.server_up_link(r).value());
      const double cap = topo_.link(topo_.server_up_link(r)).capacity;
      const double util = slot < repair_rate_snapshot_.size() && cap > 0
                              ? repair_rate_snapshot_[slot] / cap
                              : 0.0;
      if (src == item.failed || util < src_util) {
        src = r;
        src_util = util;
      }
    }
    if (src == item.failed) {
      // No live copy right now; retry after backoff in case a holder recovers.
      ++item.attempts;
      if (item.attempts < config_.repair.max_attempts) {
        repair_queue_.requeue(item, now + repair_backoff(item.attempts));
      } else {
        ++stats_.repairs_abandoned;
      }
      continue;
    }
    ServerId target = store_.pick_evacuation_target(bid, item.failed);
    for (int attempt = 0;
         attempt < 4 && (is_server_down(target) || store_.has_replica(bid, target));
         ++attempt) {
      target = store_.pick_evacuation_target(bid, item.failed);
    }
    if (is_server_down(target) || store_.has_replica(bid, target)) {
      ++item.attempts;
      if (item.attempts < config_.repair.max_attempts) {
        repair_queue_.requeue(item, now + repair_backoff(item.attempts));
      } else {
        ++stats_.repairs_abandoned;
      }
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
  DCT_OBS_SET(m_repair_queue_depth_, static_cast<double>(repair_queue_.depth()));
  schedule_repair_pacer();
}

void WorkloadDriver::dispatch_repair(RepairItem item, ServerId src,
                                     ServerId target) {
  repair_queue_.take_token();
  repair_queue_.note_dispatch(src, target);
  ++stats_.repairs_dispatched;
  DCT_OBS_INC(m_repairs_dispatched_);
  FlowSpec fs;
  fs.src = src;
  fs.dst = target;
  fs.bytes = store_.block(item.block).size;
  fs.kind = FlowKind::kEvacuation;  // recovery traffic shares the kind
  sim_.start_flow(fs, [this, item, src, target](FlowSim&, const FlowRecord& rec) {
    repair_queue_.note_done(src, target);
    const BlockId bid = item.block;
    if (!rec.failed && store_.has_replica(bid, item.failed) &&
        !store_.has_replica(bid, target)) {
      store_.move_replica(bid, item.failed, target);
      ++stats_.blocks_rereplicated;
      DCT_OBS_ADD(m_rereplication_bytes_, rec.bytes_sent);
      if (is_server_down(item.failed)) note_replica_restored(bid, sim_.now());
    } else if (rec.failed && !horizon_reached()) {
      RepairItem retry = item;
      ++retry.attempts;
      if (retry.attempts < config_.repair.max_attempts) {
        ++stats_.repairs_retried;
        repair_queue_.requeue(retry, sim_.now() + repair_backoff(retry.attempts));
      } else {
        ++stats_.repairs_abandoned;
      }
    }
    DCT_OBS_SET(m_repair_queue_depth_, static_cast<double>(repair_queue_.depth()));
    schedule_repair_pacer();
  });
}

bool WorkloadDriver::repair_path_congested(ServerId src, ServerId dst) const {
  if (repair_rate_snapshot_.empty()) return false;
  const auto util_above = [this](LinkId l) {
    const auto slot = static_cast<std::size_t>(l.value());
    if (slot >= repair_rate_snapshot_.size()) return false;
    const double cap = topo_.link(l).capacity;
    return cap > 0 && repair_rate_snapshot_[slot] / cap >
                          config_.repair.congestion_util_threshold;
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
  if (now > redundancy_last_update_) {
    redundancy_debt_ += static_cast<double>(under_replicated_blocks_) *
                        (now - redundancy_last_update_);
    redundancy_last_update_ = now;
  }
}

void WorkloadDriver::note_replica_lost(BlockId block, TimeSec now) {
  redundancy_advance(now);
  const auto slot = static_cast<std::size_t>(block.value());
  if (slot >= block_down_replicas_.size()) {
    block_down_replicas_.resize(slot + 1, 0);
  }
  if (block_down_replicas_[slot]++ == 0) {
    ++under_replicated_blocks_;
    ++redundancy_loss_episodes_;
    if (redundancy_first_loss_ < 0) redundancy_first_loss_ = now;
    DCT_OBS_SET(m_under_replicated_, static_cast<double>(under_replicated_blocks_));
  }
}

void WorkloadDriver::note_replica_restored(BlockId block, TimeSec now) {
  redundancy_advance(now);
  const auto slot = static_cast<std::size_t>(block.value());
  if (slot >= block_down_replicas_.size() || block_down_replicas_[slot] == 0) {
    return;  // e.g. replica placed on a down server, never counted as lost
  }
  if (--block_down_replicas_[slot] == 0) {
    --under_replicated_blocks_;
    DCT_OBS_SET(m_under_replicated_, static_cast<double>(under_replicated_blocks_));
    if (under_replicated_blocks_ == 0) {
      redundancy_last_restore_ = now;
      if (redundancy_first_loss_ >= 0) {
        DCT_OBS_SET(m_time_to_redundancy_s_, now - redundancy_first_loss_);
      }
    }
  }
}

RedundancyStats WorkloadDriver::redundancy(TimeSec now) const {
  RedundancyStats out;
  out.under_replicated = under_replicated_blocks_;
  out.loss_episodes = redundancy_loss_episodes_;
  out.first_loss = redundancy_first_loss_;
  out.last_full_restore = redundancy_last_restore_;
  out.debt_block_seconds = redundancy_debt_;
  if (now > redundancy_last_update_) {
    out.debt_block_seconds += static_cast<double>(under_replicated_blocks_) *
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

void WorkloadDriver::run_ingest() {
  ++stats_.ingest_sessions;
  const JobClassParams& p = config_.medium_jobs;
  const Bytes size = std::clamp<Bytes>(
      static_cast<Bytes>(rng_.lognormal(p.input_log_mu, p.input_log_sigma)), p.input_min,
      p.input_max);
  const DatasetId ds = store_.create_dataset(size);
  const std::int32_t first_ext = topo_.internal_server_count();
  const ServerId ext{static_cast<std::int32_t>(
      rng_.uniform_int(first_ext, topo_.server_count() - 1))};

  struct IngestState {
    std::vector<BlockId> blocks;
    std::size_t next = 0;
    std::int32_t in_flight = 0;
  };
  auto st = std::make_shared<IngestState>();
  st->blocks = store_.dataset(ds).blocks;

  // Weak self-references: in-flight flows' callbacks own the pump and the
  // hop chains.
  auto pump = std::make_shared<std::function<void()>>();
  *pump = [this, ds, ext, st, self = std::weak_ptr(pump)] {
    while (st->in_flight < config_.ingest_concurrency && st->next < st->blocks.size()) {
      const BlockId bid = st->blocks[st->next++];
      ++st->in_flight;
      const Block& blk = store_.block(bid);
      // Chain: external -> replica0 -> replica1 -> replica2.
      auto hop = std::make_shared<std::function<void(std::size_t)>>();
      *hop = [this, st, pump = self.lock(), bid, ext,
              hop_self = std::weak_ptr(hop)](std::size_t i) {
        const Block& b = store_.block(bid);
        const ServerId from = i == 0 ? ext : b.replicas[i - 1];
        if (i >= b.replicas.size()) {
          --st->in_flight;
          (*pump)();
          return;
        }
        FlowSpec fs;
        fs.src = from;
        fs.dst = b.replicas[i];
        fs.bytes = b.size;
        fs.kind = i == 0 ? FlowKind::kIngest : FlowKind::kReplicaWrite;
        sim_.start_flow(fs, [next = hop_self.lock(), i](FlowSim&, const FlowRecord&) {
          (*next)(i + 1);
        });
      };
      (void)blk;
      (*hop)(0);
    }
    if (st->in_flight == 0 && st->next == st->blocks.size()) {
      available_datasets_.push_back(ds);
      st->next = st->blocks.size() + 1;
    }
  };
  (*pump)();
}

}  // namespace dct
