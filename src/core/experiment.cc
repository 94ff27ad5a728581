#include "core/experiment.h"

#include <chrono>

#include "analysis/analysis_obs.h"
#include "common/fnv.h"
#include "common/require.h"
#include "trace/codec.h"

namespace dct {
namespace {
// Flow records are streamed into the trace by the collector; keeping a
// second copy inside the simulator would double memory for big runs.
// Records stay available through trace().flows().
ScenarioConfig with_streamed_records(ScenarioConfig c) {
  c.sim.keep_records = false;
  return c;
}
}  // namespace

ClusterExperiment::ClusterExperiment(ScenarioConfig config)
    : config_(with_streamed_records(std::move(config))),
      topo_(config_.topology),
      net_(topo_),
      sim_(topo_, config_.sim),
      trace_(topo_.server_count(), config_.sim.end_time),
      collector_(sim_, trace_),
      driver_(topo_, sim_, trace_, config_.workload, config_.seed) {
  // Fail fast on bad fault/degradation/cascade knobs, before any scheduling.
  // (WorkloadConfig, including RepairConfig, is validated by the driver.)
  config_.faults.validate();
  config_.degradations.validate();
  config_.cascades.validate();
  config_.telemetry.validate();
  // The overlay is always installed; while every device is up it delegates
  // to the immutable topology, so a fault-free run is unchanged.
  sim_.set_network_state(&net_);
}

ClusterExperiment::~ClusterExperiment() {
  // The codec and analysis metrics are process-wide and may point into
  // registry_; a later encode/decode or analysis call outside any experiment
  // must not touch freed counters.  (If another live experiment had re-bound
  // them its metrics go silently quiet, which is harmless — the hooks are
  // null-tolerant.)  This holds for a run() that threw, e.g. a divergent
  // resume, too.
  if (process_metrics_bound_) {
    bind_codec_metrics(nullptr);
    bind_analysis_metrics(nullptr);
  }
}

void ClusterExperiment::run() {
  if (ran_) return;
  const auto wall_start = std::chrono::steady_clock::now();
  if (config_.obs_bind_metrics) {
    sim_.bind_metrics(registry_);
    driver_.bind_metrics(registry_);
    bind_codec_metrics(&registry_);
    bind_analysis_metrics(&registry_);
    process_metrics_bound_ = true;
  }
  driver_.install();
  std::vector<FaultEvent> faults;
  std::vector<DegradationEvent> degradations;
  if (!config_.faults.empty() || !config_.degradations.empty() ||
      !config_.cascades.empty()) {
    injector_ = std::make_unique<FaultInjector>(sim_, net_, &trace_);
    if (config_.obs_bind_metrics) injector_->bind_metrics(registry_);
    injector_->set_server_crash_handler(
        [this](ServerId s) { driver_.handle_server_crash(s); });
    injector_->set_server_recovery_handler(
        [this](ServerId s) { driver_.handle_server_recovery(s); });
    injector_->set_straggler_handler([this](ServerId s, double slowdown) {
      driver_.handle_straggler_start(s, slowdown);
    });
    injector_->set_straggler_clear_handler(
        [this](ServerId s) { driver_.handle_straggler_end(s); });
    faults = generate_fault_schedule(topo_, config_.faults, config_.sim.end_time);
    degradations = generate_degradation_schedule(topo_, config_.degradations,
                                                 config_.sim.end_time);
    schedule_hash_ = dct::schedule_hash(faults, degradations);
  }
  // The telemetry plan couples to the device schedules (crash tails,
  // straggler uploads, reboot resets), so derive it before they are moved
  // into the injector.  An empty telemetry config generates nothing.
  if (!config_.telemetry.empty()) {
    telemetry_schedule_ = generate_telemetry_schedule(
        topo_, config_.telemetry, faults, degradations, config_.sim.end_time);
    telemetry_hash_ = dct::telemetry_schedule_hash(telemetry_schedule_);
  }
  if (injector_) {
    injector_->install(std::move(faults));
    if (!degradations.empty() || !config_.degradations.empty()) {
      injector_->install_degradations(std::move(degradations));
    }
    if (!config_.cascades.empty()) injector_->enable_cascades(config_.cascades);
  }
  // Checkpointing is opt-in and adds no events: the record tap spools each
  // finalized flow, and the WAL decides when it is durable.  Construction
  // performs recovery — the durable WAL prefix in the directory becomes the
  // replay-verification target.
  if (config_.checkpoint.enabled()) {
    ckpt_ = std::make_unique<ckpt::CheckpointManager>(config_.checkpoint,
                                                      scenario_fingerprint());
    sim_.set_record_tap([this](const FlowRecord& r) { ckpt_->on_record(r); });
  }
  sim_.run();
  trace_.build_indices();
  if (ckpt_) {
    ckpt_->finalize();
    if (config_.obs_bind_metrics) publish_ckpt_metrics();
  }
  wall_seconds_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                wall_start)
                      .count();
  ran_ = true;
}

void ClusterExperiment::resume(const std::string& dir) {
  require(!ran_, "ClusterExperiment::resume: run() already completed");
  require(!dir.empty(), "ClusterExperiment::resume: empty checkpoint dir");
  config_.checkpoint.dir = dir;
  run();
}

std::uint64_t ClusterExperiment::scenario_fingerprint() const {
  Fingerprint fp;
  fp.str("dct-scenario-v1")
      .str(config_.name)
      .u64(config_.seed)
      .f64(config_.sim.end_time)
      .u64(static_cast<std::uint64_t>(config_.topology.racks))
      .u64(static_cast<std::uint64_t>(config_.topology.servers_per_rack))
      .u64(static_cast<std::uint64_t>(config_.topology.external_servers))
      .flag(!config_.faults.empty())
      .flag(!config_.degradations.empty())
      .flag(!config_.cascades.empty())
      .flag(!config_.telemetry.empty())
      .flag(config_.workload.locality_enabled)
      .flag(config_.workload.chunked_transfers)
      .f64(config_.workload.jobs_per_second);
  return fp.value();
}

void ClusterExperiment::publish_ckpt_metrics() {
  const ckpt::CheckpointManager::Counters& c = ckpt_->counters();
  registry_.counter("ckpt", "wal_records_appended", "records")
      ->inc(c.wal_records_appended);
  registry_.counter("ckpt", "wal_records_verified", "records")
      ->inc(c.wal_records_verified);
  registry_.counter("ckpt", "wal_torn_bytes", "bytes")->inc(c.wal_torn_bytes);
  registry_.counter("ckpt", "stale_tmp_removed", "files")->inc(c.stale_tmp_removed);
  registry_.gauge("ckpt", "resume_count", "resumes")
      ->set(static_cast<double>(ckpt_->resume_count()));
}

const ClusterTrace& ClusterExperiment::observed_trace() {
  require(ran_, "ClusterExperiment::observed_trace: call run() first");
  if (config_.telemetry.empty()) return trace_;
  if (!observed_cache_) {
    observed_cache_ =
        std::make_unique<LossyCollection>(apply_telemetry_faults(trace_, telemetry_schedule_));
    telemetry_stats_ = observed_cache_->stats;
    if (config_.obs_bind_metrics) publish_telemetry_metrics();
  }
  return observed_cache_->trace;
}

void ClusterExperiment::publish_telemetry_metrics() {
  const TelemetryMergeStats& s = telemetry_stats_;
  registry_.counter("telemetry", "uploads_lost", "uploads")->inc(s.uploads_lost);
  registry_.counter("telemetry", "uploads_truncated", "uploads")
      ->inc(s.uploads_truncated);
  registry_.counter("telemetry", "uploads_duplicated", "uploads")
      ->inc(s.uploads_duplicated);
  registry_.counter("telemetry", "records_lost", "records")->inc(s.records_lost);
  registry_.counter("telemetry", "duplicates_dropped", "records")
      ->inc(s.duplicates_dropped);
  registry_.counter("telemetry", "flows_recovered", "flows")->inc(s.flows_recovered);
  registry_.counter("telemetry", "flows_lost", "flows")->inc(s.flows_lost);
  const ClusterTrace& obs = observed_cache_->trace;
  registry_.gauge("telemetry", "gap_seconds", "s")->set(obs.gap_seconds());
  registry_.gauge("telemetry", "mean_coverage", "ratio")->set(obs.mean_coverage());
}

obs::RunManifest ClusterExperiment::manifest(const std::string& harness) const {
  require(ran_, "ClusterExperiment::manifest: call run() first");
  obs::RunManifest m;
  m.harness = harness;
  m.scenario = config_.name;
  m.seed = config_.seed;
  m.sim_duration_s = config_.sim.end_time;
  m.config["racks"] = static_cast<double>(config_.topology.racks);
  m.config["servers_per_rack"] = static_cast<double>(config_.topology.servers_per_rack);
  m.config["external_servers"] = static_cast<double>(config_.topology.external_servers);
  m.config["jobs_per_second"] = config_.workload.jobs_per_second;
  m.config["max_concurrent_jobs"] =
      static_cast<double>(config_.workload.max_concurrent_jobs);
  m.config["locality_enabled"] = config_.workload.locality_enabled ? 1.0 : 0.0;
  m.config["chunked_transfers"] = config_.workload.chunked_transfers ? 1.0 : 0.0;
  m.config["recompute_interval_s"] = config_.sim.recompute_interval;
  m.config["per_flow_rate_cap_Bps"] = config_.sim.per_flow_rate_cap;
  m.config["faults_enabled"] = config_.faults.empty() ? 0.0 : 1.0;
  m.config["degradations_enabled"] = config_.degradations.empty() ? 0.0 : 1.0;
  m.config["cascades_enabled"] = config_.cascades.empty() ? 0.0 : 1.0;
  m.config["repair_paced"] = config_.workload.repair.paced ? 1.0 : 0.0;
  // Masked to 48 bits so the value is exactly representable as a double and
  // survives the manifest's JSON round-trip bit-for-bit.
  m.config["fault_schedule_hash"] =
      static_cast<double>(schedule_hash_ & ((1ull << 48) - 1));
  m.config["telemetry_enabled"] = config_.telemetry.empty() ? 0.0 : 1.0;
  m.config["telemetry_schedule_hash"] =
      static_cast<double>(telemetry_hash_ & ((1ull << 48) - 1));
  // Checkpoint lineage keys appear only when checkpointing is on, keeping
  // disabled-mode manifests bit-identical to pre-checkpoint builds.
  if (config_.checkpoint.enabled()) {
    m.config["checkpoint_enabled"] = 1.0;
    m.config["ckpt_resume_count"] =
        ckpt_ ? static_cast<double>(ckpt_->resume_count()) : 0.0;
  }
  m.build = obs::current_build_info();
  m.wall_seconds = wall_seconds_;
  m.capture_metrics(registry_);
  return m;
}

const LinkUtilizationMap& ClusterExperiment::utilization() {
  require(ran_, "ClusterExperiment::utilization: call run() first");
  if (!util_cache_) {
    util_cache_ = std::make_unique<LinkUtilizationMap>(utilization_from_sim(sim_));
  }
  return *util_cache_;
}

}  // namespace dct
