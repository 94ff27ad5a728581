#include "testing/oracles.h"

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <sstream>
#include <vector>

#include "analysis/traffic_matrix.h"
#include "packetsim/incast_sim.h"
#include "trace/codec.h"

namespace dct::testing {

namespace fs = std::filesystem;

std::string stable_manifest(const ClusterExperiment& exp,
                            const std::string& harness) {
  obs::RunManifest m = exp.manifest(harness);
  m.wall_seconds = 0;
  std::erase_if(m.metrics, [](const obs::MetricSnapshot& s) {
    return s.full_name.find("wall_ns") != std::string::npos;
  });
  return m.to_json();
}

std::string filter_manifest_lines(const std::string& json) {
  std::istringstream in(json);
  std::string out, line;
  while (std::getline(in, line)) {
    if (line.find("wall") != std::string::npos ||
        line.find("ckpt") != std::string::npos ||
        line.find("checkpoint") != std::string::npos) {
      continue;
    }
    while (!line.empty() && (line.back() == ',' || line.back() == ' ')) {
      line.pop_back();
    }
    out += line;
    out += '\n';
  }
  return out;
}

void determinism_oracle(ClusterExperiment& a, ClusterExperiment& b,
                        const std::string& harness, InvariantReport& report) {
  // The lossy merge is lazy and publishes its merge-stats metrics on first
  // access; touch both sides so the manifests are symmetric.
  (void)a.observed_trace();
  (void)b.observed_trace();
  // Manifests first: encode_trace below feeds the process-global codec
  // counters, which are bound into the most recent run's registry.
  const std::string ma = stable_manifest(a, harness);
  const std::string mb = stable_manifest(b, harness);
  if (encode_trace(a.trace()) != encode_trace(b.trace())) {
    report.fail("oracle.determinism", "traces differ between identical runs");
  }
  if (a.schedule_hash() != b.schedule_hash()) {
    report.fail("oracle.determinism",
                "fault/degradation schedule hashes differ between identical runs");
  }
  if (a.telemetry_schedule_hash() != b.telemetry_schedule_hash()) {
    report.fail("oracle.determinism",
                "telemetry schedule hashes differ between identical runs");
  }
  if (encode_trace(a.observed_trace()) != encode_trace(b.observed_trace())) {
    report.fail("oracle.determinism",
                "observed traces differ between identical runs");
  }
  if (ma != mb) {
    std::size_t pos = 0;
    while (pos < ma.size() && pos < mb.size() && ma[pos] == mb[pos]) ++pos;
    const std::size_t from = pos > 80 ? pos - 80 : 0;
    std::ostringstream d;
    d << "manifests differ between identical runs; first divergence at byte "
      << pos << "\n  A: ..." << ma.substr(from, 160) << "\n  B: ..."
      << mb.substr(from, 160);
    report.fail("oracle.determinism", d.str());
  }
}

void checkpoint_oracle(ScenarioConfig cfg, const std::string& workdir,
                       InvariantReport& report) {
  const std::size_t before = report.violations.size();
  fs::create_directories(workdir);
  const std::string ckpt_dir = (fs::path(workdir) / "ckpt").string();

  const auto stable = [](ClusterExperiment& exp) {
    return filter_manifest_lines(stable_manifest(exp, "ckpt_oracle"));
  };

  cfg.checkpoint = ckpt::CheckpointConfig{};
  std::vector<std::uint8_t> plain_trace;
  std::string plain_manifest;
  {
    ClusterExperiment plain(cfg);
    plain.run();
    (void)plain.observed_trace();
    plain_manifest = stable(plain);
    plain_trace = encode_trace(plain.trace());
  }

  cfg.checkpoint.dir = ckpt_dir;
  {
    ClusterExperiment ckpted(cfg);
    ckpted.run();
    (void)ckpted.observed_trace();
    const std::string m = stable(ckpted);
    if (encode_trace(ckpted.trace()) != plain_trace) {
      report.fail("oracle.checkpoint",
                  "checkpointing perturbed the trace (checkpointed != plain)");
    }
    if (m != plain_manifest) {
      report.fail("oracle.checkpoint",
                  "checkpointing perturbed the filtered manifest");
    }
  }

  // Resume of a completed directory: recovery must re-verify the durable
  // WAL against the replay and land on the identical bytes.
  try {
    ClusterExperiment resumed(cfg);
    resumed.resume(ckpt_dir);
    (void)resumed.observed_trace();
    const std::string m = stable(resumed);
    if (encode_trace(resumed.trace()) != plain_trace) {
      report.fail("oracle.checkpoint", "resumed trace differs from plain run");
    }
    if (m != plain_manifest) {
      report.fail("oracle.checkpoint",
                  "resumed filtered manifest differs from plain run");
    }
  } catch (const std::exception& e) {
    report.fail("oracle.checkpoint",
                std::string("resume of completed run threw: ") + e.what());
  }

  if (report.violations.size() == before) {
    std::error_code ec;
    fs::remove_all(workdir, ec);
  }
}

void telemetry_oracle(ClusterExperiment& exp, InvariantReport& report) {
  const auto total_of = [](const std::vector<SparseTm>& tms) {
    double t = 0.0;
    for (const auto& tm : tms) t += tm.total();
    return t;
  };
  const double truth = total_of(
      build_tm_series(exp.trace(), exp.topology(), 5.0, TmScope::kServer));
  const double naive = total_of(
      build_tm_series(exp.observed_trace(), exp.topology(), 5.0, TmScope::kServer));
  const double aware = total_of(build_tm_series_gap_aware(
      exp.observed_trace(), exp.topology(), 5.0, TmScope::kServer));
  // Loss only removes mass; correction only restores it; and the restored
  // mass stays inside the declared bound — the exact-ledger construction
  // cannot invent more than it can attribute to gap ledgers, so overshoot is
  // bounded by a multiple of what was actually lost (docs/TESTING.md).
  if (naive > truth + 1.0) {
    std::ostringstream d;
    d << "naive lossy TM total " << naive << " exceeds lossless total " << truth;
    report.fail("oracle.telemetry", d.str());
  }
  if (aware + 1.0 < naive) {
    std::ostringstream d;
    d << "gap-aware TM total " << aware << " below naive total " << naive;
    report.fail("oracle.telemetry", d.str());
  }
  const double lost = std::max(0.0, truth - naive);
  if (aware > truth + 2.0 * lost + 0.02 * truth + 1.0) {
    std::ostringstream d;
    d << "gap-aware TM total " << aware << " overshoots lossless total " << truth
      << " by more than the declared bound (lost mass " << lost << ")";
    report.fail("oracle.telemetry", d.str());
  }
}

namespace {

// Fluid-model barrier finish of an N-to-1 star: N senders in one rack, all
// transferring to server 0 at t = 0, every TCP-scale cap disabled so the
// fluid max-min allocation is the only constraint.
double fluid_star_barrier(std::int32_t senders, Bytes bytes_per_sender) {
  TopologyConfig tc;
  tc.racks = 1;
  tc.servers_per_rack = senders + 1;
  tc.racks_per_vlan = 1;
  tc.agg_switches = 2;
  tc.external_servers = 0;
  Topology topo(tc);
  FlowSimConfig fc;
  fc.end_time = 120.0;
  fc.recompute_interval = 0.0;  // exact mode
  fc.per_flow_rate_cap = 0.0;
  fc.fail_rate_floor = 0.0;
  fc.connect_share_floor = 0.0;
  FlowSim sim(topo, fc);
  for (std::int32_t i = 1; i <= senders; ++i) {
    FlowSpec spec{};
    spec.src = ServerId{i};
    spec.dst = ServerId{0};
    spec.bytes = bytes_per_sender;
    sim.start_flow(spec);
  }
  sim.run();
  double finish = 0.0;
  for (const auto& rec : sim.records()) finish = std::max(finish, rec.end);
  return finish;
}

}  // namespace

void incast_model_oracle(InvariantReport& report) {
  // Fluid regime: a deep buffer keeps TCP out of timeout territory, so the
  // packet barrier should track the fluid prediction N*B/C closely.
  constexpr Bytes kBytes = 4 * 1000 * 1000;
  for (const std::int32_t senders : {4, 8}) {
    const double fluid = fluid_star_barrier(senders, kBytes);
    IncastConfig pc;
    pc.queue_packets = 4096;  // deep buffer: no synchronized drops
    const IncastResult packet = run_incast(pc, senders, kBytes);
    if (!packet.completed) {
      report.fail("oracle.incast_model",
                  "deep-buffer packet run hit the safety horizon");
      continue;
    }
    const double ratio = packet.barrier_finish / fluid;
    if (ratio < 0.8 || ratio > 1.5) {
      std::ostringstream d;
      d << senders << "-sender deep-buffer barrier: packet "
        << packet.barrier_finish << " s vs fluid " << fluid << " s (ratio "
        << ratio << " outside [0.8, 1.5])";
      report.fail("oracle.incast_model", d.str());
    }
  }

  // Collapse regime: high fan-in into the shallow 2009-era buffer.  The
  // fluid model predicts N*B/C regardless; the packet model must diverge —
  // RTO timeouts and a barrier stretched well past the fluid prediction.
  // This is the divergence that makes §4.4 a packet-level story.
  {
    constexpr std::int32_t kFanIn = 40;
    constexpr Bytes kSmall = 256 * 1000;
    const double fluid = fluid_star_barrier(kFanIn, kSmall);
    const IncastResult packet = run_incast(IncastConfig{}, kFanIn, kSmall);
    if (packet.timeouts == 0 || packet.barrier_finish < 2.0 * fluid) {
      std::ostringstream d;
      d << "no incast collapse at fan-in " << kFanIn << ": " << packet.timeouts
        << " timeouts, packet barrier " << packet.barrier_finish
        << " s vs fluid " << fluid << " s";
      report.fail("oracle.incast_model", d.str());
    }
  }
}

}  // namespace dct::testing
