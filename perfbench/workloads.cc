// The three benchmark workloads.  perfbench/README.md gives the rationale
// for each and the layer each per-layer metric attributes time to.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/congestion.h"
#include "analysis/flowstats.h"
#include "analysis/traffic_matrix.h"
#include "common/stats.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "perfbench.h"
#include "testing/invariants.h"
#include "tomography/estimators.h"
#include "tomography/metrics.h"
#include "tomography/routing.h"
#include "trace/codec.h"
#include "trace/collector_faults.h"
#include "trace/snmp.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

/// Simulated horizon of every input scenario.  At 300 simulated seconds one
/// canonical run() is over a second of host time, where 120 s runs were
/// too short for their medians to repeat.
constexpr double kSimSeconds = 300.0;
/// Inputs per run.  One seeded scenario's work varies by 10-30% from seed
/// to seed (job mix, flow sizes, event-queue high water), which would swamp
/// any change under test; a run therefore times one round over several
/// scenarios derived from its seed, and reports round totals.
constexpr int kInputs = 8;
/// Input j of seed s uses scenario seed s + j * kInputSeedStride, so input 0
/// is exactly the scenario the seed names and no two seeds share an input.
constexpr std::uint64_t kInputSeedStride = 1'000'003;
/// A run always measures at least this many rounds (traced mode needs one
/// traced and one untraced), after a one-iteration warm-up.
constexpr int kMinRounds = 2;
/// Warm constructions behind setup_s (each is well under a millisecond).
constexpr int kSetupRepeats = 200;
/// Window of the ToR traffic matrices tomography is evaluated on.
constexpr double kTomoWindow = 10.0;
/// Hot-link threshold shared by the congestion analyses (Figs. 5-8).
constexpr double kHotThreshold = 0.7;

std::uint64_t input_seed(std::uint64_t seed, int input) {
  return seed + static_cast<std::uint64_t>(input) * kInputSeedStride;
}

double registry_value(const dct::obs::Registry& registry, std::string_view full_name) {
  for (const dct::obs::Metric* m : registry.metrics()) {
    if (m->full_name() != full_name) continue;
    switch (m->kind) {
      case dct::obs::MetricKind::kCounter:
        return static_cast<double>(m->counter->value());
      case dct::obs::MetricKind::kGauge:
        return m->gauge->value();
      case dct::obs::MetricKind::kHistogram:
        return m->histogram->sum();
    }
  }
  return 0.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The median, or 0 for an empty sample (every iteration failed).
double median_of(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : dct::median(xs);
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// FNV-1a over bytes, chained from `h`.
std::uint64_t fnv1a(std::uint64_t h, std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Order-sensitive digest of numbers by bit pattern.
class Digest {
 public:
  void add(std::uint64_t v) {
    std::uint8_t bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    h_ = fnv1a(h_, bytes);
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof v);
    add(bits);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = kFnvBasis;
};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Starts a timed phase's memory accounting: freed heap goes back to the
/// kernel and the resident-set high-water mark restarts from the current
/// RSS, so the peak read afterwards belongs to this phase rather than an
/// earlier one.  False when the kernel refuses the reset.
bool begin_peak_rss() {
  ::malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

/// VmHWM from /proc/self/status, in MiB (0 when unreadable).
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

/// One successful timed iteration: one input's timed phase in one round.
struct Sample {
  int input = 0;
  int round = 0;
  bool traced = false;
  std::int32_t iteration = 0;  ///< the tracer's iteration id
  double wall = 0;
  double rss_mb = 0;
};

using Body = std::function<std::string(int input, int round, Sample& sample)>;

/// The closed loop: a discarded warm-up iteration on input 0, then rounds
/// over every input, back to back, until another round would overrun
/// `options.seconds` (at least kMinRounds).  `body` returns an empty string
/// on success or names the output check that failed; an exception counts
/// as a failure too.  In traced mode odd rounds record spans and even ones
/// do not, so the same run also measures the tracer's overhead.
std::vector<Sample> iterate(const Options& options, Tracer& tracer, Result& result,
                            const Body& body) {
  std::vector<Sample> samples;
  std::int32_t iteration = 0;
  const auto run_one = [&](int input, int round) {
    tracer.set_iteration(iteration);
    Sample sample{input, round, tracer.enabled(), iteration++};
    ++result.attempted;
    std::string failure;
    try {
      failure = body(input, round, sample);
    } catch (const std::exception& e) {
      failure = std::string("threw: ") + e.what();
    }
    if (!failure.empty()) {
      ++result.failed;
      result.fail("round " + std::to_string(round) + " input " + std::to_string(input) +
                  ": " + failure);
    } else if (round > 0) {
      samples.push_back(sample);
    }
  };
  tracer.set_enabled(false);
  run_one(0, 0);
  const auto start = Clock::now();
  for (int round = 1;; ++round) {
    const double elapsed = seconds_since(start);
    if (round > kMinRounds && elapsed * round / (round - 1) > options.seconds) break;
    tracer.set_enabled(options.trace && round % 2 == 1);
    for (int j = 0; j < kInputs; ++j) run_one(j, round);
  }
  tracer.set_enabled(false);
  result.prov("rounds", std::to_string(samples.empty() ? 0 : samples.back().round));
  return samples;
}

/// Sum over inputs of each input's median `field` over the selected rounds
/// (traced: -1 any, 0 untraced only, 1 traced only): one round's total,
/// robust to a slow iteration.
double round_total(const std::vector<Sample>& samples, int traced,
                   double Sample::*field = &Sample::wall) {
  double total = 0;
  for (int j = 0; j < kInputs; ++j) {
    std::vector<double> xs;
    for (const Sample& s : samples) {
      if (s.input == j && (traced < 0 || s.traced == (traced == 1))) xs.push_back(s.*field);
    }
    total += median_of(xs);
  }
  return total;
}

/// Per traced round, each span name's self time summed over the round's
/// iterations; the mean over traced rounds.
std::map<std::string, double> round_self_seconds(const Tracer& tracer,
                                                 const std::vector<Sample>& samples) {
  std::map<std::string, double> sums;
  std::vector<int> rounds;
  for (const Sample& s : samples) {
    if (!s.traced) continue;
    if (rounds.empty() || rounds.back() != s.round) rounds.push_back(s.round);
    for (const auto& [name, secs] : tracer.self_seconds(s.iteration)) sums[name] += secs;
  }
  for (auto& [name, v] : sums) v /= static_cast<double>(std::max<std::size_t>(rounds.size(), 1));
  return sums;
}

/// The end-to-end timings every workload shares, plus the tracer's own
/// overhead in traced mode.
void report_timing(const Options& options, const std::vector<Sample>& samples,
                   std::vector<double> setups, Result& result) {
  auto& v = result.values;
  v["wall_s"] = round_total(samples, -1);
  v["core.cold_setup_s"] = setups.front();
  setups.erase(setups.begin());
  v["setup_s"] = median_of(setups);
  v["peak_rss_mb"] = round_total(samples, -1, &Sample::rss_mb) / kInputs;
  if (options.trace) {
    v["obs.tracing_overhead"] = ratio(round_total(samples, 1), round_total(samples, 0)) - 1.0;
    std::map<int, double> traced_rounds;
    for (const Sample& s : samples) {
      if (s.traced) traced_rounds[s.round] += s.wall;
    }
    double sum = 0;
    for (const auto& [round, wall] : traced_rounds) sum += wall;
    v["obs.traced_wall_s"] = ratio(sum, static_cast<double>(traced_rounds.size()));
  }
}

/// RMSRE@75% of exact-load tomogravity on each evaluable window (Fig. 12).
std::vector<double> exact_tomogravity_errors(const std::vector<dct::SparseTm>& tor_tms,
                                             const dct::RoutingMatrix& routing) {
  std::vector<double> errors;
  for (const dct::SparseTm& tm : tor_tms) {
    if (tm.total() <= 0 || tm.nonzero_count() < 3) continue;
    const auto truth = dct::DenseTorTm::from_sparse(tm);
    errors.push_back(dct::rmsre(truth, dct::tomogravity(routing, routing.link_loads(truth))));
  }
  return errors;
}

/// A copy of `real` plus one flow that sent more than it asked for: the
/// planted fault flow.byte_conservation must catch.
dct::ClusterTrace tampered_copy(const dct::ClusterTrace& real) {
  dct::ClusterTrace copy = dct::decode_trace(dct::encode_trace(real));
  dct::FlowRecord bogus{};
  bogus.id = dct::FlowId{987654321};
  bogus.src = dct::ServerId{0};
  bogus.dst = dct::ServerId{1};
  bogus.bytes_requested = 1'000'000;
  bogus.bytes_sent = bogus.bytes_requested + 1000;
  bogus.start = 0.25;
  bogus.end = 0.75;
  copy.record_flow(bogus);
  return copy;
}

std::uint64_t bytes_of_files(const fs::path& dir, std::string_view needle) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() &&
        entry.path().filename().string().find(needle) != std::string::npos) {
      total += entry.file_size();
    }
  }
  return total;
}

// --- canonical_sim / burst_ckpt_sim ------------------------------------------

/// Registry counters a perf-only change must leave identical: compared
/// across rounds, and reported (summed over inputs) by the traced run.
constexpr std::pair<const char*, const char*> kSimCounts[] = {
    {"flowsim.flows", "flowsim.flows_started"},
    {"flowsim.events", "flowsim.events_processed"},
    {"flowsim.recomputes", "flowsim.recomputes"},
    {"flowsim.failed_flows", "flowsim.flows_failed"},
    {"flowsim.fault_reroutes", "flowsim.fault_reroutes"},
    {"flowsim.fault_kills", "flowsim.fault_kills"},
    {"workload.jobs_completed", "workload.jobs_completed"},
    {"workload.jobs_failed", "workload.jobs_failed"},
    {"workload.read_retries", "workload.read_retries"},
    {"workload.repairs_dispatched", "workload.repairs_dispatched"},
    {"faults.injected", "faults.injected"},
    {"faults.degradations_injected", "faults.degradations_injected"},
    {"faults.cascade_trips", "faults.cascade_trips"},
    {"ckpt.wal_records", "ckpt.wal_records_appended"},
    {"ckpt.snapshots_written", "ckpt.snapshots_written"},
};

void run_sim(const Options& options, Tracer& tracer, Result& result, bool checkpointed) {
  const fs::path ckpt_root =
      fs::path(options.work_dir) / ("ckpt-" + std::to_string(::getpid()));
  std::vector<dct::ScenarioConfig> configs;
  for (int j = 0; j < kInputs; ++j) {
    const std::uint64_t seed = input_seed(options.seed, j);
    configs.push_back(checkpointed ? dct::scenarios::correlated_burst(kSimSeconds, seed)
                                   : dct::scenarios::canonical(kSimSeconds, seed));
    // Default 30 s snapshot interval, fsync on; a fresh directory per run.
    if (checkpointed) configs.back().checkpoint.dir = (ckpt_root / "unused").string();
  }
  result.prov("scenario", json_string(configs.front().name));

  // Set-up: the process's first (cold) construction, then warm ones.
  std::vector<double> setups;
  for (int i = 0; i <= kSetupRepeats; ++i) {
    std::optional<dct::ClusterExperiment> exp;
    const auto t0 = Clock::now();
    exp.emplace(configs[static_cast<std::size_t>(i % kInputs)]);
    setups.push_back(seconds_since(t0));
  }

  struct PerInput {
    std::uint64_t digest = 0;
    std::vector<double> counts;
  };
  std::vector<PerInput> reference(kInputs);
  std::vector<double> tomo_errors;
  std::map<std::string, double> totals;  // first-run counts and sizes, summed over inputs
  std::vector<double> check_walls;
  std::vector<Sample> off_samples, resume_samples;
  bool rss_reset = true;
  Digest trace_digests;

  const auto samples = iterate(options, tracer, result, [&](int j, int round, Sample& sample) {
    dct::ScenarioConfig cfg = configs[static_cast<std::size_t>(j)];
    fs::path dir;
    if (checkpointed) {
      dir = ckpt_root / ("input-" + std::to_string(j));
      fs::remove_all(dir);
      cfg.checkpoint.dir = dir.string();
    }
    std::optional<dct::ClusterExperiment> exp;
    exp.emplace(cfg);
    rss_reset = begin_peak_rss() && rss_reset;
    std::int32_t run_span = -1;
    {
      const ScopedSpan span(tracer, "core.run");
      run_span = span.index();
      const auto t0 = Clock::now();
      exp->run();
      sample.wall = seconds_since(t0);
    }
    sample.rss_mb = peak_rss_mb();
    const dct::obs::Registry& registry = exp->registry();
    tracer.add_child(run_span, "flowsim.recompute",
                     registry_value(registry, "flowsim.recompute_wall_ns") * 1e-9);
    tracer.add_child(run_span, "flowsim.network_change",
                     registry_value(registry, "flowsim.network_change_wall_ns") * 1e-9);

    // Output checks, outside the timed phase.  An input's first run is its
    // reference; later rounds must reproduce it exactly.
    std::string failure;
    const bool first_run = round == (j == 0 ? 0 : 1);
    const auto check_start = Clock::now();
    {
      const ScopedSpan span(tracer, "testing.check");
      std::optional<dct::ClusterTrace> tampered;
      dct::testing::RunUnderTest run{*exp};
      if (options.plant_fault && round == 1 && j == 0) {
        tampered.emplace(tampered_copy(exp->trace()));
        run.trace_override = &*tampered;
      }
      const auto report = dct::testing::InvariantRegistry::builtin().check_all(run);
      if (!report.ok()) failure = "invariants: " + report.summary();

      const auto encoded = dct::encode_trace(exp->trace());
      const std::uint64_t digest = fnv1a(kFnvBasis, encoded);
      std::vector<double> counts;
      for (const auto& [name, key] : kSimCounts) counts.push_back(registry_value(registry, key));
      PerInput& ref = reference[static_cast<std::size_t>(j)];
      if (first_run) {
        ref = {digest, counts};
        trace_digests.add(digest);
        for (std::size_t i = 0; i < counts.size(); ++i) totals[kSimCounts[i].first] += counts[i];
        totals["trace.encoded_bytes"] += static_cast<double>(encoded.size());
        totals["trace.flows"] += static_cast<double>(exp->trace().flow_count());
        if (checkpointed) {
          totals["ckpt.wal_bytes"] += static_cast<double>(bytes_of_files(dir, "wal"));
          totals["ckpt.snapshot_bytes"] += static_cast<double>(bytes_of_files(dir, "snapshot"));
        }
        const dct::RoutingMatrix routing(exp->topology());
        const auto errors = exact_tomogravity_errors(
            dct::build_tm_series(exp->trace(), exp->topology(), kTomoWindow,
                                 dct::TmScope::kToR),
            routing);
        tomo_errors.insert(tomo_errors.end(), errors.begin(), errors.end());
      } else if (digest != ref.digest) {
        failure += " trace digest " + hex64(digest) + " != first run's " + hex64(ref.digest);
      } else if (counts != ref.counts) {
        failure += " registry counts differ from the first run's";
      }
    }
    check_walls.push_back(seconds_since(check_start));

    if (checkpointed && tracer.enabled()) {
      // Checkpoint cost: the same scenario with checkpointing off, and the
      // read side, resume() of the finished directory.
      dct::ScenarioConfig off = configs[static_cast<std::size_t>(j)];
      off.checkpoint = {};
      {
        std::optional<dct::ClusterExperiment> plain;
        plain.emplace(off);
        const ScopedSpan span(tracer, "ckpt.off_run");
        const auto t0 = Clock::now();
        plain->run();
        off_samples.push_back({j, round, true, sample.iteration, seconds_since(t0), 0});
      }
      {
        std::optional<dct::ClusterExperiment> again;
        again.emplace(cfg);
        const ScopedSpan span(tracer, "ckpt.resume");
        const auto t0 = Clock::now();
        again->resume(dir.string());
        resume_samples.push_back({j, round, true, sample.iteration, seconds_since(t0), 0});
      }
    }
    exp.reset();
    if (checkpointed) fs::remove_all(dir);
    return failure;
  });
  fs::remove_all(ckpt_root);

  report_timing(options, samples, std::move(setups), result);
  auto& v = result.values;
  v["trace_bytes_per_flow"] = ratio(totals["trace.encoded_bytes"], totals["trace.flows"]);
  v["tomo_rmsre_median"] = median_of(tomo_errors);
  result.prov("trace_digest", json_string(hex64(trace_digests.value())));
  result.prov("flows", std::to_string(static_cast<std::uint64_t>(totals["trace.flows"])));
  result.prov("rss_reset", rss_reset ? "true" : "false");
  if (!options.trace) return;

  for (const auto& [name, value] : totals) v[name] = value;
  const auto self = round_self_seconds(tracer, samples);
  const auto get = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double wall = v["obs.traced_wall_s"];
  v["flowsim.recompute_s"] = get("flowsim.recompute");
  v["flowsim.recompute_share"] = ratio(get("flowsim.recompute"), wall);
  v["flowsim.recompute_us_mean"] = ratio(get("flowsim.recompute") * 1e6, v["flowsim.recomputes"]);
  v["flowsim.network_change_s"] = get("flowsim.network_change");
  v["flowsim.events_per_flow"] = ratio(v["flowsim.events"], v["flowsim.flows"]);
  v["flowsim.failed_flow_ratio"] = ratio(v["flowsim.failed_flows"], v["flowsim.flows"]);
  v["core.residual_s"] = get("core.run");
  v["core.residual_share"] = ratio(get("core.run"), wall);
  v["core.residual_ns_per_event"] = ratio(get("core.run") * 1e9, v["flowsim.events"]);
  v["testing.check_s"] = median_of(check_walls) * kInputs;
  if (checkpointed) {
    v["ckpt.overhead_ratio"] = ratio(round_total(samples, 1), round_total(off_samples, 1)) - 1.0;
    v["ckpt.resume_s"] = round_total(resume_samples, 1);
  }
}

// --- lossy_figures ---------------------------------------------------------------

/// What one figure pass receives: generated untimed from one
/// lossy_telemetry run, which is then torn down.  `routing` and `snmp`
/// refer to `topo`, so an input never moves.
struct LossyInput {
  LossyInput() = default;
  LossyInput(const LossyInput&) = delete;
  LossyInput& operator=(const LossyInput&) = delete;

  dct::TopologyConfig topology;
  std::optional<dct::Topology> topo;
  std::optional<dct::RoutingMatrix> routing;
  std::optional<dct::ClusterTrace> full;
  dct::TelemetryFaultSchedule schedule;
  std::optional<dct::SnmpCounters> snmp;
};

struct PassOutput {
  std::vector<std::uint8_t> encoded;  ///< the observed trace, codec v5
  std::optional<dct::ClusterTrace> decoded;
  std::size_t merged_flows = 0;  ///< what the merge handed to the encoder
  dct::Bytes merged_bytes = 0;
  double server_tm10_total = 0;
  std::vector<double> rmsre_exact;
  std::uint64_t digest = 0;  ///< TM totals, congestion counts, RMSRE values, ...
};

/// One figure pass: what bench/fig02-fig14 and bench/telemetry_loss compute,
/// in pipeline order, from the collected trace to tomography.  Each stage
/// releases its intermediates inside its own span, so the root span's self
/// time (analysis.residual) is only the pass's own glue.
PassOutput figure_pass(const LossyInput& in, Tracer& tracer, bool flip_byte) {
  const dct::Topology& topo = *in.topo;
  const dct::RoutingMatrix& routing = *in.routing;
  PassOutput out;
  Digest d;
  const ScopedSpan pass(tracer, "analysis.pass");

  // 1. Lossy merge, then the compressed upload and its decode.
  {
    std::optional<dct::LossyCollection> merged;
    {
      const ScopedSpan s(tracer, "trace.telemetry_merge");
      merged.emplace(dct::apply_telemetry_faults(*in.full, in.schedule));
    }
    {
      const ScopedSpan s(tracer, "trace.encode");
      out.encoded = dct::encode_trace(merged->trace);
    }
    out.merged_flows = merged->trace.flow_count();
    out.merged_bytes = merged->trace.total_bytes();
    const ScopedSpan release(tracer, "trace.telemetry_merge");
    merged.reset();
  }
  {
    const ScopedSpan s(tracer, "trace.decode");
    if (flip_byte) {
      std::vector<std::uint8_t> upload = out.encoded;
      upload[upload.size() / 3] ^= 0x40;
      out.decoded.emplace(dct::decode_trace(upload));
    } else {
      out.decoded.emplace(dct::decode_trace(out.encoded));
    }
  }
  const dct::ClusterTrace& trace = *out.decoded;

  // 2. Traffic-matrix series (Figs. 2-4, 10, 12) and the gap-aware series.
  std::vector<dct::SparseTm> s10, s100, tor10;
  {
    const ScopedSpan s(tracer, "analysis.tm_series");
    const auto s1 = dct::build_tm_series(trace, topo, 1.0, dct::TmScope::kServer);
    d.add(static_cast<std::uint64_t>(s1.size()));
    for (const auto& tm : s1) d.add(tm.total());
    s10 = dct::build_tm_series(trace, topo, 10.0, dct::TmScope::kServer);
    s100 = dct::build_tm_series(trace, topo, 100.0, dct::TmScope::kServer);
    tor10 = dct::build_tm_series(trace, topo, kTomoWindow, dct::TmScope::kToR);
  }
  {
    const ScopedSpan s(tracer, "analysis.tm_gap_aware");
    const auto gap_aware =
        dct::build_tm_series_gap_aware(trace, topo, kTomoWindow, dct::TmScope::kToR);
    for (const auto& tm : gap_aware) d.add(tm.total());
  }
  for (const auto* series : {&s10, &s100, &tor10}) {
    for (const auto& tm : *series) {
      d.add(tm.total());
      d.add(static_cast<std::uint64_t>(tm.nonzero_count()));
    }
  }
  for (const auto& tm : s10) out.server_tm10_total += tm.total();

  // 3. §4.1 patterns and Fig. 10's TM change.
  {
    const ScopedSpan s(tracer, "analysis.patterns");
    const auto tm = dct::build_tm(trace, topo, trace.duration() / 2, 10.0,
                                  dct::TmScope::kServer);
    const auto pairs = dct::pair_bytes_stats(tm, topo);
    const auto corr = dct::correspondent_stats(tm, topo);
    const auto local = dct::locality_breakdown(tm, topo);
    d.add(tm.total());
    d.add(pairs.prob_zero_within_rack);
    d.add(pairs.prob_zero_across_racks);
    d.add(corr.median_within);
    d.add(corr.median_across);
    d.add(local.frac_same_rack);
    d.add(local.frac_cross_vlan);
  }
  {
    const ScopedSpan s(tracer, "analysis.tm_change");
    for (const auto* series : {&s10, &s100}) {
      for (const double c : dct::tm_change_series(*series)) d.add(c);
    }
  }
  {
    const ScopedSpan s(tracer, "analysis.tm_series");
    s10 = {};
    s100 = {};
  }

  // 4. Utilization and congestion (Figs. 5-8).
  {
    std::optional<dct::LinkUtilizationMap> util;
    {
      const ScopedSpan s(tracer, "analysis.utilization");
      util.emplace(dct::utilization_from_trace(trace, topo, 1.0));
    }
    {
      const ScopedSpan s(tracer, "analysis.congestion");
      auto report = dct::congestion_report(*util, topo, kHotThreshold);
      d.add(static_cast<std::uint64_t>(dct::annotate_coverage(report, trace, topo)));
      d.add(static_cast<std::uint64_t>(report.episodes_over_1s));
      d.add(static_cast<std::uint64_t>(report.episodes_over_10s));
      d.add(report.longest_episode);
      d.add(report.frac_links_hot_10s);
    }
    const ScopedSpan s(tracer, "analysis.overlap");
    const auto overlap = dct::flow_congestion_overlap(trace, topo, *util, kHotThreshold);
    const auto reads = dct::read_failure_impact(trace, topo, *util, kHotThreshold);
    d.add(static_cast<std::uint64_t>(overlap.overlapping_count));
    d.add(static_cast<std::uint64_t>(overlap.total_count));
    d.add(static_cast<std::uint64_t>(reads.jobs_overlapping));
    d.add(reads.relative_increase);
    const ScopedSpan release(tracer, "analysis.utilization");
    util.reset();
  }

  // 5. Flow statistics (Figs. 9, 11).
  {
    const ScopedSpan s(tracer, "analysis.flowstats");
    const auto durations = dct::flow_duration_stats(trace);
    const auto sizes = dct::flow_size_stats(trace);
    d.add(durations.frac_flows_under_10s);
    d.add(durations.median_bytes_duration);
    d.add(sizes.p50);
    d.add(sizes.p99);
  }
  {
    const ScopedSpan s(tracer, "analysis.interarrival");
    for (const auto scope : {dct::ArrivalScope::kCluster, dct::ArrivalScope::kToR,
                             dct::ArrivalScope::kServer}) {
      const auto stats = dct::inter_arrival_stats(trace, topo, scope);
      d.add(stats.median_ms);
      d.add(stats.p99_ms);
      for (const double m : dct::inter_arrival_modes(stats)) d.add(m);
    }
  }

  // 6. Tomography per 10 s ToR window (Figs. 12-14, telemetry_loss).
  std::vector<std::vector<double>> activity;
  {
    const ScopedSpan s(tracer, "tomography.job_prior");
    activity = dct::job_tor_activity(trace, topo);
  }
  std::vector<double> snmp_loads(static_cast<std::size_t>(routing.link_count()));
  for (std::size_t w = 0; w < tor10.size(); ++w) {
    const dct::SparseTm& sparse = tor10[w];
    if (sparse.total() <= 0 || sparse.nonzero_count() < 3) continue;
    const double t0 = static_cast<double>(w) * kTomoWindow;
    std::optional<dct::DenseTorTm> truth;
    std::vector<double> loads;
    {
      const ScopedSpan s(tracer, "tomography.tomogravity");
      truth.emplace(dct::DenseTorTm::from_sparse(sparse));
      loads = routing.link_loads(*truth);
      out.rmsre_exact.push_back(dct::rmsre(*truth, dct::tomogravity(routing, loads)));
    }
    {
      const ScopedSpan s(tracer, "tomography.snmp_masked");
      for (std::int32_t m = 0; m < routing.link_count(); ++m) {
        snmp_loads[static_cast<std::size_t>(m)] =
            in.snmp->bytes_between(routing.link_at(m), t0, t0 + kTomoWindow);
      }
      const auto mask = dct::reliable_link_mask(routing, *in.snmp, t0, t0 + kTomoWindow);
      d.add(dct::rmsre(*truth, dct::tomogravity_masked(routing, snmp_loads, mask)));
    }
    {
      const ScopedSpan s(tracer, "tomography.job_prior");
      const auto prior = dct::job_augmented_prior(routing, loads, activity);
      d.add(dct::rmsre(*truth, dct::tomogravity(routing, loads, prior)));
    }
    const ScopedSpan s(tracer, "tomography.sparsity");
    d.add(dct::rmsre(*truth, dct::sparsity_max(routing, loads)));
  }
  for (const double e : out.rmsre_exact) d.add(e);
  {
    const ScopedSpan s(tracer, "analysis.tm_series");
    tor10 = {};
  }
  out.digest = d.value();
  return out;
}

void run_lossy(const Options& options, Tracer& tracer, Result& result) {
  std::vector<LossyInput> inputs(kInputs);
  for (int j = 0; j < kInputs; ++j) {
    LossyInput& in = inputs[static_cast<std::size_t>(j)];
    dct::ClusterExperiment exp(
        dct::scenarios::lossy_telemetry(kSimSeconds, input_seed(options.seed, j)));
    exp.run();
    in.topology = exp.scenario().topology;
    in.topo.emplace(in.topology);
    in.routing.emplace(*in.topo);
    in.full.emplace(exp.trace());
    in.schedule = exp.telemetry_schedule();
    in.snmp.emplace(dct::SnmpCounters::collect(exp.sim(), *in.topo,
                                               exp.scenario().telemetry.snmp_poll_interval,
                                               exp.scenario().telemetry.snmp_counter_width));
    dct::apply_snmp_faults(*in.snmp, *in.topo, in.schedule);
    if (j == 0) result.prov("scenario", json_string(exp.scenario().name));
  }

  // Set-up: what a pass needs besides its inputs, the topology and its
  // routing matrix.  The run's first construction is the cold one.
  std::vector<double> setups, routings;
  for (int i = 0; i <= kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    const dct::Topology topo(inputs[static_cast<std::size_t>(i % kInputs)].topology);
    const auto t1 = Clock::now();
    const dct::RoutingMatrix routing(topo);
    setups.push_back(seconds_since(t0));
    routings.push_back(seconds_since(t1));
  }
  routings.erase(routings.begin());

  struct PerInput {
    std::uint64_t trace_digest = 0;
    std::uint64_t pass_digest = 0;
  };
  std::vector<PerInput> reference(kInputs);
  std::vector<double> tomo_errors, check_walls;
  double encoded_bytes = 0, flows = 0, windows = 0;
  Digest trace_digests, pass_digests;
  bool rss_reset = true;

  const auto samples = iterate(options, tracer, result, [&](int j, int round, Sample& sample) {
    const LossyInput& in = inputs[static_cast<std::size_t>(j)];
    rss_reset = begin_peak_rss() && rss_reset;
    const auto t0 = Clock::now();
    const PassOutput out = figure_pass(in, tracer, options.plant_fault && round == 1 && j == 0);
    sample.wall = seconds_since(t0);
    sample.rss_mb = peak_rss_mb();

    std::string failure;
    const auto check_start = Clock::now();
    {
      const ScopedSpan span(tracer, "testing.check");
      // Decode may reorder receiver-side copies on the first trip (the
      // codec.round_trip invariant), so byte identity is checked on the
      // canonical form: the decoded trace's own encoding.
      const auto canonical = dct::encode_trace(*out.decoded);
      const std::uint64_t trace_digest = fnv1a(fnv1a(kFnvBasis, out.encoded), canonical);
      if (out.decoded->flow_count() != out.merged_flows ||
          out.decoded->total_bytes() != out.merged_bytes) {
        failure += " decode changed the trace's flow or byte count;";
      }
      if (dct::encode_trace(dct::decode_trace(canonical)) != canonical) {
        failure += " decoded trace does not re-encode byte-identically;";
      }
      const double bytes = static_cast<double>(out.decoded->total_bytes());
      if (std::abs(out.server_tm10_total - bytes) > 1e-9 * bytes) {
        failure += " 10 s server TM total " + std::to_string(out.server_tm10_total) +
                   " != trace bytes " + std::to_string(bytes) + ";";
      }
      PerInput& ref = reference[static_cast<std::size_t>(j)];
      if (round == (j == 0 ? 0 : 1)) {
        ref = {trace_digest, out.digest};
        trace_digests.add(trace_digest);
        pass_digests.add(out.digest);
        encoded_bytes += static_cast<double>(out.encoded.size());
        flows += static_cast<double>(out.decoded->flow_count());
        windows += static_cast<double>(out.rmsre_exact.size());
        tomo_errors.insert(tomo_errors.end(), out.rmsre_exact.begin(), out.rmsre_exact.end());
      } else {
        if (trace_digest != ref.trace_digest) failure += " trace digest changed;";
        if (out.digest != ref.pass_digest) failure += " pass digest changed;";
      }
    }
    check_walls.push_back(seconds_since(check_start));
    return failure;
  });

  report_timing(options, samples, std::move(setups), result);
  auto& v = result.values;
  v["trace_bytes_per_flow"] = ratio(encoded_bytes, flows);
  v["tomo_rmsre_median"] = median_of(tomo_errors);
  result.prov("trace_digest", json_string(hex64(trace_digests.value())));
  result.prov("pass_digest", json_string(hex64(pass_digests.value())));
  result.prov("flows", std::to_string(static_cast<std::uint64_t>(flows)));
  result.prov("rss_reset", rss_reset ? "true" : "false");
  if (!options.trace) return;

  const auto self = round_self_seconds(tracer, samples);
  const auto get = [&self](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  for (const char* layer :
       {"trace.telemetry_merge", "trace.encode", "trace.decode", "analysis.tm_series",
        "analysis.tm_gap_aware", "analysis.patterns", "analysis.tm_change",
        "analysis.utilization", "analysis.congestion", "analysis.overlap",
        "analysis.flowstats", "analysis.interarrival", "tomography.tomogravity",
        "tomography.snmp_masked", "tomography.job_prior", "tomography.sparsity"}) {
    v[std::string(layer) + "_s"] = get(layer);
  }
  v["analysis.residual_s"] = get("analysis.pass");
  v["trace.encoded_bytes"] = encoded_bytes;
  v["tomography.windows"] = windows;
  v["tomography.routing_s"] = median_of(routings);
  v["testing.check_s"] = median_of(check_walls) * kInputs;
}

}  // namespace

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"wall_s", "s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"trace_bytes_per_flow", "bytes/flow"},
      {"tomo_rmsre_median", "ratio"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"flowsim.recompute_s", "s"},
      {"flowsim.recompute_share", "ratio"},
      {"flowsim.recomputes", "count"},
      {"flowsim.recompute_us_mean", "us"},
      {"flowsim.events", "count"},
      {"flowsim.events_per_flow", "events/flow"},
      {"flowsim.flows", "count"},
      {"flowsim.failed_flow_ratio", "ratio"},
      {"flowsim.network_change_s", "s"},
      {"flowsim.fault_reroutes", "count"},
      {"flowsim.fault_kills", "count"},
      {"core.residual_s", "s"},
      {"core.residual_share", "ratio"},
      {"core.residual_ns_per_event", "ns"},
      {"core.cold_setup_s", "s"},
      {"workload.jobs_completed", "count"},
      {"workload.jobs_failed", "count"},
      {"workload.read_retries", "count"},
      {"workload.repairs_dispatched", "count"},
      {"faults.injected", "count"},
      {"faults.degradations_injected", "count"},
      {"faults.cascade_trips", "count"},
      {"ckpt.wal_records", "count"},
      {"ckpt.wal_bytes", "bytes"},
      {"ckpt.snapshots_written", "count"},
      {"ckpt.snapshot_bytes", "bytes"},
      {"ckpt.overhead_ratio", "ratio"},
      {"ckpt.resume_s", "s"},
      {"trace.telemetry_merge_s", "s"},
      {"trace.encode_s", "s"},
      {"trace.decode_s", "s"},
      {"trace.encoded_bytes", "bytes"},
      {"analysis.tm_series_s", "s"},
      {"analysis.tm_gap_aware_s", "s"},
      {"analysis.patterns_s", "s"},
      {"analysis.tm_change_s", "s"},
      {"analysis.utilization_s", "s"},
      {"analysis.congestion_s", "s"},
      {"analysis.overlap_s", "s"},
      {"analysis.flowstats_s", "s"},
      {"analysis.interarrival_s", "s"},
      {"analysis.residual_s", "s"},
      {"tomography.routing_s", "s"},
      {"tomography.tomogravity_s", "s"},
      {"tomography.snmp_masked_s", "s"},
      {"tomography.job_prior_s", "s"},
      {"tomography.sparsity_s", "s"},
      {"tomography.windows", "count"},
      {"testing.check_s", "s"},
      {"obs.tracing_overhead", "ratio"},
      {"obs.traced_wall_s", "s"},
  };
  return specs;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"canonical_sim", "burst_ckpt_sim",
                                                 "lossy_figures"};
  return names;
}

void run_workload(const Options& options, Tracer& tracer, Result& result) {
  result.prov("sim_duration_s", std::to_string(static_cast<int>(kSimSeconds)));
  result.prov("inputs", std::to_string(kInputs));
  std::string seeds;
  for (int j = 0; j < kInputs; ++j) {
    if (j > 0) seeds += ',';
    seeds += std::to_string(input_seed(options.seed, j));
  }
  result.prov("input_seeds", "[" + seeds + "]");
  if (options.workload == "canonical_sim") {
    run_sim(options, tracer, result, /*checkpointed=*/false);
  } else if (options.workload == "burst_ckpt_sim") {
    run_sim(options, tracer, result, /*checkpointed=*/true);
  } else if (options.workload == "lossy_figures") {
    run_lossy(options, tracer, result);
  } else {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
}

}  // namespace perfbench
