// Example: a scriptable scenario runner (the library's command-line face).
//
//   run_scenario [--scenario NAME] [--duration SECONDS] [--seed N]
//                [--jobs-per-second R] [--racks N] [--servers-per-rack N]
//                [--csv-flows PATH] [--csv-links PATH]
//                [--checkpoint-dir PATH] [--resume]
//                [--out-trace PATH] [--out-tm PATH] [--out-manifest PATH]
//
// Runs one scenario, prints the full measurement report (workload, flow
// microscopics, patterns, congestion, utilization by tier), and optionally
// exports per-flow and per-link CSVs for external tooling.
//
// With --checkpoint-dir the run is crash-safe (docs/CHECKPOINT.md): flow
// records spool to a write-ahead log, made durable one buffer at a time,
// and a rerun pointed at the same directory — --resume makes the intent
// explicit and requires the directory — replays the killed run against
// that log, byte-identically.  All file outputs are written atomically
// (temp file + rename), so a crash mid-export never leaves a torn artifact.
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "analysis/congestion.h"
#include "analysis/flowstats.h"
#include "analysis/traffic_matrix.h"
#include "common/fsio.h"
#include "common/table.h"
#include "core/cli.h"
#include "core/experiment.h"
#include "trace/codec.h"

namespace {

struct Options {
  std::string scenario = "canonical";
  double duration = 300.0;
  std::uint64_t seed = 42;
  // Unset keeps the preset; a given value goes to the library's checks.
  std::optional<double> jobs_per_second;
  std::optional<std::int32_t> racks;
  std::optional<std::int32_t> servers_per_rack;
  std::string csv_flows;
  std::string csv_links;
  std::string checkpoint_dir;
  bool resume = false;
  std::string out_trace;
  std::string out_tm;
  std::string out_manifest;
};

[[noreturn]] void usage() {
  std::cerr << "usage: run_scenario [--scenario canonical|weekend|heavy|no_locality|"
               "uncapped_connections|unchunked|full_bisection|paper_scale|"
               "fault_storm|gray_failure|correlated_burst|lossy_telemetry|tiny]\n"
               "                    [--duration S] [--seed N] [--jobs-per-second R]\n"
               "                    [--racks N] [--servers-per-rack N]\n"
               "                    [--csv-flows PATH] [--csv-links PATH]\n"
               "                    [--checkpoint-dir PATH] [--resume]\n"
               "                    [--out-trace PATH] [--out-tm PATH]\n"
               "                    [--out-manifest PATH]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--scenario") {
      opt.scenario = next();
    } else if (arg == "--duration") {
      opt.duration = dct::cli::number_value<double>(argv[0], arg, next());
    } else if (arg == "--seed") {
      opt.seed = dct::cli::number_value<std::uint64_t>(argv[0], arg, next());
    } else if (arg == "--jobs-per-second") {
      opt.jobs_per_second = dct::cli::number_value<double>(argv[0], arg, next());
    } else if (arg == "--racks") {
      opt.racks = dct::cli::number_value<std::int32_t>(argv[0], arg, next());
    } else if (arg == "--servers-per-rack") {
      opt.servers_per_rack =
          dct::cli::number_value<std::int32_t>(argv[0], arg, next());
    } else if (arg == "--csv-flows") {
      opt.csv_flows = next();
    } else if (arg == "--csv-links") {
      opt.csv_links = next();
    } else if (arg == "--checkpoint-dir") {
      opt.checkpoint_dir = next();
    } else if (arg == "--resume") {
      opt.resume = true;
    } else if (arg == "--out-trace") {
      opt.out_trace = next();
    } else if (arg == "--out-tm") {
      opt.out_tm = next();
    } else if (arg == "--out-manifest") {
      opt.out_manifest = next();
    } else {
      usage();
    }
  }
  if (opt.resume && opt.checkpoint_dir.empty()) {
    std::cerr << "run_scenario: --resume requires --checkpoint-dir\n";
    usage();
  }
  return opt;
}

dct::ScenarioConfig make_config(const Options& opt) {
  dct::ScenarioConfig cfg;
  if (opt.scenario == "canonical") {
    cfg = dct::scenarios::canonical(opt.duration, opt.seed);
  } else if (opt.scenario == "weekend") {
    cfg = dct::scenarios::weekend(opt.duration, opt.seed);
  } else if (opt.scenario == "heavy") {
    cfg = dct::scenarios::heavy(opt.duration, opt.seed);
  } else if (opt.scenario == "no_locality") {
    cfg = dct::scenarios::no_locality(opt.duration, opt.seed);
  } else if (opt.scenario == "uncapped_connections") {
    cfg = dct::scenarios::uncapped_connections(opt.duration, opt.seed);
  } else if (opt.scenario == "unchunked") {
    cfg = dct::scenarios::unchunked(opt.duration, opt.seed);
  } else if (opt.scenario == "full_bisection") {
    cfg = dct::scenarios::full_bisection(opt.duration, opt.seed);
  } else if (opt.scenario == "paper_scale") {
    cfg = dct::scenarios::paper_scale(opt.duration, opt.seed);
  } else if (opt.scenario == "fault_storm") {
    cfg = dct::scenarios::fault_storm(opt.duration, opt.seed);
  } else if (opt.scenario == "gray_failure") {
    cfg = dct::scenarios::gray_failure(opt.duration, opt.seed);
  } else if (opt.scenario == "correlated_burst") {
    cfg = dct::scenarios::correlated_burst(opt.duration, opt.seed);
  } else if (opt.scenario == "lossy_telemetry") {
    cfg = dct::scenarios::lossy_telemetry(opt.duration, opt.seed);
  } else if (opt.scenario == "tiny") {
    cfg = dct::scenarios::tiny(opt.duration, opt.seed);
  } else {
    usage();
  }
  if (opt.jobs_per_second) cfg.workload.jobs_per_second = *opt.jobs_per_second;
  if (opt.racks) cfg.topology.racks = *opt.racks;
  if (opt.servers_per_rack) cfg.topology.servers_per_rack = *opt.servers_per_rack;
  cfg.checkpoint.dir = opt.checkpoint_dir;
  return cfg;
}

// Runs the scenario, then prints its report and writes the requested files.
int run(const Options& opt) {
  dct::ClusterExperiment exp(make_config(opt));
  if (opt.resume) {
    exp.resume(opt.checkpoint_dir);
  } else {
    exp.run();
  }
  if (const dct::ckpt::CheckpointManager* cm = exp.checkpoint_manager()) {
    // One stderr line per run so crash-recovery tooling can count what the
    // recovery actually exercised.
    const auto& c = cm->counters();
    std::cerr << "[ckpt] resume_count=" << cm->resume_count()
              << " wal_records_verified=" << c.wal_records_verified
              << " wal_records_appended=" << c.wal_records_appended
              << " wal_torn_bytes=" << c.wal_torn_bytes
              << " stale_tmp_removed=" << c.stale_tmp_removed << "\n";
  }

  const auto& trace = exp.trace();
  const auto& stats = exp.workload_stats();

  dct::TextTable report("scenario report: " + exp.scenario().name);
  report.header({"metric", "value"});
  report.row({"servers", std::to_string(exp.topology().server_count())});
  report.row({"duration (s)", dct::TextTable::num(trace.duration())});
  report.row({"jobs submitted / completed / failed",
              std::to_string(stats.jobs_submitted) + " / " +
                  std::to_string(stats.jobs_completed) + " / " +
                  std::to_string(stats.jobs_failed)});
  report.row({"network flows", std::to_string(trace.flow_count())});
  report.row({"bytes moved (GB)",
              dct::TextTable::num(double(trace.total_bytes()) / 1e9)});
  report.row({"remote extract reads", dct::TextTable::pct(stats.remote_read_fraction())});
  report.row({"read failures", std::to_string(trace.read_failures().size())});
  report.row({"evacuations", std::to_string(trace.evacuations().size())});
  if (!trace.device_failures().empty()) {
    report.row({"device failures", std::to_string(trace.device_failures().size())});
    report.row({"flows killed / rerouted by faults",
                std::to_string(exp.sim().fault_killed_flow_count()) + " / " +
                    std::to_string(exp.sim().fault_rerouted_flow_count())});
    report.row({"server crashes / vertices re-executed / blocks re-replicated",
                std::to_string(stats.server_crashes) + " / " +
                    std::to_string(stats.vertices_reexecuted) + " / " +
                    std::to_string(stats.blocks_rereplicated)});
  }
  if (!trace.degradations().empty()) {
    report.row({"degradation episodes", std::to_string(trace.degradations().size())});
    report.row({"straggler episodes observed",
                std::to_string(stats.stragglers_observed)});
    report.row({"speculative backups launched / won",
                std::to_string(stats.spec_launched) + " / " +
                    std::to_string(stats.spec_wins)});
    report.row({"hedged reads launched / won",
                std::to_string(stats.hedges_launched) + " / " +
                    std::to_string(stats.hedge_wins)});
  }
  if (!exp.scenario().telemetry.empty()) {
    // The analyst's view: what the lossy measurement plane actually handed
    // over, versus the perfectly collected trace above.
    const auto& observed = exp.observed_trace();
    const auto& ts = exp.telemetry_stats();
    report.row({"observed flows (lossy collection)",
                std::to_string(observed.flow_count())});
    report.row({"socket records lost / duplicates dropped",
                std::to_string(ts.records_lost) + " / " +
                    std::to_string(ts.duplicates_dropped)});
    report.row({"flows recovered from peer copy / lost outright",
                std::to_string(ts.flows_recovered) + " / " +
                    std::to_string(ts.flows_lost)});
    report.row({"mean log coverage", dct::TextTable::pct(observed.mean_coverage())});
    report.row({"coverage gap time (s)",
                dct::TextTable::num(observed.gap_seconds())});
  }

  const auto durations = dct::flow_duration_stats(trace);
  report.row({"flows < 10 s", dct::TextTable::pct(durations.frac_flows_under_10s)});
  const auto cong = dct::congestion_report(exp.utilization(), exp.topology(), 0.7);
  report.row({"inter-switch links hot >= 10 s",
              dct::TextTable::pct(cong.frac_links_hot_10s)});
  report.print(std::cout);
  std::cout << '\n';

  const auto summary = dct::utilization_summary(exp.utilization(), exp.topology());
  dct::TextTable util("utilization by link tier");
  util.header({"tier", "mean", "p50", "p99", "bins > 50%", "bins idle (<5%)"});
  for (const auto& tier : summary.tiers) {
    util.row({std::string(to_string(tier.kind)), dct::TextTable::pct(tier.mean),
              dct::TextTable::pct(tier.p50), dct::TextTable::pct(tier.p99),
              dct::TextTable::pct(tier.frac_bins_above_half),
              dct::TextTable::pct(tier.frac_bins_idle)});
  }
  util.print(std::cout);

  if (!opt.csv_flows.empty()) {
    std::ostringstream csv;
    csv << "flow,start,end,src,dst,bytes,kind,failed\n";
    for (const auto& f : trace.flows()) {
      csv << f.flow.value() << ',' << f.start << ',' << f.end << ','
          << f.local.value() << ',' << f.peer.value() << ',' << f.bytes << ','
          << to_string(f.kind) << ',' << (f.failed ? 1 : 0) << '\n';
    }
    dct::atomic_write_file(opt.csv_flows, csv.str());
    std::cout << "\nwrote per-flow CSV: " << opt.csv_flows << '\n';
  }
  if (!opt.csv_links.empty()) {
    std::ostringstream csv;
    csv << "link,kind,bin_start,utilization\n";
    const auto& util_map = exp.utilization();
    for (dct::LinkId l : exp.topology().inter_switch_links()) {
      const auto& series = util_map.of(l);
      for (std::size_t b = 0; b < series.bin_count(); ++b) {
        csv << l.value() << ',' << to_string(exp.topology().link(l).kind) << ','
            << series.bin_time(b) << ',' << series.value(b) << '\n';
      }
    }
    dct::atomic_write_file(opt.csv_links, csv.str());
    std::cout << "wrote per-link CSV: " << opt.csv_links << '\n';
  }

  // Deterministic exports for crash-recovery verification
  // (tools/crash/crash_harness byte-compares these between an interrupted-
  // and-resumed run and an uninterrupted one).
  if (!opt.out_trace.empty()) {
    dct::atomic_write_file(opt.out_trace, encode_trace(trace));
    std::cout << "wrote trace: " << opt.out_trace << '\n';
  }
  if (!opt.out_tm.empty()) {
    std::ostringstream csv;
    csv << "window,src,dst,bytes\n";
    const auto tms =
        dct::build_tm_series(trace, exp.topology(), 10.0, dct::TmScope::kServer);
    for (std::size_t w = 0; w < tms.size(); ++w) {
      auto entries = tms[w].entries();
      std::sort(entries.begin(), entries.end(),
                [](const dct::SparseTm::Entry& a, const dct::SparseTm::Entry& b) {
                  return a.from != b.from ? a.from < b.from : a.to < b.to;
                });
      for (const auto& e : entries) {
        csv << w << ',' << e.from << ',' << e.to << ',' << e.bytes << '\n';
      }
    }
    dct::atomic_write_file(opt.out_tm, csv.str());
    std::cout << "wrote TM series CSV: " << opt.out_tm << '\n';
  }
  if (!opt.out_manifest.empty()) {
    exp.manifest("run_scenario").write_json(opt.out_manifest);
    std::cout << "wrote manifest: " << opt.out_manifest << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "run_scenario: error: " << e.what() << '\n';
    return 1;
  }
}
