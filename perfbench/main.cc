// dct_perfbench: the repo benchmark, one process per run.
//
//   dct_perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//                 [--plant-fault] [--work-dir DIR]
//
// Runs one workload through the library's public API as a closed loop on
// one thread: iterations back to back for --seconds of host time, every
// output checked.  Stdout carries a readable report, a provenance line, and
// as its last line one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics, or with --trace 1 the per-layer ones.
// perfbench/run.py builds this binary and forwards its arguments.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "obs/manifest.h"
#include "perfbench.h"

namespace {

using perfbench::json_string;

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "dct_perfbench: " << problem << "\n"
            << "usage: dct_perfbench --workload <";
  for (std::size_t i = 0; i < perfbench::workload_names().size(); ++i) {
    std::cerr << (i == 0 ? "" : "|") << perfbench::workload_names()[i];
  }
  std::cerr << "> [--seed N] [--seconds S] [--trace 0|1] [--plant-fault]"
               " [--work-dir DIR]\n";
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (arg == "--plant-fault") {
      o.plant_fault = true;
    } else if (arg == "--work-dir") {
      o.work_dir = value();
    } else {
      usage("unknown argument " + arg);
    }
  }
  bool known = false;
  for (const auto& name : perfbench::workload_names()) known = known || name == o.workload;
  if (!known) usage("unknown or missing --workload '" + o.workload + "'");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

/// Shortest round-trip decimal form of a finite double.
std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse(argc, argv);

  // Numbers from a sanitizer build measure the sanitizer, and a DCT_OBS=OFF
  // build has no registry timers, so every flowsim.* row would read 0.
  const dct::obs::BuildInfo build = dct::obs::current_build_info();
  if (build.sanitized || !build.obs_enabled || !dct::obs::kEnabled) {
    std::cerr << "dct_perfbench: refusing to report from a "
              << (build.sanitized ? "sanitizer" : "DCT_OBS=OFF") << " build\n";
    return 3;
  }

  perfbench::Tracer tracer;
  perfbench::Result result;
  result.prov("workload", json_string(options.workload));
  result.prov("seed", std::to_string(options.seed));
  result.prov("default_seed", std::to_string(perfbench::kDefaultSeed));
  result.prov("held_out_seed", std::to_string(perfbench::kHeldOutSeed));
  result.prov("mode", json_string(options.trace ? "traced" : "untraced"));
  result.prov("nproc", std::to_string(std::thread::hardware_concurrency()));
  result.prov("parallelism", "1");
  result.prov("build", "{\"obs_enabled\":true,\"sanitized\":false,\"build_type\":" +
                           json_string(build.build_type) +
                           ",\"compiler\":" + json_string(build.compiler) + "}");
  try {
    std::filesystem::create_directories(options.work_dir);
    perfbench::run_workload(options, tracer, result);
    if (options.trace) {
      const auto dir = std::filesystem::path(options.work_dir) / "spans";
      std::filesystem::create_directories(dir);
      const auto path =
          dir / (options.workload + "-seed" + std::to_string(options.seed) + ".json");
      tracer.write_json(path.string());
      result.prov("spans", json_string(std::filesystem::proximate(path).string()));
      result.prov("span_count", std::to_string(tracer.size()));
    }
  } catch (const std::exception& e) {
    std::cerr << "dct_perfbench: " << e.what() << "\n";
    return 1;
  }

  const auto& specs =
      options.trace ? perfbench::per_layer_metrics() : perfbench::end_to_end_metrics();
  std::string metrics;
  std::cout << "perfbench " << options.workload << " seed " << options.seed << " ("
            << (options.trace ? "traced: per-layer" : "untraced: end-to-end")
            << " metrics)\n";
  for (const auto& spec : specs) {
    const auto it = result.values.find(spec.name);
    double v = it == result.values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      result.fail(std::string("metric ") + spec.name + " is not finite");
      v = 0.0;
    }
    std::printf("  %-30s %-16s %s\n", spec.name, number(v).c_str(), spec.unit);
    metrics += std::string(metrics.empty() ? "" : ",") + json_string(spec.name) +
               ":{\"value\":" + number(v) + ",\"unit\":" + json_string(spec.unit) + "}";
  }
  const double failed_ratio =
      result.attempted > 0
          ? static_cast<double>(result.failed) / static_cast<double>(result.attempted)
          : 0.0;
  std::printf("  %-30s %-16s ratio (%lld failed of %lld attempted iterations)\n",
              "ops_failed_ratio", number(failed_ratio).c_str(),
              static_cast<long long>(result.failed),
              static_cast<long long>(result.attempted));
  for (const auto& f : result.failures) std::cout << "  FAILED " << f << "\n";

  std::string prov;
  for (const auto& [key, value] : result.provenance) {
    prov += std::string(prov.empty() ? "" : ",") + json_string(key) + ":" + value;
  }
  std::cout << "provenance {" << prov << "}\n";
  std::cout << "{\"correct\":" << (result.correct && result.failed == 0 ? "true" : "false")
            << ",\"attempted\":" << result.attempted << ",\"failed\":" << result.failed
            << ",\"metrics\":{" << metrics << "}}" << std::endl;
  return 0;
}
