// Shared helpers for the figure-reproduction harnesses.
//
// Every bench binary prints (a) the paper's reported numbers for its figure
// and (b) the numbers measured on the simulated cluster, in aligned tables,
// so EXPERIMENTS.md can be regenerated by running `build/bench/*`.
#pragma once

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <string_view>

#include "common/fsio.h"
#include "common/table.h"
#include "core/experiment.h"

namespace dct::bench {

/// Atomically writes a bench artifact (CSV/JSON/text) via the shared
/// temp-file + rename path (common/fsio.h): a crash or kill mid-write —
/// or a watcher polling the output directory — never sees a torn file.
/// Every bench file output goes through this (manifests already do, via
/// RunManifest::write_json).
inline void atomic_write(const std::string& path, std::string_view content) {
  atomic_write_file(path, content);
}

/// Parses all of `argv[i]` as a T, or prints
/// "<harness>: bad value for <what>: '<text>'" and exits 2: "abc" or "5x"
/// must not quietly run a zero horizon or seed 0.
template <typename T>
T positional_arg(char** argv, int i, const char* what) {
  const char* const text = argv[i];
  const char* const end = text + std::strlen(text);
  T value{};
  const auto [stop, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || stop != end) {
    std::cerr << std::filesystem::path(argv[0]).filename().string() << ": bad value for "
              << what << ": '" << text << "'\n";
    std::exit(2);
  }
  return value;
}

/// Parses `argv[1]` as a duration override (seconds), defaulting to `def`.
inline double duration_arg(int argc, char** argv, double def) {
  return argc > 1 ? positional_arg<double>(argv, 1, "duration") : def;
}

/// Parses `argv[2]` as a seed override.
inline std::uint64_t seed_arg(int argc, char** argv, std::uint64_t def = 42) {
  return argc > 2 ? positional_arg<std::uint64_t>(argv, 2, "seed") : def;
}

/// Runs an already-constructed experiment, echoing progress to stderr so
/// long benches are visibly alive.  (ClusterExperiment is immovable;
/// construct it in place and pass it here.)
inline void run_scenario(ClusterExperiment& exp) {
  const auto& cfg = exp.scenario();
  std::cerr << "[bench] running scenario '" << cfg.name << "' for "
            << cfg.sim.end_time << " simulated seconds...\n";
  exp.run();
  std::cerr << "[bench] done: " << exp.trace().flow_count() << " flows, "
            << static_cast<double>(exp.trace().total_bytes()) / 1e9 << " GB\n";
}

/// Prints a one-line comparison between the paper's reported value and ours.
inline void paper_note(std::ostream& os, const std::string& what,
                       const std::string& paper, const std::string& measured) {
  TextTable t;
  t.header({"quantity", "paper (2009 cluster)", "this reproduction"});
  t.row({what, paper, measured});
  t.print(os);
}

/// Writes the run's manifest (docs/METRICS.md) next to the figure output:
/// manifests/<harness>__<scenario>.json under the current directory.
/// Returns the path it wrote.  Call after run_scenario().
/// The write is atomic (temp file + rename, RunManifest::write_json), so
/// concurrent benches — or a watcher tailing the manifests directory —
/// never observe a torn file.
inline std::string write_manifest(const ClusterExperiment& exp,
                                  const std::string& harness) {
  const std::string path =
      "manifests/" + harness + "__" + exp.scenario().name + ".json";
  exp.manifest(harness).write_json(path);
  std::cerr << "[bench] manifest: " << path;
  if (exp.schedule_hash() != 0) {
    std::cerr << " (fault schedule hash " << std::hex << exp.schedule_hash()
              << std::dec << ")";
  }
  std::cerr << "\n";
  return path;
}

}  // namespace dct::bench
