// Checkpointing-overhead study (docs/CHECKPOINT.md's pass/fail gate).
//
// The crash-safety argument in docs/CHECKPOINT.md only holds up if the WAL
// spool and its durability barriers (one fdatasync per buffer drain) are
// cheap enough to leave on for long experiments, the same standard the
// paper applies to its measurement infrastructure and src/obs applies to
// instrumentation (obs_overhead).  This harness runs the canonical scenario
// with checkpointing off and on, alternating modes and keeping the
// per-mode minimum over the interleaved reps, and fails with a nonzero exit
// if the enabled mode costs >= 5% wall clock.
//
// It also asserts the stronger determinism claim along the way: the encoded
// trace from the checkpointed run must be byte-identical to the baseline's,
// i.e. checkpointing observes the experiment without perturbing it.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench_util.h"
#include "common/fsio.h"
#include "common/table.h"
#include "core/scenario.h"
#include "trace/codec.h"

namespace {

struct RunResult {
  double wall_seconds = 0;
  std::vector<std::uint8_t> trace_bytes;
};

RunResult run_once(double duration, std::uint64_t seed, const std::string& ckpt_dir) {
  dct::ScenarioConfig cfg = dct::scenarios::canonical(duration, seed);
  if (!ckpt_dir.empty()) {
    cfg.checkpoint.dir = ckpt_dir;
  }
  auto exp = dct::ClusterExperiment(cfg);
  exp.run();
  RunResult r;
  r.wall_seconds = exp.wall_seconds();
  r.trace_bytes = dct::encode_trace(exp.trace());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const double duration = dct::bench::duration_arg(argc, argv, 120.0);
  const auto seed = dct::bench::seed_arg(argc, argv);
  // Seven alternating reps with per-mode minima.  Runs this short (~0.12 s
  // wall in Release) sit at the mercy of CPU steal on shared machines —
  // identical runs spread 10-20% — so the estimator has to be the minimum over
  // interleaved reps: the min picks the least-contended run, and
  // interleaving means one quiet machine epoch benefits both modes.
  // Durations under ~120 simulated s stay too jittery for the 5% gate
  // regardless — keep the default for CI.
  constexpr int kReps = 7;
  constexpr double kLimit = 0.05;

  std::cout << "=== Checkpoint/WAL overhead (crash-safe runs, "
               "docs/CHECKPOINT.md) ===\n\n";

  const std::filesystem::path scratch =
      std::filesystem::temp_directory_path() /
      ("dct_ckpt_overhead_" + std::to_string(::getpid()));

  // Alternate off/on and keep per-mode minima (least noisy wall-clock
  // statistic on a shared machine); a fresh checkpoint directory per rep so
  // every enabled run pays the full cold-start cost, never a resume.
  std::vector<double> off, on;
  std::vector<std::uint8_t> off_trace, on_trace;
  run_once(duration, seed, "");  // warmup: page in code and scenario data
  for (int r = 0; r < kReps; ++r) {
    ::sync();  // settle writeback from the previous rep before timing
    const auto base = run_once(duration, seed, "");
    const std::filesystem::path dir = scratch / ("rep" + std::to_string(r));
    ::sync();
    const auto ckpt = run_once(duration, seed, dir.string());
    off.push_back(base.wall_seconds);
    on.push_back(ckpt.wall_seconds);
    off_trace = base.trace_bytes;
    on_trace = ckpt.trace_bytes;
  }
  std::error_code ec;
  std::filesystem::remove_all(scratch, ec);

  const bool identical = off_trace == on_trace;
  const double best_off = *std::min_element(off.begin(), off.end());
  const double best_on = *std::min_element(on.begin(), on.end());
  const double overhead = best_off > 0 ? (best_on - best_off) / best_off : 0.0;

  dct::TextTable t("canonical scenario, " + dct::TextTable::num(duration) +
                   " simulated s, best of " + std::to_string(kReps));
  t.header({"mode", "wall seconds"});
  t.row({"checkpointing off", dct::TextTable::num(best_off)});
  t.row({"checkpointing on (WAL, fsync)", dct::TextTable::num(best_on)});
  t.row({"overhead", dct::TextTable::pct(overhead)});
  t.row({"trace bytes identical", identical ? "yes" : "NO"});
  t.print(std::cout);
  std::cout << '\n';

  dct::bench::paper_note(
      std::cout, "crash-safe checkpointing overhead",
      "collection cheap enough to leave on continuously",
      dct::TextTable::pct(overhead) +
          (overhead < kLimit ? " (PASS: < 5%)" : " (FAIL: >= 5%)"));

  std::string csv = "mode,wall_seconds\n";
  csv += "off," + dct::TextTable::num(best_off) + "\n";
  csv += "on," + dct::TextTable::num(best_on) + "\n";
  dct::atomic_write_file("checkpoint_overhead.csv", csv);
  std::cout << "\nwrote checkpoint_overhead.csv\n";

  if (!identical) {
    std::cerr << "FAIL: checkpointing perturbed the trace\n";
    return 1;
  }
  return overhead < kLimit ? 0 : 1;
}
