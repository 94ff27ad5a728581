// Kill-9 recovery harness for the checkpoint/restart subsystem.
//
//   crash_harness [--rounds=N] [--duration=S] [--seed=N] [--workdir=PATH]
//                 [--max-kills=N] [--keep]
//
// Each round runs the same tiny scenario twice: once uninterrupted (the
// reference), and once under checkpointing where the harness SIGKILLs the
// experiment process at randomized points and resumes it from the same
// checkpoint directory until it completes.  The final trace, traffic-matrix
// series, and run manifest (modulo checkpoint-lineage and wall-clock keys)
// must be byte-identical to the reference — the determinism contract
// (docs/DETERMINISM.md) extended across process death.
//
// Kill placement alternates between two modes so the interesting windows are
// actually exercised, not just hoped for:
//
//   timed  — SIGKILL after a uniform-random delay spanning the whole run,
//            which with DCT_CKPT_TEST_SLOW_NS widening every 8th WAL frame
//            lands kills mid-WAL-append (torn final frame on disk);
//   early  — SIGKILL within the first few milliseconds, before the WAL
//            header or its first drained frames exist.
//
// Coverage is counted from the ground truth the next recovery reports in
// ckpt_manifest.json (wal_torn_bytes, stale_tmp_removed).  With
// --rounds >= 5 the harness fails if torn-WAL coverage stayed zero: a green
// run certifies the recovery path ran, not merely that no kill happened to
// hurt.
//
// All experiment work happens in forked children (the parent never
// constructs an experiment and never spawns threads), so fork() is safe and
// a SIGKILL takes the whole simulated cluster down mid-instruction, exactly
// like a power cut on a measurement server.
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/traffic_matrix.h"
#include "common/fsio.h"
#include "core/experiment.h"
#include "testing/invariants.h"
#include "testing/oracles.h"
#include "trace/codec.h"

namespace fs = std::filesystem;

namespace {

struct Options {
  int rounds = 10;
  double duration = 30.0;
  std::uint64_t seed = 1;
  std::string workdir;
  int max_kills = 6;
  bool keep = false;
};

[[noreturn]] void usage() {
  std::cerr << "usage: crash_harness [--rounds=N] [--duration=S] [--seed=N]\n"
               "                     [--workdir=PATH] [--max-kills=N] [--keep]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--rounds=", 0) == 0) {
      opt.rounds = std::atoi(arg.c_str() + 9);
    } else if (arg.rfind("--duration=", 0) == 0) {
      opt.duration = std::atof(arg.c_str() + 11);
    } else if (arg.rfind("--seed=", 0) == 0) {
      opt.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--workdir=", 0) == 0) {
      opt.workdir = arg.substr(10);
    } else if (arg.rfind("--max-kills=", 0) == 0) {
      opt.max_kills = std::atoi(arg.c_str() + 12);
    } else if (arg == "--keep") {
      opt.keep = true;
    } else {
      usage();
    }
  }
  if (opt.rounds < 1 || opt.duration <= 0) usage();
  return opt;
}

// ---------------------------------------------------------------------------
// Child side: run the experiment and export its deterministic artifacts.

void export_outputs(const dct::ClusterExperiment& exp, const fs::path& out) {
  dct::atomic_write_file((out / "trace.bin").string(),
                         dct::encode_trace(exp.trace()));
  std::ostringstream csv;
  csv << "window,src,dst,bytes\n";
  const auto tms = dct::build_tm_series(exp.trace(), exp.topology(), 10.0,
                                        dct::TmScope::kServer);
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
  dct::atomic_write_file((out / "tm.csv").string(), csv.str());
  exp.manifest("crash_harness").write_json((out / "manifest.json").string());
}

// Runs in the forked child; never returns.  `ckpt_dir` empty means the
// uncheckpointed baseline run.
[[noreturn]] void run_child(const Options& opt, std::uint64_t seed,
                            const fs::path& ckpt_dir, const fs::path& out,
                            bool resume, long slow_ns) {
  try {
    if (slow_ns > 0) {
      ::setenv("DCT_CKPT_TEST_SLOW_NS", std::to_string(slow_ns).c_str(), 1);
    }
    dct::ScenarioConfig cfg = dct::scenarios::tiny(opt.duration, seed);
    cfg.checkpoint.dir = ckpt_dir.string();
    dct::ClusterExperiment exp(cfg);
    if (resume) {
      exp.resume(ckpt_dir.string());
    } else {
      exp.run();
    }
    // Every completed child evaluates the shared invariant registry
    // (src/testing/invariants.h): recovery must land on a state that is not
    // just byte-identical to the reference but self-consistent.
    dct::testing::RunUnderTest run{exp};
    const auto report = dct::testing::InvariantRegistry::builtin().check_all(run);
    if (!report.ok()) {
      std::cerr << "[crash] child invariant violations:\n" << report.summary();
      ::_exit(4);
    }
    export_outputs(exp, out);
    ::_exit(0);
  } catch (const std::exception& e) {
    std::cerr << "[crash] child failed: " << e.what() << "\n";
    ::_exit(3);
  }
}

// ---------------------------------------------------------------------------
// Parent side: process control, kill placement, and comparison.

enum class KillMode { kTimed, kEarly };

std::chrono::steady_clock::time_point after_ms(double ms) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double, std::milli>(ms));
}

// Minimal extraction of `"key": <u64>` from the lineage JSON; 0 if absent.
std::uint64_t lineage_u64(const fs::path& dir, const std::string& key) {
  std::error_code ec;
  if (!fs::exists(dir / "ckpt_manifest.json", ec)) return 0;
  std::string text;
  try {
    const auto bytes = dct::read_file_bytes((dir / "ckpt_manifest.json").string());
    text.assign(bytes.begin(), bytes.end());
  } catch (...) {
    return 0;
  }
  const auto pos = text.find("\"" + key + "\":");
  if (pos == std::string::npos) return 0;
  return std::strtoull(text.c_str() + pos + key.size() + 3, nullptr, 10);
}

std::string slurp(const fs::path& p) {
  const auto bytes = dct::read_file_bytes(p.string());
  return std::string(bytes.begin(), bytes.end());
}


struct RoundStats {
  int kills = 0;
  int resumes = 0;
  int torn_wal = 0;       // a recovery truncated a torn WAL tail
  int stale_tmp = 0;      // a recovery swept a leftover .tmp
};

struct Totals {
  int rounds_ok = 0;
  int kills = 0;
  int torn_wal = 0;
  int stale_tmp = 0;
};

class Runner {
 public:
  Runner(const Options& opt) : opt_(opt), rng_(opt.seed * 0x9e3779b97f4a7c15ULL + 1) {}

  int run() {
    const fs::path work = opt_.workdir.empty()
                              ? fs::temp_directory_path() /
                                    ("dct_crash_" + std::to_string(::getpid()))
                              : fs::path(opt_.workdir);
    fs::create_directories(work);
    std::cerr << "[crash] " << opt_.rounds << " rounds, " << opt_.duration
              << " s horizon, base seed "
              << opt_.seed << ", workdir " << work.string() << "\n";

    Totals totals;
    bool ok = true;
    for (int round = 0; round < opt_.rounds && ok; ++round) {
      ok = run_round(round, work / ("round" + std::to_string(round)), totals);
    }

    std::cerr << "[crash] totals: " << totals.rounds_ok << "/" << opt_.rounds
              << " rounds identical, " << totals.kills << " kills ("
              << totals.torn_wal << " torn-wal recoveries, " << totals.stale_tmp
              << " stale-tmp sweeps)\n";

    if (ok && opt_.rounds >= 5 && totals.torn_wal == 0) {
      std::cerr << "[crash] COVERAGE FAILURE: no recovery saw a torn WAL\n";
      ok = false;
    }
    if (ok) {
      std::cerr << "[crash] all rounds recovered byte-identically\n";
      if (!opt_.keep) {
        std::error_code ec;
        fs::remove_all(work, ec);
      }
    } else {
      std::cerr << "[crash] FAILED (artifacts kept in " << work.string() << ")\n";
    }
    return ok ? 0 : 1;
  }

 private:
  // Forks the child runner, returns its pid.
  pid_t spawn(std::uint64_t seed, const fs::path& ckpt_dir, const fs::path& out,
              bool resume, long slow_ns) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::cerr << "[crash] fork failed: " << std::strerror(errno) << "\n";
      std::exit(1);
    }
    if (pid == 0) run_child(opt_, seed, ckpt_dir, out, resume, slow_ns);
    return pid;
  }

  // Waits for `pid` up to `deadline`; returns true if it exited on its own
  // (status in *status), false if the deadline passed with it still alive.
  bool wait_until(pid_t pid, std::chrono::steady_clock::time_point deadline,
                  int* status) {
    for (;;) {
      const pid_t r = ::waitpid(pid, status, WNOHANG);
      if (r == pid) return true;
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  }

  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng_);
  }

  bool run_round(int round, const fs::path& dir, Totals& totals) {
    const std::uint64_t seed = opt_.seed + static_cast<std::uint64_t>(round);
    const fs::path ref_out = dir / "ref";
    const fs::path run_out = dir / "out";
    const fs::path ckpt = dir / "ckpt";
    fs::create_directories(ref_out);
    fs::create_directories(run_out);

    // Uninterrupted reference: checkpointing ON, never killed, and timed so
    // kill delays span the real run, WAL writes included.  Round 0 also
    // checks it against an uncheckpointed baseline below.
    const auto ref_start = std::chrono::steady_clock::now();
    {
      int status = 0;
      const pid_t pid = spawn(seed, dir / "ckpt_ref", ref_out, false, 0);
      ::waitpid(pid, &status, 0);
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::cerr << "[crash] round " << round << ": reference run failed\n";
        return false;
      }
    }
    const double ref_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - ref_start)
                              .count();

    if (round == 0) {
      // Once per harness run: checkpointing must not perturb the experiment.
      const fs::path base_out = dir / "base";
      fs::create_directories(base_out);
      int status = 0;
      const pid_t pid = spawn(seed, {}, base_out, false, 0);
      ::waitpid(pid, &status, 0);
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::cerr << "[crash] round 0: uncheckpointed baseline failed\n";
        return false;
      }
      if (slurp(base_out / "trace.bin") != slurp(ref_out / "trace.bin") ||
          slurp(base_out / "tm.csv") != slurp(ref_out / "tm.csv")) {
        std::cerr << "[crash] round 0: checkpointing perturbed the trace "
                     "(checkpointed != uncheckpointed)\n";
        return false;
      }
    }

    // Kill-and-resume loop.  DCT_CKPT_TEST_SLOW_NS widens the torn-frame
    // windows so random kills actually land inside them.
    constexpr long kSlowNs = 2'000'000;  // 2 ms per injected stall
    RoundStats rs;
    bool completed = false;
    for (int attempt = 0; !completed; ++attempt) {
      const bool resume = attempt > 0;
      if (resume) ++rs.resumes;
      const pid_t pid = spawn(seed, ckpt, run_out, resume, kSlowNs);
      int status = 0;

      if (rs.kills >= opt_.max_kills) {
        // Budget spent: let this attempt run to completion.
        ::waitpid(pid, &status, 0);
      } else {
        const KillMode mode = static_cast<KillMode>(attempt % 2);
        bool exited = false;
        switch (mode) {
          case KillMode::kTimed:
            // Span the (unslowed) run length so most draws land mid-run.
            exited = wait_until(
                pid, after_ms(uniform(2.0, std::max(20.0, ref_ms * 1.2))),
                &status);
            break;
          case KillMode::kEarly:
            exited = wait_until(pid, after_ms(uniform(0.5, 25.0)), &status);
            break;
        }
        if (!exited) {
          ::kill(pid, SIGKILL);
          ::waitpid(pid, &status, 0);
          ++rs.kills;
        }
      }

      if (WIFEXITED(status)) {
        if (WEXITSTATUS(status) != 0) {
          std::cerr << "[crash] round " << round << " (seed " << seed
                    << "): attempt " << attempt << " exited with status "
                    << WEXITSTATUS(status) << "\n";
          return false;
        }
        completed = true;
      }
      // Each attempt's recovery rewrites the lineage with what it found on
      // disk before the run proper starts, so reading it after the attempt
      // ends (killed or not) gives that recovery's ground truth.
      if (lineage_u64(ckpt, "wal_torn_bytes") > 0) rs.torn_wal = 1;
      if (lineage_u64(ckpt, "stale_tmp_removed") > 0) rs.stale_tmp = 1;
    }

    // Byte-compare the three artifacts.
    const bool trace_ok = slurp(ref_out / "trace.bin") == slurp(run_out / "trace.bin");
    const bool tm_ok = slurp(ref_out / "tm.csv") == slurp(run_out / "tm.csv");
    // Lineage and wall-clock keys are the only fields allowed to differ
    // between the reference and the resumed run (testing/oracles.h).
    const bool manifest_ok =
        dct::testing::filter_manifest_lines(slurp(ref_out / "manifest.json")) ==
        dct::testing::filter_manifest_lines(slurp(run_out / "manifest.json"));

    std::cerr << "[crash] round " << round << " (seed " << seed << "): "
              << rs.kills << " kills, " << rs.resumes << " resumes, torn-wal "
              << (rs.torn_wal ? "yes" : "no") << " -> trace "
              << (trace_ok ? "ok" : "MISMATCH") << ", tm "
              << (tm_ok ? "ok" : "MISMATCH") << ", manifest "
              << (manifest_ok ? "ok" : "MISMATCH") << "\n";

    totals.kills += rs.kills;
    totals.torn_wal += rs.torn_wal;
    totals.stale_tmp += rs.stale_tmp;
    if (trace_ok && tm_ok && manifest_ok) {
      ++totals.rounds_ok;
      return true;
    }
    std::cerr << "[crash] replay: crash_harness --rounds=1 --seed=" << seed
              << " --duration=" << opt_.duration << " --keep\n";
    return false;
  }

  Options opt_;
  std::mt19937_64 rng_;
};

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  return Runner(opt).run();
}
