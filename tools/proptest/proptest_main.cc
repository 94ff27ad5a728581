// Property-based differential-testing harness (docs/TESTING.md).
//
// Each round draws a coverage-guided random scenario, runs it through the
// paired planes and checks every registry invariant plus the differential
// oracles.  On the first violation the scenario is greedily shrunk while it
// still fails, then written out as a replayable repro JSON and a
// ready-to-commit GTest regression stub:
//
//   tools/proptest --rounds 50 --seed 1            # fuzz
//   tools/proptest --replay repro_<seed>.json      # deterministic re-run
//   tools/proptest --rounds 5 --inject-bug         # self-test: a deliberate
//                                                  # byte-conservation bug
//                                                  # must be caught + shrunk
//   tools/proptest --list                          # catalogue invariants
//
// Exit codes: 0 all rounds clean, 1 violation found (repro written),
// 2 usage error.
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>

#include "common/fsio.h"
#include "core/cli.h"
#include "core/experiment.h"
#include "testing/generator.h"
#include "testing/invariants.h"
#include "testing/oracles.h"
#include "trace/codec.h"

namespace dct {
namespace {

namespace fs = std::filesystem;

struct Options {
  int rounds = 50;
  std::uint64_t seed = 1;
  double max_duration = 30.0;
  std::string out = "proptest_out";
  std::string replay;
  bool inject_bug = false;
  bool list = false;
  int checkpoint_every = 5;
};

void usage() {
  std::cerr
      << "usage: proptest [--rounds N] [--seed S] [--max-duration SEC]\n"
      << "                [--out DIR] [--checkpoint-every K] [--inject-bug]\n"
      << "                [--replay FILE] [--list]\n"
      << "  --rounds N            random scenarios to run (default 50)\n"
      << "  --seed S              base seed for the generator (default 1)\n"
      << "  --max-duration SEC    cap on generated sim horizons (default 30)\n"
      << "  --out DIR             where repros/stubs land (default proptest_out)\n"
      << "  --checkpoint-every K  run the checkpoint oracle every K rounds\n"
      << "  --inject-bug          tamper each run's trace with a flow that\n"
      << "                        sent more than requested (self-test: the\n"
      << "                        registry must catch it and shrink it)\n"
      << "  --replay FILE         re-run one repro JSON instead of fuzzing\n"
      << "  --list                print the invariant/oracle catalogue\n";
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "proptest: " << arg << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--rounds") {
      const char* v = next();
      if (!v) return false;
      opt.rounds = cli::number_value<int>(argv[0], arg, v);
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return false;
      opt.seed = cli::number_value<std::uint64_t>(argv[0], arg, v);
    } else if (arg == "--max-duration") {
      const char* v = next();
      if (!v) return false;
      opt.max_duration = cli::duration_value(argv[0], arg, v);
    } else if (arg == "--out") {
      const char* v = next();
      if (!v) return false;
      opt.out = v;
    } else if (arg == "--checkpoint-every") {
      const char* v = next();
      if (!v) return false;
      opt.checkpoint_every = cli::number_value<int>(argv[0], arg, v);
    } else if (arg == "--inject-bug") {
      opt.inject_bug = true;
    } else if (arg == "--replay") {
      const char* v = next();
      if (!v) return false;
      opt.replay = v;
    } else if (arg == "--list") {
      opt.list = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      std::exit(0);
    } else {
      std::cerr << "proptest: unknown argument " << arg << "\n";
      return false;
    }
  }
  return opt.rounds > 0 && opt.max_duration >= 10.0 && opt.checkpoint_every > 0;
}

void list_catalogue() {
  std::cout << "invariants (src/testing/invariants.cc):\n";
  for (const auto& inv : testing::InvariantRegistry::builtin().invariants()) {
    std::cout << "  " << inv.name << "\n      " << inv.description << "\n";
  }
  std::cout << "oracles (src/testing/oracles.cc):\n"
            << "  oracle.determinism\n      same seed twice: byte-identical "
               "traces, schedules, manifests\n"
            << "  oracle.checkpoint\n      plain vs checkpointed vs "
               "resume-of-completed: bit-identity\n"
            << "  oracle.telemetry\n      lossless vs lossy plane: gap-aware "
               "estimate within declared bounds\n"
            << "  oracle.incast_model\n      flowsim vs packetsim star: "
               "fluid-regime agreement, collapse divergence\n";
}

// The deliberate-bug hook: round-trips the real trace through the codec and
// appends a flow that "sent" more bytes than it requested.  Only the
// trace-derived invariants see the tampered copy (RunUnderTest docs).
ClusterTrace tampered_copy(const ClusterTrace& real) {
  ClusterTrace copy = decode_trace(encode_trace(real));
  FlowRecord bogus{};
  bogus.id = FlowId{987654};
  bogus.src = ServerId{0};
  bogus.dst = ServerId{1};
  bogus.bytes_requested = 1'000'000;
  bogus.bytes_sent = bogus.bytes_requested + 1000;
  bogus.start = 0.25;
  bogus.end = 0.75;
  copy.record_flow(bogus);
  return copy;
}

struct EvalOptions {
  bool inject_bug = false;
  bool with_checkpoint = false;
  bool with_incast = false;
  std::string workdir;
};

testing::InvariantReport evaluate_scenario(const ScenarioConfig& cfg,
                                           const EvalOptions& eo) {
  testing::InvariantReport report;
  ClusterExperiment a(cfg);
  a.run();
  {
    ClusterExperiment b(cfg);
    b.run();
    testing::determinism_oracle(a, b, "proptest", report);
  }
  std::optional<ClusterTrace> tampered;
  testing::RunUnderTest run{a};
  if (eo.inject_bug) {
    tampered.emplace(tampered_copy(a.trace()));
    run.trace_override = &*tampered;
  }
  const auto inv = testing::InvariantRegistry::builtin().check_all(run);
  report.violations.insert(report.violations.end(), inv.violations.begin(),
                           inv.violations.end());
  if (!cfg.telemetry.empty()) testing::telemetry_oracle(a, report);
  if (eo.with_checkpoint) {
    testing::checkpoint_oracle(cfg, eo.workdir, report);
  }
  if (eo.with_incast) testing::incast_model_oracle(report);
  return report;
}

// Shrinks, writes repro + regression stub, prints the replay command.
void emit_repro(const ScenarioConfig& failing,
                const testing::InvariantReport& report, const Options& opt) {
  const std::string violated = report.violations.front().invariant;
  std::cout << "shrinking (target: " << violated << ") ...\n";
  // The predicate re-runs the cheap per-round pipeline and asks whether the
  // same invariant (by exact name) still fires.  The checkpoint oracle is
  // re-included only when it is the thing that failed.
  EvalOptions eo;
  eo.inject_bug = opt.inject_bug;
  eo.with_checkpoint = violated.rfind("oracle.checkpoint", 0) == 0;
  eo.workdir = (fs::path(opt.out) / "shrink_ckpt").string();
  const auto still_fails = [&](const ScenarioConfig& c) {
    try {
      return evaluate_scenario(c, eo).violated(violated);
    } catch (const std::exception&) {
      // A scenario that now throws only counts when an exception is what
      // we're minimizing; otherwise it's a different failure.
      return violated == "harness.exception";
    }
  };
  const auto shrunk = testing::shrink_scenario(failing, still_fails, 48);

  fs::create_directories(opt.out);
  const std::string repro_name = "repro_" + std::to_string(shrunk.config.seed) + ".json";
  const std::string repro_path = (fs::path(opt.out) / repro_name).string();
  atomic_write_file(repro_path, testing::repro_json(shrunk.config, violated));
  const std::string stub_path =
      (fs::path(opt.out) / ("regression_" + std::to_string(shrunk.config.seed) + ".cc"))
          .string();
  atomic_write_file(stub_path, testing::regression_stub(repro_name, violated));

  const auto& topo = shrunk.config.topology;
  const int servers = topo.racks * topo.servers_per_rack + topo.external_servers;
  std::cout << "violated: " << violated << "\n"
            << report.summary() << "shrink: " << shrunk.evals << " evals, "
            << shrunk.accepted << " accepted; minimized to " << servers
            << " servers, " << shrunk.config.sim.end_time << " s horizon\n"
            << "repro:   " << repro_path << "\n"
            << "stub:    " << stub_path << "\n"
            << "replay:  tools/proptest --replay " << repro_path
            << (opt.inject_bug ? " --inject-bug" : "") << "\n";
}

int replay(const Options& opt) {
  const auto bytes = read_file_bytes(opt.replay);
  const std::string json(bytes.begin(), bytes.end());
  const ScenarioConfig cfg = testing::scenario_from_repro(json);
  const std::string violated = testing::repro_violated(json);
  std::cout << "replaying " << opt.replay << " (seed " << cfg.seed
            << (violated.empty() ? "" : ", recorded violation: " + violated)
            << ")\n";
  EvalOptions eo;
  eo.inject_bug = opt.inject_bug;
  eo.with_checkpoint = violated.rfind("oracle.checkpoint", 0) == 0;
  eo.workdir = (fs::path(opt.out) / "replay_ckpt").string();
  const auto report = evaluate_scenario(cfg, eo);
  std::cout << report.summary();
  if (!report.ok()) {
    std::cout << "replay: FAIL (" << report.violations.size() << " violations)\n";
    return 1;
  }
  std::cout << "replay: OK\n";
  return 0;
}

int fuzz(const Options& opt) {
  testing::ScenarioGenerator gen(opt.seed, opt.max_duration);
  for (int round = 0; round < opt.rounds; ++round) {
    const ScenarioConfig cfg = gen.next();
    EvalOptions eo;
    eo.inject_bug = opt.inject_bug;
    eo.with_checkpoint = (round % opt.checkpoint_every) == opt.checkpoint_every - 1;
    eo.with_incast = round == 0;
    eo.workdir =
        (fs::path(opt.out) / ("ckpt_round_" + std::to_string(round))).string();
    std::cout << "round " << round + 1 << "/" << opt.rounds << " seed "
              << cfg.seed << " mask 0x" << std::hex << testing::feature_mask(cfg)
              << std::dec << " dur " << cfg.sim.end_time << "s"
              << (eo.with_checkpoint ? " +ckpt" : "")
              << (eo.with_incast ? " +incast" : "") << "\n";
    testing::InvariantReport report;
    try {
      report = evaluate_scenario(cfg, eo);
    } catch (const std::exception& e) {
      report.fail("harness.exception", e.what());
    }
    if (!report.ok()) {
      emit_repro(cfg, report, opt);
      return 1;
    }
  }
  std::cout << "proptest: " << opt.rounds << " rounds clean ("
            << gen.masks_seen() << " distinct feature masks)\n";
  return 0;
}

}  // namespace
}  // namespace dct

int main(int argc, char** argv) {
  dct::Options opt;
  if (!dct::parse_args(argc, argv, opt)) {
    dct::usage();
    return 2;
  }
  if (opt.list) {
    dct::list_catalogue();
    return 0;
  }
  try {
    if (!opt.replay.empty()) return dct::replay(opt);
    return dct::fuzz(opt);
  } catch (const std::exception& e) {
    std::cerr << "proptest: fatal: " << e.what() << "\n";
    return 1;
  }
}
