// Deterministic replays of scenarios shrunk by tools/proptest.
//
// Each repro_*.json in this directory was minimized from a failure found
// during a fuzzing sweep; the bugs are fixed, so every replay must now pass
// the full invariant registry (and, where the original failure was an
// oracle, that oracle too).  DCT_REGRESSION_DIR is injected by CMake and
// points at the source-tree regressions/ directory.  See docs/TESTING.md
// for how to add a new repro.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "core/experiment.h"
#include "testing/generator.h"
#include "testing/invariants.h"
#include "testing/oracles.h"

namespace dct {
namespace {

std::string repro_path(const std::string& file) {
  return std::string(DCT_REGRESSION_DIR) + "/" + file;
}

// Runs the scenario and checks every registered invariant.
void expect_clean_replay(const std::string& file) {
  const ScenarioConfig cfg = testing::load_repro_file(repro_path(file));
  ClusterExperiment exp(cfg);
  exp.run();
  testing::RunUnderTest run{exp};
  const auto report = testing::InvariantRegistry::builtin().check_all(run);
  EXPECT_TRUE(report.ok()) << report.summary();
}

// codec.round_trip originally fired because the first decode re-ingests
// flows in sender order, so re-encoding is not byte-identical to the
// original.  The invariant now asserts count preservation plus canonical
// bit-stability; this replay pins that behavior.
TEST(ProptestRegressions, CodecCanonicalFormIsStable) {
  expect_clean_replay("repro_codec_canonical_seed1.json");
}

// oracle.checkpoint originally flagged a manifest mismatch between a plain
// and a checkpointed run: checkpoint ticks were extra simulator wake-ups, so
// flowsim.events_processed differed.  A checkpointed run now schedules no
// events and the oracle compares the counter unfiltered; this replay runs
// the oracle end-to-end to pin that.
TEST(ProptestRegressions, CheckpointedRunMatchesPlainRun) {
  const ScenarioConfig cfg =
      testing::load_repro_file(repro_path("repro_ckpt_manifest_seed5.json"));
  ClusterExperiment exp(cfg);
  exp.run();
  testing::RunUnderTest run{exp};
  const auto inv = testing::InvariantRegistry::builtin().check_all(run);
  EXPECT_TRUE(inv.ok()) << inv.summary();

  const auto workdir =
      std::filesystem::temp_directory_path() / "dct_regression_ckpt";
  std::filesystem::remove_all(workdir);
  testing::InvariantReport report;
  testing::checkpoint_oracle(cfg, workdir.string(), report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

}  // namespace
}  // namespace dct
