#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "common/require.h"
#include "core/experiment.h"
#include "testing/generator.h"
#include "testing/invariants.h"
#include "testing/oracles.h"
#include "trace/codec.h"

namespace dct {
namespace {

using testing::InvariantRegistry;
using testing::InvariantReport;
using testing::RunUnderTest;

TEST(InvariantRegistry, BuiltinCatalogueIsComplete) {
  const auto& reg = InvariantRegistry::builtin();
  for (const char* name :
       {"flow.byte_conservation", "flow.no_orphans", "time.monotone",
        "link.capacity_bound", "tm.conservation", "telemetry.monotone_loss",
        "telemetry.gap_ledger", "cascade.depth_bound", "codec.round_trip"}) {
    EXPECT_NE(reg.find(name), nullptr) << name;
  }
  EXPECT_EQ(reg.find("no.such.invariant"), nullptr);
}

// docs/TESTING.md's invariant table is the builtin catalogue: one row per
// invariant, its text the registry's description verbatim, as
// `proptest --list` prints it.  DCT_TESTING_DOC is injected by CMake.
TEST(InvariantRegistry, TestingDocTableIsTheBuiltinCatalogue) {
  std::ifstream doc(DCT_TESTING_DOC);
  ASSERT_TRUE(doc) << "cannot read " << DCT_TESTING_DOC;
  // Rows look like "| `name` | description |".
  std::map<std::string, std::string> rows;
  bool in_table = false;
  for (std::string line; std::getline(doc, line);) {
    if (line == "| Invariant | What it asserts |") {
      in_table = true;
      continue;
    }
    if (!in_table) continue;
    if (!line.starts_with("|")) break;
    if (line.starts_with("| ---")) continue;
    const auto open = line.find('`');
    const auto close = line.find("` | ", open + 1);
    ASSERT_TRUE(open != std::string::npos && close != std::string::npos &&
                line.ends_with(" |"))
        << "malformed row: " << line;
    const auto text = close + 4;
    rows[line.substr(open + 1, close - open - 1)] =
        line.substr(text, line.size() - 2 - text);
  }
  const auto& invariants = InvariantRegistry::builtin().invariants();
  EXPECT_EQ(rows.size(), invariants.size());
  for (const auto& inv : invariants) {
    const auto row = rows.find(inv.name);
    ASSERT_NE(row, rows.end()) << "docs/TESTING.md has no row for " << inv.name;
    EXPECT_EQ(row->second, inv.description) << inv.name;
  }
}

TEST(InvariantRegistry, CleanRunPassesEveryInvariant) {
  ClusterExperiment exp(scenarios::tiny(10.0, 7));
  exp.run();
  RunUnderTest run{exp};
  const auto report = InvariantRegistry::builtin().check_all(run);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(InvariantRegistry, CheckOneThrowsOnUnknownName) {
  ClusterExperiment exp(scenarios::tiny(5.0, 7));
  exp.run();
  RunUnderTest run{exp};
  InvariantReport report;
  EXPECT_THROW(
      InvariantRegistry::builtin().check_one("no.such.invariant", run, report),
      Error);
}

TEST(InvariantRegistry, TamperedTraceIsCaught) {
  // The --inject-bug hook: a decoded copy of the trace with one flow that
  // "sent" more than it requested must trip flow.byte_conservation.
  ClusterExperiment exp(scenarios::tiny(10.0, 7));
  exp.run();
  ClusterTrace tampered = decode_trace(encode_trace(exp.trace()));
  FlowRecord bogus{};
  bogus.id = FlowId{987654};
  bogus.src = ServerId{0};
  bogus.dst = ServerId{1};
  bogus.bytes_requested = 1000;
  bogus.bytes_sent = 2000;
  bogus.start = 0.25;
  bogus.end = 0.75;
  tampered.record_flow(bogus);
  RunUnderTest run{exp};
  run.trace_override = &tampered;
  const auto report = InvariantRegistry::builtin().check_all(run);
  EXPECT_TRUE(report.violated("flow.byte_conservation")) << report.summary();
}

TEST(ScenarioGenerator, GenerationIsPureInSeed) {
  const ScenarioConfig a = testing::generate_scenario(42, 30.0);
  const ScenarioConfig b = testing::generate_scenario(42, 30.0);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.topology.racks, b.topology.racks);
  EXPECT_EQ(a.sim.end_time, b.sim.end_time);
  EXPECT_EQ(testing::feature_mask(a), testing::feature_mask(b));
  EXPECT_EQ(testing::repro_json(a, ""), testing::repro_json(b, ""));
  const ScenarioConfig c = testing::generate_scenario(43, 30.0);
  EXPECT_NE(testing::repro_json(a, ""), testing::repro_json(c, ""));
}

TEST(ScenarioGenerator, GeneratedScenariosStayInBounds) {
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const ScenarioConfig cfg = testing::generate_scenario(seed, 30.0);
    EXPECT_GE(cfg.topology.racks, 2);
    EXPECT_LE(cfg.topology.racks, 4);
    EXPECT_GE(cfg.topology.servers_per_rack, 4);
    EXPECT_LE(cfg.topology.servers_per_rack, 8);
    EXPECT_GE(cfg.sim.end_time, 10.0);
    EXPECT_LE(cfg.sim.end_time, 30.0);
  }
}

TEST(ScenarioGenerator, CoverageGuidancePrefersUnseenMasks) {
  // The guided stream must visit at least as many distinct feature masks in
  // its first N draws as the unguided (consecutive-seed) stream.
  constexpr int kDraws = 24;
  testing::ScenarioGenerator gen(1, 30.0);
  for (int i = 0; i < kDraws; ++i) (void)gen.next();
  std::set<std::uint32_t> unguided;
  for (std::uint64_t s = 1; s <= kDraws; ++s) {
    unguided.insert(testing::feature_mask(testing::generate_scenario(s, 30.0)));
  }
  EXPECT_GE(gen.masks_seen(), unguided.size());
}

TEST(ShrinkScenario, MinimizesWhilePredicateHolds) {
  // Synthetic predicate: "fails whenever cascades are enabled".  The
  // shrinker must drop everything else and keep cascades.
  ScenarioConfig failing = testing::generate_scenario(1, 30.0);
  failing.cascades.util_threshold = 0.8;  // force the feature on
  const auto still_fails = [](const ScenarioConfig& c) {
    return !c.cascades.empty();
  };
  const auto shrunk = testing::shrink_scenario(failing, still_fails, 64);
  EXPECT_FALSE(shrunk.config.cascades.empty());
  EXPECT_EQ(shrunk.config.topology.racks, 2);
  EXPECT_EQ(shrunk.config.topology.servers_per_rack, 4);
  EXPECT_EQ(shrunk.config.topology.external_servers, 0);
  EXPECT_LE(shrunk.config.sim.end_time, 10.0);
  EXPECT_TRUE(shrunk.config.faults.empty());
  EXPECT_TRUE(shrunk.config.degradations.empty());
  EXPECT_GT(shrunk.accepted, 0);
}

TEST(ShrinkScenario, RespectsEvalBudget) {
  ScenarioConfig failing = testing::generate_scenario(1, 30.0);
  int evals = 0;
  const auto still_fails = [&](const ScenarioConfig&) {
    ++evals;
    return true;
  };
  const auto shrunk = testing::shrink_scenario(failing, still_fails, 5);
  EXPECT_LE(shrunk.evals, 5);
  EXPECT_EQ(evals, shrunk.evals);
}

TEST(ReproJson, RoundTripsEveryKnobExactly) {
  for (std::uint64_t seed : {1ull, 17ull, 0xDEADBEEFull}) {
    const ScenarioConfig cfg = testing::generate_scenario(seed, 30.0);
    const std::string json = testing::repro_json(cfg, "some.invariant");
    const ScenarioConfig back = testing::scenario_from_repro(json);
    // Serializing the rebuilt scenario must reproduce the file verbatim —
    // i.e. every knob (doubles included) round-tripped bit-exactly.
    EXPECT_EQ(testing::repro_json(back, "some.invariant"), json);
    EXPECT_EQ(back.seed, cfg.seed);
    EXPECT_EQ(back.cascades.seed, cfg.cascades.seed);
    EXPECT_EQ(back.telemetry.seed, cfg.telemetry.seed);
    EXPECT_EQ(testing::repro_violated(json), "some.invariant");
  }
}

TEST(ReproJson, RejectsUnknownSchema) {
  EXPECT_THROW(testing::scenario_from_repro("{\"schema\": \"bogus\"}"), Error);
  EXPECT_THROW(testing::scenario_from_repro(""), Error);
}

// Returns `json` with knob `key`'s value text replaced by `value`.
std::string with_knob(const std::string& json, const std::string& key,
                      const std::string& value) {
  const std::string needle = "\"" + key + "\": ";
  const auto at = json.find(needle);
  EXPECT_NE(at, std::string::npos) << key;
  const auto begin = at + needle.size();
  const auto end = json.find_first_of(",\n", begin);
  return json.substr(0, begin) + value + json.substr(end);
}

TEST(ReproJson, RejectsNonFiniteAndOutOfRangeKnobs) {
  const std::string json =
      testing::repro_json(testing::generate_scenario(3, 30.0), "some.invariant");
  const auto error_for = [&](const std::string& key, const std::string& value) {
    try {
      (void)testing::scenario_from_repro(with_knob(json, key, value));
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const std::pair<const char*, const char*> bad[] = {
      {"sim.end_time", "inf"},
      {"workload.jobs_per_second", "nan"},
      {"topology.racks", "1e12"},
      {"topology.servers_per_rack", "-3e9"},
      {"telemetry.snmp_counter_width", "inf"},
      {"workload.hedged_reads", "2"},
      {"topology.redundant_tor_uplinks", "0.5"},
  };
  for (const auto& [key, value] : bad) {
    EXPECT_NE(error_for(key, value).find(key), std::string::npos)
        << key << " = " << value << " must be rejected naming the key";
  }
  // In-range values still parse.
  EXPECT_EQ(error_for("topology.racks", "3"), "");
  EXPECT_EQ(error_for("workload.hedged_reads", "1"), "");
}

TEST(ReproJson, RejectsUnknownKnobKeys) {
  // A misspelt key must not fall back silently to tiny()'s value.
  const std::string json = testing::repro_json(scenarios::tiny(5.0, 1), "");
  const auto error_for = [&](const std::string& key, const std::string& typo) {
    std::string bad = json;
    const auto at = bad.find("\"" + key + "\":");
    EXPECT_NE(at, std::string::npos) << key;
    bad.replace(at + 1, key.size(), typo);
    try {
      (void)testing::scenario_from_repro(bad);
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_NE(error_for("sim.end_time", "sim.end_tme").find("sim.end_tme"),
            std::string::npos);
  EXPECT_NE(error_for("topology.racks", "topology.rackz").find("topology.rackz"),
            std::string::npos);
}

TEST(ReproJson, PollIntervalTooSmallToCountIsANamedError) {
  // Finite and positive, so validate() accepts it, but the poll count it
  // implies does not fit a size_t.
  std::string json = testing::repro_json(scenarios::tiny(5.0, 1), "");
  json = with_knob(json, "telemetry.snmp_poll_interval", "1e-300");
  json = with_knob(json, "telemetry.snmp_timeout_prob", "0.5");
  std::string error;
  try {
    ClusterExperiment exp(testing::scenario_from_repro(json));
    exp.run();
  } catch (const Error& e) {
    error = e.what();
  }
  EXPECT_NE(error.find("snmp_poll_interval"), std::string::npos) << error;
}

TEST(ReproJson, ReplayedScenarioRunsIdentically) {
  // A repro file is a complete scenario description: replaying it must
  // reproduce the original run byte-for-byte.
  const ScenarioConfig cfg = testing::generate_scenario(11, 20.0);
  const ScenarioConfig back =
      testing::scenario_from_repro(testing::repro_json(cfg, ""));
  ClusterExperiment a(cfg);
  a.run();
  ClusterExperiment b(back);
  b.run();
  EXPECT_EQ(encode_trace(a.trace()), encode_trace(b.trace()));
  EXPECT_EQ(a.schedule_hash(), b.schedule_hash());
}

TEST(RegressionStub, NamesTestAfterReproFile) {
  const std::string stub =
      testing::regression_stub("repro_42.json", "flow.byte_conservation");
  EXPECT_NE(stub.find("TEST(ProptestRegressions, repro_42_json)"),
            std::string::npos);
  EXPECT_NE(stub.find("repro_42.json"), std::string::npos);
  EXPECT_NE(stub.find("flow.byte_conservation"), std::string::npos);
}

TEST(Oracles, DeterminismHoldsOnPairedRuns) {
  const ScenarioConfig cfg = testing::generate_scenario(3, 15.0);
  ClusterExperiment a(cfg);
  a.run();
  ClusterExperiment b(cfg);
  b.run();
  InvariantReport report;
  testing::determinism_oracle(a, b, "testing_test", report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

}  // namespace
}  // namespace dct
