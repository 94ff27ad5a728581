// Tests for the self-instrumentation subsystem (src/obs): registry
// semantics, the histogram summary, manifest golden output, and — the
// property everything else leans on — that two identical seeded runs
// produce identical counter/gauge values while the instrumentation itself
// never perturbs the simulation.
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/require.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace dct::obs {
namespace {

TEST(Registry, RegistrationIsIdempotent) {
  Registry reg;
  Counter* a = reg.counter("flowsim", "flows_started", "flows");
  Counter* b = reg.counter("flowsim", "flows_started", "flows");
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.size(), 1u);
  a->inc(3);
  EXPECT_EQ(b->value(), 3u);
}

TEST(Registry, KindOrUnitMismatchThrows) {
  Registry reg;
  reg.counter("x", "m", "ops");
  EXPECT_THROW(reg.gauge("x", "m", "ops"), Error);
  EXPECT_THROW(reg.counter("x", "m", "bytes"), Error);
}

TEST(Registry, IterationIsSortedBySubsystemThenName) {
  Registry reg;
  reg.counter("z", "a", "u");
  reg.counter("a", "z", "u");
  reg.counter("a", "b", "u");
  std::vector<std::string> names;
  for (const Metric* m : reg.metrics()) names.push_back(m->full_name());
  EXPECT_EQ(names, (std::vector<std::string>{"a.b", "a.z", "z.a"}));
}

TEST(Registry, ScalarSnapshotSkipsHistograms) {
  Registry reg;
  reg.counter("s", "c", "u")->inc(7);
  reg.gauge("s", "g", "u")->set(2.5);
  reg.histogram("s", "h", "ns")->observe(5.0);
  const auto snap = reg.scalar_snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, "s.c");
  EXPECT_EQ(snap[0].second, 7.0);
  EXPECT_EQ(snap[1].first, "s.g");
  EXPECT_EQ(snap[1].second, 2.5);
}

TEST(Histogram, KeepsCountSumMeanMaxAndIsZeroWhenEmpty) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  h.observe(150.0);
  h.observe(1e9);
  h.observe(1.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 1e9 + 151.0);
  EXPECT_DOUBLE_EQ(h.mean(), (1e9 + 151.0) / 3.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
}

TEST(Macros, TolerateUnboundPointers) {
  // Null instrument pointers are the dormant state; every macro must be
  // safe on them in an enabled build and compile to nothing when disabled.
  Counter* c = nullptr;
  Gauge* g = nullptr;
  Histogram* h = nullptr;
  DCT_OBS_INC(c);
  DCT_OBS_ADD(c, 5);
  DCT_OBS_SET(g, 1.0);
  DCT_OBS_OBSERVE(h, 2.0);
  { DCT_OBS_SCOPED_TIMER(timer, h); }
  SUCCEED();
}

TEST(Macros, BoundPointersRecordWhenEnabled) {
  Registry reg;
  Counter* c = reg.counter("t", "c", "u");
  Histogram* h = reg.histogram("t", "h", "ns");
  DCT_OBS_INC(c);
  DCT_OBS_ADD(c, 2);
  { DCT_OBS_SCOPED_TIMER(timer, h); }
  if (kEnabled) {
    EXPECT_EQ(c->value(), 3u);
    EXPECT_EQ(h->count(), 1u);
  } else {
    EXPECT_EQ(c->value(), 0u);
    EXPECT_EQ(h->count(), 0u);
  }
}

TEST(Manifest, JsonGoldenIsByteStable) {
  RunManifest m;
  m.harness = "unit_test";
  m.scenario = "tiny";
  m.seed = 7;
  m.sim_duration_s = 60.0;
  m.config["racks"] = 4;
  m.config["jobs_per_second"] = 1.5;
  m.build = BuildInfo{.obs_enabled = true,
                      .sanitized = false,
                      .build_type = "Release",
                      .compiler = "GNU 12.2.0"};
  m.wall_seconds = 0.25;
  m.metrics.push_back(MetricSnapshot{.full_name = "flowsim.flows_started",
                                     .unit = "flows",
                                     .kind = MetricKind::kCounter,
                                     .value = 42});
  m.metrics.push_back(MetricSnapshot{.full_name = "flowsim.recompute_wall_ns",
                                     .unit = "ns",
                                     .kind = MetricKind::kHistogram,
                                     .count = 2,
                                     .sum = 300,
                                     .mean = 150,
                                     .max = 200});
  const std::string expected = R"({
  "schema": "dct-run-manifest/1",
  "harness": "unit_test",
  "scenario": "tiny",
  "seed": 7,
  "sim_duration_s": 60,
  "config": {
    "jobs_per_second": 1.5,
    "racks": 4
  },
  "build": {
    "obs_enabled": true,
    "sanitized": false,
    "build_type": "Release",
    "compiler": "GNU 12.2.0"
  },
  "wall_seconds": 0.25,
  "metrics": {
    "flowsim.flows_started": {"kind": "counter", "unit": "flows", "value": 42},
    "flowsim.recompute_wall_ns": {"kind": "histogram", "unit": "ns", "count": 2, "sum": 300, "mean": 150, "max": 200}
  }
}
)";
  EXPECT_EQ(m.to_json(), expected);
  // Byte-stable means byte-stable: a second serialization is identical.
  EXPECT_EQ(m.to_json(), m.to_json());
}

TEST(Manifest, CsvFlattensMetrics) {
  RunManifest m;
  m.metrics.push_back(MetricSnapshot{.full_name = "a.c",
                                     .unit = "ops",
                                     .kind = MetricKind::kCounter,
                                     .value = 3});
  const std::string csv = m.to_csv();
  EXPECT_NE(csv.find("metric,kind,unit,value,count,sum,mean,max"), std::string::npos);
  EXPECT_NE(csv.find("a.c,counter,ops,3,"), std::string::npos);
}

// Regression for torn manifest files: writes go to a temp file and rename.
TEST(ManifestWriteTest, AtomicWriteLeavesNoTempFile) {
  ClusterExperiment exp(scenarios::tiny(10.0));
  exp.run();
  const auto dir = std::filesystem::temp_directory_path() / "dct_manifest_write_test";
  std::filesystem::remove_all(dir);
  const std::string path = (dir / "manifest.json").string();

  const auto m = exp.manifest("obs_test");
  EXPECT_EQ(m.write_json(path), path);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "temp file must be renamed away";

  // Overwriting an existing manifest also goes through the temp + rename.
  EXPECT_EQ(m.write_json(path), path);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, m.to_json()) << "written file holds the complete JSON";
  std::filesystem::remove_all(dir);
}

TEST(Experiment, IdenticalSeededRunsYieldIdenticalScalars) {
  auto run_snapshot = [] {
    auto exp = ClusterExperiment(scenarios::tiny(30.0, 11));
    exp.run();
    return exp.registry().scalar_snapshot();
  };
  const auto a = run_snapshot();
  const auto b = run_snapshot();
  if (kEnabled) {
    ASSERT_FALSE(a.empty());
  }
  EXPECT_EQ(a, b);
}

TEST(Experiment, ManifestDescribesTheRun) {
  auto exp = ClusterExperiment(scenarios::tiny(30.0, 11));
  exp.run();
  const RunManifest m = exp.manifest("obs_test");
  EXPECT_EQ(m.schema, "dct-run-manifest/1");
  EXPECT_EQ(m.harness, "obs_test");
  EXPECT_EQ(m.scenario, "tiny");
  EXPECT_EQ(m.seed, 11u);
  EXPECT_DOUBLE_EQ(m.sim_duration_s, 30.0);
  EXPECT_GT(m.wall_seconds, 0.0);
  EXPECT_EQ(m.config.at("racks"), 4.0);
  EXPECT_EQ(m.build.obs_enabled, kEnabled);
  if (kEnabled) {
    // Every always-bound subsystem shows up; faults are absent because the
    // tiny scenario schedules none.
    bool saw_flowsim = false, saw_workload = false, saw_trace = false;
    for (const auto& s : m.metrics) {
      saw_flowsim |= s.full_name.starts_with("flowsim.");
      saw_workload |= s.full_name.starts_with("workload.");
      saw_trace |= s.full_name.starts_with("trace.");
    }
    EXPECT_TRUE(saw_flowsim);
    EXPECT_TRUE(saw_workload);
    EXPECT_TRUE(saw_trace);
  } else {
    EXPECT_TRUE(m.metrics.empty());
  }
}

TEST(Experiment, EventLoopStaysUnderFiveEventsPerFlow) {
  auto exp = ClusterExperiment(scenarios::tiny(60.0));
  exp.run();
  const RunManifest m = exp.manifest("obs_test");
  double events = -1;
  double flows = -1;
  for (const auto& s : m.metrics) {
    if (s.full_name == "flowsim.events_processed") events = s.value;
    if (s.full_name == "flowsim.flows_started") flows = s.value;
  }
  if (kEnabled) {
    ASSERT_GT(flows, 0);
    // Each recompute replaces the completions queued by the one before, so
    // superseded completions are never popped.
    EXPECT_LT(events / flows, 5.0);
  } else {
    EXPECT_EQ(events, -1);
  }
}

TEST(Experiment, ManifestBeforeRunThrows) {
  auto exp = ClusterExperiment(scenarios::tiny(30.0, 11));
  EXPECT_THROW(exp.manifest("obs_test"), Error);
}

TEST(Experiment, DormantBindingLeavesSimulationIdentical) {
  // The whole design rests on this: binding metrics must not change a
  // single simulated outcome, only observe it.
  auto flows = [](bool bind) {
    ScenarioConfig cfg = scenarios::tiny(30.0, 11);
    cfg.obs_bind_metrics = bind;
    auto exp = ClusterExperiment(cfg);
    exp.run();
    return std::pair{exp.trace().flow_count(), exp.trace().total_bytes()};
  };
  EXPECT_EQ(flows(true), flows(false));
}

}  // namespace
}  // namespace dct::obs
