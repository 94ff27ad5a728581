// RunManifest: the reproducibility record every experiment writes.
//
// "What config/seed produced this figure?" should never require rereading
// code.  A manifest captures the scenario identity (name, seed, horizon,
// topology/workload summary), the build flags that shaped the binary, the
// final value of every registered metric, and the total wall-clock runtime,
// and serializes them as JSON with a documented schema
// (docs/METRICS.md) whose keys appear in a fixed order — byte-stable given
// identical inputs, so goldens can diff it.  A CSV flattening of the metric
// block is available for spreadsheet-side comparison across runs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/obs.h"

namespace dct::obs {

/// Compile-time facts about the binary that produced a run.
struct BuildInfo {
  bool obs_enabled = kEnabled;  ///< always true; perfbench's build check reads it
  bool sanitized = false;       ///< DCT_SANITIZE build?
  std::string build_type;       ///< CMAKE_BUILD_TYPE
  std::string compiler;         ///< "GNU 12.2.0" style
};

/// The BuildInfo describing this library build (values injected by CMake).
[[nodiscard]] BuildInfo current_build_info();

/// Final value of one metric as exported into the manifest.
struct MetricSnapshot {
  std::string full_name;  ///< "subsystem.name"
  std::string unit;
  MetricKind kind = MetricKind::kCounter;
  /// Counter/gauge value (0 for histograms).
  double value = 0;
  /// Histogram summary (zero for counters/gauges).
  std::uint64_t count = 0;
  double sum = 0;
  double mean = 0;
  double max = 0;
};

class RunManifest {
 public:
  // --- Identity ------------------------------------------------------------
  std::string schema = "dct-run-manifest/1";
  std::string harness;   ///< producing binary, e.g. "fig02_tm_patterns"
  std::string scenario;  ///< ScenarioConfig::name
  std::uint64_t seed = 0;
  double sim_duration_s = 0;  ///< configured horizon

  // --- Config summary (stable keys, insertion-ordered map) -----------------
  /// Small flat summary of the scenario knobs that shape the run; keys are
  /// emitted in sorted order.  Values are numbers (booleans as 0/1).
  std::map<std::string, double> config;

  // --- Build + runtime -----------------------------------------------------
  BuildInfo build = current_build_info();
  double wall_seconds = 0;  ///< measured wall-clock of the run() call

  // --- Metrics -------------------------------------------------------------
  std::vector<MetricSnapshot> metrics;  ///< sorted by full_name

  /// Copies the final value of every metric in `registry` (sorted order).
  void capture_metrics(const Registry& registry);

  /// Stable-key JSON (schema in docs/METRICS.md).  Key order is fixed by
  /// the schema; numbers use shortest round-trip formatting; given
  /// identical field values the output is byte-identical.
  [[nodiscard]] std::string to_json() const;

  /// CSV flattening of the metric block:
  /// metric,kind,unit,value,count,sum,mean,max — one row per metric.
  [[nodiscard]] std::string to_csv() const;

  /// Writes to_json() to `path`, creating parent directories.  Returns the
  /// path written.
  std::string write_json(const std::string& path) const;
};

}  // namespace dct::obs
