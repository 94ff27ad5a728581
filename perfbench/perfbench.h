// Shared pieces of the repo benchmark (perfbench/README.md): options, the
// in-memory span tracer behind the traced mode, the result accumulator every
// workload fills, and the workload entry points.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The seed BENCHMARK.json runs default to, and the one held out for
/// confirming a later claim on inputs its author did not tune against.
inline constexpr std::uint64_t kDefaultSeed = 42;
inline constexpr std::uint64_t kHeldOutSeed = 1009;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 30.0;  ///< measurement budget for the timed iterations
  bool trace = false;     ///< traced mode: per-layer metrics instead of end-to-end
  /// Tamper with one iteration's output (after the reference iteration) so
  /// the self-test can show the output checks count it as a failed op.
  bool plant_fault = false;
  std::string work_dir = ".bench_build/work";  ///< checkpoint dirs + span dumps
};

/// One recorded span.  Times are host nanoseconds since the tracer started.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;     ///< index into the tracer's span list
  std::int32_t iteration = -1;  ///< the benchmark iteration that opened it
};

/// Records spans around the benchmark's calls into the library, in memory;
/// write_json() dumps them when the run ends.  A disabled tracer records
/// nothing, which is how the traced mode interleaves untraced iterations to
/// measure its own overhead.
class Tracer {
 public:
  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_iteration(std::int32_t i) noexcept { iteration_ = i; }

  /// Opens a span nested in the innermost open one; -1 when disabled.
  std::int32_t open(std::string_view name);
  void close(std::int32_t index);
  /// Adds a closed child of `parent` whose duration the program measured
  /// itself (obs registry wall counters).  Such children are laid back to
  /// back from the parent's start, so they never overlap one another.
  void add_child(std::int32_t parent, std::string_view name, double seconds);

  /// Self time (duration minus direct children) summed per span name over
  /// the spans of `iteration`, in seconds.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_seconds(
      std::int32_t iteration) const;

  void write_json(const std::string& path) const;
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_ = false;
  std::int32_t iteration_ = -1;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::int32_t synthetic_parent_ = -1;
  std::int64_t synthetic_cursor_ns_ = 0;
};

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name)
      : tracer_(tracer), index_(tracer.open(name)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { tracer_.close(index_); }
  [[nodiscard]] std::int32_t index() const noexcept { return index_; }

 private:
  Tracer& tracer_;
  std::int32_t index_;
};

/// A metric the benchmark reports: BENCHMARK.json lists the same names.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics (untraced runs) and the per-layer metrics (traced
/// runs), in BENCHMARK.json order.  Every workload prints every one; a
/// layer a workload does not exercise reads 0 there.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

/// What one benchmark run reports.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< first failed checks, one line each
  /// Metric values by name (see end_to_end_metrics / per_layer_metrics).
  std::map<std::string, double> values;
  /// Flat provenance, values already JSON-encoded, in insertion order.
  std::vector<std::pair<std::string, std::string>> provenance;

  /// Records a failed output check (the iteration counts as failed).
  void fail(std::string what) {
    correct = false;
    if (failures.size() < 16) failures.push_back(std::move(what));
  }
  void prov(std::string key, std::string json_value) {
    provenance.emplace_back(std::move(key), std::move(json_value));
  }
};

/// `s` as a JSON string literal.
[[nodiscard]] std::string json_string(std::string_view s);

// --- Workloads ------------------------------------------------------------

/// Names of the workloads, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload to completion and fills `result` (metrics, checks,
/// provenance).  Throws only on misuse; failures of the program under test
/// are counted into the result.
void run_workload(const Options& options, Tracer& tracer, Result& result);

}  // namespace perfbench
