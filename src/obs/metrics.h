// Low-overhead metrics: counters, gauges, latency/size histograms and the
// registry that names them.
//
// This is the library's self-instrumentation — the same treatment the paper
// gave its cluster (server-centric event logging with quantified overhead,
// Table 1) applied to the reproduction itself.  Metrics are identified by
// (subsystem, name); the registry hands out stable pointers and iterates in
// sorted order, so exports (RunManifest) are byte-stable across runs and
// platforms.
//
// Hot-path cost: a Counter::inc is one add on a plain uint64 member; a
// Histogram::observe is a compare plus two adds.  Neither allocates.  The
// instrumentation sites themselves go through the DCT_OBS macros (obs/obs.h)
// and vanish entirely in a -DDCT_OBS=OFF build; bench/obs_overhead.cpp is
// the Table 1 analogue quantifying the enabled cost.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace dct::obs {

/// Monotonic event counter.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value (queue depths, active flows, ...).
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double d) noexcept { value_ += d; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0;
};

/// Latency/size histogram reduced to the summary manifests export: exact
/// count, sum, mean and max of every observation.
class Histogram {
 public:
  void observe(double v) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double max() const noexcept { return count_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double mean() const noexcept {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double max_ = 0;
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] const char* to_string(MetricKind kind) noexcept;

/// One registered metric: identity plus exactly one live instrument.
struct Metric {
  std::string subsystem;  ///< owning layer, e.g. "flowsim"
  std::string name;       ///< metric name within the subsystem
  std::string unit;       ///< "flows", "bytes", "ns", "s", ...
  MetricKind kind = MetricKind::kCounter;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;

  /// "subsystem.name" — the key used in manifests and snapshots.
  [[nodiscard]] std::string full_name() const { return subsystem + "." + name; }
};

/// Owns every metric of one run.  Registration is idempotent: asking twice
/// for the same (subsystem, name) returns the same instrument (the kind and
/// unit must match).  Iteration order is sorted by (subsystem, name), which
/// is what makes every export deterministic.
///
/// Not thread-safe (the simulator is single-threaded by design); cheap
/// enough that per-run registries are the norm.
class Registry {
 public:
  Counter* counter(std::string subsystem, std::string name, std::string unit);
  Gauge* gauge(std::string subsystem, std::string name, std::string unit);
  Histogram* histogram(std::string subsystem, std::string name, std::string unit);

  /// All metrics, sorted by (subsystem, name).
  [[nodiscard]] std::vector<const Metric*> metrics() const;
  [[nodiscard]] std::size_t size() const noexcept { return metrics_.size(); }

  /// Scalar snapshot of every counter and gauge (histograms excluded: their
  /// wall-clock sums are not deterministic), sorted by full name.  The
  /// determinism tests compare two of these across identical seeded runs.
  [[nodiscard]] std::vector<std::pair<std::string, double>> scalar_snapshot() const;

 private:
  Metric& find_or_create(std::string subsystem, std::string name, std::string unit,
                         MetricKind kind);

  // std::map: stable addresses for handed-out pointers + sorted iteration.
  std::map<std::pair<std::string, std::string>, Metric> metrics_;
};

/// RAII wall-clock timer: records elapsed nanoseconds into a Histogram on
/// destruction.  Tolerates a null histogram (unbound instrumentation).
/// Instantiate via DCT_OBS_SCOPED_TIMER so the whole thing compiles out in
/// a -DDCT_OBS=OFF build.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h) noexcept
      : hist_(h), start_(h != nullptr ? std::chrono::steady_clock::now()
                                      : std::chrono::steady_clock::time_point{}) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (hist_ == nullptr) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    hist_->observe(static_cast<double>(ns));
  }

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

/// RAII wall-clock accumulator: adds elapsed nanoseconds to a Counter on
/// destruction.  Tolerates a null counter.  Unlike ScopedTimer this feeds a
/// plain counter, the shape used for per-stage wall totals (trace decode,
/// TM build, ...) where a sum is wanted rather than a distribution.
class WallNsCounter {
 public:
  explicit WallNsCounter(Counter* c) noexcept
      : counter_(c), start_(c != nullptr ? std::chrono::steady_clock::now()
                                         : std::chrono::steady_clock::time_point{}) {}
  WallNsCounter(const WallNsCounter&) = delete;
  WallNsCounter& operator=(const WallNsCounter&) = delete;
  ~WallNsCounter() {
    if (counter_ == nullptr) return;
    counter_->inc(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count()));
  }

 private:
  Counter* counter_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace dct::obs
