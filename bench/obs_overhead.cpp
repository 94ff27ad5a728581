// Instrumentation-overhead study (the paper's Table 1 analogue).
//
// The paper's measurement infrastructure had to be cheap enough to leave on
// in production ("the instrumentation and collection overhead is small
// enough that the system can be left on continuously").  This harness holds
// src/obs to the same standard: it runs the canonical scenario twice in the
// same binary — once with every subsystem bound into the metric registry,
// once with the hooks left dormant (null-pointer no-ops) — and reports the
// wall-clock delta.  It also microbenchmarks the individual primitives
// (counter inc, gauge set, histogram observe, scoped timer), and prints the
// compile mode: in a DCT_OBS=OFF build the macro sites vanish entirely, so
// the dormant floor measured here is an upper bound on that build's cost.
//
// Pass/fail line: live instrumentation must cost < 5% wall clock.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "core/scenario.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "trace/codec.h"

namespace {

double run_once(double duration, std::uint64_t seed, bool bind) {
  dct::ScenarioConfig cfg = dct::scenarios::canonical(duration, seed);
  cfg.name = bind ? "canonical" : "canonical_dormant";
  cfg.obs_bind_metrics = bind;
  // The codec binding is module-level; make sure a previous bound run does
  // not leak live codec metrics into the dormant one.
  dct::bind_codec_metrics(nullptr);
  auto exp = dct::ClusterExperiment(cfg);
  exp.run();
  if (bind) dct::bench::write_manifest(exp, "obs_overhead");
  return exp.wall_seconds();
}

/// ns per operation over `iters` calls of `fn`.
template <typename Fn>
double ns_per_op(std::int64_t iters, Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < iters; ++i) fn(i);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(iters);
}

}  // namespace

int main(int argc, char** argv) {
  const double duration = dct::bench::duration_arg(argc, argv, 120.0);
  const auto seed = dct::bench::seed_arg(argc, argv);
  constexpr int kReps = 3;

  std::cout << "=== Self-instrumentation overhead (Table 1 analogue) ===\n\n";
  std::cout << "build: DCT_OBS "
            << (dct::obs::kEnabled ? "ON (hooks compiled in)"
                                   : "OFF (hooks compiled out)")
            << "\n\n";

  // --- Primitive costs ------------------------------------------------------
  {
    dct::obs::Registry reg;
    auto* c = reg.counter("bench", "counter", "ops");
    auto* g = reg.gauge("bench", "gauge", "ops");
    auto* h = reg.histogram("bench", "histogram", "ns");
    constexpr std::int64_t kIters = 10'000'000;
    dct::TextTable t("primitive cost (hot path, single thread)");
    t.header({"operation", "ns/op"});
    t.row({"counter inc (bound)",
           dct::TextTable::num(ns_per_op(kIters, [&](std::int64_t) {
             DCT_OBS_INC(c);
           }))});
    t.row({"counter inc (dormant: null ptr)",
           dct::TextTable::num(ns_per_op(kIters, [&](std::int64_t) {
             dct::obs::Counter* null_counter = nullptr;
             DCT_OBS_INC(null_counter);
           }))});
    t.row({"gauge set (bound)",
           dct::TextTable::num(ns_per_op(kIters, [&](std::int64_t i) {
             DCT_OBS_SET(g, static_cast<double>(i));
           }))});
    t.row({"histogram observe (bound)",
           dct::TextTable::num(ns_per_op(kIters, [&](std::int64_t i) {
             DCT_OBS_OBSERVE(h, static_cast<double>((i & 0xFFFF) + 1));
           }))});
    // Scoped timer includes two steady_clock reads, the dominant cost.
    t.row({"scoped wall timer (bound)",
           dct::TextTable::num(ns_per_op(1'000'000, [&](std::int64_t) {
             DCT_OBS_SCOPED_TIMER(timer, h);
           }))});
    t.print(std::cout);
    std::cout << '\n';
  }

  // --- Whole-run overhead ---------------------------------------------------
  // Alternate bound/dormant and keep the per-mode minimum: the minimum is
  // the least noisy location statistic for wall-clock on a shared machine.
  std::vector<double> bound, dormant;
  for (int r = 0; r < kReps; ++r) {
    dormant.push_back(run_once(duration, seed, /*bind=*/false));
    bound.push_back(run_once(duration, seed, /*bind=*/true));
  }
  const double best_dormant = *std::min_element(dormant.begin(), dormant.end());
  const double best_bound = *std::min_element(bound.begin(), bound.end());
  const double overhead =
      best_dormant > 0 ? (best_bound - best_dormant) / best_dormant : 0.0;

  dct::TextTable t("canonical scenario, " + dct::TextTable::num(duration) +
                   " simulated s, best of " + std::to_string(kReps));
  t.header({"mode", "wall seconds"});
  t.row({"instrumentation dormant", dct::TextTable::num(best_dormant)});
  t.row({"instrumentation live", dct::TextTable::num(best_bound)});
  t.row({"overhead", dct::TextTable::pct(overhead)});
  t.print(std::cout);
  std::cout << '\n';

  dct::bench::paper_note(
      std::cout, "always-on instrumentation overhead",
      "small enough to leave on continuously",
      dct::TextTable::pct(overhead) + (overhead < 0.05 ? " (PASS: < 5%)"
                                                       : " (FAIL: >= 5%)"));
  std::cout << "\nnote: a -DDCT_OBS=OFF build compiles every hook site to "
               "nothing;\nits cost is bounded above by the dormant row.\n";
  return overhead < 0.05 ? 0 : 1;
}
