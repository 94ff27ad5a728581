// Invariant registry: named, reusable predicates over a finished experiment.
//
// The paper's credibility rests on cross-checking independent measurement
// planes against each other (socket logs vs. SNMP counters vs. job logs,
// §5/Figs. 12-14); this module gives the reproduction the same discipline
// as a machine-checked catalogue.  Every property the simulator promises
// regardless of what the fault layer throws at it — byte conservation,
// monotone sim-time, capacity bounds, the telemetry gap ledger's accounting
// identities, codec round trips — lives here once, and every harness
// (tools/proptest, tools/crash, unit tests) evaluates the same registry
// instead of keeping a private checklist.  docs/TESTING.md is the
// human-readable index of the catalogue.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"

namespace dct::testing {

/// The subject an invariant is evaluated against: a finished experiment,
/// plus an optional substitute for its collected trace.  The override is
/// the deliberate-bug hook — tools/proptest --inject-bug decodes a copy of
/// the trace, tampers it, and proves the detect + shrink pipeline end to
/// end.  Trace-level invariants read trace(); measurement-plane invariants
/// (telemetry.*) always read the experiment's real trace, since the lossy
/// merge they audit ran against it.
struct RunUnderTest {
  ClusterExperiment& exp;
  const ClusterTrace* trace_override = nullptr;

  [[nodiscard]] const ClusterTrace& trace() const {
    return trace_override != nullptr ? *trace_override : exp.trace();
  }
};

/// One violated invariant, with enough detail to act on.
struct Violation {
  std::string invariant;  ///< registry name (or "oracle.<name>")
  std::string detail;
};

/// Accumulates violations across invariants and oracles; a harness runs a
/// whole round and reports everything that failed, not just the first.
struct InvariantReport {
  std::vector<Violation> violations;

  void fail(std::string invariant, std::string detail) {
    violations.push_back({std::move(invariant), std::move(detail)});
  }
  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
  /// True iff some violation's invariant name starts with `prefix`.
  [[nodiscard]] bool violated(std::string_view prefix) const;
  /// One line per violation, "name: detail".
  [[nodiscard]] std::string summary() const;
};

/// A named predicate.  `check` appends to the report instead of returning a
/// bool so one invariant can report several independent findings.
struct Invariant {
  std::string name;
  std::string description;
  std::function<void(RunUnderTest&, InvariantReport&)> check;
};

/// An ordered catalogue of invariants.
class InvariantRegistry {
 public:
  void add(Invariant inv);
  [[nodiscard]] const std::vector<Invariant>& invariants() const noexcept {
    return invariants_;
  }
  [[nodiscard]] const Invariant* find(std::string_view name) const;

  /// Evaluates every invariant against `run`, in registration order.
  [[nodiscard]] InvariantReport check_all(RunUnderTest& run) const;
  /// Evaluates one invariant by name (throws dct::Error on unknown names).
  void check_one(std::string_view name, RunUnderTest& run,
                 InvariantReport& report) const;

  /// The built-in catalogue (docs/TESTING.md lists each member):
  ///   flow.byte_conservation, flow.no_orphans, time.monotone,
  ///   link.capacity_bound, tm.conservation, telemetry.monotone_loss,
  ///   telemetry.gap_ledger, cascade.depth_bound, codec.round_trip.
  /// NOTE: codec.round_trip feeds the process-global codec counters, which
  /// are bound to the most recently constructed experiment's registry —
  /// capture manifests (oracles.h stable_manifest) BEFORE check_all when a
  /// harness also compares manifests.
  [[nodiscard]] static const InvariantRegistry& builtin();

 private:
  std::vector<Invariant> invariants_;
};

}  // namespace dct::testing
