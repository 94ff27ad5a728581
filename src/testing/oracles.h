// Differential oracles: the same seeded scenario run through paired planes,
// diffed under the tolerance each pair has contractually promised.
//
//   determinism_oracle  — run twice: traces, schedules and manifests must be
//                         byte-identical (modulo wall clock);
//   checkpoint_oracle   — plain vs checkpointed vs resume-of-completed runs:
//                         bit-identity (docs/CHECKPOINT.md); the kill-9 mid-
//                         run variant lives in tools/crash, which fork/kills
//                         real processes;
//   telemetry_oracle    — lossless vs lossy measurement plane: the naive
//                         estimate only loses mass, the gap-aware estimate
//                         only restores it, and the restoration stays inside
//                         its declared error bound (docs/TELEMETRY.md);
//   incast_model_oracle — flowsim vs packetsim on a single-bottleneck star:
//                         distribution-level agreement in the fluid regime,
//                         qualitative divergence (timeouts, stretched
//                         barrier) in the incast-collapse regime the fluid
//                         model cannot see (§4.4).
//
// Every oracle appends Violations named "oracle.<name>" to the caller's
// report, so harnesses aggregate invariants and oracles uniformly.
#pragma once

#include <string>

#include "core/experiment.h"
#include "testing/invariants.h"

namespace dct::testing {

/// The run manifest minus its wall-clock content (run wall time and the
/// scoped wall-ns timer metrics) — the only part allowed to differ between
/// two runs of the same seed.
[[nodiscard]] std::string stable_manifest(const ClusterExperiment& exp,
                                          const std::string& harness);

/// Drops checkpoint-lineage and wall-clock lines from a manifest JSON (the
/// fields allowed to differ between a reference run and a resumed run),
/// then trailing commas so removed lines cannot shift punctuation.
[[nodiscard]] std::string filter_manifest_lines(const std::string& json);

/// Both experiments must already have run().  Captures stable manifests
/// first (the codec/analysis calls below feed process-global counters bound
/// to the most recent experiment's registry), then requires byte-identical
/// traces, schedule hashes, telemetry hashes, observed traces and manifests.
void determinism_oracle(ClusterExperiment& a, ClusterExperiment& b,
                        const std::string& harness, InvariantReport& report);

/// Runs `cfg` three ways — without checkpointing, with checkpointing into
/// `workdir`, and as a resume of the completed checkpoint directory (which
/// re-verifies the replay against the durable WAL) — and requires the three
/// traces and filtered manifests to be byte-identical.  `workdir` is
/// created, used and removed; artifacts are kept on violation.
void checkpoint_oracle(ScenarioConfig cfg, const std::string& workdir,
                       InvariantReport& report);

/// Requires a run whose telemetry config is non-empty.  Compares TM series
/// built from the lossless trace, the naive lossy merge and the gap-aware
/// correction.
void telemetry_oracle(ClusterExperiment& exp, InvariantReport& report);

/// Scenario-independent: N-sender single-bottleneck star through the fluid
/// simulator vs the packet-level TCP simulator.  Deep-buffer (fluid) regime
/// must agree on the barrier finish time within tolerance; the
/// shallow-buffer high-fan-in regime must show the collapse (RTO timeouts,
/// barrier stretched well past the fluid prediction) that only the packet
/// model captures.
void incast_model_oracle(InvariantReport& report);

}  // namespace dct::testing
