// Coverage-guided scenario generation, greedy shrinking, and replayable
// repro files for the property-based testing harness (tools/proptest).
//
// Generation is a pure function of the seed: generate_scenario(seed) draws
// every knob the fault/degradation/cascade/telemetry subsystems expose from
// one seeded stream, so a failing round is reproducible from its seed alone
// (`proptest --rounds 1 --seed S --max-duration D` re-runs it).  The
// ScenarioGenerator wrapper adds coverage guidance on top: each candidate
// scenario is fingerprinted by which optional subsystems it enables
// (feature_mask), and next() skips ahead to seeds whose combination has not
// been tried yet, so a short fuzzing budget still visits the interesting
// corners of the feature lattice instead of resampling the same mixture.
//
// On failure, shrink_scenario greedily minimizes the scenario — shorter
// horizon, fewer servers, whole feature groups dropped — while the caller's
// predicate still fails, and repro_json/scenario_from_repro round-trip the
// shrunk scenario through a flat, exact (17-significant-digit) JSON file so
// `tools/proptest --replay repro_<seed>.json` re-runs it bit-identically.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>

#include "core/scenario.h"

namespace dct::testing {

/// Which optional subsystems a scenario enables; the coverage fingerprint.
enum ScenarioFeature : std::uint32_t {
  kFeatFaults = 1u << 0,
  kFeatDegradations = 1u << 1,
  kFeatCascades = 1u << 2,
  kFeatTelemetry = 1u << 3,
  kFeatPeriodicUpload = 1u << 4,  ///< telemetry with chunked collection
  kFeatPacedRepair = 1u << 5,
  kFeatSpeculation = 1u << 6,
  kFeatHedgedReads = 1u << 7,
  kFeatRedundantUplinks = 1u << 9,
};

[[nodiscard]] std::uint32_t feature_mask(const ScenarioConfig& cfg);

/// Draws a complete randomized scenario from `seed` (pure function): a
/// 2-4 rack x 4-8 server cluster on a 10..max_duration second horizon, with
/// every fault / degradation / cascade / telemetry / mitigation knob drawn
/// from the seeded stream and each subsystem group present or absent by its
/// own coin so feature combinations vary.  Rates and durations reach storm
/// intensity (minute-long server repairs, dense straggler and lossy-link
/// episodes), so one draw covers mild mixes and failure storms alike.
[[nodiscard]] ScenarioConfig generate_scenario(std::uint64_t seed,
                                               double max_duration = 30.0);

/// Streams scenarios with coverage guidance over feature_mask.
class ScenarioGenerator {
 public:
  explicit ScenarioGenerator(std::uint64_t base_seed, double max_duration = 30.0)
      : next_seed_(base_seed), max_duration_(max_duration) {}

  /// The next scenario: tries consecutive seeds, preferring the first whose
  /// feature mask is new; after a bounded lookahead settles for the least
  /// recently needed candidate so generation never stalls.
  [[nodiscard]] ScenarioConfig next();

  [[nodiscard]] std::size_t masks_seen() const noexcept { return seen_.size(); }

 private:
  std::uint64_t next_seed_;
  double max_duration_;
  std::set<std::uint32_t> seen_;
};

/// True when the scenario still exhibits the failure being minimized.
using FailurePredicate = std::function<bool(const ScenarioConfig&)>;

struct ShrinkResult {
  ScenarioConfig config;  ///< smallest failing scenario found
  int evals = 0;          ///< predicate evaluations spent
  int accepted = 0;       ///< shrink steps that kept the failure
};

/// Greedy minimizer: repeatedly tries an ordered list of shrink steps
/// (halve the horizon, drop to 2 racks, halve servers per rack, drop whole
/// fault / degradation / cascade / telemetry / mitigation groups, halve the
/// job rate, serialize the analysis), keeping a step iff `still_fails`
/// still returns true, until a full pass accepts nothing or `max_evals`
/// predicate evaluations are spent.
[[nodiscard]] ShrinkResult shrink_scenario(const ScenarioConfig& failing,
                                           const FailurePredicate& still_fails,
                                           int max_evals = 64);

/// Serializes the scenario's randomized knob surface (on top of the
/// scenarios::tiny base) as a flat JSON object, with `violated` naming the
/// invariant that failed.  Doubles print with 17 significant digits, so
/// parsing reproduces the exact bits.
[[nodiscard]] std::string repro_json(const ScenarioConfig& cfg,
                                     const std::string& violated);

/// Inverse of repro_json: rebuilds the scenario from a repro file's text.
/// Throws dct::Error on missing schema/seed.
[[nodiscard]] ScenarioConfig scenario_from_repro(const std::string& json);

/// The invariant name recorded in a repro file ("" if absent).
[[nodiscard]] std::string repro_violated(const std::string& json);

/// Reads a repro file from disk and rebuilds its scenario
/// (scenario_from_repro on the file's bytes).
[[nodiscard]] ScenarioConfig load_repro_file(const std::string& path);

/// A ready-to-commit GTest regression stub that replays the repro file and
/// requires the registry to pass (tests/regressions/README.md).
[[nodiscard]] std::string regression_stub(const std::string& repro_filename,
                                          const std::string& violated);

}  // namespace dct::testing
