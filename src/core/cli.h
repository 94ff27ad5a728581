// Whole-value number parsing for the command-line tools (benches,
// examples, run_scenario, proptest) and the proptest repro reader.
//
// Every value must parse in full: "abc" must not run as 0, "5x" not as 5,
// and "-1" not wrap to 2^64 - 1 as an unsigned.  A tool that gets such a
// value prints "<tool>: bad value for <what>: '<text>'" and exits 2.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string_view>

#include "common/require.h"
#include "flowsim/flowsim.h"

namespace dct::cli {

/// All of `text` as a T, or nullopt.  No sign, space or suffix is skipped;
/// an unsigned T takes only decimal digits.
template <typename T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end) return std::nullopt;
  return value;
}

/// Prints "<tool>: bad value for <what>: '<text>'" and exits 2 (usage).
[[noreturn]] inline void bad_value(const char* argv0, std::string_view what,
                                   std::string_view text) {
  std::cerr << std::filesystem::path(argv0).filename().string() << ": bad value for "
            << what << ": '" << text << "'\n";
  std::exit(2);
}

/// All of `text` as a T, or bad_value.
template <typename T>
[[nodiscard]] T number_value(const char* argv0, std::string_view what, const char* text) {
  const std::optional<T> value = parse_number<T>(text);
  if (!value) bad_value(argv0, what, text);
  return *value;
}

/// A simulated horizon in seconds: a number that FlowSimConfig::validate
/// also accepts as `end_time` (0, -5, inf and 1e300 are refused), or
/// bad_value.
[[nodiscard]] inline double duration_value(const char* argv0, std::string_view what,
                                           const char* text) {
  FlowSimConfig sim;
  sim.end_time = number_value<double>(argv0, what, text);
  try {
    sim.validate();
  } catch (const Error&) {
    bad_value(argv0, what, text);
  }
  return sim.end_time;
}

/// `argv[1]` as a duration, defaulting to `def`: every harness runs it as a
/// scenario's `sim.end_time`.
[[nodiscard]] inline double duration_arg(int argc, char** argv, double def) {
  return argc > 1 ? duration_value(argv[0], "duration", argv[1]) : def;
}

/// `argv[2]` as a seed, defaulting to `def`.
[[nodiscard]] inline std::uint64_t seed_arg(int argc, char** argv, std::uint64_t def = 42) {
  return argc > 2 ? number_value<std::uint64_t>(argv[0], "seed", argv[2]) : def;
}

}  // namespace dct::cli
