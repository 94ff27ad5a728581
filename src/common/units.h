// Unit constants and conversions shared across the library.
//
// Rates are bytes per second, sizes are bytes, times are seconds (double).
// The paper's cluster uses 1 Gbps server NICs; switch uplinks are a
// topology parameter.
#pragma once

#include <cstdint>

namespace dct {

/// Simulation time in seconds.
using TimeSec = double;
/// Data size in bytes (fits two months of petabyte-scale accounting).
using Bytes = std::int64_t;
/// Rate in bytes per second.
using BytesPerSec = double;

inline constexpr Bytes kKB = 1000;
inline constexpr Bytes kMB = 1000 * kKB;
inline constexpr Bytes kGB = 1000 * kMB;

inline constexpr BytesPerSec kGbpsInBytes = 1e9 / 8.0;  ///< 1 Gbps as B/s

/// Converts a link rate in Gbps to bytes/second.
constexpr BytesPerSec gbps(double g) noexcept { return g * kGbpsInBytes; }

}  // namespace dct
