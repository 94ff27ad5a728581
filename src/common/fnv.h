// FNV-1a, the repo's one non-cryptographic hash: WAL frame checksums and
// record chain (ckpt/wal.h), the scenario fingerprint (ClusterExperiment),
// and the fault/degradation and telemetry schedule hashes.  WALs on disk
// and manifests carry these values, and tests pin the fingerprint and both
// schedule hashes, so the fold order here is a format.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string_view>

namespace dct {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
/// Seed of the fault/degradation and telemetry schedule hashes: FNV-1a's
/// offset basis (14695981039346656037) with its last digit dropped.  A
/// historical slip, kept because manifests and tests pin those hashes.
inline constexpr std::uint64_t kScheduleHashBasis = 1469598103934665603ULL;

/// Folds `data` into a running FNV-1a hash.
[[nodiscard]] inline std::uint64_t fnv1a(std::uint64_t h,
                                         std::span<const std::uint8_t> data) noexcept {
  for (std::uint8_t b : data) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

/// Builds an FNV-1a hash from typed fields: integers fold as 8 little-endian
/// bytes, doubles as their IEEE-754 bit pattern, strings as length then
/// bytes.
class Fingerprint {
 public:
  explicit Fingerprint(std::uint64_t basis = kFnvOffset) noexcept : h_(basis) {}

  Fingerprint& u64(std::uint64_t v) noexcept {
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    h_ = fnv1a(h_, b);
    return *this;
  }
  Fingerprint& f64(double v) noexcept { return u64(std::bit_cast<std::uint64_t>(v)); }
  Fingerprint& flag(bool b) noexcept { return u64(b ? 1 : 0); }
  Fingerprint& str(std::string_view s) noexcept {
    u64(s.size());
    h_ = fnv1a(h_, {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_;
};

}  // namespace dct
