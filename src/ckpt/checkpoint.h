// Crash-safe checkpoint/restart manager (docs/CHECKPOINT.md).
//
// The repo's recovery model is deterministic replay, which the determinism
// rules (docs/PERFORMANCE.md) make sound: a scenario re-run from t=0 with
// the same config produces bit-identical events.
// The one durable progress record is therefore the write-ahead trace spool
// (trace.dwal, ckpt/wal.h), the analogue of the paper's per-server socket
// log.  On resume, every record the replay re-emits inside the durable
// prefix is verified against the stored per-record hash instead of being
// re-appended; records past the prefix are appended as usual.  A torn tail
// from the crash is truncated on open.  The WAL alone decides when data is
// durable (ckpt/wal.h), so a checkpointed run schedules no events.
//
// The net effect: a SIGKILL at any instant — mid-WAL-append, mid-recovery —
// loses no durable record, and the resumed run's outputs are byte-identical
// to an uninterrupted run's (tools/crash/crash_harness proves it).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "ckpt/wal.h"

namespace dct::ckpt {

/// Checkpointing config, carried on ScenarioConfig.  Disabled (the default,
/// empty dir) costs one null branch per record: runs are bit-identical to a
/// build without the subsystem.
struct CheckpointConfig {
  /// Checkpoint directory; empty disables checkpointing entirely.
  std::string dir;

  [[nodiscard]] bool enabled() const noexcept { return !dir.empty(); }
};

/// Owns one checkpoint directory for the lifetime of one run attempt.
///
/// Construction performs recovery: temp files stranded by a kill between
/// write and rename are removed, and the WAL is opened — truncating any
/// torn tail, and throwing if it belongs to a different scenario.  Its
/// surviving frames are the durable prefix the replay must reproduce.
class CheckpointManager {
 public:
  /// Recovery/progress counters, published as ckpt.* metrics after the run.
  struct Counters {
    std::uint64_t wal_records_appended = 0;
    std::uint64_t wal_records_verified = 0;  ///< replay matched durable prefix
    std::uint64_t wal_torn_bytes = 0;        ///< torn tail truncated on open
    std::uint64_t stale_tmp_removed = 0;     ///< mid-write kill leftovers
  };

  /// Opens `cfg.dir` (created if missing) for the scenario identified by
  /// `fingerprint`.  `cfg` must be enabled.
  CheckpointManager(CheckpointConfig cfg, std::uint64_t fingerprint);

  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

  /// Times this run has been resumed, this attempt included.
  [[nodiscard]] std::uint64_t resume_count() const noexcept { return resume_count_; }
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }

  /// Record tap: verifies `rec` against the durable WAL prefix while the
  /// replay is inside it (throwing on any byte of divergence), appends past
  /// it.
  void on_record(const FlowRecord& rec);

  /// Completes the attempt: proves the replay covered the whole durable
  /// prefix, finalizes the WAL (marker, drain, fdatasync), and rewrites the
  /// lineage manifest as finished.
  void finalize();

 private:
  [[nodiscard]] std::string wal_path() const;
  [[nodiscard]] std::string lineage_path() const;
  void recover();
  void write_lineage(bool finished);

  CheckpointConfig cfg_;
  std::uint64_t fingerprint_ = 0;
  std::int64_t slow_ns_ = 0;  ///< DCT_CKPT_TEST_SLOW_NS crash-window widener
  std::unique_ptr<TraceWal> wal_;
  std::uint64_t resume_count_ = 0;
  std::uint64_t emitted_ = 0;  ///< verified replays + new appends
  Counters counters_;
};

}  // namespace dct::ckpt
