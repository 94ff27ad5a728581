// Write-ahead trace spool (docs/CHECKPOINT.md).
//
// Flow records stream into a single append-only WAL segment as the
// simulator finalizes them, each framed as
//
//   [tag u8][payload-length uvarint][payload][FNV-1a(payload) u64le]
//
// after a fixed header binding the file to one scenario.  Frames collect in
// a fixed append buffer; a drain (the buffer filling up, or finalize) is
// one write plus one fdatasync, the WAL's only durability barrier, so a
// crash loses at most one buffer of frames.  A crash can cut the file
// anywhere; on reopen the scan accepts the longest prefix of whole,
// checksum-valid frames and truncates the torn tail: a frame the crash cut
// short was never durable, so dropping it loses nothing a drain promised.
// A finalize marker closes a completed run's WAL; a reopened WAL without one
// is, by definition, a crashed run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/fnv.h"
#include "common/units.h"
#include "flowsim/flowsim.h"

namespace dct::ckpt {

/// Serializes one FlowRecord as a WAL frame payload.  Times are IEEE-754
/// bit patterns: the WAL is a bit-exactness witness, not a compressed
/// archive, so nothing is quantized.
[[nodiscard]] std::vector<std::uint8_t> encode_wal_record(const FlowRecord& rec);

/// Append-side handle on the WAL segment of one checkpoint directory.
///
/// Opening scans any existing file: the valid frame prefix becomes the
/// durable record list (per-frame payload hashes, for replay verification),
/// and a torn tail — a frame cut mid-write or failing its checksum — is
/// truncated off before the file is reopened for append.  A header that
/// does not match the caller's scenario identity throws: a WAL never
/// continues a different experiment.
class TraceWal {
 public:
  /// Opens (or creates) `path` for the scenario identified by
  /// `fingerprint`.  `slow_ns`, when > 0, writes every 8th frame and the
  /// finalize marker as raw unbuffered half-writes separated by that many
  /// nanoseconds — the crash harness's hook for landing SIGKILLs
  /// mid-WAL-append; 0 (the default) streams through the append buffer.
  TraceWal(std::string path, std::uint64_t fingerprint, std::int64_t slow_ns = 0);
  /// Drains what is still buffered, best effort; never throws.
  ~TraceWal();
  TraceWal(const TraceWal&) = delete;
  TraceWal& operator=(const TraceWal&) = delete;

  /// Appends one record frame (buffered; durable once the buffer drains).
  /// Throws dct::Error, naming the path and the OS error, when a drain
  /// fails.
  void append(const FlowRecord& rec);
  /// Appends the finalize marker for a completed run — the count and the
  /// chained hash of every record in the file — and drains.  A no-op on a
  /// WAL that is already finalized.
  void finalize();

  // --- State recovered by the opening scan --------------------------------
  /// Payload hashes of the frames that survived the scan, in order.
  /// Appends made after the open are not added.
  [[nodiscard]] const std::vector<std::uint64_t>& durable_hashes() const noexcept {
    return durable_hashes_;
  }
  /// Bytes of valid prefix the scan kept (header + whole frames), or the
  /// header alone for a fresh WAL.  Appends made after the open are not
  /// added.
  [[nodiscard]] std::uint64_t durable_bytes() const noexcept { return valid_bytes_; }
  /// True when the scan cut a torn tail off the file.
  [[nodiscard]] bool truncated_tail() const noexcept { return truncated_tail_; }
  /// Bytes the truncation discarded (0 when the tail was clean).
  [[nodiscard]] std::uint64_t truncated_bytes() const noexcept {
    return truncated_bytes_;
  }
  /// True when the scan found a finalize marker (the run had completed).
  [[nodiscard]] bool finalized() const noexcept { return finalized_; }
  /// True when the file existed before this open (a resume, not a fresh
  /// run).
  [[nodiscard]] bool resumed_existing() const noexcept { return resumed_existing_; }

 private:
  /// Completes the frame whose `len`-byte payload sits at `frame + 2` (tag,
  /// length, trailing hash) and appends it.
  void write_frame(std::uint8_t tag, std::uint8_t* frame, std::size_t len,
                   std::uint64_t hash);
  void scan_existing(const std::vector<std::uint8_t>& bytes);
  /// The durability barrier: writes the append buffer, then fdatasyncs.
  void drain_buffer();

  std::string path_;
  std::uint64_t fingerprint_ = 0;
  std::int64_t slow_ns_ = 0;
  int fd_ = -1;
  /// Owned append buffer (drained when full and at finalize): the WAL
  /// spools one frame per finalized flow on the simulator's hot path, so
  /// the per-record cost must be a memcpy, not a locked stdio call.
  std::vector<std::uint8_t> buffer_;
  std::vector<std::uint64_t> durable_hashes_;
  /// Chained FNV-1a over every record payload in the file, the durable
  /// prefix and this open's appends alike.
  std::uint64_t chain_ = kFnvOffset;
  std::uint64_t valid_bytes_ = 0;
  std::uint64_t truncated_bytes_ = 0;
  std::uint64_t records_appended_ = 0;  ///< since this open
  bool truncated_tail_ = false;
  bool finalized_ = false;
  bool resumed_existing_ = false;
};

}  // namespace dct::ckpt
