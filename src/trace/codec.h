// Binary codec for cluster traces.
//
// The paper's collectors parse ETW events locally and upload compressed
// logs ("compression reduces the network bandwidth used by the measurement
// infrastructure by at least an order of magnitude").  This codec plays that
// role: per-server socket logs are serialized with variable-length integers,
// zig-zag signing and per-field delta encoding — the semantic compression
// that makes flow logs small — and the ratio against a fixed-width record
// dump is reported by the instrumentation-overhead benchmark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "obs/obs.h"
#include "trace/cluster_trace.h"

namespace dct {

/// Append-only byte buffer with varint primitives.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  /// Unsigned LEB128.
  void uvarint(std::uint64_t v);
  /// Zig-zag signed LEB128.
  void svarint(std::int64_t v);
  /// Time quantized to integer microseconds (zig-zag varint).
  void time_us(double seconds) { svarint(quantize_time(seconds)); }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept { return buf_; }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }

  /// Microsecond quantization used by time_us (exposed for delta encoding).
  static std::int64_t quantize_time(double seconds);
  static double dequantize_time(std::int64_t us);

 private:
  std::vector<std::uint8_t> buf_;
};

/// Sequential reader over an encoded buffer; throws dct::Error on underrun
/// or malformed varints.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint64_t uvarint();
  std::int64_t svarint();
  double time_us() { return ByteWriter::dequantize_time(svarint()); }
  /// Advances past `n` bytes (throws on underrun).  Used with position() to
  /// slice length-prefixed segments as subspans without copying.
  void skip(std::size_t n);
  /// Bytes consumed so far.
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Serializes one server's socket log (delta-encoded).
[[nodiscard]] std::vector<std::uint8_t> encode_server_log(const ServerLog& log);
/// Inverse of encode_server_log.
[[nodiscard]] ServerLog decode_server_log(std::span<const std::uint8_t> data);

/// Salvaging variant for truncated uploads: decodes as many whole records
/// as the payload holds and reports whether the segment was complete.
/// Returns false (and a partial log) where decode_server_log would throw on
/// underrun; structural corruption (bad magic, malformed varints inside an
/// intact prefix) still throws.
bool decode_server_log_salvage(std::span<const std::uint8_t> data, ServerLog& out);

/// Size of the naive fixed-width binary dump of the same log, the baseline
/// the compression ratio is quoted against.
[[nodiscard]] std::size_t raw_encoding_size(const ServerLog& log) noexcept;

/// Serializes an entire ClusterTrace (all server logs + application logs)
/// in the one sectioned layout (version byte 5): every section — device
/// failures, degradations, cascades and telemetry gaps included — is
/// written as a count plus its records, even when empty.
[[nodiscard]] std::vector<std::uint8_t> encode_trace(const ClusterTrace& trace);
/// Inverse of encode_trace.  Any version byte other than 5 throws
/// "decode_trace: unsupported version".
[[nodiscard]] ClusterTrace decode_trace(std::span<const std::uint8_t> data);

/// Decoder hardening knobs for payloads that passed through a lossy
/// collection pipeline (trace/collector_faults.h).
struct DecodeOptions {
  /// Tolerate truncated per-server segments: salvage every whole record of
  /// a short segment, record a GapCause::kDecodeTruncation gap from the
  /// last decoded record to the horizon, and keep going.  A payload that
  /// ends inside the server section yields full-horizon gaps for the
  /// missing servers and empty application-log sections instead of an
  /// exception.  Structural corruption (bad magic/version, malformed
  /// varints) still throws.
  bool tolerate_truncation = false;
};

/// decode_trace with hardening options.  With default options this is
/// exactly decode_trace(data).
[[nodiscard]] ClusterTrace decode_trace(std::span<const std::uint8_t> data,
                                        const DecodeOptions& options);

/// Registers the codec's metrics (docs/METRICS.md, subsystem "trace") and
/// starts feeding them from every encode_trace / decode_trace call.  The
/// codec entry points are free functions, so the binding is module-level:
/// one registry at a time (the last bound wins); pass nullptr to unbind.
void bind_codec_metrics(obs::Registry* registry);

}  // namespace dct
