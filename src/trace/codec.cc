#include "trace/codec.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/require.h"

namespace dct {
namespace {

// Module-level metric handles (the codec entry points are free functions).
struct CodecMetrics {
  obs::Histogram* encode_wall_ns = nullptr;
  obs::Counter* encoded_bytes = nullptr;
  obs::Histogram* decode_wall_ns = nullptr;
  obs::Counter* decoded_bytes = nullptr;
};
CodecMetrics g_codec_metrics;

}  // namespace

void bind_codec_metrics(obs::Registry* registry) {
  if (registry == nullptr) {
    g_codec_metrics = CodecMetrics{};
    return;
  }
  g_codec_metrics.encode_wall_ns = registry->histogram("trace", "encode_wall_ns", "ns");
  g_codec_metrics.encoded_bytes = registry->counter("trace", "encoded_bytes", "bytes");
  g_codec_metrics.decode_wall_ns = registry->histogram("trace", "decode_wall_ns", "ns");
  g_codec_metrics.decoded_bytes = registry->counter("trace", "decoded_bytes", "bytes");
}

void ByteWriter::uvarint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::svarint(std::int64_t v) {
  // Zig-zag: small magnitudes of either sign stay small.
  uvarint((static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63));
}

std::int64_t ByteWriter::quantize_time(double seconds) {
  return static_cast<std::int64_t>(std::llround(seconds * 1e6));
}

double ByteWriter::dequantize_time(std::int64_t us) {
  return static_cast<double>(us) * 1e-6;
}

std::uint8_t ByteReader::u8() {
  require(pos_ < data_.size(), "ByteReader: underrun");
  return data_[pos_++];
}

std::uint64_t ByteReader::uvarint() {
  std::uint64_t out = 0;
  int shift = 0;
  for (;;) {
    require(pos_ < data_.size(), "ByteReader: underrun in varint");
    const std::uint8_t b = data_[pos_++];
    require(shift < 64, "ByteReader: varint too long");
    out |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return out;
    shift += 7;
  }
}

std::int64_t ByteReader::svarint() {
  const std::uint64_t z = uvarint();
  return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

void ByteReader::skip(std::size_t n) {
  require(n <= remaining(), "ByteReader: skip past end");
  pos_ += n;
}

namespace {

constexpr std::uint8_t kLogMagic = 0xD7;
constexpr std::uint8_t kTraceMagic = 0xDC;
// The one trace layout: magic, version, server count, duration, one
// length-prefixed log per server, then every application-log section as a
// count followed by its records — jobs, phases, read failures, evacuations,
// device failures, degradations, cascades, telemetry gaps.  An empty section
// costs its one count byte.  The decoder accepts only this version.
constexpr std::uint8_t kTraceVersion = 5;

// A corrupt count field must not drive a multi-gigabyte reserve() or a
// billion-iteration decode loop.  Every record of every section costs at
// least one byte on the wire, so a claimed count larger than the bytes
// left is malformed input, not a short read.
void check_count(std::uint64_t n, std::size_t remaining, const char* what) {
  require(n <= remaining, what);
}

// Delta fields from a corrupted payload must not overflow (signed overflow
// is UB, which a sanitized build turns into an abort); a sum that does not
// fit in 64 bits is malformed input, reported like any other decode error.
std::int64_t checked_add(std::int64_t a, std::int64_t b, const char* what) {
  std::int64_t out = 0;
  require(!__builtin_add_overflow(a, b, &out), what);
  return out;
}

// Packs the three flags + direction + kind into one byte.
std::uint8_t pack_flags(const SocketFlowLog& f) {
  std::uint8_t b = static_cast<std::uint8_t>(f.kind);  // 0..7 -> low 3 bits
  if (f.direction == SocketDirection::kRecv) b |= 0x08;
  if (f.failed) b |= 0x10;
  if (f.truncated) b |= 0x20;
  return b;
}

void unpack_flags(std::uint8_t b, SocketFlowLog& f) {
  f.kind = static_cast<FlowKind>(b & 0x07);
  f.direction = (b & 0x08) ? SocketDirection::kRecv : SocketDirection::kSend;
  f.failed = (b & 0x10) != 0;
  f.truncated = (b & 0x20) != 0;
}

// The one server-log encoder.  `flows` is a decoded upload's vector or a
// ClusterTrace's ServerLogView: anything with size() and operator[].
template <typename Flows>
std::vector<std::uint8_t> encode_log(ServerId server, const Flows& flows) {
  ByteWriter w;
  w.u8(kLogMagic);
  w.svarint(server.value());
  w.uvarint(flows.size());

  // Delta state.  Logs finalize in end-time order, so delta-encoding end
  // times yields tiny non-negative values; start is encoded relative to end
  // (a small negative = -duration); ids are near-monotonic.
  std::int64_t prev_end = 0;
  std::int64_t prev_flow = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const SocketFlowLog f = flows[i];
    const std::int64_t end_us = ByteWriter::quantize_time(f.end);
    const std::int64_t start_us = ByteWriter::quantize_time(f.start);
    w.svarint(end_us - prev_end);
    prev_end = end_us;
    w.svarint(start_us - end_us);
    w.svarint(f.flow.value() - prev_flow);
    prev_flow = f.flow.value();
    w.svarint(f.peer.value());
    w.uvarint(static_cast<std::uint64_t>(f.bytes));
    // Requested == transferred for the common (successful) case; encode the
    // difference so it costs one byte normally.
    w.svarint(f.bytes_requested - f.bytes);
    w.svarint(f.job.value());
    w.svarint(f.phase.value());
    w.u8(pack_flags(f));
  }
  return w.take();
}

}  // namespace

std::vector<std::uint8_t> encode_server_log(const ServerLog& log) {
  return encode_log(log.server, log.flows);
}

ServerLog decode_server_log(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  ServerLog out;
  require(r.u8() == kLogMagic, "decode_server_log: bad magic");
  out.server = ServerId{static_cast<std::int32_t>(r.svarint())};
  const std::uint64_t n = r.uvarint();
  check_count(n, r.remaining(), "decode_server_log: flow count exceeds payload");
  out.flows.reserve(n);
  std::int64_t prev_end = 0;
  std::int64_t prev_flow = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    SocketFlowLog f;
    f.local = out.server;
    const std::int64_t end_us =
        checked_add(prev_end, r.svarint(), "decode_server_log: end-time overflow");
    const std::int64_t start_us =
        checked_add(end_us, r.svarint(), "decode_server_log: start-time overflow");
    f.end = ByteWriter::dequantize_time(end_us);
    f.start = ByteWriter::dequantize_time(start_us);
    f.flow = FlowId{static_cast<std::int32_t>(
        checked_add(prev_flow, r.svarint(), "decode_server_log: flow-id overflow"))};
    f.peer = ServerId{static_cast<std::int32_t>(r.svarint())};
    f.bytes = static_cast<Bytes>(r.uvarint());
    f.bytes_requested =
        checked_add(f.bytes, r.svarint(), "decode_server_log: byte-count overflow");
    require(f.bytes >= 0 && f.bytes_requested >= 0,
            "decode_server_log: negative byte count");
    f.job = JobId{static_cast<std::int32_t>(r.svarint())};
    f.phase = PhaseId{static_cast<std::int32_t>(r.svarint())};
    unpack_flags(r.u8(), f);
    prev_end = end_us;
    prev_flow = f.flow.value();
    out.flows.push_back(f);
  }
  return out;
}

std::size_t raw_encoding_size(std::size_t records) noexcept {
  // A naive dump writes each record as fixed-width fields:
  //   flow id 4, local 4, peer 4, dir/flags/kind 1, start 8, end 8,
  //   bytes 8, bytes_requested 8, job 4, phase 4  = 53 bytes.
  constexpr std::size_t kRawRecord = 53;
  return 16 + records * kRawRecord;
}

std::vector<std::uint8_t> encode_trace(const ClusterTrace& trace) {
  const obs::ScopedTimer obs_timer(g_codec_metrics.encode_wall_ns);
  ByteWriter w;
  w.u8(kTraceMagic);
  w.u8(kTraceVersion);
  w.svarint(trace.server_count());
  w.time_us(trace.duration());

  for (std::int32_t s = 0; s < trace.server_count(); ++s) {
    const auto encoded = encode_log(ServerId{s}, trace.server_log(ServerId{s}));
    w.uvarint(encoded.size());
    w.append(encoded);
  }

  w.uvarint(trace.jobs().size());
  for (const JobLogRecord& j : trace.jobs()) {
    w.svarint(j.job.value());
    w.time_us(j.submit);
    w.time_us(j.start);
    w.time_us(j.end);
    w.u8(static_cast<std::uint8_t>((j.completed ? 1 : 0) | (j.failed ? 2 : 0)));
    w.svarint(j.phases);
    w.uvarint(static_cast<std::uint64_t>(j.input_bytes));
  }
  w.uvarint(trace.phase_logs().size());
  for (const PhaseLogRecord& p : trace.phase_logs()) {
    w.svarint(p.job.value());
    w.svarint(p.phase.value());
    w.u8(static_cast<std::uint8_t>(p.kind));
    w.time_us(p.start);
    w.time_us(p.end);
    w.svarint(p.vertices);
    w.uvarint(static_cast<std::uint64_t>(p.bytes_in));
    w.uvarint(static_cast<std::uint64_t>(p.bytes_out));
  }
  w.uvarint(trace.read_failures().size());
  for (const ReadFailureRecord& rf : trace.read_failures()) {
    w.time_us(rf.time);
    w.svarint(rf.job.value());
    w.svarint(rf.phase.value());
    w.svarint(rf.reader.value());
    w.svarint(rf.source.value());
    w.u8(rf.fatal ? 1 : 0);
  }
  w.uvarint(trace.evacuations().size());
  for (const EvacuationRecord& e : trace.evacuations()) {
    w.time_us(e.start);
    w.time_us(e.end);
    w.svarint(e.server.value());
    w.uvarint(static_cast<std::uint64_t>(e.bytes_moved));
    w.svarint(e.blocks_moved);
  }
  w.uvarint(trace.device_failures().size());
  for (const DeviceFailureRecord& d : trace.device_failures()) {
    w.time_us(d.start);
    w.time_us(d.end);
    w.u8(static_cast<std::uint8_t>(d.device));
    w.svarint(d.entity);
    w.svarint(d.flows_killed);
    w.svarint(d.flows_rerouted);
  }
  w.uvarint(trace.degradations().size());
  for (const DegradationRecord& d : trace.degradations()) {
    w.time_us(d.start);
    w.time_us(d.end);
    w.u8(static_cast<std::uint8_t>(d.kind));
    w.svarint(d.entity);
    // Severity quantized to 1e-6, same resolution as timestamps.
    w.svarint(std::llround(d.severity * 1e6));
    w.time_us(d.period);
  }
  w.uvarint(trace.cascades().size());
  for (const CascadeRecord& c : trace.cascades()) {
    w.time_us(c.start);
    w.time_us(c.end);
    w.svarint(c.link);
    w.svarint(c.depth);
    // Severity / utilization quantized to 1e-6, like timestamps.
    w.svarint(std::llround(c.severity * 1e6));
    w.svarint(std::llround(c.utilization * 1e6));
  }
  w.uvarint(trace.gaps().size());
  for (const GapRecord& g : trace.gaps()) {
    w.time_us(g.start);
    w.time_us(g.end);
    w.svarint(g.server.value());
    w.u8(static_cast<std::uint8_t>(g.cause));
    w.uvarint(static_cast<std::uint64_t>(std::max<std::int32_t>(g.records_lost, 0)));
  }
  DCT_OBS_ADD(g_codec_metrics.encoded_bytes, w.size());
  return w.take();
}

ClusterTrace decode_trace(std::span<const std::uint8_t> data) {
  DCT_OBS_ADD(g_codec_metrics.decoded_bytes, data.size());
  const obs::ScopedTimer obs_timer(g_codec_metrics.decode_wall_ns);
  ByteReader r(data);
  require(r.u8() == kTraceMagic, "decode_trace: bad magic");
  require(r.u8() == kTraceVersion, "decode_trace: unsupported version");
  const auto servers = static_cast<std::int32_t>(r.svarint());
  require(servers >= 0, "decode_trace: negative server count");
  check_count(static_cast<std::uint64_t>(servers), r.remaining(),
              "decode_trace: server count exceeds payload");
  const TimeSec duration = r.time_us();
  ClusterTrace trace(servers, duration);

  // One pass per server: read the segment's length, decode it, ingest it,
  // so only one server's decoded log is held at a time.  Errors surface in
  // server order: an earlier server's decode, naming or record_flow error
  // comes before a later server's framing error.
  for (std::int32_t s = 0; s < servers; ++s) {
    const std::uint64_t len = r.uvarint();
    require(len <= r.remaining(), "decode_trace: truncated server log");
    const ServerLog log =
        decode_server_log(data.subspan(r.position(), static_cast<std::size_t>(len)));
    r.skip(static_cast<std::size_t>(len));
    // Every entry's `local` comes from the segment's header, so a header
    // naming another server would move this slot's flows there.
    if (log.server != ServerId{s}) {
      require(false, "decode_trace: server log " + std::to_string(s) + " names server " +
                         std::to_string(log.server.value()));
    }
    for (const SocketFlowLog& f : log.flows) {
      if (f.direction != SocketDirection::kSend) continue;
      FlowRecord rec;
      rec.id = f.flow;
      rec.src = f.local;
      rec.dst = f.peer;
      rec.bytes_requested = f.bytes_requested;
      rec.bytes_sent = f.bytes;
      rec.start = f.start;
      rec.end = f.end;
      rec.failed = f.failed;
      rec.truncated = f.truncated;
      rec.job = f.job;
      rec.phase = f.phase;
      rec.kind = f.kind;
      trace.record_flow(rec);
    }
  }

  const std::uint64_t n_jobs = r.uvarint();
  check_count(n_jobs, r.remaining(), "decode_trace: job count exceeds payload");
  for (std::uint64_t i = 0; i < n_jobs; ++i) {
    JobLogRecord j;
    j.job = JobId{static_cast<std::int32_t>(r.svarint())};
    j.submit = r.time_us();
    j.start = r.time_us();
    j.end = r.time_us();
    const std::uint8_t flags = r.u8();
    j.completed = (flags & 1) != 0;
    j.failed = (flags & 2) != 0;
    j.phases = static_cast<std::int32_t>(r.svarint());
    j.input_bytes = static_cast<Bytes>(r.uvarint());
    trace.record_job(j);
  }
  const std::uint64_t n_phases = r.uvarint();
  check_count(n_phases, r.remaining(), "decode_trace: phase count exceeds payload");
  for (std::uint64_t i = 0; i < n_phases; ++i) {
    PhaseLogRecord p;
    p.job = JobId{static_cast<std::int32_t>(r.svarint())};
    p.phase = PhaseId{static_cast<std::int32_t>(r.svarint())};
    const std::uint8_t kind = r.u8();
    require(kind <= static_cast<std::uint8_t>(PhaseKind::kOutput),
            "decode_trace: bad phase kind");
    p.kind = static_cast<PhaseKind>(kind);
    p.start = r.time_us();
    p.end = r.time_us();
    p.vertices = static_cast<std::int32_t>(r.svarint());
    p.bytes_in = static_cast<Bytes>(r.uvarint());
    p.bytes_out = static_cast<Bytes>(r.uvarint());
    trace.record_phase(p);
  }
  const std::uint64_t n_rf = r.uvarint();
  check_count(n_rf, r.remaining(), "decode_trace: read-failure count exceeds payload");
  for (std::uint64_t i = 0; i < n_rf; ++i) {
    ReadFailureRecord rf;
    rf.time = r.time_us();
    rf.job = JobId{static_cast<std::int32_t>(r.svarint())};
    rf.phase = PhaseId{static_cast<std::int32_t>(r.svarint())};
    rf.reader = ServerId{static_cast<std::int32_t>(r.svarint())};
    rf.source = ServerId{static_cast<std::int32_t>(r.svarint())};
    rf.fatal = r.u8() != 0;
    trace.record_read_failure(rf);
  }
  const std::uint64_t n_ev = r.uvarint();
  check_count(n_ev, r.remaining(), "decode_trace: evacuation count exceeds payload");
  for (std::uint64_t i = 0; i < n_ev; ++i) {
    EvacuationRecord e;
    e.start = r.time_us();
    e.end = r.time_us();
    e.server = ServerId{static_cast<std::int32_t>(r.svarint())};
    e.bytes_moved = static_cast<Bytes>(r.uvarint());
    e.blocks_moved = static_cast<std::int32_t>(r.svarint());
    trace.record_evacuation(e);
  }
  const std::uint64_t n_df = r.uvarint();
  check_count(n_df, r.remaining(),
              "decode_trace: device-failure count exceeds payload");
  for (std::uint64_t i = 0; i < n_df; ++i) {
    DeviceFailureRecord d;
    d.start = r.time_us();
    d.end = r.time_us();
    const std::uint8_t kind = r.u8();
    require(kind <= static_cast<std::uint8_t>(DeviceKind::kLink),
            "decode_trace: bad device kind");
    d.device = static_cast<DeviceKind>(kind);
    d.entity = static_cast<std::int32_t>(r.svarint());
    d.flows_killed = static_cast<std::int32_t>(r.svarint());
    d.flows_rerouted = static_cast<std::int32_t>(r.svarint());
    trace.record_device_failure(d);
  }
  const std::uint64_t n_dg = r.uvarint();
  check_count(n_dg, r.remaining(),
              "decode_trace: degradation count exceeds payload");
  for (std::uint64_t i = 0; i < n_dg; ++i) {
    DegradationRecord d;
    d.start = r.time_us();
    d.end = r.time_us();
    const std::uint8_t kind = r.u8();
    require(kind <= static_cast<std::uint8_t>(DegradationKind::kServerStraggler),
            "decode_trace: bad degradation kind");
    d.kind = static_cast<DegradationKind>(kind);
    d.entity = static_cast<std::int32_t>(r.svarint());
    d.severity = static_cast<double>(r.svarint()) * 1e-6;
    d.period = r.time_us();
    trace.record_degradation(d);
  }
  const std::uint64_t n_cs = r.uvarint();
  check_count(n_cs, r.remaining(), "decode_trace: cascade count exceeds payload");
  for (std::uint64_t i = 0; i < n_cs; ++i) {
    CascadeRecord c;
    c.start = r.time_us();
    c.end = r.time_us();
    c.link = static_cast<std::int32_t>(r.svarint());
    c.depth = static_cast<std::int32_t>(r.svarint());
    require(c.depth >= 1, "decode_trace: cascade depth must be >= 1");
    c.severity = static_cast<double>(r.svarint()) * 1e-6;
    c.utilization = static_cast<double>(r.svarint()) * 1e-6;
    trace.record_cascade(c);
  }
  const std::uint64_t n_gaps = r.uvarint();
  check_count(n_gaps, r.remaining(), "decode_trace: gap count exceeds payload");
  for (std::uint64_t i = 0; i < n_gaps; ++i) {
    GapRecord g;
    g.start = r.time_us();
    g.end = r.time_us();
    g.server = ServerId{static_cast<std::int32_t>(r.svarint())};
    const std::uint8_t cause = r.u8();
    require(cause <= static_cast<std::uint8_t>(GapCause::kUploadTruncated),
            "decode_trace: bad gap cause");
    g.cause = static_cast<GapCause>(cause);
    const std::uint64_t lost = r.uvarint();
    require(lost <= static_cast<std::uint64_t>(std::numeric_limits<std::int32_t>::max()),
            "decode_trace: gap records_lost overflows");
    g.records_lost = static_cast<std::int32_t>(lost);
    trace.record_gap(g);
  }
  trace.build_indices();
  return trace;
}

}  // namespace dct
