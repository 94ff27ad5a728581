#include "trace/codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/fnv.h"
#include "common/require.h"
#include "common/rng.h"

namespace dct {
namespace {

TEST(ByteWriterReader, VarintRoundTrip) {
  ByteWriter w;
  const std::uint64_t values[] = {0, 1, 127, 128, 300, 1ull << 20, 1ull << 40,
                                  ~0ull};
  for (auto v : values) w.uvarint(v);
  ByteReader r(w.bytes());
  for (auto v : values) EXPECT_EQ(r.uvarint(), v);
  EXPECT_TRUE(r.done());
}

TEST(ByteWriterReader, SignedVarintRoundTrip) {
  ByteWriter w;
  const std::int64_t values[] = {0, -1, 1, -64, 63, -1000000, 1000000,
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  for (auto v : values) w.svarint(v);
  ByteReader r(w.bytes());
  for (auto v : values) EXPECT_EQ(r.svarint(), v);
}

TEST(ByteWriterReader, SmallMagnitudesAreOneByte) {
  ByteWriter w;
  w.svarint(-3);
  EXPECT_EQ(w.size(), 1u);
  w.uvarint(100);
  EXPECT_EQ(w.size(), 2u);
}

TEST(ByteWriterReader, TimeQuantizesToMicroseconds) {
  ByteWriter w;
  w.time_us(1.2345678);
  ByteReader r(w.bytes());
  EXPECT_NEAR(r.time_us(), 1.2345678, 1e-6);
}

TEST(ByteReader, UnderrunThrows) {
  ByteWriter w;
  w.u8(0x80);  // truncated varint
  ByteReader r(w.bytes());
  EXPECT_THROW(r.uvarint(), Error);
  ByteReader r2(std::span<const std::uint8_t>{});
  EXPECT_THROW(r2.u8(), Error);
}

ServerLog synthetic_log(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  ServerLog log;
  log.server = ServerId{3};
  TimeSec end = 0;
  for (std::size_t i = 0; i < n; ++i) {
    SocketFlowLog f;
    f.flow = FlowId{static_cast<std::int32_t>(i * 2)};
    f.local = log.server;
    f.peer = ServerId{static_cast<std::int32_t>(rng.uniform_int(0, 200))};
    f.direction = rng.bernoulli(0.5) ? SocketDirection::kSend : SocketDirection::kRecv;
    end += rng.uniform(0.0, 0.5);
    f.end = end;
    f.start = end - rng.uniform(0.0, 20.0);
    f.bytes = rng.uniform_int(0, 300'000'000);
    f.bytes_requested = f.bytes + (rng.bernoulli(0.1) ? rng.uniform_int(1, 1000) : 0);
    f.failed = rng.bernoulli(0.05);
    f.truncated = rng.bernoulli(0.02);
    f.job = rng.bernoulli(0.8) ? JobId{static_cast<std::int32_t>(rng.uniform_int(0, 50))}
                               : JobId{};
    f.phase = f.job.valid() ? PhaseId{static_cast<std::int32_t>(rng.uniform_int(0, 200))}
                            : PhaseId{};
    f.kind = static_cast<FlowKind>(rng.uniform_int(0, 7));
    log.flows.push_back(f);
  }
  return log;
}

TEST(Codec, ServerLogRoundTripIsExact) {
  const ServerLog log = synthetic_log(5, 500);
  const auto encoded = encode_server_log(log);
  const ServerLog back = decode_server_log(encoded);
  EXPECT_EQ(back.server, log.server);
  ASSERT_EQ(back.flows.size(), log.flows.size());
  for (std::size_t i = 0; i < log.flows.size(); ++i) {
    const auto& a = log.flows[i];
    const auto& b = back.flows[i];
    EXPECT_EQ(b.flow, a.flow);
    EXPECT_EQ(b.peer, a.peer);
    EXPECT_EQ(b.direction, a.direction);
    EXPECT_NEAR(b.start, a.start, 1e-6);
    EXPECT_NEAR(b.end, a.end, 1e-6);
    EXPECT_EQ(b.bytes, a.bytes);
    EXPECT_EQ(b.bytes_requested, a.bytes_requested);
    EXPECT_EQ(b.failed, a.failed);
    EXPECT_EQ(b.truncated, a.truncated);
    EXPECT_EQ(b.job, a.job);
    EXPECT_EQ(b.phase, a.phase);
    EXPECT_EQ(b.kind, a.kind);
  }
}

TEST(Codec, CompressesAgainstFixedWidthBaseline) {
  const ServerLog log = synthetic_log(9, 2000);
  const auto encoded = encode_server_log(log);
  const std::size_t raw = raw_encoding_size(log.flows.size());
  // The paper reports an order-of-magnitude reduction from compressing
  // logs; delta+varint semantic compression should cut at least 2x even on
  // this adversarially random log.
  EXPECT_LT(encoded.size() * 2, raw);
}

TEST(Codec, EmptyLogRoundTrips) {
  ServerLog log;
  log.server = ServerId{0};
  const auto back = decode_server_log(encode_server_log(log));
  EXPECT_TRUE(back.flows.empty());
}

TEST(Codec, BadMagicRejected) {
  std::vector<std::uint8_t> junk = {0x00, 0x01, 0x02};
  EXPECT_THROW(decode_server_log(junk), Error);
  EXPECT_THROW(decode_trace(junk), Error);
}

TEST(Codec, FullTraceRoundTrip) {
  ClusterTrace trace(8, 50.0);
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    FlowRecord r;
    r.id = FlowId{i};
    r.src = ServerId{static_cast<std::int32_t>(rng.uniform_int(0, 7))};
    r.dst = ServerId{static_cast<std::int32_t>(rng.uniform_int(0, 7))};
    r.bytes_requested = rng.uniform_int(1, 1'000'000);
    r.bytes_sent = r.bytes_requested;
    r.start = rng.uniform(0, 40);
    r.end = r.start + rng.uniform(0, 9.0);
    r.kind = FlowKind::kBlockRead;
    r.job = JobId{i % 7};
    r.phase = PhaseId{i % 13};
    trace.record_flow(r);
  }
  JobLogRecord j;
  j.job = JobId{1};
  j.submit = 1.5;
  j.start = 1.6;
  j.end = 30.0;
  j.completed = true;
  j.phases = 3;
  j.input_bytes = 123456789;
  trace.record_job(j);
  PhaseLogRecord p;
  p.job = JobId{1};
  p.phase = PhaseId{4};
  p.kind = PhaseKind::kCombine;
  p.start = 2.0;
  p.end = 10.0;
  p.vertices = 13;
  p.bytes_in = 1000;
  p.bytes_out = 500;
  trace.record_phase(p);
  ReadFailureRecord rf;
  rf.time = 3.25;
  rf.job = JobId{1};
  rf.phase = PhaseId{4};
  rf.reader = ServerId{2};
  rf.source = ServerId{5};
  rf.fatal = true;
  trace.record_read_failure(rf);
  EvacuationRecord ev;
  ev.start = 5.0;
  ev.end = 25.0;
  ev.server = ServerId{3};
  ev.bytes_moved = 777;
  ev.blocks_moved = 3;
  trace.record_evacuation(ev);

  const auto encoded = encode_trace(trace);
  const ClusterTrace back = decode_trace(encoded);

  EXPECT_EQ(back.server_count(), trace.server_count());
  EXPECT_NEAR(back.duration(), trace.duration(), 1e-6);
  EXPECT_EQ(back.flow_count(), trace.flow_count());
  EXPECT_EQ(back.total_bytes(), trace.total_bytes());
  for (std::int32_t s = 0; s < trace.server_count(); ++s) {
    EXPECT_EQ(back.server_log(ServerId{s}).size(),
              trace.server_log(ServerId{s}).size());
  }
  ASSERT_EQ(back.jobs().size(), 1u);
  EXPECT_EQ(back.jobs()[0].input_bytes, 123456789);
  EXPECT_TRUE(back.jobs()[0].completed);
  ASSERT_EQ(back.phase_logs().size(), 1u);
  EXPECT_EQ(back.phase_logs()[0].kind, PhaseKind::kCombine);
  EXPECT_EQ(back.phase_logs()[0].vertices, 13);
  ASSERT_EQ(back.read_failures().size(), 1u);
  EXPECT_TRUE(back.read_failures()[0].fatal);
  EXPECT_NEAR(back.read_failures()[0].time, 3.25, 1e-6);
  ASSERT_EQ(back.evacuations().size(), 1u);
  EXPECT_EQ(back.evacuations()[0].bytes_moved, 777);
  // Indices were rebuilt by decode.
  EXPECT_EQ(back.phase_kind(PhaseId{4}), PhaseKind::kCombine);
}

// --- Corrupted and truncated input --------------------------------------------

// A small but fully-featured trace: flows, job/phase/read-failure/
// evacuation sections plus device failures and degradations, so corruption
// can land in every decoder branch.
ClusterTrace corruption_target() {
  ClusterTrace trace(6, 40.0);
  Rng rng(23);
  for (int i = 0; i < 60; ++i) {
    FlowRecord r;
    r.id = FlowId{i};
    r.src = ServerId{static_cast<std::int32_t>(rng.uniform_int(0, 5))};
    r.dst = ServerId{static_cast<std::int32_t>(rng.uniform_int(0, 5))};
    r.bytes_requested = rng.uniform_int(1, 500'000);
    r.bytes_sent = r.bytes_requested;
    r.start = rng.uniform(0, 30);
    r.end = r.start + rng.uniform(0.01, 8.0);
    r.kind = FlowKind::kShuffle;
    r.job = JobId{i % 4};
    r.phase = PhaseId{i % 9};
    trace.record_flow(r);
  }
  JobLogRecord j;
  j.job = JobId{0};
  j.submit = 0.5;
  j.start = 0.6;
  j.end = 22.0;
  j.completed = true;
  trace.record_job(j);
  PhaseLogRecord p;
  p.job = JobId{0};
  p.phase = PhaseId{2};
  p.kind = PhaseKind::kExtract;
  p.start = 1.0;
  p.end = 9.0;
  trace.record_phase(p);
  ReadFailureRecord rf;
  rf.time = 4.0;
  rf.reader = ServerId{1};
  rf.source = ServerId{4};
  trace.record_read_failure(rf);
  EvacuationRecord ev;
  ev.start = 6.0;
  ev.end = 12.0;
  ev.server = ServerId{2};
  trace.record_evacuation(ev);
  DeviceFailureRecord df;
  df.start = 2.0;
  df.end = 5.0;
  df.device = DeviceKind::kLink;
  df.entity = 3;
  trace.record_device_failure(df);
  DegradationRecord dg;
  dg.start = 3.0;
  dg.end = 8.0;
  dg.kind = DegradationKind::kLinkCapacity;
  dg.entity = 1;
  dg.severity = 0.4;
  trace.record_degradation(dg);
  return trace;
}

TEST(CodecCorruption, TruncatedPrefixesThrowCleanly) {
  const auto encoded = encode_trace(corruption_target());
  ASSERT_GT(encoded.size(), 16u);
  // Every strict prefix must be rejected with a decode error — the reader
  // hits an underrun mid-section — never crash or silently succeed.
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    const std::span<const std::uint8_t> prefix(encoded.data(), len);
    EXPECT_THROW(decode_trace(prefix), Error) << "prefix length " << len;
  }
}

// Returns the dct::Error message decode_trace throws on `bytes` ("" if none).
std::string decode_error(const std::vector<std::uint8_t>& bytes) {
  try {
    (void)decode_trace(bytes);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(CodecCorruption, OnlyTheOneFormatVersionDecodes) {
  auto bytes = encode_trace(corruption_target());
  ASSERT_EQ(bytes[1], 5);
  for (const std::uint8_t version : {1, 2, 3, 4, 6}) {
    bytes[1] = version;
    EXPECT_NE(decode_error(bytes).find("decode_trace: unsupported version"),
              std::string::npos)
        << "version byte " << int{version};
  }
}

TEST(CodecCorruption, PhaseKindOutsideTheEnumIsRejected) {
  // Analysis indexes per-phase-kind arrays by this byte, so an unchecked
  // kind would read out of bounds downstream.
  ClusterTrace trace = corruption_target();
  PhaseLogRecord p;
  p.job = JobId{1};
  p.phase = PhaseId{3};
  p.kind = static_cast<PhaseKind>(200);
  trace.record_phase(p);
  EXPECT_NE(decode_error(encode_trace(trace)).find("decode_trace: bad phase kind"),
            std::string::npos);
}

TEST(CodecCorruption, GapCauseOutsideTheEnumIsRejected) {
  // Every gap comes from the merge, which only writes the three causes
  // GapCause names; any other byte is corruption, not an unknown cause.
  ClusterTrace trace = corruption_target();
  trace.record_gap({ServerId{2}, 1.0, 3.0, static_cast<GapCause>(3), 1});
  EXPECT_NE(decode_error(encode_trace(trace)).find("decode_trace: bad gap cause"),
            std::string::npos);
}

TEST(CodecCorruption, SegmentNamingAnotherServerIsRejected) {
  // Every entry's `local` comes from its segment's header, so a header that
  // names server 5 in slot 3 would move slot 3's flows to server 5 and drop
  // those whose peer is 5 as loopback.
  auto bytes = encode_trace(corruption_target());
  ByteReader r(bytes);
  (void)r.u8();       // trace magic
  (void)r.u8();       // version
  (void)r.svarint();  // server count
  (void)r.svarint();  // duration
  for (int s = 0; s < 3; ++s) r.skip(static_cast<std::size_t>(r.uvarint()));
  (void)r.uvarint();  // slot 3's length
  const std::size_t id_at = r.position() + 1;  // past the log magic
  ASSERT_EQ(bytes.at(id_at), 6);  // zig-zag 3
  bytes[id_at] = 10;              // zig-zag 5
  EXPECT_NE(decode_error(bytes).find("decode_trace: server log 3 names server 5"),
            std::string::npos);
}

TEST(CodecCorruption, DeltaOverflowRejected) {
  // Hand-craft server-log payloads whose delta fields sum past INT64_MAX.
  // Layout per flow: svarint end-delta, start-delta, flow-delta, peer,
  // uvarint bytes, svarint requested-delta, job, phase, flags byte.
  ServerLog empty;
  empty.server = ServerId{0};
  const auto header = encode_server_log(empty);
  const std::uint8_t magic = header.at(0);
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

  const auto flow = [](ByteWriter& w, std::int64_t end_delta,
                       std::int64_t bytes, std::int64_t req_delta) {
    w.svarint(end_delta);
    w.svarint(0);  // start
    w.svarint(0);  // flow id
    w.svarint(0);  // peer
    w.uvarint(static_cast<std::uint64_t>(bytes));
    w.svarint(req_delta);
    w.svarint(-1);  // job
    w.svarint(-1);  // phase
    w.u8(0);
  };

  {  // end-time accumulator overflows on the second flow
    ByteWriter w;
    w.u8(magic);
    w.svarint(0);
    w.uvarint(2);
    flow(w, kMax, 0, 0);
    flow(w, kMax, 0, 0);
    EXPECT_THROW(decode_server_log(w.bytes()), Error);
  }
  {  // bytes_requested = bytes + delta overflows
    ByteWriter w;
    w.u8(magic);
    w.svarint(0);
    w.uvarint(1);
    flow(w, 0, kMax, 1);
    EXPECT_THROW(decode_server_log(w.bytes()), Error);
  }
  {  // negative byte count (uvarint wraps the signed field) is rejected
    ByteWriter w;
    w.u8(magic);
    w.svarint(0);
    w.uvarint(1);
    w.svarint(0);
    w.svarint(0);
    w.svarint(0);
    w.svarint(0);
    w.uvarint(~0ull);
    w.svarint(0);
    w.svarint(-1);
    w.svarint(-1);
    w.u8(0);
    EXPECT_THROW(decode_server_log(w.bytes()), Error);
  }
}

// --- Telemetry gap section ----------------------------------------------------

TEST(CodecGaps, GapSectionRoundTripsWithLostRecordCounts) {
  ClusterTrace trace = corruption_target();
  trace.record_gap({ServerId{1}, 5.0, 12.5, GapCause::kCrashTailLoss, 7});
  trace.record_gap({ServerId{1}, 20.0, 25.0, GapCause::kUploadLost, 0});
  trace.record_gap({ServerId{4}, 0.0, 40.0, GapCause::kUploadTruncated, 123456});

  const auto encoded = encode_trace(trace);
  ASSERT_GT(encoded.size(), 2u);
  EXPECT_EQ(encoded[1], 5);  // the gap section needs v5

  const ClusterTrace back = decode_trace(encoded);
  ASSERT_EQ(back.gaps().size(), 3u);
  EXPECT_EQ(back.gaps()[0].server, ServerId{1});
  EXPECT_NEAR(back.gaps()[0].start, 5.0, 1e-6);
  EXPECT_NEAR(back.gaps()[0].end, 12.5, 1e-6);
  EXPECT_EQ(back.gaps()[0].cause, GapCause::kCrashTailLoss);
  EXPECT_EQ(back.gaps()[0].records_lost, 7);
  EXPECT_EQ(back.gaps()[1].records_lost, 0);
  EXPECT_EQ(back.gaps()[2].cause, GapCause::kUploadTruncated);
  EXPECT_EQ(back.gaps()[2].records_lost, 123456);
  EXPECT_DOUBLE_EQ(back.coverage(ServerId{4}), 0.0);
}

TEST(CodecGaps, GapFreeTraceStaysAtPreTelemetryVersion) {
  // A gap-free trace writes an empty gap section and decodes without gaps;
  // a recorded gap adds its record and round-trips.
  const auto clean = encode_trace(corruption_target());
  EXPECT_TRUE(decode_trace(clean).gaps().empty());

  ClusterTrace gapped = corruption_target();
  gapped.record_gap({ServerId{0}, 1.0, 2.0, GapCause::kUploadLost, 1});
  const auto with_gap = encode_trace(gapped);
  EXPECT_GT(with_gap.size(), clean.size());
  EXPECT_EQ(decode_trace(with_gap).gaps().size(), 1u);
}

// Decodes `bytes` and folds the outcome into `fp`: the re-encoded trace on
// success, the error message on failure.  require() prefixes the message
// with file, line and function, so only the text after the last "): " is
// folded.  Returns whether the decode succeeded.
bool fold_decode_outcome(Fingerprint& fp, const std::vector<std::uint8_t>& bytes) {
  try {
    const ClusterTrace back = decode_trace(bytes);
    EXPECT_GE(back.server_count(), 1);
    const auto again = encode_trace(back);
    fp.u64(1).str({reinterpret_cast<const char*>(again.data()), again.size()});
    return true;
  } catch (const Error& e) {
    const std::string what = e.what();
    const auto at = what.rfind("): ");
    fp.u64(0).str(at == std::string::npos ? what : what.substr(at + 3));
    return false;
  }
}

TEST(CodecCorruption, RandomBitFlipsNeverCrash) {
  const auto encoded = encode_trace(corruption_target());
  Rng rng(77);
  Fingerprint strict_fp;
  int rejected = 0, survived = 0;
  for (int trial = 0; trial < 400; ++trial) {
    auto copy = encoded;
    // One to three independent bit flips per trial.
    const int flips = static_cast<int>(rng.uniform_int(1, 3));
    for (int k = 0; k < flips; ++k) {
      const auto byte = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(copy.size()) - 1));
      copy[byte] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    }
    // The only acceptable outcomes are a clean decode error or a decode
    // that happens to still parse; anything else (UB, crash, unbounded
    // allocation, a foreign exception) fails the test.
    if (fold_decode_outcome(strict_fp, copy)) {
      ++survived;
    } else {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected + survived, 400);
  EXPECT_GT(rejected, 0) << "bit flips should usually be detected";
  // Which error each trial surfaces, and every byte a surviving decode
  // yields, are pinned: a decoder rewrite must keep both.
  EXPECT_EQ(strict_fp.value(), 0xfc5d5976c65b51bcULL);
}

}  // namespace
}  // namespace dct
