// §2 table: cost of the server-centric instrumentation.
//
// The paper reports that turning on ETW costs a median +1-2% CPU, a small
// disk-utilization increase, a few extra CPU cycles per byte of network
// traffic, and that compressing logs before upload cuts the measurement
// infrastructure's bandwidth by a large factor.  This google-benchmark
// binary measures our analogues: per-flow collection cost, encode/decode
// throughput, and the compression ratio of the delta+varint codec.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "trace/cluster_trace.h"
#include "trace/codec.h"

namespace {

dct::ServerLog make_log(std::size_t flows) {
  dct::Rng rng(99);
  dct::ServerLog log;
  log.server = dct::ServerId{1};
  double end = 0;
  for (std::size_t i = 0; i < flows; ++i) {
    dct::SocketFlowLog f;
    f.flow = dct::FlowId{static_cast<std::int32_t>(i)};
    f.local = log.server;
    f.peer = dct::ServerId{static_cast<std::int32_t>(rng.uniform_int(0, 499))};
    f.direction = rng.bernoulli(0.5) ? dct::SocketDirection::kSend
                                     : dct::SocketDirection::kRecv;
    end += rng.exponential(0.01);
    f.end = end;
    f.start = end - rng.uniform(0.001, 10.0);
    f.bytes = rng.uniform_int(1000, 256'000'000);
    f.bytes_requested = f.bytes;
    f.job = dct::JobId{static_cast<std::int32_t>(rng.uniform_int(0, 100))};
    f.phase = dct::PhaseId{static_cast<std::int32_t>(rng.uniform_int(0, 400))};
    f.kind = static_cast<dct::FlowKind>(rng.uniform_int(0, 7));
    log.flows.push_back(f);
  }
  return log;
}

void BM_CollectFlowRecord(benchmark::State& state) {
  dct::ClusterTrace trace(500, 1e9);
  dct::Rng rng(1);
  dct::FlowRecord rec;
  rec.bytes_requested = rec.bytes_sent = 1'000'000;
  rec.start = 0;
  rec.end = 1;
  std::int32_t i = 0;
  for (auto _ : state) {
    rec.id = dct::FlowId{i};
    rec.src = dct::ServerId{static_cast<std::int32_t>(rng.uniform_int(0, 499))};
    rec.dst = dct::ServerId{static_cast<std::int32_t>((rec.src.value() + 7) % 500)};
    trace.record_flow(rec);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["bytes/record"] = benchmark::Counter(
      0, benchmark::Counter::kDefaults);  // storage cost reported by codec benches
}
BENCHMARK(BM_CollectFlowRecord);

void BM_EncodeServerLog(benchmark::State& state) {
  const auto log = make_log(static_cast<std::size_t>(state.range(0)));
  std::size_t encoded_size = 0;
  for (auto _ : state) {
    const auto bytes = dct::encode_server_log(log);
    encoded_size = bytes.size();
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["encoded_bytes/flow"] =
      static_cast<double>(encoded_size) / static_cast<double>(state.range(0));
  state.counters["compression_vs_raw"] =
      static_cast<double>(dct::raw_encoding_size(log.flows.size())) /
      static_cast<double>(encoded_size);
}
BENCHMARK(BM_EncodeServerLog)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_DecodeServerLog(benchmark::State& state) {
  const auto log = make_log(static_cast<std::size_t>(state.range(0)));
  const auto encoded = dct::encode_server_log(log);
  for (auto _ : state) {
    const auto back = dct::decode_server_log(encoded);
    benchmark::DoNotOptimize(back.flows.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecodeServerLog)->Arg(1000)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
