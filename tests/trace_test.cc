#include "trace/cluster_trace.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/require.h"
#include "core/experiment.h"
#include "flowsim/flowsim.h"
#include "topology/topology.h"
#include "trace/codec.h"

namespace dct {
namespace {

FlowRecord make_record(std::int32_t id, std::int32_t src, std::int32_t dst, Bytes bytes,
                       TimeSec start, TimeSec end) {
  FlowRecord r;
  r.id = FlowId{id};
  r.src = ServerId{src};
  r.dst = ServerId{dst};
  r.bytes_requested = bytes;
  r.bytes_sent = bytes;
  r.start = start;
  r.end = end;
  r.kind = FlowKind::kShuffle;
  return r;
}

TEST(ClusterTrace, RecordsSenderAndReceiverViews) {
  ClusterTrace trace(4, 100.0);
  trace.record_flow(make_record(0, 1, 2, 1000, 0.0, 1.0));
  EXPECT_EQ(trace.flow_count(), 1u);
  EXPECT_EQ(trace.total_bytes(), 1000);
  const auto sender = trace.server_log(ServerId{1});
  ASSERT_EQ(sender.size(), 1u);
  EXPECT_EQ(sender[0].direction, SocketDirection::kSend);
  EXPECT_EQ(sender[0].peer, ServerId{2});
  const auto receiver = trace.server_log(ServerId{2});
  ASSERT_EQ(receiver.size(), 1u);
  EXPECT_EQ(receiver[0].direction, SocketDirection::kRecv);
  EXPECT_EQ(receiver[0].peer, ServerId{1});
  EXPECT_TRUE(trace.server_log(ServerId{0}).empty());
}

TEST(ClusterTrace, LoopbackIsNotASocketEvent) {
  ClusterTrace trace(4, 100.0);
  trace.record_flow(make_record(0, 2, 2, 1000, 0.0, 1.0));
  EXPECT_EQ(trace.flow_count(), 0u);
  EXPECT_TRUE(trace.server_log(ServerId{2}).empty());
}

TEST(ClusterTrace, RejectsOutOfRangeServers) {
  ClusterTrace trace(4, 100.0);
  EXPECT_THROW(trace.record_flow(make_record(0, 1, 9, 10, 0, 1)), Error);
  EXPECT_THROW((void)trace.server_log(ServerId{99}), Error);
  EXPECT_THROW(ClusterTrace(0, 100.0), Error);
  EXPECT_THROW(ClusterTrace(4, 0.0), Error);
}

auto fields(const SocketFlowLog& f) {
  return std::tuple(f.flow, f.local, f.peer, f.direction, f.start, f.end, f.bytes,
                    f.bytes_requested, f.failed, f.truncated, f.job, f.phase, f.kind);
}

// Rebuilds every server's log from flows() alone, in flows() order: a send
// entry at the flow's sender, and at its receiver the same record with the
// endpoints swapped and direction kRecv.  Then compares every field with
// the trace's own view of that server's log.
void expect_logs_rebuilt_from_flows(const ClusterTrace& trace) {
  std::vector<std::vector<SocketFlowLog>> expected(
      static_cast<std::size_t>(trace.server_count()));
  for (const SocketFlowLog& f : trace.flows()) {
    ASSERT_EQ(f.direction, SocketDirection::kSend);
    expected[static_cast<std::size_t>(f.local.value())].push_back(f);
    SocketFlowLog recv = f;
    recv.local = f.peer;
    recv.peer = f.local;
    recv.direction = SocketDirection::kRecv;
    expected[static_cast<std::size_t>(f.peer.value())].push_back(recv);
  }
  for (std::int32_t s = 0; s < trace.server_count(); ++s) {
    const ServerLogView log = trace.server_log(ServerId{s});
    const auto& want = expected[static_cast<std::size_t>(s)];
    EXPECT_EQ(log.server(), ServerId{s});
    EXPECT_EQ(log.empty(), want.empty());
    ASSERT_EQ(log.size(), want.size()) << "server " << s;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(fields(log[i]), fields(want[i])) << "server " << s << " entry " << i;
    }
  }
}

TEST(ClusterTrace, ServerLogIsEachFlowSeenFromBothEnds) {
  ClusterExperiment exp(scenarios::fault_storm(120.0, 42));
  exp.run();
  ASSERT_GT(exp.trace().flow_count(), 0u);
  expect_logs_rebuilt_from_flows(exp.trace());
  // The decoded trace records the send entries server by server, so its
  // flows() order differs; its logs must still be views of its flows.
  expect_logs_rebuilt_from_flows(decode_trace(encode_trace(exp.trace())));
}

TEST(ClusterTrace, PhaseKindJoin) {
  ClusterTrace trace(4, 100.0);
  PhaseLogRecord p;
  p.job = JobId{0};
  p.phase = PhaseId{7};
  p.kind = PhaseKind::kAggregate;
  trace.record_phase(p);
  // Works by linear scan before indices are built...
  EXPECT_EQ(trace.phase_kind(PhaseId{7}), PhaseKind::kAggregate);
  EXPECT_EQ(trace.phase_kind(PhaseId{3}), std::nullopt);
  EXPECT_EQ(trace.phase_kind(PhaseId{}), std::nullopt);
  // ...and via the index afterwards.
  trace.build_indices();
  EXPECT_EQ(trace.phase_kind(PhaseId{7}), PhaseKind::kAggregate);
  EXPECT_EQ(trace.phase_kind(PhaseId{3}), std::nullopt);
}

TEST(ClusterTrace, ApplicationLogAccessors) {
  ClusterTrace trace(4, 100.0);
  JobLogRecord j;
  j.job = JobId{1};
  j.completed = true;
  trace.record_job(j);
  ReadFailureRecord rf;
  rf.job = JobId{1};
  rf.reader = ServerId{0};
  rf.source = ServerId{1};
  trace.record_read_failure(rf);
  EvacuationRecord ev;
  ev.server = ServerId{2};
  ev.bytes_moved = 55;
  trace.record_evacuation(ev);
  EXPECT_EQ(trace.jobs().size(), 1u);
  EXPECT_EQ(trace.read_failures().size(), 1u);
  EXPECT_EQ(trace.evacuations().size(), 1u);
  EXPECT_EQ(trace.evacuations()[0].bytes_moved, 55);
}

TEST(TraceCollector, StreamsSimRecordsIntoTrace) {
  TopologyConfig tcfg;
  tcfg.racks = 2;
  tcfg.servers_per_rack = 3;
  tcfg.racks_per_vlan = 2;
  tcfg.external_servers = 0;
  Topology topo(tcfg);
  FlowSimConfig cfg;
  cfg.end_time = 100.0;
  cfg.recompute_interval = 0.0;
  cfg.connect_share_floor = 0.0;
  cfg.keep_records = false;
  FlowSim sim(topo, cfg);
  ClusterTrace trace(topo.server_count(), cfg.end_time);
  TraceCollector collector(sim, trace);

  FlowSpec fs;
  fs.src = ServerId{0};
  fs.dst = ServerId{4};
  fs.bytes = 1'000'000;
  sim.start_flow(fs);
  fs.src = ServerId{1};
  fs.dst = ServerId{1};  // loopback: not a socket event
  sim.start_flow(fs);
  sim.run();

  EXPECT_EQ(trace.flow_count(), 1u);
  EXPECT_EQ(collector.socket_records(), 2u);
  EXPECT_TRUE(sim.records().empty());  // keep_records=false
  EXPECT_EQ(trace.total_bytes(), 1'000'000);
  EXPECT_EQ(trace.flows()[0].kind, FlowKind::kOther);
}

TEST(PhaseKindNames, AllNamed) {
  EXPECT_EQ(to_string(PhaseKind::kExtract), "extract");
  EXPECT_EQ(to_string(PhaseKind::kPartition), "partition");
  EXPECT_EQ(to_string(PhaseKind::kAggregate), "aggregate");
  EXPECT_EQ(to_string(PhaseKind::kCombine), "combine");
  EXPECT_EQ(to_string(PhaseKind::kOutput), "output");
  EXPECT_EQ(to_string(FlowKind::kEvacuation), "evacuation");
  EXPECT_EQ(to_string(FlowKind::kShuffle), "shuffle");
}

}  // namespace
}  // namespace dct
