// Lossy measurement plane: schedule generation, hardened merge, coverage
// accounting and gap-aware TM correction (trace/collector_faults.h).
#include "trace/collector_faults.h"

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/traffic_matrix.h"
#include "common/require.h"
#include "core/experiment.h"
#include "trace/codec.h"

namespace dct {
namespace {

TopologyConfig topo_config() {
  TopologyConfig cfg;
  cfg.racks = 2;
  cfg.servers_per_rack = 3;
  cfg.racks_per_vlan = 2;
  cfg.agg_switches = 1;
  cfg.external_servers = 0;
  return cfg;
}

FlowRecord make_record(std::int32_t id, std::int32_t src, std::int32_t dst,
                       Bytes bytes, TimeSec start, TimeSec end) {
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

TelemetryFaultConfig full_config() {
  TelemetryFaultConfig cfg;
  cfg.crash_buffer_window = 30.0;
  cfg.upload_loss_prob = 0.2;
  cfg.upload_truncate_prob = 0.2;
  cfg.straggler_truncate_prob = 1.0;
  cfg.duplicate_prob = 0.2;
  cfg.snmp_timeout_prob = 1.0;
  cfg.snmp_poll_interval = 30.0;
  cfg.counter_reset_on_reboot = true;
  return cfg;
}

TEST(TelemetrySchedule, EmptyConfigGeneratesNothing) {
  const TelemetryFaultConfig cfg;
  EXPECT_TRUE(cfg.empty());
  cfg.validate();
  const Topology topo(topo_config());
  const auto schedule = generate_telemetry_schedule(topo, cfg, {}, {}, 100.0);
  EXPECT_TRUE(schedule.empty());
  EXPECT_EQ(telemetry_schedule_hash(schedule), 0u);

  // The fold order is a format: manifests of earlier builds carry this value.
  TelemetryFaultSchedule one_gap;
  one_gap.gaps.push_back({ServerId{3}, 1.5, 2.25, GapCause::kUploadLost});
  EXPECT_EQ(telemetry_schedule_hash(one_gap), 0x3847cbed95704389ULL);
}

TEST(TelemetrySchedule, ValidatesConfig) {
  TelemetryFaultConfig cfg;
  cfg.upload_loss_prob = 1.5;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = TelemetryFaultConfig{};
  cfg.snmp_poll_interval = 0.0;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = TelemetryFaultConfig{};
  cfg.snmp_counter_width = 8;
  EXPECT_THROW(cfg.validate(), Error);
}

TEST(TelemetrySchedule, IsDeterministicAndCouplesToDeviceSchedules) {
  const Topology topo(topo_config());
  const std::vector<FaultEvent> faults = {
      {100.0, 200.0, DeviceKind::kServer, 2},
      {50.0, 120.0, DeviceKind::kTor, 0},
      {400.0, 700.0, DeviceKind::kAgg, 0},  // repair after horizon: no reset
  };
  const std::vector<DegradationEvent> degradations = {
      {30.0, 90.0, DegradationKind::kServerStraggler, 1, 4.0, 0.0},
  };
  const TelemetryFaultConfig cfg = full_config();
  const auto a = generate_telemetry_schedule(topo, cfg, faults, degradations, 600.0);
  const auto b = generate_telemetry_schedule(topo, cfg, faults, degradations, 600.0);
  EXPECT_EQ(telemetry_schedule_hash(a), telemetry_schedule_hash(b));
  EXPECT_NE(telemetry_schedule_hash(a), 0u);
  ASSERT_EQ(a.gaps.size(), b.gaps.size());
  ASSERT_EQ(a.uploads.size(), b.uploads.size());

  // Crash tail loss: [crash - window, crash) on the crashed server.
  bool found_tail = false;
  for (const GapRecord& g : a.gaps) {
    if (g.cause != GapCause::kCrashTailLoss) continue;
    found_tail = true;
    EXPECT_EQ(g.server, ServerId{2});
    EXPECT_DOUBLE_EQ(g.start, 70.0);
    EXPECT_DOUBLE_EQ(g.end, 100.0);
  }
  EXPECT_TRUE(found_tail);

  // Straggler episode (prob 1.0): upload misses the deadline from episode
  // start onward.
  bool found_straggler = false;
  for (const GapRecord& g : a.gaps) {
    if (g.server != ServerId{1} || g.cause != GapCause::kUploadTruncated) continue;
    if (g.start == 30.0 && g.end == 600.0) found_straggler = true;
  }
  EXPECT_TRUE(found_straggler);

  // Counter resets only for reboots completing inside the horizon.
  ASSERT_EQ(a.counter_resets.size(), 1u);
  EXPECT_EQ(a.counter_resets[0].device, DeviceKind::kTor);
  EXPECT_EQ(a.counter_resets[0].entity, 0);
  EXPECT_DOUBLE_EQ(a.counter_resets[0].time, 120.0);

  // Timeout prob 1.0: every poll of every switch (2 ToRs + 1 agg, 20 polls).
  EXPECT_EQ(a.snmp_timeouts.size(), 60u);

  // A different knob produces a structurally different plan and hash.
  TelemetryFaultConfig cfg2 = cfg;
  cfg2.crash_buffer_window = 40.0;
  const auto c = generate_telemetry_schedule(topo, cfg2, faults, degradations, 600.0);
  EXPECT_NE(telemetry_schedule_hash(a), telemetry_schedule_hash(c));
}

TEST(TelemetryMerge, PeerRecoveryAndJointLoss) {
  ClusterTrace full(6, 100.0);
  full.record_flow(make_record(0, 0, 1, 1000, 49.0, 50.0));  // send copy gapped
  full.record_flow(make_record(1, 1, 2, 2000, 49.5, 50.5));  // both copies gapped
  full.record_flow(make_record(2, 3, 4, 3000, 10.0, 12.0));  // untouched
  full.build_indices();

  TelemetryFaultSchedule schedule;
  schedule.gaps.push_back({ServerId{0}, 40.0, 60.0, GapCause::kCrashTailLoss});
  schedule.gaps.push_back({ServerId{1}, 50.2, 60.0, GapCause::kUploadTruncated});
  schedule.gaps.push_back({ServerId{2}, 45.0, 55.0, GapCause::kUploadTruncated});

  const LossyCollection out = apply_telemetry_faults(full, schedule);
  // Flow 0: sender record dropped (end 50 in server 0's gap) but the
  // receiver's copy at server 1 (whose gap starts later) survives ->
  // recovered with the original orientation.
  // Flow 1: both 49.5..50.5-ending records dropped -> gone.
  EXPECT_EQ(out.trace.flow_count(), 2u);
  EXPECT_EQ(out.stats.flows_recovered, 1u);
  EXPECT_EQ(out.stats.flows_lost, 1u);
  EXPECT_EQ(out.stats.records_lost, 3u);  // f0@0, f1@1, f1@2
  bool found = false;
  for (const SocketFlowLog& f : out.trace.flows()) {
    if (f.flow != FlowId{0}) continue;
    found = true;
    EXPECT_EQ(f.local, ServerId{0});
    EXPECT_EQ(f.peer, ServerId{1});
    EXPECT_EQ(f.bytes, 1000);
  }
  EXPECT_TRUE(found);
  // The schedule's gaps are recorded on the merged trace for gap-aware
  // consumers, each carrying its exact lost-record count (the ledger the
  // gap-aware TM settles).
  ASSERT_EQ(out.trace.gaps().size(), schedule.gaps.size());
  EXPECT_EQ(out.trace.gaps()[0].records_lost, 1);  // f0's send copy at 0
  EXPECT_EQ(out.trace.gaps()[1].records_lost, 1);  // f1's send copy at 1
  EXPECT_EQ(out.trace.gaps()[2].records_lost, 1);  // f1's recv copy at 2
  EXPECT_LT(out.trace.coverage(ServerId{0}), 1.0);
  EXPECT_NEAR(out.trace.coverage(ServerId{0}), 0.8, 1e-12);  // 20 s gap / 100 s
  EXPECT_DOUBLE_EQ(out.trace.coverage(ServerId{3}), 1.0);
}

TEST(TelemetrySchedule, PeriodicCollectionShipsChunksOnAStaggeredGrid) {
  const Topology topo(topo_config());
  TelemetryFaultConfig cfg;
  cfg.upload_interval = 10.0;
  // The cadence alone is a fidelity knob, not a fault: still empty.
  EXPECT_TRUE(cfg.empty());
  cfg.upload_loss_prob = 1.0;
  EXPECT_FALSE(cfg.empty());
  const auto schedule = generate_telemetry_schedule(topo, cfg, {}, {}, 35.0);

  // Every chunk of every server is lost, so each server's gaps tile
  // [0, horizon) in chunk-sized pieces on its own phase-offset grid.
  for (std::int32_t s = 0; s < topo.server_count(); ++s) {
    std::vector<const GapRecord*> mine;
    for (const GapRecord& g : schedule.gaps) {
      if (g.server == ServerId{s}) mine.push_back(&g);
    }
    ASSERT_GE(mine.size(), 4u);  // 35 s / 10 s chunks, plus the phase chunk
    EXPECT_DOUBLE_EQ(mine.front()->start, 0.0);
    EXPECT_DOUBLE_EQ(mine.back()->end, 35.0);
    for (std::size_t i = 0; i < mine.size(); ++i) {
      EXPECT_LE(mine[i]->end - mine[i]->start, 10.0 + 1e-12);
      EXPECT_EQ(mine[i]->cause, GapCause::kUploadLost);
      if (i > 0) {
        EXPECT_DOUBLE_EQ(mine[i]->start, mine[i - 1]->end);
      }
    }
  }
  // One upload plan per chunk, with explicit chunk bounds.
  for (const UploadPlan& u : schedule.uploads) {
    EXPECT_TRUE(u.lost);
    EXPECT_GT(u.chunk_end, u.chunk_start);
    EXPECT_LE(u.chunk_end - u.chunk_start, 10.0 + 1e-12);
  }
  // Phases are per-server (staggered): not every server shares one grid.
  bool staggered = false;
  double first_phase = -1;
  for (const UploadPlan& u : schedule.uploads) {
    if (u.chunk_start > 0) continue;  // each server's first chunk starts at 0
    if (first_phase < 0) {
      first_phase = u.chunk_end;
    } else if (u.chunk_end != first_phase) {
      staggered = true;
    }
  }
  EXPECT_TRUE(staggered);
}

TEST(TelemetryMerge, ChunkLossOpensAnInteriorCountedGap) {
  ClusterTrace full(6, 100.0);
  // Three flows logged at server 0, ending in distinct chunks.
  full.record_flow(make_record(0, 0, 1, 1000, 4.0, 5.0));
  full.record_flow(make_record(1, 0, 1, 2000, 14.0, 15.0));
  full.record_flow(make_record(2, 0, 1, 3000, 24.0, 25.0));
  full.build_indices();

  // Server 1's middle chunk also vanished: flow 1 loses both copies, flows
  // 0 and 2 keep both.
  TelemetryFaultSchedule schedule;
  UploadPlan plan;
  plan.server = ServerId{0};
  plan.lost = true;
  plan.chunk_start = 10.0;
  plan.chunk_end = 20.0;
  schedule.uploads.push_back(plan);
  schedule.gaps.push_back({ServerId{0}, 10.0, 20.0, GapCause::kUploadLost});
  schedule.gaps.push_back({ServerId{1}, 10.0, 20.0, GapCause::kUploadLost});

  const LossyCollection out = apply_telemetry_faults(full, schedule);
  EXPECT_EQ(out.trace.flow_count(), 2u);
  EXPECT_EQ(out.stats.flows_lost, 1u);
  EXPECT_EQ(out.stats.records_lost, 2u);  // f1's copies at servers 0 and 1
  ASSERT_EQ(out.trace.gaps().size(), 2u);
  EXPECT_EQ(out.trace.gaps()[0].records_lost, 1);
  EXPECT_EQ(out.trace.gaps()[1].records_lost, 1);
  // The gap is interior: records on both sides of it survived.
  EXPECT_DOUBLE_EQ(out.trace.coverage(ServerId{0}), 0.9);
}

TEST(TelemetryMerge, DeduplicatesDuplicatedUploads) {
  ClusterTrace full(6, 100.0);
  full.record_flow(make_record(0, 0, 1, 1000, 1.0, 2.0));
  full.record_flow(make_record(1, 0, 2, 2000, 3.0, 4.0));
  full.record_flow(make_record(2, 4, 0, 4000, 5.0, 6.0));
  full.build_indices();

  TelemetryFaultSchedule schedule;
  UploadPlan plan;
  plan.server = ServerId{0};
  plan.duplicated = true;
  schedule.uploads.push_back(plan);

  const LossyCollection out = apply_telemetry_faults(full, schedule);
  EXPECT_EQ(out.stats.uploads_duplicated, 1u);
  // Server 0 logs three records (two sends, one recv); each re-delivered
  // copy is counted and never reaches the output.
  EXPECT_EQ(out.stats.duplicates_dropped, 3u);
  EXPECT_EQ(out.trace.flow_count(), full.flow_count());
  EXPECT_EQ(out.trace.total_bytes(), full.total_bytes());
  EXPECT_EQ(out.stats.flows_lost, 0u);
}

TEST(TelemetryMerge, RepeatedFlowIdsKeepEachFlow) {
  // Flow ids need not be unique: two flows that share one are two flows, and
  // a fault-free merge is not a duplicate.
  ClusterTrace full(6, 100.0);
  full.record_flow(make_record(7, 0, 1, 1000, 1.0, 2.0));
  full.record_flow(make_record(7, 0, 1, 2000, 3.0, 4.0));
  full.build_indices();

  const LossyCollection out = apply_telemetry_faults(full, TelemetryFaultSchedule{});
  ASSERT_EQ(out.trace.flow_count(), 2u);
  EXPECT_EQ(out.trace.total_bytes(), 3000);
  EXPECT_EQ(out.stats.duplicates_dropped, 0u);
  EXPECT_EQ(out.trace.flows()[0].bytes, 1000);
  EXPECT_EQ(out.trace.flows()[1].bytes, 2000);
}

TEST(TelemetryMerge, LostUploadLosesOnlyDualGappedFlows) {
  ClusterTrace full(6, 100.0);
  full.record_flow(make_record(0, 0, 1, 1000, 1.0, 2.0));
  full.record_flow(make_record(1, 2, 0, 2000, 3.0, 4.0));
  full.build_indices();

  TelemetryFaultSchedule schedule;
  UploadPlan plan;
  plan.server = ServerId{0};
  plan.lost = true;
  schedule.uploads.push_back(plan);
  schedule.gaps.push_back({ServerId{0}, 0.0, 100.0, GapCause::kUploadLost});

  const LossyCollection out = apply_telemetry_faults(full, schedule);
  EXPECT_EQ(out.stats.uploads_lost, 1u);
  // Every flow survives through the peer's intact log.
  EXPECT_EQ(out.trace.flow_count(), 2u);
  EXPECT_EQ(out.stats.flows_recovered, 1u);  // flow 0's sender copy was at 0
  EXPECT_EQ(out.stats.flows_lost, 0u);
}

TEST(PairObservability, UsesJointGapOverlapNotProductOfLosses) {
  ClusterTrace trace(6, 100.0);
  trace.record_gap({ServerId{0}, 0.0, 10.0, GapCause::kUploadTruncated});
  trace.record_gap({ServerId{1}, 5.0, 15.0, GapCause::kUploadTruncated});
  trace.record_gap({ServerId{2}, 10.0, 20.0, GapCause::kUploadTruncated});
  // Overlapping gaps [5, 10): flows ending there lose both copies.
  EXPECT_NEAR(pair_observability(trace, ServerId{0}, ServerId{1}, 0.0, 20.0),
              1.0 - 5.0 / 20.0, 1e-12);
  // Disjoint gaps: one copy always survives.
  EXPECT_DOUBLE_EQ(pair_observability(trace, ServerId{0}, ServerId{2}, 0.0, 20.0),
                   1.0);
  // No gaps at all.
  EXPECT_DOUBLE_EQ(pair_observability(trace, ServerId{3}, ServerId{4}, 0.0, 20.0),
                   1.0);
  EXPECT_THROW(static_cast<void>(
                   pair_observability(trace, ServerId{0}, ServerId{1}, 5.0, 1.0)),
               Error);
}

TEST(GapAwareTm, RecoversLostMassAndMatchesNaiveWhenGapFree) {
  const Topology topo(topo_config());
  ClusterTrace full(topo.server_count(), 100.0);
  // 100 short flows 0 -> 3, one ending every second.
  for (std::int32_t i = 0; i < 100; ++i) {
    full.record_flow(make_record(i, 0, 3, 1000, i + 0.25, i + 0.5));
  }
  full.build_indices();

  // Server 0's upload is lost outright; server 3 additionally misses the
  // second half of every 10 s window.  Flows ending in a second half lose
  // both copies; first-half flows survive via server 3's log and become the
  // references that price the holes' ledgers.
  TelemetryFaultSchedule schedule;
  schedule.gaps.push_back({ServerId{0}, 0.0, 100.0, GapCause::kUploadLost});
  for (int w = 0; w < 10; ++w) {
    schedule.gaps.push_back({ServerId{3}, 10.0 * w + 5.0, 10.0 * (w + 1),
                             GapCause::kUploadTruncated});
  }
  const LossyCollection out = apply_telemetry_faults(full, schedule);
  EXPECT_EQ(out.trace.flow_count(), 50u);

  const auto truth = build_tm_series(full, topo, 10.0, TmScope::kServer);
  const auto naive = build_tm_series(out.trace, topo, 10.0, TmScope::kServer);
  const auto aware =
      build_tm_series_gap_aware(out.trace, topo, 10.0, TmScope::kServer);
  ASSERT_EQ(truth.size(), naive.size());
  ASSERT_EQ(truth.size(), aware.size());
  double err_naive = 0, err_aware = 0;
  for (std::size_t w = 0; w < truth.size(); ++w) {
    const double t = truth[w].at(0, 3);
    err_naive += std::fabs(naive[w].at(0, 3) - t);
    err_aware += std::fabs(aware[w].at(0, 3) - t);
  }
  EXPECT_LT(err_aware, err_naive);
  // The ledger counts are exact and every flow has the same size, so with
  // shrinkage disabled the corrections restore the lost mass exactly: each
  // dual-lost flow is counted once at either endpoint and priced at the
  // references' (uniform) median size.
  TmCoverageOptions exact;
  exact.count_shrinkage = 0.0;
  const auto aware_exact =
      build_tm_series_gap_aware(out.trace, topo, 10.0, TmScope::kServer, exact);
  double total_truth = 0, total_exact = 0;
  for (std::size_t w = 0; w < truth.size(); ++w) {
    total_truth += truth[w].total();
    total_exact += aware_exact[w].total();
  }
  EXPECT_NEAR(total_exact, total_truth, 1e-6 * total_truth);

  // Gap-free: the two constructions are identical.
  const auto aware_full = build_tm_series_gap_aware(full, topo, 10.0, TmScope::kServer);
  ASSERT_EQ(aware_full.size(), truth.size());
  for (std::size_t w = 0; w < truth.size(); ++w) {
    EXPECT_DOUBLE_EQ(aware_full[w].total(), truth[w].total());
    EXPECT_EQ(aware_full[w].nonzero_count(), truth[w].nonzero_count());
  }
}

TEST(TelemetryExperiment, ObservedTraceIsDeterministicAndGated) {
  ScenarioConfig cfg = scenarios::tiny(20.0);
  cfg.telemetry.upload_loss_prob = 0.3;
  cfg.telemetry.upload_truncate_prob = 0.3;
  cfg.telemetry.duplicate_prob = 0.3;

  auto run_once = [&cfg]() {
    auto exp = std::make_unique<ClusterExperiment>(cfg);
    exp->run();
    return exp;
  };
  const auto exp1 = run_once();
  const auto exp2 = run_once();

  // The lossy plane really lost something, deterministically.
  EXPECT_NE(exp1->telemetry_schedule_hash(), 0u);
  EXPECT_EQ(exp1->telemetry_schedule_hash(), exp2->telemetry_schedule_hash());
  const ClusterTrace& obs1 = exp1->observed_trace();
  const ClusterTrace& obs2 = exp2->observed_trace();
  EXPECT_NE(&obs1, &exp1->trace());
  EXPECT_FALSE(obs1.gaps().empty());
  EXPECT_LT(obs1.flow_count(), exp1->trace().flow_count());
  const auto enc1 = encode_trace(obs1);
  const auto enc2 = encode_trace(obs2);
  EXPECT_EQ(enc1, enc2);

  // Round trip preserves the gap records.
  const ClusterTrace back = decode_trace(enc1);
  EXPECT_EQ(back.gaps().size(), obs1.gaps().size());
  EXPECT_EQ(back.flow_count(), obs1.flow_count());

  // Manifest carries the telemetry keys.
  const auto m = exp1->manifest("telemetry_test");
  EXPECT_EQ(m.config.at("telemetry_enabled"), 1.0);
  EXPECT_NE(m.config.at("telemetry_schedule_hash"), 0.0);
  EXPECT_EQ(m.config.at("telemetry_schedule_hash"),
            static_cast<double>(exp1->telemetry_schedule_hash() & ((1ull << 48) - 1)));

  // Empty config: the observed trace IS the collected trace, hash 0.
  ScenarioConfig clean = scenarios::tiny(20.0);
  auto exp3 = std::make_unique<ClusterExperiment>(clean);
  exp3->run();
  EXPECT_EQ(&exp3->observed_trace(), &exp3->trace());
  EXPECT_EQ(exp3->telemetry_schedule_hash(), 0u);
  EXPECT_EQ(exp3->manifest("telemetry_test").config.at("telemetry_enabled"), 0.0);
}

TEST(TelemetrySnmp, AppliesTimeoutsAndResetsToSwitchInterfaces) {
  const Topology topo(topo_config());
  FlowSimConfig sim_cfg;
  sim_cfg.end_time = 20.0;
  sim_cfg.recompute_interval = 0.0;
  FlowSim sim(topo, sim_cfg);
  FlowSpec fs;
  fs.src = ServerId{0};
  fs.dst = ServerId{4};
  fs.bytes = 1'000'000'000;
  sim.start_flow(fs);
  sim.run();
  auto counters = SnmpCounters::collect(sim, topo, 2.0);

  TelemetryFaultSchedule schedule;
  schedule.snmp_timeouts.push_back({DeviceKind::kTor, 0, 4.7});
  schedule.counter_resets.push_back({DeviceKind::kAgg, 0, 9.0});
  apply_snmp_faults(counters, topo, schedule);

  // The ToR timeout lands on the nearest poll (t = 4 -> poll 2) of the
  // rack's interfaces.
  EXPECT_FALSE(counters.poll_valid(topo.tor_up_link(RackId{0}), 2));
  EXPECT_FALSE(counters.poll_valid(topo.tor_down_link(RackId{0}), 2));
  EXPECT_TRUE(counters.poll_valid(topo.tor_up_link(RackId{1}), 2));
  EXPECT_FALSE(counters.window_reliable(topo.tor_up_link(RackId{0}), 3.0, 5.0));

  // The agg reboot resets its core uplink counters at t = 9.
  EXPECT_FALSE(counters.window_reliable(topo.agg_up_link(0), 8.0, 10.0));
  EXPECT_TRUE(counters.window_reliable(topo.agg_up_link(0), 10.0, 20.0));
}

}  // namespace
}  // namespace dct
