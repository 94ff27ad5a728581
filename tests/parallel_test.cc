// Tests for the shard-parallel analysis engine (src/parallel) and its
// determinism contract: the same scenario analyzed at 1, 2 and 8 threads
// yields byte-identical traffic matrices, congestion episodes, flow-stat
// distributions and (modulo the recorded `parallelism` value) manifests.
// Also covers the thread pool itself (bounded queue, ordered error
// propagation) and the atomic manifest write.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/congestion.h"
#include "analysis/flowstats.h"
#include "analysis/traffic_matrix.h"
#include "common/require.h"
#include "core/experiment.h"
#include "obs/obs.h"
#include "parallel/thread_pool.h"
#include "trace/codec.h"

namespace dct {
namespace {

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool series_identical(const BinnedSeries& a, const BinnedSeries& b) {
  if (a.bin_count() != b.bin_count()) return false;
  for (std::size_t i = 0; i < a.bin_count(); ++i) {
    if (!bits_equal(a.value(i), b.value(i))) return false;
  }
  return true;
}

bool tm_series_identical(const std::vector<SparseTm>& a,
                         const std::vector<SparseTm>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!SparseTm::identical(a[i], b[i])) return false;
  }
  return true;
}

bool cdf_identical(const Cdf& a, const Cdf& b) {
  if (a.sample_count() != b.sample_count()) return false;
  if (a.empty()) return true;
  for (int i = 0; i <= 20; ++i) {
    const double p = static_cast<double>(i) / 20.0;
    if (!bits_equal(a.quantile(p), b.quantile(p))) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// ThreadPool / shard_ranges mechanics
// ---------------------------------------------------------------------------

TEST(ShardRanges, CoversInputConsecutively) {
  const auto shards = shard_ranges(100, 16);
  ASSERT_EQ(shards.size(), 7u);
  std::size_t expect_begin = 0;
  for (const ShardRange& r : shards) {
    EXPECT_EQ(r.begin, expect_begin);
    EXPECT_LE(r.size(), 16u);
    EXPECT_GT(r.size(), 0u);
    expect_begin = r.end;
  }
  EXPECT_EQ(expect_begin, 100u);
}

TEST(ShardRanges, ExactMultipleAndEmpty) {
  EXPECT_EQ(shard_ranges(64, 16).size(), 4u);
  EXPECT_TRUE(shard_ranges(0, 16).empty());
  EXPECT_EQ(shard_ranges(1, 16).size(), 1u);
  EXPECT_THROW((void)shard_ranges(10, 0), Error);
}

TEST(ShardRanges, PureFunctionOfInputAndGrain) {
  // Same (n, grain) must always give the same decomposition — this is the
  // root of the byte-identity contract.
  EXPECT_EQ(shard_ranges(1000, 7), shard_ranges(1000, 7));
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);
  std::atomic<int> ran{0};
  parallel_for_shards(&pool, 100, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 100);
  EXPECT_EQ(pool.tasks_executed(), 100u);
}

TEST(ThreadPool, NullPoolRunsSerialInShardOrder) {
  std::vector<std::size_t> order;
  parallel_for_shards(nullptr, 10, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, BoundedQueueStress) {
  // A tiny queue forces producers to block; the high-water mark must never
  // exceed the configured capacity and every task must still run.
  ThreadPool pool(2, 4);
  EXPECT_EQ(pool.queue_capacity(), 4u);
  std::atomic<std::uint64_t> sum{0};
  parallel_for_shards(&pool, 500, [&](std::size_t i) {
    sum.fetch_add(static_cast<std::uint64_t>(i));
  });
  EXPECT_EQ(sum.load(), 500u * 499u / 2u);
  EXPECT_LE(pool.queue_high_water(), 4u);
  EXPECT_EQ(pool.tasks_executed(), 500u);
}

TEST(ThreadPool, LowestShardIndexErrorWins) {
  // Matching the serial scan, the error a caller sees is the one the
  // earliest-failing shard raised, regardless of completion order.
  for (int attempt = 0; attempt < 8; ++attempt) {
    ThreadPool pool(4);
    try {
      parallel_for_shards(&pool, 16, [&](std::size_t i) {
        if (i == 3 || i == 11) {
          throw Error("shard " + std::to_string(i) + " failed");
        }
      });
      FAIL() << "expected an exception";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "shard 3 failed");
    }
  }
}

TEST(ThreadPool, RejectsBadThreadCount) {
  EXPECT_THROW(ThreadPool(0), Error);
}

// ---------------------------------------------------------------------------
// Byte-identity across thread counts
// ---------------------------------------------------------------------------

// canonical (500 servers) rather than tiny so the workload genuinely spans
// multiple shards on every path: ~32 decode shards and several TM-deposit
// shards.  A single-shard input would pass these checks trivially.
class ParallelDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    exp_ = new ClusterExperiment(scenarios::canonical(90.0));
    exp_->run();
  }
  static void TearDownTestSuite() {
    delete exp_;
    exp_ = nullptr;
  }
  static ClusterExperiment* exp_;
};

ClusterExperiment* ParallelDeterminismTest::exp_ = nullptr;

TEST_F(ParallelDeterminismTest, TmSeriesIdenticalAt1_2_8Threads) {
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  const auto serial =
      build_tm_series(exp_->trace(), exp_->topology(), 5.0, TmScope::kServer);
  const auto par2 =
      build_tm_series(exp_->trace(), exp_->topology(), 5.0, TmScope::kServer, &pool2);
  const auto par8 =
      build_tm_series(exp_->trace(), exp_->topology(), 5.0, TmScope::kServer, &pool8);
  EXPECT_TRUE(tm_series_identical(serial, par2));
  EXPECT_TRUE(tm_series_identical(serial, par8));

  const auto tor_serial =
      build_tm_series(exp_->trace(), exp_->topology(), 5.0, TmScope::kToR);
  const auto tor8 =
      build_tm_series(exp_->trace(), exp_->topology(), 5.0, TmScope::kToR, &pool8);
  EXPECT_TRUE(tm_series_identical(tor_serial, tor8));
}

TEST_F(ParallelDeterminismTest, SingleWindowTmIdentical) {
  ThreadPool pool8(8);
  const auto serial = build_tm(exp_->trace(), exp_->topology(), 20.0, 10.0,
                               TmScope::kServer);
  const auto par = build_tm(exp_->trace(), exp_->topology(), 20.0, 10.0,
                            TmScope::kServer, &pool8);
  EXPECT_TRUE(SparseTm::identical(serial, par));
}

TEST_F(ParallelDeterminismTest, CongestionIdentical) {
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  const auto util_serial = utilization_from_trace(exp_->trace(), exp_->topology(), 1.0);
  const auto util8 =
      utilization_from_trace(exp_->trace(), exp_->topology(), 1.0, &pool8);
  ASSERT_EQ(util_serial.per_link.size(), util8.per_link.size());
  for (std::size_t l = 0; l < util_serial.per_link.size(); ++l) {
    EXPECT_TRUE(series_identical(util_serial.per_link[l], util8.per_link[l]));
  }

  const auto rep_serial = congestion_report(util_serial, exp_->topology(), 0.7);
  const auto rep2 = congestion_report(util_serial, exp_->topology(), 0.7, &pool2);
  const auto rep8 = congestion_report(util_serial, exp_->topology(), 0.7, &pool8);
  for (const auto* rep : {&rep2, &rep8}) {
    EXPECT_EQ(rep->episodes_over_1s, rep_serial.episodes_over_1s);
    EXPECT_EQ(rep->episodes_over_10s, rep_serial.episodes_over_10s);
    EXPECT_TRUE(bits_equal(rep->longest_episode, rep_serial.longest_episode));
    EXPECT_TRUE(bits_equal(rep->frac_links_hot_10s, rep_serial.frac_links_hot_10s));
    ASSERT_EQ(rep->inter_switch.size(), rep_serial.inter_switch.size());
    for (std::size_t l = 0; l < rep->inter_switch.size(); ++l) {
      EXPECT_EQ(rep->inter_switch[l].link, rep_serial.inter_switch[l].link);
      ASSERT_EQ(rep->inter_switch[l].episodes.size(),
                rep_serial.inter_switch[l].episodes.size());
      for (std::size_t e = 0; e < rep->inter_switch[l].episodes.size(); ++e) {
        EXPECT_TRUE(bits_equal(rep->inter_switch[l].episodes[e].start,
                               rep_serial.inter_switch[l].episodes[e].start));
        EXPECT_TRUE(bits_equal(rep->inter_switch[l].episodes[e].end,
                               rep_serial.inter_switch[l].episodes[e].end));
      }
    }
    ASSERT_EQ(rep->episode_durations.size(), rep_serial.episode_durations.size());
    EXPECT_TRUE(
        series_identical(rep->hot_links_over_time, rep_serial.hot_links_over_time));
  }
}

TEST_F(ParallelDeterminismTest, FlowStatsIdentical) {
  ThreadPool pool8(8);
  const auto dur_serial = flow_duration_stats(exp_->trace());
  const auto dur8 = flow_duration_stats(exp_->trace(), &pool8);
  EXPECT_TRUE(cdf_identical(dur_serial.by_count, dur8.by_count));
  EXPECT_TRUE(cdf_identical(dur_serial.by_bytes, dur8.by_bytes));
  EXPECT_TRUE(bits_equal(dur_serial.frac_flows_under_10s, dur8.frac_flows_under_10s));

  const auto size_serial = flow_size_stats(exp_->trace());
  const auto size8 = flow_size_stats(exp_->trace(), &pool8);
  EXPECT_TRUE(cdf_identical(size_serial.bytes, size8.bytes));

  for (const auto scope :
       {ArrivalScope::kCluster, ArrivalScope::kServer, ArrivalScope::kToR}) {
    const auto ia_serial = inter_arrival_stats(exp_->trace(), exp_->topology(), scope);
    const auto ia8 =
        inter_arrival_stats(exp_->trace(), exp_->topology(), scope, &pool8);
    EXPECT_TRUE(cdf_identical(ia_serial.inter_arrival_ms, ia8.inter_arrival_ms));
    EXPECT_TRUE(bits_equal(ia_serial.median_ms, ia8.median_ms));
  }
}

TEST_F(ParallelDeterminismTest, DecodeIdentical) {
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  const auto encoded = encode_trace(exp_->trace());
  const auto serial = decode_trace(encoded);
  DecodeOptions opt2;
  opt2.pool = &pool2;
  DecodeOptions opt8;
  opt8.pool = &pool8;
  const auto par2 = decode_trace(encoded, opt2);
  const auto par8 = decode_trace(encoded, opt8);
  EXPECT_EQ(encode_trace(par2), encode_trace(serial));
  EXPECT_EQ(encode_trace(par8), encode_trace(serial));
}

// A lossily collected trace exercises the salvage/gap path of the decoder
// and the gap-aware TM builder's ledger corrections.
TEST(ParallelLossyTest, GapAwareTmAndSalvageDecodeIdentical) {
  auto cfg = scenarios::lossy_telemetry(45.0);
  ClusterExperiment exp(cfg);
  exp.run();
  const ClusterTrace& observed = exp.observed_trace();
  ASSERT_FALSE(observed.gaps().empty()) << "scenario should produce gaps";

  ThreadPool pool8(8);
  const auto serial =
      build_tm_series_gap_aware(observed, exp.topology(), 5.0, TmScope::kServer);
  const auto par = build_tm_series_gap_aware(observed, exp.topology(), 5.0,
                                             TmScope::kServer, {}, &pool8);
  EXPECT_TRUE(tm_series_identical(serial, par));

  // Salvage decode of a truncated payload: gap/salvage decisions must not
  // depend on the thread count.
  auto encoded = encode_trace(observed);
  encoded.resize(encoded.size() * 3 / 4);
  DecodeOptions tolerate;
  tolerate.tolerate_truncation = true;
  const auto cut_serial = decode_trace(encoded, tolerate);
  DecodeOptions tolerate8 = tolerate;
  tolerate8.pool = &pool8;
  const auto cut_par = decode_trace(encoded, tolerate8);
  EXPECT_EQ(encode_trace(cut_par), encode_trace(cut_serial));
  EXPECT_EQ(cut_par.gaps().size(), cut_serial.gaps().size());
}

// ---------------------------------------------------------------------------
// The parallelism knob and manifests
// ---------------------------------------------------------------------------

// Strips the two fields allowed to differ between a 1-thread and an 8-thread
// run of the same seed: wall-clock content and the recorded knob itself.
std::string manifest_modulo_parallelism(const ClusterExperiment& exp) {
  obs::RunManifest m = exp.manifest("parallel_test");
  m.wall_seconds = 0;
  m.config.erase("parallelism");
  std::erase_if(m.metrics, [](const obs::MetricSnapshot& s) {
    return s.full_name.find("wall_ns") != std::string::npos;
  });
  return m.to_json();
}

TEST(ParallelKnobTest, ManifestsIdenticalModuloParallelism) {
  auto cfg1 = scenarios::tiny(30.0);
  cfg1.parallelism = 1;
  auto cfg8 = scenarios::tiny(30.0);
  cfg8.parallelism = 8;

  ClusterExperiment e1(cfg1);
  e1.run();
  EXPECT_EQ(e1.analysis_pool(), nullptr);
  const std::string m1 = manifest_modulo_parallelism(e1);
  const auto encoded1 = encode_trace(e1.trace());

  ClusterExperiment e8(cfg8);
  e8.run();
  ASSERT_NE(e8.analysis_pool(), nullptr);
  EXPECT_EQ(e8.analysis_pool()->thread_count(), 8);
  const std::string m8 = manifest_modulo_parallelism(e8);
  const auto encoded8 = encode_trace(e8.trace());

  EXPECT_EQ(encoded1, encoded8) << "the simulation itself must not see the knob";
  EXPECT_EQ(m1, m8);

  // The knob is recorded verbatim.
  EXPECT_EQ(e1.manifest("parallel_test").config.at("parallelism"), 1.0);
  EXPECT_EQ(e8.manifest("parallel_test").config.at("parallelism"), 8.0);
}

TEST(ParallelKnobTest, RejectsNonPositiveParallelism) {
  auto cfg = scenarios::tiny(10.0);
  cfg.parallelism = 0;
  EXPECT_THROW(ClusterExperiment e(cfg), Error);
}

TEST(ParallelKnobTest, PoolMetricsPublishedAfterPooledAnalysis) {
  auto cfg = scenarios::tiny(30.0);
  cfg.parallelism = 4;
  ClusterExperiment exp(cfg);
  exp.run();
  // Force at least one pooled region through the experiment's own pool.  The
  // tiny scenario's flow count sits below the TM shard grain (which would
  // fall back to the serial single-shard path), so decode the trace instead:
  // 32 servers / 16-server grain = 2 shards, a genuine pooled region.
  DecodeOptions opt;
  opt.pool = exp.analysis_pool();
  const auto rt = decode_trace(encode_trace(exp.trace()), opt);
  ASSERT_FALSE(rt.flows().empty());
  const auto m = exp.manifest("parallel_test");
  bool saw_threads = false;
  for (const auto& s : m.metrics) {
    if (s.full_name == "parallel.threads") {
      saw_threads = true;
      EXPECT_EQ(s.value, 4.0);
    }
  }
  // ThreadPool::publish_metrics compiles out of a DCT_OBS=OFF build.
  EXPECT_EQ(saw_threads, obs::kEnabled);
}

// ---------------------------------------------------------------------------
// Atomic manifest writes (regression for torn manifest files)
// ---------------------------------------------------------------------------

TEST(ManifestWriteTest, AtomicWriteLeavesNoTempFile) {
  ClusterExperiment exp(scenarios::tiny(10.0));
  exp.run();
  const auto dir = std::filesystem::temp_directory_path() / "dct_parallel_test";
  std::filesystem::remove_all(dir);
  const std::string path = (dir / "manifest.json").string();

  const auto m = exp.manifest("parallel_test");
  EXPECT_EQ(m.write_json(path), path);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "temp file must be renamed away";

  // Overwriting an existing manifest also goes through the temp + rename.
  EXPECT_EQ(m.write_json(path), path);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, m.to_json()) << "written file holds the complete JSON";
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dct
