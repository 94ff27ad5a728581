#include "ckpt/checkpoint.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>

#include "ckpt/wal.h"
#include "common/fnv.h"
#include "common/fsio.h"
#include "common/require.h"
#include "core/experiment.h"
#include "trace/codec.h"

namespace dct {
namespace {

namespace fs = std::filesystem;

// Fresh scratch directory per test, removed on teardown.
class CkptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dct_ckpt_test_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path dir_;
};

FlowRecord sample_record(int i) {
  FlowRecord r;
  r.id = FlowId{i};
  r.src = ServerId{i % 5};
  r.dst = ServerId{(i + 1) % 5};
  r.bytes_requested = 1000 + i;
  r.bytes_sent = 900 + i;
  r.start = 0.5 * i;
  r.end = 0.5 * i + 1.25;
  r.failed = (i % 7 == 0);
  r.kind = FlowKind::kShuffle;
  r.job = JobId{i / 3};
  r.phase = PhaseId{i % 3};
  return r;
}

// --- WAL --------------------------------------------------------------------

TEST_F(CkptTest, WalReopensWithDurablePrefixAndTruncatesTornTail) {
  const std::string path = (dir_ / "trace.dwal").string();
  constexpr std::uint64_t kFp = 42;
  {
    ckpt::TraceWal wal(path, kFp);
    EXPECT_FALSE(wal.resumed_existing());
    for (int i = 0; i < 10; ++i) wal.append(sample_record(i));
  }
  std::uint64_t clean_bytes = 0;
  {
    ckpt::TraceWal wal(path, kFp);
    EXPECT_TRUE(wal.resumed_existing());
    EXPECT_FALSE(wal.finalized());
    EXPECT_FALSE(wal.truncated_tail());
    ASSERT_EQ(wal.durable_hashes().size(), 10u);
    clean_bytes = wal.durable_bytes();
    // Replayed payloads hash-match the durable prefix.
    for (int i = 0; i < 10; ++i) {
      const auto payload = ckpt::encode_wal_record(sample_record(i));
      EXPECT_EQ(wal.durable_hashes()[i], fnv1a(kFnvOffset, payload));
    }
  }
  // Torn tail: append garbage that is not a whole frame.
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.write("\x01\x7fgarbage", 9);
  }
  {
    ckpt::TraceWal wal(path, kFp);
    EXPECT_TRUE(wal.truncated_tail());
    EXPECT_EQ(wal.truncated_bytes(), 9u);
    EXPECT_EQ(wal.durable_hashes().size(), 10u);
    EXPECT_EQ(wal.durable_bytes(), clean_bytes);
    wal.finalize();
  }
  {
    ckpt::TraceWal wal(path, kFp);
    EXPECT_TRUE(wal.finalized());
    EXPECT_EQ(wal.durable_hashes().size(), 10u);
  }
  // A WAL never continues a different scenario.
  EXPECT_THROW(ckpt::TraceWal(path, kFp + 1), Error);
}

TEST_F(CkptTest, WalSurvivesTruncationAtEveryByte) {
  const std::string path = (dir_ / "trace.dwal").string();
  {
    ckpt::TraceWal wal(path, 7);
    for (int i = 0; i < 5; ++i) wal.append(sample_record(i));
  }
  const auto bytes = read_file_bytes(path);
  for (std::size_t len = bytes.size() + 1; len-- > 0;) {
    atomic_write_file(path, std::span(bytes.data(), len));
    if (len < 13) {  // inside the fixed header: treated as a fresh WAL
      ckpt::TraceWal wal(path, 7);
      EXPECT_TRUE(wal.durable_hashes().empty());
      continue;
    }
    ckpt::TraceWal wal(path, 7);
    EXPECT_LE(wal.durable_hashes().size(), 5u);
    EXPECT_EQ(wal.durable_bytes() + wal.truncated_bytes(), len);
    // Frames the scan kept are exactly a prefix of what was appended.
    for (std::size_t i = 0; i < wal.durable_hashes().size(); ++i) {
      const auto payload = ckpt::encode_wal_record(sample_record(int(i)));
      EXPECT_EQ(wal.durable_hashes()[i], fnv1a(kFnvOffset, payload));
    }
  }
}

TEST_F(CkptTest, FailedDrainIsANamedErrorAndTheWalStillCloses) {
  // A file-size limit stands in for a full disk: the first drain past it
  // fails, and the WAL's teardown must not throw the error again.
  const std::string path = (dir_ / "trace.dwal").string();
  rlimit old{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &old), 0);
  rlimit small = old;
  small.rlim_cur = 64 * 1024;
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &small), 0);
  std::string what;
  {
    ckpt::TraceWal wal(path, 1);
    try {
      for (int i = 0; i < 1'000'000; ++i) wal.append(sample_record(i));
    } catch (const Error& e) {
      what = e.what();
    }
  }
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &old), 0);
  std::signal(SIGXFSZ, old_handler);
  EXPECT_NE(what.find(path), std::string::npos) << what;
  EXPECT_NE(what.find(std::strerror(EFBIG)), std::string::npos) << what;

  // A WAL that cannot write its header closes the descriptor it opened.
  const fs::path full = dir_ / "full.dwal";
  fs::create_symlink("/dev/full", full);
  const auto open_fds = [] {
    return std::distance(fs::directory_iterator("/proc/self/fd"), fs::directory_iterator{});
  };
  const auto before = open_fds();
  for (int i = 0; i < 5; ++i) EXPECT_THROW(ckpt::TraceWal(full.string(), 1), Error);
  EXPECT_EQ(open_fds(), before);
}

// --- End-to-end resume ------------------------------------------------------

// tiny(20 s), checkpointed into `ckpt_dir` (disabled when empty).
ScenarioConfig resumable(const std::string& ckpt_dir, std::uint64_t seed = 11) {
  ScenarioConfig cfg = scenarios::tiny(20.0, seed);
  cfg.checkpoint.dir = ckpt_dir;
  return cfg;
}

// Runs resumable(ckpt_dir) from scratch and returns its encoded trace.
std::vector<std::uint8_t> run_trace(const std::string& ckpt_dir) {
  ClusterExperiment exp(resumable(ckpt_dir));
  exp.run();
  return encode_trace(exp.trace());
}

// Payload byte ranges [begin, end) of a WAL file's record frames, each laid
// out as [tag u8][len uvarint][payload][FNV-1a u64le] after the 13-byte
// header.  Stops at the finalize marker.
std::vector<std::pair<std::size_t, std::size_t>> record_payloads(
    const std::vector<std::uint8_t>& wal) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  ByteReader r(wal);
  r.skip(13);
  while (!r.done() && r.u8() == 1) {
    const auto len = static_cast<std::size_t>(r.uvarint());
    out.emplace_back(r.position(), r.position() + len);
    r.skip(len + 8);
  }
  return out;
}

// Runs `exp.resume(dir)` and returns the dct::Error message it must throw.
std::string resume_error(ClusterExperiment& exp, const std::string& dir) {
  try {
    exp.resume(dir);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST_F(CkptTest, CheckpointingDoesNotPerturbTheTrace) {
  const auto base = run_trace("");
  const auto ckpt = run_trace((dir_ / "ck").string());
  EXPECT_EQ(base, ckpt);
  // The WAL is the only durable progress record.
  std::set<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir_ / "ck")) {
    files.insert(entry.path().filename().string());
  }
  EXPECT_EQ(files, (std::set<std::string>{"ckpt_manifest.json", "trace.dwal"}));
}

TEST_F(CkptTest, CheckpointedRunProcessesThePlainRunsEvents) {
  // The WAL schedules nothing: a checkpointed run is the plain run plus a
  // record tap.  60 s is long enough for a periodic checkpoint event to
  // show.  (Under DCT_OBS=OFF the registry is empty and both sides read 0.)
  const auto events = [](const std::string& ckpt_dir) {
    ScenarioConfig cfg = scenarios::tiny(60.0, 11);
    cfg.checkpoint.dir = ckpt_dir;
    ClusterExperiment exp(cfg);
    exp.run();
    for (const auto& [name, value] : exp.registry().scalar_snapshot()) {
      if (name == "flowsim.events_processed") return value;
    }
    return 0.0;
  };
  EXPECT_EQ(events(""), events((dir_ / "ck").string()));
}

TEST_F(CkptTest, ResumeOfCompletedRunReVerifiesAndMatches) {
  const std::string ck = (dir_ / "ck").string();
  const auto first = run_trace(ck);

  ClusterExperiment exp(resumable(ck));
  exp.resume(ck);
  EXPECT_EQ(encode_trace(exp.trace()), first);
  ASSERT_NE(exp.checkpoint_manager(), nullptr);
  EXPECT_EQ(exp.checkpoint_manager()->resume_count(), 1u);
  const auto& c = exp.checkpoint_manager()->counters();
  EXPECT_GT(c.wal_records_verified, 0u);
  EXPECT_EQ(c.wal_records_appended, 0u);
}

TEST_F(CkptTest, ResumeRecoversFromChoppedWal) {
  const std::string ck = (dir_ / "ck").string();
  const auto reference = run_trace("");
  std::uint64_t records = 0;
  {
    ClusterExperiment first(resumable(ck));
    first.run();
    records = first.checkpoint_manager()->counters().wal_records_appended;
  }

  // Chop a third off the WAL, as a crash would: the surviving prefix is
  // verified against the replay and the rest is appended again.
  const fs::path wal = fs::path(ck) / "trace.dwal";
  const auto size = fs::file_size(wal);
  fs::resize_file(wal, size - size / 3);

  ClusterExperiment exp(resumable(ck));
  exp.resume(ck);
  EXPECT_EQ(encode_trace(exp.trace()), reference);
  ASSERT_NE(exp.checkpoint_manager(), nullptr);
  EXPECT_EQ(exp.checkpoint_manager()->resume_count(), 1u);
  const auto& c = exp.checkpoint_manager()->counters();
  EXPECT_GT(c.wal_records_verified, 0u);
  EXPECT_GT(c.wal_records_appended, 0u);
  EXPECT_EQ(c.wal_records_verified + c.wal_records_appended, records);
}

TEST_F(CkptTest, ResumeRejectsAValidWalRecordTheReplayDoesNotEmit) {
  const std::string ck = (dir_ / "ck").string();
  (void)run_trace(ck);

  // Alter record #7 and re-seal its checksum: every frame still scans as
  // valid, so only the replay's per-record hash check can catch it.
  const std::string wal = (fs::path(ck) / "trace.dwal").string();
  auto bytes = read_file_bytes(wal);
  const auto payloads = record_payloads(bytes);
  ASSERT_GT(payloads.size(), 7u);
  const auto [begin, end] = payloads[7];
  bytes[begin] ^= 0x02;
  const std::uint64_t sum = fnv1a(kFnvOffset, std::span(bytes).subspan(begin, end - begin));
  for (int i = 0; i < 8; ++i) bytes[end + i] = static_cast<std::uint8_t>(sum >> (8 * i));
  atomic_write_file(wal, bytes);

  ClusterExperiment exp(resumable(ck));
  const std::string what = resume_error(exp, ck);
  EXPECT_NE(what.find("divergent resume"), std::string::npos) << what;
  EXPECT_NE(what.find("#7 "), std::string::npos) << what;
}

TEST_F(CkptTest, ResumeRejectsAWalHoldingMoreRecordsThanTheReplay) {
  const std::string ck = (dir_ / "ck").string();
  (void)run_trace(ck);

  // A crashed WAL (no finalize marker) with one valid record too many.
  const fs::path wal = fs::path(ck) / "trace.dwal";
  const auto payloads = record_payloads(read_file_bytes(wal.string()));
  ASSERT_FALSE(payloads.empty());
  fs::resize_file(wal, payloads.back().second + 8);
  ClusterExperiment exp(resumable(ck));
  {
    ckpt::TraceWal extra(wal.string(), exp.scenario_fingerprint());
    ASSERT_FALSE(extra.finalized());
    extra.append(sample_record(0));
  }

  const std::string what = resume_error(exp, ck);
  EXPECT_NE(what.find("divergent resume: run completed with fewer records than "
                      "the durable WAL holds"),
            std::string::npos)
      << what;
}

TEST_F(CkptTest, ResumeSweepsAStaleLineageTempFile) {
  const std::string ck = (dir_ / "ck").string();
  const auto first = run_trace(ck);

  // What a kill between the lineage's tmp write and its rename leaves.
  const fs::path tmp = fs::path(ck) / "ckpt_manifest.json.tmp";
  std::ofstream(tmp) << "{\n  \"resume_count\": 9";

  ClusterExperiment exp(resumable(ck));
  exp.resume(ck);
  EXPECT_EQ(encode_trace(exp.trace()), first);
  EXPECT_FALSE(fs::exists(tmp));
  ASSERT_NE(exp.checkpoint_manager(), nullptr);
  EXPECT_EQ(exp.checkpoint_manager()->counters().stale_tmp_removed, 1u);
  EXPECT_EQ(exp.checkpoint_manager()->resume_count(), 1u);
}

TEST_F(CkptTest, ResumeRejectsADifferentScenario) {
  const std::string ck = (dir_ / "ck").string();
  (void)run_trace(ck);
  {
    ClusterExperiment exp(resumable(ck, 12));  // different seed
    EXPECT_THROW(exp.resume(ck), Error);
  }
  // The failed run must not leave the process-wide codec metrics pointing
  // into its freed registry (a sanitized build reports the use after free).
  EXPECT_FALSE(encode_trace(ClusterTrace(2, 1.0)).empty());
  // The fingerprint's fold order is a format: existing WALs carry this value.
  EXPECT_EQ(ClusterExperiment(scenarios::tiny(20.0, 11)).scenario_fingerprint(),
            0xc5a10dfefdc1e442ULL);
}

TEST_F(CkptTest, ConfigValidation) {
  ckpt::CheckpointConfig cfg;
  EXPECT_FALSE(cfg.enabled());
  cfg.dir = "somewhere";
  EXPECT_TRUE(cfg.enabled());
}

}  // namespace
}  // namespace dct
