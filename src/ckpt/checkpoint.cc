#include "ckpt/checkpoint.h"

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <utility>

#include "common/fsio.h"
#include "common/require.h"

namespace dct::ckpt {
namespace fs = std::filesystem;

namespace {

constexpr const char* kWalFile = "trace.dwal";
constexpr const char* kLineageFile = "ckpt_manifest.json";

/// Minimal extraction of an unsigned integer field from the lineage
/// manifest this module itself writes ("key": 123).  Returns `fallback`
/// when the key is absent or the file is unreadable garbage — lineage is
/// best-effort metadata, never a correctness input.
std::uint64_t parse_lineage_u64(const std::string& text, const std::string& key,
                                std::uint64_t fallback) {
  const std::string needle = "\"" + key + "\":";
  const auto at = text.find(needle);
  if (at == std::string::npos) return fallback;
  const char* p = text.c_str() + at + needle.size();
  while (*p == ' ') ++p;
  if (*p < '0' || *p > '9') return fallback;
  std::uint64_t v = 0;
  while (*p >= '0' && *p <= '9') v = v * 10 + static_cast<std::uint64_t>(*p++ - '0');
  return v;
}

}  // namespace

CheckpointManager::CheckpointManager(CheckpointConfig cfg, std::uint64_t fingerprint)
    : cfg_(std::move(cfg)), fingerprint_(fingerprint) {
  require(cfg_.enabled(), "CheckpointManager: config has no checkpoint dir");
  if (const char* env = std::getenv("DCT_CKPT_TEST_SLOW_NS")) {
    slow_ns_ = std::atoll(env);
  }
  std::error_code ec;
  fs::create_directories(cfg_.dir, ec);
  require(!ec, "CheckpointManager: cannot create " + cfg_.dir);
  recover();
}

std::string CheckpointManager::wal_path() const {
  return (fs::path(cfg_.dir) / kWalFile).string();
}

std::string CheckpointManager::lineage_path() const {
  return (fs::path(cfg_.dir) / kLineageFile).string();
}

void CheckpointManager::recover() {
  // A kill between tmp-write and rename leaves a *.tmp (the lineage is
  // written tmp + rename); the rename never happened, so the file it would
  // have replaced is still whole.  Clean up.
  for (const auto& entry : fs::directory_iterator(cfg_.dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      std::error_code ec;
      fs::remove(entry.path(), ec);
      ++counters_.stale_tmp_removed;
    }
  }

  std::uint64_t prior_resumes = 0;
  if (fs::exists(lineage_path())) {
    const auto bytes = read_file_bytes(lineage_path());
    const std::string text(bytes.begin(), bytes.end());
    prior_resumes = parse_lineage_u64(text, "resume_count", 0);
  }

  wal_ = std::make_unique<TraceWal>(wal_path(), fingerprint_, slow_ns_);
  counters_.wal_torn_bytes = wal_->truncated_bytes();

  if (wal_->resumed_existing() || prior_resumes > 0) {
    resume_count_ = prior_resumes + 1;
  }
  write_lineage(wal_->finalized());
}

void CheckpointManager::on_record(const FlowRecord& rec) {
  const auto& durable = wal_->durable_hashes();
  if (emitted_ < durable.size()) {
    // Replay inside the durable prefix: prove the re-emitted record is the
    // one already spooled instead of re-appending it.
    require(fnv1a(kFnvOffset, encode_wal_record(rec)) == durable[emitted_],
            "ckpt: divergent resume: replayed record #" + std::to_string(emitted_) +
                " does not match the durable WAL");
    ++counters_.wal_records_verified;
  } else {
    wal_->append(rec);
    ++counters_.wal_records_appended;
  }
  ++emitted_;
}

void CheckpointManager::finalize() {
  require(emitted_ >= wal_->durable_hashes().size(),
          "ckpt: divergent resume: run completed with fewer records than the "
          "durable WAL holds");
  wal_->finalize();
  write_lineage(true);
}

void CheckpointManager::write_lineage(bool finished) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\n"
                "  \"fingerprint\": %llu,\n"
                "  \"resume_count\": %llu,\n"
                "  \"wal_records\": %llu,\n"
                "  \"wal_torn_bytes\": %llu,\n"
                "  \"stale_tmp_removed\": %llu,\n"
                "  \"finished\": %s,\n"
                "  \"updated_unix_s\": %lld\n"
                "}\n",
                static_cast<unsigned long long>(fingerprint_),
                static_cast<unsigned long long>(resume_count_),
                static_cast<unsigned long long>(emitted_),
                static_cast<unsigned long long>(counters_.wal_torn_bytes),
                static_cast<unsigned long long>(counters_.stale_tmp_removed),
                finished ? "true" : "false",
                static_cast<long long>(std::time(nullptr)));
  atomic_write_file(lineage_path(), std::string_view(buf));
}

}  // namespace dct::ckpt
