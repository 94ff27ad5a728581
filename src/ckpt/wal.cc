#include "ckpt/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <filesystem>

#include "common/fsio.h"
#include "common/require.h"
#include "trace/codec.h"

namespace dct::ckpt {
namespace {

constexpr std::uint8_t kWalMagic[4] = {'D', 'W', 'A', 'L'};
constexpr std::uint8_t kWalVersion = 1;
constexpr std::uint8_t kTagRecord = 1;
constexpr std::uint8_t kTagFinal = 2;
// In slow (test) mode, sleep inside every Nth record append so randomized
// SIGKILLs land mid-frame often enough for the crash harness to exercise
// torn-tail truncation.
constexpr std::uint64_t kSlowEveryNth = 8;
// Owned append-buffer capacity, and so the most a crash can lose: each
// drain costs one write() and one fdatasync, so a smaller buffer buys a
// tighter loss bound with more syncs.
constexpr std::size_t kBufferCap = 256 * 1024;

std::uint64_t get_u64(ByteReader& r) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(r.u8()) << (8 * i);
  return v;
}

void sleep_ns(std::int64_t ns) {
  timespec ts{};
  ts.tv_sec = ns / 1000000000;
  ts.tv_nsec = ns % 1000000000;
  nanosleep(&ts, nullptr);
}

// Allocation-free encoding primitives for the per-record hot path: each
// writes at `p` and returns the end of what it wrote.
std::uint8_t* put_uvarint(std::uint8_t* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

std::uint8_t* put_svarint(std::uint8_t* p, std::int64_t v) {
  // Zig-zag, matching ByteWriter::svarint.
  return put_uvarint(p, (static_cast<std::uint64_t>(v) << 1) ^
                            static_cast<std::uint64_t>(v >> 63));
}

std::uint8_t* put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) *p++ = static_cast<std::uint8_t>(v >> (8 * i));
  return p;
}

// Largest record payload: seven varints of up to 10 bytes, two doubles and
// the flags byte.  Any payload is shorter than 0x80 bytes, so a frame's
// length uvarint is always one byte.
constexpr std::size_t kMaxPayload = 7 * 10 + 2 * 8 + 1;
static_assert(kMaxPayload < 0x80);
// [tag][length][payload][hash]
constexpr std::size_t kMaxFrame = 2 + kMaxPayload + 8;

std::uint8_t* encode_wal_record_at(std::uint8_t* p, const FlowRecord& rec) {
  p = put_svarint(p, rec.id.value());
  p = put_svarint(p, rec.src.value());
  p = put_svarint(p, rec.dst.value());
  p = put_svarint(p, rec.bytes_requested);
  p = put_svarint(p, rec.bytes_sent);
  p = put_u64(p, std::bit_cast<std::uint64_t>(rec.start));
  p = put_u64(p, std::bit_cast<std::uint64_t>(rec.end));
  *p++ = static_cast<std::uint8_t>((rec.failed ? 1 : 0) | (rec.truncated ? 2 : 0) |
                                   (static_cast<std::uint8_t>(rec.kind) << 2));
  p = put_svarint(p, rec.job.value());
  return put_svarint(p, rec.phase.value());
}

std::vector<std::uint8_t> wal_header(std::uint64_t fingerprint) {
  std::vector<std::uint8_t> out(std::begin(kWalMagic), std::end(kWalMagic));
  out.push_back(kWalVersion);
  out.resize(out.size() + 8);
  put_u64(out.data() + out.size() - 8, fingerprint);
  return out;
}

// POSIX write loop used for the header, buffer drains and the slow-mode
// torn half-writes; ::write may accept fewer bytes than asked.
void raw_write(int fd, const std::string& path, const std::uint8_t* data,
               std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
    } else if (n < 0 && errno != EINTR) {
      const int err = errno;
      require(false, "TraceWal: write to " + path + " failed: " + std::strerror(err));
    }
  }
}

}  // namespace

std::vector<std::uint8_t> encode_wal_record(const FlowRecord& rec) {
  std::uint8_t payload[kMaxPayload];
  return {payload, encode_wal_record_at(payload, rec)};
}

TraceWal::TraceWal(std::string path, std::uint64_t fingerprint, std::int64_t slow_ns)
    : path_(std::move(path)), fingerprint_(fingerprint), slow_ns_(slow_ns) {
  const std::filesystem::path p(path_);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
    require(!ec, "TraceWal: cannot create " + p.parent_path().string());
  }
  buffer_.reserve(kBufferCap);
  const std::vector<std::uint8_t> header = wal_header(fingerprint_);
  std::error_code ec;
  const auto size = std::filesystem::file_size(p, ec);
  if (!ec && size >= header.size()) {
    // Existing segment: scan the frame prefix, drop any torn tail.
    scan_existing(read_file_bytes(path_));
    resumed_existing_ = true;
    if (valid_bytes_ < size) {
      std::filesystem::resize_file(p, valid_bytes_, ec);
      require(!ec, "TraceWal: cannot truncate torn tail of " + path_);
    }
    fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND);
    require(fd_ >= 0, "TraceWal: cannot reopen " + path_);
    return;
  }
  // Fresh segment (missing, or cut inside the header — nothing durable yet).
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  require(fd_ >= 0, "TraceWal: cannot create " + path_);
  try {
    raw_write(fd_, path_, header.data(), header.size());
  } catch (const Error&) {
    ::close(fd_);  // no destructor runs for a throwing constructor
    throw;
  }
  valid_bytes_ = header.size();
}

TraceWal::~TraceWal() {
  try {
    if (!buffer_.empty()) drain_buffer();
  } catch (const Error&) {
    // Best effort, never thrown: the next resume re-derives lost frames.
  }
  ::close(fd_);
}

void TraceWal::scan_existing(const std::vector<std::uint8_t>& bytes) {
  const std::vector<std::uint8_t> header = wal_header(fingerprint_);
  require(bytes.size() >= header.size() &&
              std::memcmp(bytes.data(), header.data(), header.size()) == 0,
          "TraceWal: " + path_ + " belongs to a different scenario (header mismatch)");
  ByteReader r(bytes);
  r.skip(header.size());
  valid_bytes_ = header.size();
  while (!r.done()) {
    // Each frame is accepted as a unit; any underrun, unknown tag or
    // checksum mismatch marks the torn tail and ends the scan.
    try {
      const std::uint8_t tag = r.u8();
      require(tag == kTagRecord || tag == kTagFinal, "TraceWal: bad frame tag");
      const std::uint64_t len = r.uvarint();
      require(len <= r.remaining(), "TraceWal: frame cut short");
      const auto payload =
          std::span<const std::uint8_t>(bytes).subspan(r.position(),
                                                       static_cast<std::size_t>(len));
      r.skip(static_cast<std::size_t>(len));
      const std::uint64_t want = get_u64(r);
      const std::uint64_t got = fnv1a(kFnvOffset, payload);
      require(got == want, "TraceWal: frame checksum mismatch");
      if (tag == kTagFinal) {
        ByteReader fr(payload);
        const std::uint64_t count = fr.uvarint();
        const std::uint64_t chain = get_u64(fr);
        require(count == durable_hashes_.size() && chain == chain_,
                "TraceWal: finalize marker does not match the record chain");
        finalized_ = true;
        valid_bytes_ = r.position();
        // Anything after a finalize marker is torn garbage.
        truncated_bytes_ = bytes.size() - valid_bytes_;
        truncated_tail_ = truncated_bytes_ > 0;
        return;
      }
      chain_ = fnv1a(chain_, payload);
      valid_bytes_ = r.position();
      durable_hashes_.push_back(got);
    } catch (const Error&) {
      truncated_bytes_ = bytes.size() - valid_bytes_;
      truncated_tail_ = true;
      return;
    }
  }
}

void TraceWal::drain_buffer() {
  raw_write(fd_, path_, buffer_.data(), buffer_.size());
  buffer_.clear();
  // fdatasync: an append-only segment re-scanned from byte 0 on recovery
  // needs its data and size durable, not its inode timestamps.
  require(::fdatasync(fd_) == 0, "TraceWal: fdatasync failed for " + path_);
}

void TraceWal::write_frame(std::uint8_t tag, std::uint8_t* frame, std::size_t len,
                           std::uint64_t hash) {
  require(fd_ >= 0, "TraceWal: closed");
  require(!finalized_, "TraceWal: append after finalize marker");
  frame[0] = tag;
  frame[1] = static_cast<std::uint8_t>(len);  // len <= kMaxPayload < 0x80
  const auto size = static_cast<std::size_t>(put_u64(frame + 2 + len, hash) - frame);
  const bool slow = slow_ns_ > 0 && (tag == kTagFinal ||
                                     records_appended_ % kSlowEveryNth == 0);
  const std::size_t start = buffer_.size();
  buffer_.insert(buffer_.end(), frame, frame + size);
  if (slow) {
    // Test mode: unbuffered half-writes with a sleep between, so a SIGKILL
    // in the window leaves a genuinely torn frame on disk.
    raw_write(fd_, path_, buffer_.data(), start + (size / 2));
    sleep_ns(slow_ns_);
    raw_write(fd_, path_, buffer_.data() + start + (size / 2), size - (size / 2));
    buffer_.clear();
  } else if (buffer_.size() >= kBufferCap) {
    drain_buffer();
  }
}

void TraceWal::append(const FlowRecord& rec) {
  // Hot path: one frame per finalized flow, encoded on the stack and copied
  // into the owned buffer once.  The frame checksum and the record chain
  // (both FNV-1a, different seeds) advance in a single pass over the payload.
  std::uint8_t frame[kMaxFrame];
  std::uint8_t* const payload = frame + 2;
  const auto len = static_cast<std::size_t>(encode_wal_record_at(payload, rec) - payload);
  std::uint64_t hash = kFnvOffset;
  std::uint64_t chain = chain_;
  for (std::size_t i = 0; i < len; ++i) {
    hash = (hash ^ payload[i]) * kFnvPrime;
    chain = (chain ^ payload[i]) * kFnvPrime;
  }
  write_frame(kTagRecord, frame, len, hash);
  chain_ = chain;
  ++records_appended_;
}

void TraceWal::finalize() {
  if (finalized_) return;
  std::uint8_t frame[kMaxFrame];
  std::uint8_t* const payload = frame + 2;
  const std::uint64_t records = durable_hashes_.size() + records_appended_;
  const auto len =
      static_cast<std::size_t>(put_u64(put_uvarint(payload, records), chain_) - payload);
  write_frame(kTagFinal, frame, len, fnv1a(kFnvOffset, {payload, len}));
  finalized_ = true;
  drain_buffer();
}

}  // namespace dct::ckpt
