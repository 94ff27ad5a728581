#include "common/fsio.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "common/require.h"

namespace dct {
namespace {

// POSIX write loop: ::write may accept fewer bytes than asked.
bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

// Forces the directory entry for `path` to stable storage, so the rename
// that installed the file survives a power cut, not just the file's data.
void sync_parent_dir(const std::filesystem::path& p) {
  const std::filesystem::path dir = p.has_parent_path() ? p.parent_path() : ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;  // best effort: some filesystems refuse dir fsync
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

void atomic_write_file(const std::string& path, std::span<const std::uint8_t> bytes,
                       bool sync) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
    require(!ec, "atomic_write_file: cannot create " + p.parent_path().string() +
                     ": " + ec.message());
  }
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  require(fd >= 0, "atomic_write_file: cannot open " + tmp + ": " +
                       std::strerror(errno));
  bool ok = write_all(fd, bytes.data(), bytes.size());
  // fdatasync: the rename below is what publishes the file, so inode
  // metadata (mtime) needs no flush of its own — only the data and the
  // size, both of which fdatasync covers.  Measurably cheaper than fsync
  // on journaling filesystems.
  if (ok && sync) ok = ::fdatasync(fd) == 0;
  ::close(fd);
  if (!ok) {
    std::error_code rm_ec;
    std::filesystem::remove(tmp, rm_ec);
    require(false, "atomic_write_file: write failed for " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, p, ec);
  if (ec) {
    std::error_code rm_ec;
    std::filesystem::remove(tmp, rm_ec);
    require(false, "atomic_write_file: cannot rename " + tmp + " to " + path +
                       ": " + ec.message());
  }
  if (sync) sync_parent_dir(p);
}

void atomic_write_file(const std::string& path, std::string_view text, bool sync) {
  atomic_write_file(
      path,
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(text.data()), text.size()),
      sync);
}

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  // An ifstream opens a directory, then its first read throws
  // std::ios_base::failure.
  std::error_code ec;
  require(!std::filesystem::is_directory(path, ec),
          "read_file_bytes: " + path + " is a directory");
  std::ifstream in(path, std::ios::binary);
  require(in.good(), "read_file_bytes: cannot open " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  require(!in.bad(), "read_file_bytes: read failed for " + path);
  return bytes;
}

}  // namespace dct
