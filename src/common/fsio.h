// Crash-safe file output shared by every artifact writer in the library.
//
// The paper's pipeline ran for weeks; partially written outputs were a fact
// of life.  Every durable artifact this library produces — run manifests,
// bench CSV/JSON exports, checkpoint lineage, encoded traces — goes
// through the same write-to-temp + rename discipline, so a reader (or a
// crash mid-write) either sees the previous complete file or the new
// complete file, never a torn one.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dct {

/// Atomically replaces `path` with `bytes`: writes `<path>.tmp`, flushes,
/// optionally fsyncs, then renames over `path`.  Parent directories are
/// created as needed.  With `sync` the data (and the containing directory
/// entry) are forced to stable storage before the call returns — the
/// durability the checkpoint subsystem needs; without it the rename is
/// still atomic but the data may sit in the page cache.
/// Throws dct::Error on any I/O failure, removing the temp file.
void atomic_write_file(const std::string& path, std::span<const std::uint8_t> bytes,
                       bool sync = false);

/// Text overload of atomic_write_file.
void atomic_write_file(const std::string& path, std::string_view text,
                       bool sync = false);

/// Reads a whole file into memory; throws dct::Error when it cannot be
/// opened or read.
[[nodiscard]] std::vector<std::uint8_t> read_file_bytes(const std::string& path);

}  // namespace dct
