// The filesystem abstraction seam for the durable store: every byte the
// checkpoint journal and its sidecar put on (or read off) disk goes through
// a `Vfs`, the storage-side twin of `chain::IArchiveNode`. Production uses
// the process-wide `Vfs::real()` (stdio + POSIX fsync, including the
// parent-directory fsync that makes rename(2) and file creation durable);
// tests swap in `util::FaultInjectingVfs` (vfs_fault.h), an in-memory
// filesystem that models exactly which bytes and directory entries survive
// a power cut.
//
// Durability contract the store relies on (and RealVfs implements):
//   - VfsFile::sync() returning ok means every byte written to the file so
//     far is durable. A FAILED sync means the dirty range is in an unknown
//     state and may be silently dropped by the page cache (fsyncgate):
//     callers must treat the file as dead, never "retry the fsync".
//   - rename() is atomic (POSIX rename(2)) but the *directory entry* is only
//     durable after sync_dir() on the containing directory; same for the
//     entry created by open(kTruncate). Skipping sync_dir is the classic
//     power-loss hole where a crash un-does a committed rename.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace proxion::util {

/// Outcome of one Vfs operation. `err` is the operation's errno (0 when ok).
struct VfsStatus {
  bool ok = true;
  int err = 0;

  explicit operator bool() const noexcept { return ok; }
};

/// An open file handle. Writes land at the cursor and advance it; partial
/// writes report failure (the prefix may have been applied — callers that
/// care about torn state must re-scan, which is what the journal's
/// valid-prefix recovery does).
class VfsFile {
 public:
  virtual ~VfsFile() = default;

  virtual VfsStatus write(std::span<const std::uint8_t> bytes) = 0;
  virtual VfsStatus seek(std::uint64_t offset) = 0;
  /// Flush + fsync: on ok, everything written so far is durable. On failure,
  /// dirty data is in an unknown state (see file comment) — fail-stop.
  virtual VfsStatus sync() = 0;
  virtual VfsStatus truncate(std::uint64_t size) = 0;
};

class Vfs {
 public:
  enum class OpenMode {
    kTruncate,   // create or truncate, write cursor at 0 ("wb")
    kReadWrite,  // existing file, preserve content ("r+b")
  };

  virtual ~Vfs() = default;

  /// Null on failure; `status` (when non-null) carries the errno.
  virtual std::unique_ptr<VfsFile> open(const std::string& path, OpenMode mode,
                                        VfsStatus* status = nullptr) = 0;
  /// Whole-file read; nullopt when missing or unreadable.
  virtual std::optional<std::vector<std::uint8_t>> read_file(
      const std::string& path) = 0;
  /// Atomic replace (POSIX rename(2)); durable only after sync_dir().
  virtual VfsStatus rename(const std::string& from, const std::string& to) = 0;
  virtual VfsStatus remove(const std::string& path) = 0;
  /// fsyncs the directory CONTAINING `path`, making its entries (creates,
  /// renames, removes) durable. No-op success on platforms without
  /// directory fsync.
  virtual VfsStatus sync_dir(const std::string& path) = 0;

  /// The process-wide real filesystem.
  static Vfs& real();
};

}  // namespace proxion::util
