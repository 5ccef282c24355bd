// The checkpoint journal: an append-only, CRC32C-framed record log that
// makes the landscape sweep restartable. Layering (see ARCHITECTURE.md):
// this file knows only about byte frames — what goes *inside* a frame is
// records.h's business, and when frames get written is durable_sweep.h's.
// All I/O goes through a util::Vfs (defaulting to the real filesystem), so
// the chaos harness can put a fault-injecting model filesystem underneath.
//
// On-disk layout (normative spec: docs/CHECKPOINT_FORMAT.md):
//
//   file   := header frame*
//   header := magic[8]="PROXJRNL" u16 version(LE) u16 reserved=0
//   frame  := u32 payload_len(LE) u8 type payload[payload_len]
//             u32 crc32c(type || payload)(LE)
//
// Recovery contract: a reader scans frames from the header forward and
// stops at the first structurally-truncated or CRC-failing frame — the
// valid prefix is the journal's content (torn tails from a crash mid-append
// are dropped, never propagated). With ReplayOptions::salvage, the scan
// instead resynchronizes past a corrupt region to the next valid frame, so
// mid-file bit rot loses only the frames it actually hit (the durable sweep
// recomputes exactly those). A shard commits when its kShardCommit frame
// is fsynced: the frame's place in the valid prefix implies its records'.
// The journal alone says what is committed.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/vfs.h"

namespace proxion::store {

inline constexpr std::size_t kJournalMagicSize = 8;
inline constexpr char kJournalMagic[kJournalMagicSize + 1] = "PROXJRNL";
/// v4: a journal holds only kContract and kShardCommit frames (v3's sweep
/// begin/end frames, types 1 and 4, are retired). Readers reject other
/// versions wholesale — a v2 or v3 journal resumes as a fresh sweep.
inline constexpr std::uint16_t kJournalVersion = 4;
/// header = magic + version + reserved.
inline constexpr std::size_t kJournalHeaderSize = kJournalMagicSize + 4;
/// Frame overhead around the payload: length + type + checksum.
inline constexpr std::size_t kFrameOverhead = 4 + 1 + 4;
/// Fuse against absurd length fields in corrupted frames (a frame claiming
/// more than this is treated as the start of a torn tail).
inline constexpr std::uint32_t kMaxFramePayload = 1u << 28;  // 256 MiB

/// Outcome of a store I/O operation, carrying enough context (operation,
/// errno, file offset, path) for a degraded-mode report to say *why* the
/// disk failed, not just that it did. Converts to bool like the old
/// bare-bool API: `if (!writer.sync()) ...` still reads the same.
struct IoResult {
  bool ok = true;
  /// What was being attempted ("append", "fsync", "truncate", ...).
  std::string op;
  int err = 0;
  /// File offset of the failed operation, when meaningful.
  std::uint64_t offset = 0;
  std::string path;

  /// "fsync failed at offset 1234 in /x/journal: Input/output error".
  std::string message() const;

  explicit operator bool() const noexcept { return ok; }

  static IoResult failure(std::string op, int err, std::uint64_t offset = 0,
                          std::string path = {});
};

/// Frame types (payload schemas in records.h / CHECKPOINT_FORMAT.md).
/// Values 1 and 4 are retired: a frame carrying them is not a frame.
enum class RecordType : std::uint8_t {
  kContract = 2,     // one ContractAnalysis + its fingerprint and dependencies
  kShardCommit = 3,  // shard index + contract count became durable
};

struct JournalReplay;

/// Append-side handle. Not thread-safe: the durable sweep driver is the
/// single writer (the parallelism lives inside the pipeline, not here).
///
/// Failure semantics: a failed fsync makes the writer permanently dead
/// (fsyncgate — the kernel may have dropped the dirty pages on the floor, so
/// "retrying" the fsync on the same file would report success over lost
/// data). Every later append()/sync() returns the original failure. Other
/// failures (short write, ENOSPC) are also sticky: the file's tail is in an
/// unknown torn state that only a fresh open_append() scan can resolve.
class JournalWriter {
 public:
  /// Creates/truncates `path`, writes + fsyncs a fresh header, and fsyncs
  /// the parent directory so the journal's existence itself is durable.
  /// On failure, `why` (when non-null) says what went wrong.
  static std::optional<JournalWriter> create(
      const std::string& path, util::Vfs& vfs = util::Vfs::real(),
      IoResult* why = nullptr);
  /// Opens an existing journal for appending. Fails (nullopt) when the file
  /// is missing or its header is not a compatible journal header. Appends
  /// after the last *valid* frame (salvage scan: valid frames beyond a
  /// corrupt middle are kept). Any torn tail is preserved in the
  /// `<path>.torn` sidecar (overwrite-latest) before being truncated away,
  /// and counted in the `store.journal.torn_tails` counter.
  static std::optional<JournalWriter> open_append(
      const std::string& path, util::Vfs& vfs = util::Vfs::real(),
      IoResult* why = nullptr);
  /// The same, reusing a salvage-mode read_journal() scan of `path` the
  /// caller already holds, so a booting sweep reads the journal once, not
  /// twice. The file must be unchanged since that scan.
  static std::optional<JournalWriter> open_append(const std::string& path,
                                                  util::Vfs& vfs,
                                                  const JournalReplay& scan,
                                                  IoResult* why = nullptr);

  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&& other) noexcept;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter() = default;

  /// Buffers one frame; buffered frames reach the file at the next sync()
  /// (or when the buffer passes a flush threshold). Failure means the frame
  /// was rejected (oversized payload) or the writer is dead.
  IoResult append(RecordType type, std::span<const std::uint8_t> payload);
  /// Flushes buffered frames and fsyncs the file: everything appended so
  /// far is durable after this succeeds. Called at shard commits — not per
  /// record — so the sync cost amortizes over the shard. A failure kills
  /// the writer permanently (see class comment).
  IoResult sync();

  /// Bytes in the journal including the header (append position, counting
  /// buffered-but-unflushed frames).
  std::uint64_t size_bytes() const noexcept { return offset_; }
  std::uint64_t frames_appended() const noexcept { return frames_; }
  /// Dead after a failed sync/flush (fsyncgate fail-stop); the first
  /// failure is what append()/sync() keep returning.
  bool dead() const noexcept { return !first_error_.ok; }

 private:
  JournalWriter(std::unique_ptr<util::VfsFile> f, std::string path,
                std::uint64_t offset)
      : file_(std::move(f)), path_(std::move(path)), offset_(offset) {}

  /// Writes pending_ to the file. On failure: records the sticky error and
  /// drops the file handle (fail-stop).
  IoResult flush_pending();

  std::unique_ptr<util::VfsFile> file_;
  std::string path_;
  std::uint64_t offset_ = 0;
  std::uint64_t frames_ = 0;
  std::vector<std::uint8_t> pending_;
  IoResult first_error_;
};

/// One decoded frame.
struct JournalFrame {
  RecordType type{};
  std::vector<std::uint8_t> payload;
};

/// How read_journal treats a corrupt region. The default (no salvage)
/// stops at the first bad frame — right for straight-line torn-tail
/// recovery. Salvage mode scans forward byte-by-byte for the next valid
/// frame and keeps going, so committed records *past* a bit-rot gap
/// survive; the durable sweep uses this and recomputes only the gap.
struct ReplayOptions {
  bool salvage = false;
};

/// Outcome of a full journal scan: the valid frame prefix plus how the scan
/// ended (cleanly at EOF, or at a torn/corrupt tail that was dropped).
struct JournalReplay {
  std::vector<JournalFrame> frames;
  /// Byte offset just past the last valid frame (= header size for an empty
  /// journal). A writer resuming here overwrites only garbage.
  std::uint64_t valid_bytes = 0;
  /// True when bytes existed past valid_bytes (torn tail or corruption).
  bool tail_dropped = false;
  /// Frames that parsed structurally but failed their CRC.
  std::uint64_t crc_failures = 0;
  /// Salvage only: corrupt regions skipped to reach a later valid frame,
  /// and the total bytes those regions covered.
  std::uint64_t corrupt_gaps = 0;
  std::uint64_t gap_bytes = 0;
};

/// Scans `path` and returns the valid frame prefix (or, with
/// opts.salvage, every valid frame — see ReplayOptions). nullopt when the
/// file does not exist or its header is not a compatible journal header (a
/// *corrupt header* is unrecoverable by design: the data must be
/// re-swept).
std::optional<JournalReplay> read_journal(const std::string& path,
                                          util::Vfs& vfs = util::Vfs::real(),
                                          const ReplayOptions& opts = {});

/// `<journal path>.manifest`, where journals before v4 kept a summary
/// file. The store neither reads nor writes it; callers use the path only
/// to clean a leftover one up.
std::string manifest_path_for(const std::string& journal_path);

/// The torn-tail sidecar convention: `<journal path>.torn` (forensic copy
/// of the last truncated tail; overwritten each time a new tail is cut).
std::string torn_sidecar_path_for(const std::string& journal_path);

}  // namespace proxion::store
