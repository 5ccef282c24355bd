#include "store/journal.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "store/crc32.h"

namespace proxion::store {

namespace {

/// Buffered frames are written out once they pass this size, bounding the
/// writer's memory without paying a syscall per frame.
constexpr std::size_t kFlushThreshold = std::size_t{1} << 20;  // 1 MiB

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::vector<std::uint8_t> header_bytes() {
  std::vector<std::uint8_t> h(kJournalMagic, kJournalMagic + kJournalMagicSize);
  put_u16(h, kJournalVersion);
  put_u16(h, 0);  // reserved
  return h;
}

bool valid_record_type(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(RecordType::kSweepBegin) &&
         t <= static_cast<std::uint8_t>(RecordType::kSweepEnd);
}

// store.vfs.* telemetry: every disk event on the checkpoint path is
// visible to operators. Registry lookups are mutexed, so resolve once.
obs::Counter& c_writes() {
  static obs::Counter& c = obs::Registry::global().counter("store.vfs.writes");
  return c;
}
obs::Counter& c_write_bytes() {
  static obs::Counter& c =
      obs::Registry::global().counter("store.vfs.write_bytes");
  return c;
}
obs::Counter& c_fsyncs() {
  static obs::Counter& c = obs::Registry::global().counter("store.vfs.fsyncs");
  return c;
}
obs::Counter& c_renames() {
  static obs::Counter& c = obs::Registry::global().counter("store.vfs.renames");
  return c;
}
obs::Counter& c_errors() {
  static obs::Counter& c = obs::Registry::global().counter("store.vfs.errors");
  return c;
}
obs::Counter& c_torn_tails() {
  static obs::Counter& c =
      obs::Registry::global().counter("store.journal.torn_tails");
  return c;
}

IoResult fail_io(std::string op, int err, std::uint64_t offset,
                 std::string path) {
  c_errors().add();
  return IoResult::failure(std::move(op), err, offset, std::move(path));
}

/// True when a structurally-complete, CRC-valid, known-type frame starts at
/// `pos`; `len` receives its payload length. `crc_failed` is set when the
/// structure parsed but the checksum did not match (the caller counts those
/// only at genuine frame boundaries, not at salvage-scan offsets).
bool frame_at(const std::vector<std::uint8_t>& b, std::size_t pos,
              std::uint32_t* len, bool* crc_failed) {
  *crc_failed = false;
  if (pos + kFrameOverhead > b.size()) return false;
  const std::uint32_t n = get_u32(&b[pos]);
  if (n > kMaxFramePayload || pos + kFrameOverhead + n > b.size()) return false;
  const std::uint32_t want = get_u32(&b[pos + 5 + n]);
  const std::uint32_t got = crc32c(&b[pos + 4], 1 + n);
  if (got != want) {
    *crc_failed = true;
    return false;
  }
  if (!valid_record_type(b[pos + 4])) return false;
  *len = n;
  return true;
}

}  // namespace

std::string IoResult::message() const {
  if (ok) return "ok";
  std::string msg = op.empty() ? std::string("io") : op;
  msg += " failed";
  msg += " at offset " + std::to_string(offset);
  if (!path.empty()) msg += " in " + path;
  msg += ": ";
  msg += err != 0 ? std::strerror(err) : "unknown error";
  return msg;
}

IoResult IoResult::failure(std::string op, int err, std::uint64_t offset,
                           std::string path) {
  IoResult r;
  r.ok = false;
  r.op = std::move(op);
  r.err = err;
  r.offset = offset;
  r.path = std::move(path);
  return r;
}

std::optional<JournalWriter> JournalWriter::create(const std::string& path,
                                                   util::Vfs& vfs,
                                                   IoResult* why) {
  auto report = [&](IoResult r) {
    if (why != nullptr) *why = std::move(r);
    return std::nullopt;
  };
  util::VfsStatus st;
  std::unique_ptr<util::VfsFile> f = vfs.open(path, util::Vfs::OpenMode::kTruncate, &st);
  if (f == nullptr) return report(fail_io("open", st.err, 0, path));
  const std::vector<std::uint8_t> h = header_bytes();
  if (util::VfsStatus s = f->write(h); !s) {
    return report(fail_io("write", s.err, 0, path));
  }
  // The header and the journal's directory entry are made durable up
  // front: a power cut between creation and the first shard commit must
  // find an empty journal, not no journal (the manifest protocol assumes
  // the file named by the manifest exists).
  if (util::VfsStatus s = f->sync(); !s) {
    return report(fail_io("fsync", s.err, 0, path));
  }
  if (util::VfsStatus s = vfs.sync_dir(path); !s) {
    return report(fail_io("fsyncdir", s.err, 0, path));
  }
  c_writes().add();
  c_write_bytes().add(h.size());
  c_fsyncs().add();
  return JournalWriter(std::move(f), path, h.size());
}

std::optional<JournalWriter> JournalWriter::open_append(const std::string& path,
                                                        util::Vfs& vfs,
                                                        IoResult* why) {
  auto report = [&](IoResult r) {
    if (why != nullptr) *why = std::move(r);
    return std::nullopt;
  };
  // Scan first: appending must start after the last VALID frame, not after
  // whatever torn bytes a crash left at the tail. Salvage mode so frames
  // beyond a corrupt middle are not overwritten.
  const std::optional<JournalReplay> replay =
      read_journal(path, vfs, ReplayOptions{.salvage = true});
  if (!replay) {
    return report(fail_io("scan", EIO, 0, path));
  }
  return open_append(path, vfs, *replay, why);
}

std::optional<JournalWriter> JournalWriter::open_append(
    const std::string& path, util::Vfs& vfs, const JournalReplay& scan,
    IoResult* why) {
  auto report = [&](IoResult r) {
    if (why != nullptr) *why = std::move(r);
    return std::nullopt;
  };
  if (scan.tail_dropped) {
    // Preserve the forensic evidence before truncating: the dropped tail
    // goes to the `.torn` sidecar (latest tail wins).
    const std::optional<std::vector<std::uint8_t>> bytes = vfs.read_file(path);
    if (bytes && scan.valid_bytes < bytes->size()) {
      const std::string sidecar = torn_sidecar_path_for(path);
      const std::size_t tail = bytes->size() - scan.valid_bytes;
      if (std::unique_ptr<util::VfsFile> side =
              vfs.open(sidecar, util::Vfs::OpenMode::kTruncate)) {
        (void)side->write(std::span<const std::uint8_t>(
            bytes->data() + scan.valid_bytes, tail));
      }
      std::fprintf(stderr,
                   "proxion: journal %s: dropped %zu-byte torn tail at offset "
                   "%llu (saved to %s)\n",
                   path.c_str(), tail,
                   static_cast<unsigned long long>(scan.valid_bytes),
                   sidecar.c_str());
    }
    c_torn_tails().add();
  }
  util::VfsStatus st;
  std::unique_ptr<util::VfsFile> f =
      vfs.open(path, util::Vfs::OpenMode::kReadWrite, &st);
  if (f == nullptr) return report(fail_io("open", st.err, 0, path));
  if (scan.tail_dropped) {
    // Cut the torn tail off for real: leftover garbage past the append
    // point could otherwise masquerade as frames after shorter re-appends.
    if (util::VfsStatus s = f->truncate(scan.valid_bytes); !s) {
      return report(fail_io("truncate", s.err, scan.valid_bytes, path));
    }
  }
  if (util::VfsStatus s = f->seek(scan.valid_bytes); !s) {
    return report(fail_io("seek", s.err, scan.valid_bytes, path));
  }
  return JournalWriter(std::move(f), path, scan.valid_bytes);
}

JournalWriter::JournalWriter(JournalWriter&&) noexcept = default;
JournalWriter& JournalWriter::operator=(JournalWriter&&) noexcept = default;

IoResult JournalWriter::append(RecordType type,
                               std::span<const std::uint8_t> payload) {
  if (!first_error_.ok) return first_error_;
  if (file_ == nullptr || payload.size() > kMaxFramePayload) {
    return IoResult::failure("append", EINVAL, offset_, path_);
  }
  const std::size_t frame_start = pending_.size();
  put_u32(pending_, static_cast<std::uint32_t>(payload.size()));
  pending_.push_back(static_cast<std::uint8_t>(type));
  pending_.insert(pending_.end(), payload.begin(), payload.end());
  const std::uint32_t crc = crc32c(&pending_[frame_start + 4], 1 + payload.size());
  put_u32(pending_, crc);
  offset_ += kFrameOverhead + payload.size();
  ++frames_;
  if (pending_.size() >= kFlushThreshold) return flush_pending();
  return {};
}

IoResult JournalWriter::flush_pending() {
  if (!first_error_.ok) return first_error_;
  if (pending_.empty()) return {};
  if (file_ == nullptr) {
    return IoResult::failure("append", EINVAL, offset_, path_);
  }
  const std::uint64_t at = offset_ - pending_.size();
  if (util::VfsStatus s = file_->write(pending_); !s) {
    // The file tail is now in an unknown torn state; only a fresh
    // open_append() scan can find the real append point again. Fail-stop.
    first_error_ = fail_io("append", s.err, at, path_);
    file_.reset();
    return first_error_;
  }
  c_writes().add();
  c_write_bytes().add(pending_.size());
  pending_.clear();
  return {};
}

IoResult JournalWriter::sync() {
  if (!first_error_.ok) return first_error_;
  if (IoResult r = flush_pending(); !r) return r;
  if (file_ == nullptr) {
    return IoResult::failure("fsync", EINVAL, offset_, path_);
  }
  if (util::VfsStatus s = file_->sync(); !s) {
    // fsyncgate: the kernel may have dropped the dirty pages when the
    // fsync failed, and a RETRIED fsync on the same file would then report
    // success over silently lost data. Never touch this file again.
    first_error_ = fail_io("fsync", s.err, offset_, path_);
    file_.reset();
    return first_error_;
  }
  c_fsyncs().add();
  return {};
}

std::optional<JournalReplay> read_journal(const std::string& path,
                                          util::Vfs& vfs,
                                          const ReplayOptions& opts) {
  const std::optional<std::vector<std::uint8_t>> bytes = vfs.read_file(path);
  if (!bytes) return std::nullopt;
  const std::vector<std::uint8_t>& b = *bytes;
  if (b.size() < kJournalHeaderSize ||
      std::memcmp(b.data(), kJournalMagic, kJournalMagicSize) != 0) {
    return std::nullopt;
  }
  const std::uint16_t version =
      static_cast<std::uint16_t>(b[kJournalMagicSize]) |
      static_cast<std::uint16_t>(b[kJournalMagicSize + 1]) << 8;
  if (version != kJournalVersion) return std::nullopt;

  JournalReplay out;
  std::size_t pos = kJournalHeaderSize;
  std::size_t last_valid_end = kJournalHeaderSize;
  while (pos + kFrameOverhead <= b.size()) {
    std::uint32_t len = 0;
    bool crc_failed = false;
    if (frame_at(b, pos, &len, &crc_failed)) {
      JournalFrame frame;
      frame.type = static_cast<RecordType>(b[pos + 4]);
      frame.payload.assign(
          b.begin() + static_cast<std::ptrdiff_t>(pos + 5),
          b.begin() + static_cast<std::ptrdiff_t>(pos + 5 + len));
      out.frames.push_back(std::move(frame));
      pos += kFrameOverhead + len;
      last_valid_end = pos;
      continue;
    }
    // A bad frame starts here. Only a failure at a genuine frame boundary
    // counts as a CRC failure (salvage-scan offsets are expected misses).
    if (crc_failed) ++out.crc_failures;
    if (!opts.salvage) break;
    // Resynchronize: scan forward for the next offset where a whole valid
    // frame begins. Everything in between is a corrupt gap whose records
    // are lost (and will be recomputed); frames past it survive.
    std::size_t q = pos + 1;
    bool found = false;
    for (; q + kFrameOverhead <= b.size(); ++q) {
      std::uint32_t qlen = 0;
      bool qcrc = false;
      if (frame_at(b, q, &qlen, &qcrc)) {
        found = true;
        break;
      }
    }
    if (!found) break;  // nothing salvageable remains: it is the torn tail
    ++out.corrupt_gaps;
    out.gap_bytes += q - pos;
    pos = q;
  }
  out.valid_bytes = last_valid_end;
  out.tail_dropped = last_valid_end < b.size();
  return out;
}

std::string manifest_path_for(const std::string& journal_path) {
  return journal_path + ".manifest";
}

std::string torn_sidecar_path_for(const std::string& journal_path) {
  return journal_path + ".torn";
}

// Manifest wire format: fixed little-endian block + trailing CRC32C, small
// enough that the write-temp-then-rename protocol makes torn states
// unobservable (the CRC only defends against bit rot / foreign files).
//   u16 version  u16 flags(bit0=complete)  u64 committed_bytes
//   u64 shards_committed  u64 contracts_committed  u32 crc32c(all prior)

std::optional<Manifest> load_manifest(const std::string& path,
                                      util::Vfs& vfs) {
  const std::optional<std::vector<std::uint8_t>> bytes = vfs.read_file(path);
  if (!bytes) return std::nullopt;
  const std::vector<std::uint8_t>& b = *bytes;
  constexpr std::size_t kBody = 2 + 2 + 8 + 8 + 8;
  if (b.size() != kBody + 4) return std::nullopt;
  if (crc32c(b.data(), kBody) != get_u32(&b[kBody])) return std::nullopt;
  Manifest m;
  m.version = static_cast<std::uint16_t>(b[0]) |
              static_cast<std::uint16_t>(b[1]) << 8;
  if (m.version != kJournalVersion) return std::nullopt;
  m.complete = (b[2] & 1u) != 0;
  m.committed_bytes = get_u64(&b[4]);
  m.shards_committed = get_u64(&b[12]);
  m.contracts_committed = get_u64(&b[20]);
  return m;
}

IoResult store_manifest(const std::string& path, const Manifest& m,
                        util::Vfs& vfs) {
  std::vector<std::uint8_t> b;
  put_u16(b, m.version);
  put_u16(b, m.complete ? 1 : 0);
  put_u64(b, m.committed_bytes);
  put_u64(b, m.shards_committed);
  put_u64(b, m.contracts_committed);
  put_u32(b, crc32c(b.data(), b.size()));

  const std::string tmp = path + ".tmp";
  util::VfsStatus st;
  std::unique_ptr<util::VfsFile> f =
      vfs.open(tmp, util::Vfs::OpenMode::kTruncate, &st);
  if (f == nullptr) return fail_io("open", st.err, 0, tmp);
  if (util::VfsStatus s = f->write(b); !s) {
    f.reset();
    vfs.remove(tmp);
    return fail_io("write", s.err, 0, tmp);
  }
  if (util::VfsStatus s = f->sync(); !s) {
    f.reset();
    vfs.remove(tmp);
    return fail_io("fsync", s.err, 0, tmp);
  }
  f.reset();  // close before the rename
  c_writes().add();
  c_write_bytes().add(b.size());
  c_fsyncs().add();
  if (util::VfsStatus s = vfs.rename(tmp, path); !s) {
    vfs.remove(tmp);
    return fail_io("rename", s.err, 0, path);
  }
  c_renames().add();
  // Without this the rename itself is not power-loss durable: the old
  // directory entry could come back and resurrect the previous manifest.
  if (util::VfsStatus s = vfs.sync_dir(path); !s) {
    return fail_io("fsyncdir", s.err, 0, path);
  }
  return {};
}

}  // namespace proxion::store
