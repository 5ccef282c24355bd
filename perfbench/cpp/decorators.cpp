#include "decorators.h"

#include "spans.h"

namespace perfbench {

void RemoteArchiveNode::wait_round_trip(std::uint64_t start_ns) const {
  if (round_trip_ns_ != 0) sleep_until(start_ns + round_trip_ns_);
}

void RemoteArchiveNode::finish(std::uint64_t start_ns) const {
  busy_ns_.fetch_add(now_ns() - start_ns, std::memory_order_relaxed);
}

U256 RemoteArchiveNode::get_storage_at(const Address& account, const U256& slot,
                                       std::uint64_t block) const {
  Span span("chain", "get_storage_at");
  const std::uint64_t start = now_ns();
  storage_calls_.fetch_add(1, std::memory_order_relaxed);
  storage_queries_.fetch_add(1, std::memory_order_relaxed);
  wait_round_trip(start);
  U256 out = inner_.get_storage_at(account, slot, block);
  finish(start);
  return out;
}

std::vector<U256> RemoteArchiveNode::get_storage_at_many(
    std::span<const proxion::chain::StorageQuery> queries) const {
  Span span("chain", "get_storage_at_many");
  const std::uint64_t start = now_ns();
  storage_batches_.fetch_add(1, std::memory_order_relaxed);
  storage_queries_.fetch_add(queries.size(), std::memory_order_relaxed);
  wait_round_trip(start);
  std::vector<U256> out = inner_.get_storage_at_many(queries);
  finish(start);
  return out;
}

Bytes RemoteArchiveNode::get_code(const Address& account) const {
  Span span("chain", "get_code");
  const std::uint64_t start = now_ns();
  code_fetches_.fetch_add(1, std::memory_order_relaxed);
  wait_round_trip(start);
  Bytes out = inner_.get_code(account);
  finish(start);
  return out;
}

ArchiveCounts RemoteArchiveNode::counts() const {
  ArchiveCounts c;
  c.code_fetches = code_fetches_.load(std::memory_order_relaxed);
  c.storage_calls = storage_calls_.load(std::memory_order_relaxed);
  c.storage_batches = storage_batches_.load(std::memory_order_relaxed);
  c.storage_queries = storage_queries_.load(std::memory_order_relaxed);
  c.busy_ns = busy_ns_.load(std::memory_order_relaxed);
  return c;
}

void RemoteArchiveNode::reset() {
  code_fetches_.store(0, std::memory_order_relaxed);
  storage_calls_.store(0, std::memory_order_relaxed);
  storage_batches_.store(0, std::memory_order_relaxed);
  storage_queries_.store(0, std::memory_order_relaxed);
  busy_ns_.store(0, std::memory_order_relaxed);
}

/// File handle forwarding to the inner filesystem's file, charging its
/// writes and syncs to the owning TimingVfs.
class TimingFile final : public proxion::util::VfsFile {
 public:
  TimingFile(TimingVfs& vfs, std::unique_ptr<proxion::util::VfsFile> inner)
      : vfs_(vfs), inner_(std::move(inner)) {}

  proxion::util::VfsStatus write(std::span<const std::uint8_t> bytes) override {
    Span span("util", "vfs_write");
    const std::uint64_t start = now_ns();
    const proxion::util::VfsStatus s = inner_->write(bytes);
    vfs_.write_bytes_.fetch_add(bytes.size(), std::memory_order_relaxed);
    vfs_.io_ns_.fetch_add(now_ns() - start, std::memory_order_relaxed);
    return s;
  }
  proxion::util::VfsStatus seek(std::uint64_t offset) override {
    return inner_->seek(offset);
  }
  proxion::util::VfsStatus sync() override {
    Span span("util", "vfs_fsync");
    const std::uint64_t start = now_ns();
    const proxion::util::VfsStatus s = inner_->sync();
    const std::uint64_t dur = now_ns() - start;
    vfs_.fsyncs_.fetch_add(1, std::memory_order_relaxed);
    vfs_.fsync_ns_.fetch_add(dur, std::memory_order_relaxed);
    vfs_.io_ns_.fetch_add(dur, std::memory_order_relaxed);
    return s;
  }
  proxion::util::VfsStatus truncate(std::uint64_t size) override {
    return inner_->truncate(size);
  }

 private:
  TimingVfs& vfs_;
  std::unique_ptr<proxion::util::VfsFile> inner_;
};

std::unique_ptr<proxion::util::VfsFile> TimingVfs::open(
    const std::string& path, OpenMode mode, proxion::util::VfsStatus* status) {
  Span span("util", "vfs_open");
  const std::uint64_t start = now_ns();
  std::unique_ptr<proxion::util::VfsFile> f = inner_.open(path, mode, status);
  io_ns_.fetch_add(now_ns() - start, std::memory_order_relaxed);
  if (f == nullptr) return nullptr;
  return std::make_unique<TimingFile>(*this, std::move(f));
}

std::optional<std::vector<std::uint8_t>> TimingVfs::read_file(
    const std::string& path) {
  Span span("util", "vfs_read_file");
  const std::uint64_t start = now_ns();
  std::optional<std::vector<std::uint8_t>> bytes = inner_.read_file(path);
  if (bytes) read_bytes_.fetch_add(bytes->size(), std::memory_order_relaxed);
  io_ns_.fetch_add(now_ns() - start, std::memory_order_relaxed);
  return bytes;
}

proxion::util::VfsStatus TimingVfs::rename(const std::string& from,
                                           const std::string& to) {
  const std::uint64_t start = now_ns();
  const proxion::util::VfsStatus s = inner_.rename(from, to);
  io_ns_.fetch_add(now_ns() - start, std::memory_order_relaxed);
  return s;
}

proxion::util::VfsStatus TimingVfs::remove(const std::string& path) {
  const std::uint64_t start = now_ns();
  const proxion::util::VfsStatus s = inner_.remove(path);
  io_ns_.fetch_add(now_ns() - start, std::memory_order_relaxed);
  return s;
}

proxion::util::VfsStatus TimingVfs::sync_dir(const std::string& path) {
  Span span("util", "vfs_fsync_dir");
  const std::uint64_t start = now_ns();
  const proxion::util::VfsStatus s = inner_.sync_dir(path);
  const std::uint64_t dur = now_ns() - start;
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  fsync_ns_.fetch_add(dur, std::memory_order_relaxed);
  io_ns_.fetch_add(dur, std::memory_order_relaxed);
  return s;
}

VfsCounts TimingVfs::counts() const {
  VfsCounts c;
  c.write_bytes = write_bytes_.load(std::memory_order_relaxed);
  c.read_bytes = read_bytes_.load(std::memory_order_relaxed);
  c.fsyncs = fsyncs_.load(std::memory_order_relaxed);
  c.fsync_ns = fsync_ns_.load(std::memory_order_relaxed);
  c.io_ns = io_ns_.load(std::memory_order_relaxed);
  return c;
}

void TimingVfs::reset() {
  write_bytes_.store(0, std::memory_order_relaxed);
  read_bytes_.store(0, std::memory_order_relaxed);
  fsyncs_.store(0, std::memory_order_relaxed);
  fsync_ns_.store(0, std::memory_order_relaxed);
  io_ns_.store(0, std::memory_order_relaxed);
}

}  // namespace perfbench
