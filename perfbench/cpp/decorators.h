// Benchmark-local decorators over the two I/O seams of the stack, so layer
// costs are measured from outside the program:
//
//   RemoteArchiveNode — a chain::IArchiveNode that forwards to an inner node
//     after a fixed modelled round trip per call (one per get_code, per
//     get_storage_at and per get_storage_at_many batch), counting calls,
//     batches, queries and the time spent inside the backend. With a zero
//     round trip it is the counting decorator of the traced runs.
//   TimingVfs — a util::Vfs that forwards to an inner filesystem and counts
//     bytes written and read, fsyncs (file and directory) and their time.
//
// Both only observe: results through them are bit-identical to results
// without them (tests/test_decorators.cpp checks a sweep through each).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "chain/archive_node.h"
#include "util/vfs.h"

namespace perfbench {

using proxion::chain::Address;
using proxion::chain::Bytes;
using proxion::chain::U256;

/// Totals observed by a RemoteArchiveNode since construction or reset().
struct ArchiveCounts {
  std::uint64_t code_fetches = 0;
  std::uint64_t storage_calls = 0;    // scalar get_storage_at calls
  std::uint64_t storage_batches = 0;  // get_storage_at_many calls
  std::uint64_t storage_queries = 0;  // scalar calls + batch elements
  std::uint64_t busy_ns = 0;          // wall time inside backend calls
};

class RemoteArchiveNode final : public proxion::chain::IArchiveNode {
 public:
  /// `inner` must outlive the decorator. `round_trip_ns` = 0 forwards
  /// without delay (counting only).
  RemoteArchiveNode(const proxion::chain::IArchiveNode& inner,
                    std::uint64_t round_trip_ns)
      : inner_(inner), round_trip_ns_(round_trip_ns) {}

  U256 get_storage_at(const Address& account, const U256& slot,
                      std::uint64_t block) const override;
  std::vector<U256> get_storage_at_many(
      std::span<const proxion::chain::StorageQuery> queries) const override;
  Bytes get_code(const Address& account) const override;
  std::uint64_t latest_block() const override { return inner_.latest_block(); }

  std::uint64_t get_storage_at_calls() const override {
    return inner_.get_storage_at_calls();
  }
  std::uint64_t get_code_calls() const override {
    return inner_.get_code_calls();
  }
  void reset_counters() const override { inner_.reset_counters(); }

  ArchiveCounts counts() const;
  void reset();

 private:
  /// Waits out the modelled round trip that started at `start_ns`.
  void wait_round_trip(std::uint64_t start_ns) const;
  void finish(std::uint64_t start_ns) const;

  const proxion::chain::IArchiveNode& inner_;
  const std::uint64_t round_trip_ns_;
  mutable std::atomic<std::uint64_t> code_fetches_{0};
  mutable std::atomic<std::uint64_t> storage_calls_{0};
  mutable std::atomic<std::uint64_t> storage_batches_{0};
  mutable std::atomic<std::uint64_t> storage_queries_{0};
  mutable std::atomic<std::uint64_t> busy_ns_{0};
};

/// Totals observed by a TimingVfs since construction or reset().
struct VfsCounts {
  std::uint64_t write_bytes = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t fsyncs = 0;      // file syncs + directory syncs
  std::uint64_t fsync_ns = 0;
  std::uint64_t io_ns = 0;       // every forwarded call, fsyncs included
};

class TimingVfs final : public proxion::util::Vfs {
 public:
  explicit TimingVfs(proxion::util::Vfs& inner) : inner_(inner) {}

  std::unique_ptr<proxion::util::VfsFile> open(
      const std::string& path, OpenMode mode,
      proxion::util::VfsStatus* status) override;
  std::optional<std::vector<std::uint8_t>> read_file(
      const std::string& path) override;
  proxion::util::VfsStatus rename(const std::string& from,
                                  const std::string& to) override;
  proxion::util::VfsStatus remove(const std::string& path) override;
  proxion::util::VfsStatus sync_dir(const std::string& path) override;

  VfsCounts counts() const;
  void reset();

 private:
  friend class TimingFile;

  proxion::util::Vfs& inner_;
  std::atomic<std::uint64_t> write_bytes_{0};
  std::atomic<std::uint64_t> read_bytes_{0};
  std::atomic<std::uint64_t> fsyncs_{0};
  std::atomic<std::uint64_t> fsync_ns_{0};
  std::atomic<std::uint64_t> io_ns_{0};
};

}  // namespace perfbench
