// The snapshot query plane over sweep verdicts: an immutable Snapshot of
// VerdictRows (with address, code-hash, and vulnerability-class indexes)
// published through std::atomic<std::shared_ptr<const Snapshot>>. Exactly
// one writer — the chain follower's record sink, or a batch sweep feeding
// apply_records() by hand — builds the next snapshot privately and swaps
// the pointer; readers load it and keep their shared_ptr alive for as long
// as they render, so a publish never invalidates an in-flight read and a
// read never waits for a snapshot to be built. The load is not wait-free:
// libstdc++ 12 takes a lock bit in the control-block word and bumps the
// snapshot's one shared refcount, so loads and the swap serialize for a
// few instructions and concurrent readers contend on that cache line.
//
// Publishing is a delta: the next snapshot starts from the previous one and
// copies only the row chunks and index shards its changed rows touch
// (serve/cow.h), so a publish costs what changed and a stamp-only publish
// copies no rows.
//
// Wired onto obs::HttpServer as the /v1/* JSON endpoints. The normative
// response schemas (field types, error shapes, staleness semantics) live in
// docs/QUERY_API.md; every response field name flows through append_key()
// so tools/docs_check.sh can diff the implemented set against that spec.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/report.h"
#include "crypto/keccak.h"
#include "evm/types.h"
#include "obs/http.h"
#include "serve/cow.h"
#include "store/records.h"

namespace proxion::serve {

/// The vulnerability classes /v1/vulns?class=... accepts, by their
/// canonical names (the same flags VerdictRow carries).
enum class VulnClass : std::uint8_t {
  kFunctionCollision,
  kStorageCollision,
  kStorageCollisionExploitable,
  kFamilyCollision,
};
inline constexpr std::size_t kVulnClassCount = 4;

std::string_view to_string(VulnClass c) noexcept;
std::optional<VulnClass> vuln_class_from_name(std::string_view name) noexcept;

/// Rows per copy-on-write chunk, and shards per snapshot index.
inline constexpr std::size_t kRowChunk = 256;
inline constexpr std::size_t kIndexShards = 64;

/// One immutable published verdict set. `head_block` is the chain height
/// the rows are complete through — mid-lap publishes carry the previous
/// complete head (rows ahead of it are bonus freshness, never staleness
/// hidden as completeness). `version` bumps on every publish. Index lists
/// (`by_code_hash` members, `by_vuln`) hold row indexes in ascending order.
struct Snapshot {
  std::uint64_t head_block = 0;
  std::uint64_t version = 0;
  ChunkedVector<core::VerdictRow, kRowChunk> rows;  // first-seen address order
  ShardedMap<evm::Address, std::uint32_t, evm::AddressHasher, kIndexShards>
      by_address;
  ShardedMap<crypto::Hash256, std::vector<std::uint32_t>, crypto::Hash256Hasher,
             kIndexShards>
      by_code_hash;
  std::array<std::vector<std::uint32_t>, kVulnClassCount> by_vuln;
  std::uint64_t proxies = 0;
  std::uint64_t quarantined = 0;
};

struct QueryServiceConfig {
  /// Addresses listed per /v1/codehash and /v1/vulns response; beyond it
  /// the list truncates and the response says so (`truncated`: true, the
  /// full `count` still reported).
  std::size_t max_results = 512;
};

/// Cumulative copy-on-write work of a QueryService's publishes.
struct PublishStats {
  /// Rows inserted or changed (an applied row equal to its old value is
  /// not a change).
  std::uint64_t rows_changed = 0;
  /// Row chunks copied because the previous snapshot shared them.
  std::uint64_t row_chunks_copied = 0;
};

class QueryService {
 public:
  explicit QueryService(QueryServiceConfig config = {});

  // ---- writer side (single-threaded by contract) --------------------------
  /// Queues rows extracted from `records` as upserts for the next
  /// publish(); not visible to readers until then.
  void apply_records(std::span<const store::ContractRecord> records);
  /// Builds the next snapshot from the current one plus the queued
  /// upserts, stamps it with `head_block` and the next version, swaps it
  /// in, and returns it.
  std::shared_ptr<const Snapshot> publish(std::uint64_t head_block);
  /// What every publish so far copied (writer side, like publish()).
  const PublishStats& publish_stats() const noexcept { return stats_; }

  // ---- reader side (any thread; a short lock-bit load, see above) ---------
  std::shared_ptr<const Snapshot> snapshot() const {
    return published_.load(std::memory_order_acquire);
  }

  // ---- /v1 endpoint renderers (reader side) -------------------------------
  obs::HttpResponse contract_endpoint(const std::string& rest) const;
  obs::HttpResponse codehash_endpoint(const std::string& rest) const;
  obs::HttpResponse vulns_endpoint(const std::string& query) const;

  /// Registers /v1/contract/<addr>, /v1/codehash/<hash>, and /v1/vulns on
  /// `server` (the follower registers /v1/status itself). Call before
  /// server.start().
  void register_endpoints(obs::HttpServer& server);

 private:
  /// Applies one upsert to the snapshot under construction.
  void upsert_row(Snapshot& snap, const core::VerdictRow& row);

  QueryServiceConfig config_;
  /// Rows queued since the last publish, in apply order (later wins).
  std::vector<core::VerdictRow> pending_;
  PublishStats stats_;
  std::atomic<std::shared_ptr<const Snapshot>> published_;
};

/// Appends `"key":` to a JSON document under construction. Every /v1
/// response field name flows through this helper — tools/docs_check.sh
/// greps the call sites and diffs them against docs/QUERY_API.md.
void append_key(std::string& out, std::string_view key);

/// JSON value appenders for the /v1 renderers. Each writes its digits
/// straight into `out`, with no temporary string, in the value forms of
/// docs/QUERY_API.md §1: an integer as bare decimal; an address, a hash and
/// a u256 as a quoted `0x` string (40 digits, 64 digits, minimal digits).
void append_u64(std::string& out, std::uint64_t v);
void append_address(std::string& out, const evm::Address& a);
void append_hash(std::string& out, const crypto::Hash256& h);
void append_u256(std::string& out, const evm::U256& v);

}  // namespace proxion::serve
