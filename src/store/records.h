// Payload schemas for the journal's frame types: how a ContractAnalysis
// (plus its fingerprint and dependencies) and the sweep/shard bookkeeping
// records serialize to bytes. Everything is fixed little-endian with
// length-prefixed sequences — the normative byte-level description lives in
// docs/CHECKPOINT_FORMAT.md; this header is its implementation.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/pipeline.h"
#include "crypto/keccak.h"

namespace proxion::store {

/// A logic contract a record's analysis read: its code (the collision
/// checks, and for the current logic the Phase A probe) and the source of
/// that code's §7.1 donor.
struct LogicDependency {
  evm::Address address;
  crypto::Hash256 code_hash{};
  /// The §7.1 donor of `code_hash`; zero when there is none.
  evm::Address donor;

  friend bool operator==(const LogicDependency&,
                         const LogicDependency&) = default;
};

/// What a record's analysis read besides its own code and slot head, as
/// the chain and the donor map stood when it was committed. A record is
/// reused only while every entry still equals the chain at head.
struct Dependencies {
  /// The §7.1 donor of the record's own code hash; zero when there is none.
  evm::Address donor;
  /// One per `analysis.logic_history.logic_addresses` entry, in order.
  std::vector<LogicDependency> logic;

  friend bool operator==(const Dependencies&, const Dependencies&) = default;
};

/// One journaled contract: the full analysis plus the fingerprint the
/// incremental sweep diffs against current chain state. The code hash is
/// stored explicitly; the implementation-slot head needs no extra field —
/// for slot-based proxies `analysis.proxy.logic_address` IS the head value
/// the slot held at analysis time.
struct ContractRecord {
  core::ContractAnalysis analysis;
  crypto::Hash256 code_hash{};
  Dependencies dependencies;

  friend bool operator==(const ContractRecord&, const ContractRecord&) = default;
};

/// `rec.dependencies.logic` must name `rec.analysis.logic_history`'s
/// addresses in order (std::invalid_argument otherwise): the encoding
/// stores each logic address once, in the history.
std::vector<std::uint8_t> encode_contract_record(const ContractRecord& rec);
/// nullopt on any structural violation (short buffer, trailing bytes,
/// out-of-range enum) — a CRC-valid frame can still be rejected here if it
/// was written by a future schema.
std::optional<ContractRecord> decode_contract_record(
    std::span<const std::uint8_t> payload);

/// kSweepBegin payload: the population geometry the journal was opened for.
struct SweepBeginRecord {
  std::uint64_t population = 0;
  std::uint64_t shard_size = 0;

  friend bool operator==(const SweepBeginRecord&,
                         const SweepBeginRecord&) = default;
};

std::vector<std::uint8_t> encode_sweep_begin(const SweepBeginRecord& rec);
std::optional<SweepBeginRecord> decode_sweep_begin(
    std::span<const std::uint8_t> payload);

/// kShardCommit payload: all of shard `shard_index`'s contract records
/// precede this frame and are durable (the writer synced before appending).
struct ShardCommitRecord {
  std::uint64_t shard_index = 0;
  std::uint64_t contracts = 0;

  friend bool operator==(const ShardCommitRecord&,
                         const ShardCommitRecord&) = default;
};

std::vector<std::uint8_t> encode_shard_commit(const ShardCommitRecord& rec);
std::optional<ShardCommitRecord> decode_shard_commit(
    std::span<const std::uint8_t> payload);

/// kSweepEnd payload: total contracts covered when the sweep finished.
struct SweepEndRecord {
  std::uint64_t contracts = 0;

  friend bool operator==(const SweepEndRecord&, const SweepEndRecord&) = default;
};

std::vector<std::uint8_t> encode_sweep_end(const SweepEndRecord& rec);
std::optional<SweepEndRecord> decode_sweep_end(
    std::span<const std::uint8_t> payload);

}  // namespace proxion::store
