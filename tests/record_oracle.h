// Record-level oracle for journal-backed sweeps: two journals agree when the
// last kContract record per address is identical field for field. Stronger
// than comparing LandscapeStats aggregates, which omit the probe fields
// (probe_selector, emulation_steps) that make a verdict address-specific.
// Also counts what a journal holds as committed, from its own commit frames.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>

#include "store/journal.h"
#include "store/records.h"
#include "util/vfs.h"

namespace proxion::test_oracle {

using RecordMap = std::unordered_map<evm::Address, store::ContractRecord,
                                     evm::AddressHasher>;

/// The last kContract record per address, read the way a boot reads the
/// journal (salvage replay, last record wins).
inline RecordMap last_records(const std::string& journal,
                              util::Vfs& vfs = util::Vfs::real()) {
  RecordMap out;
  const auto replay =
      store::read_journal(journal, vfs, store::ReplayOptions{.salvage = true});
  EXPECT_TRUE(replay.has_value()) << "no journal at " << journal;
  if (!replay) return out;
  for (const store::JournalFrame& frame : replay->frames) {
    if (frame.type != store::RecordType::kContract) continue;
    if (auto rec = store::decode_contract_record(frame.payload)) {
      out.insert_or_assign(rec->analysis.address, std::move(*rec));
    }
  }
  return out;
}

/// Contracts the journal holds as committed: the sum of the contract counts
/// of the CRC-valid kShardCommit frames in its valid prefix, the record a
/// boot counts commits from.
inline std::uint64_t committed_contracts(const std::string& journal,
                                         util::Vfs& vfs = util::Vfs::real()) {
  std::uint64_t out = 0;
  const auto replay = store::read_journal(journal, vfs);
  if (!replay) return out;
  for (const store::JournalFrame& frame : replay->frames) {
    if (frame.type != store::RecordType::kShardCommit) continue;
    if (auto commit = store::decode_shard_commit(frame.payload)) {
      out += commit->contracts;
    }
  }
  return out;
}

/// Every address has the same last record in `a` and `b`: the analysis,
/// the code hash and the dependencies, which the next boot decides reuse
/// from. Algorithm 1's probe count depends on the chain's height, so when
/// the records were computed at different heights (`same_height` false)
/// the oracle masks logic_history.api_calls, and nothing else.
inline void expect_same_records(const RecordMap& a, const RecordMap& b,
                                bool same_height = true) {
  EXPECT_EQ(a.size(), b.size());
  std::size_t differ = 0;
  for (const auto& [address, rec] : a) {
    const auto it = b.find(address);
    if (it == b.end()) {
      ADD_FAILURE() << "no record for " << address.to_hex();
      ++differ;
      continue;
    }
    core::ContractAnalysis x = rec.analysis;
    core::ContractAnalysis y = it->second.analysis;
    if (!same_height) x.logic_history.api_calls = y.logic_history.api_calls;
    if (!(x == y) || rec.code_hash != it->second.code_hash ||
        !(rec.dependencies == it->second.dependencies)) {
      ADD_FAILURE() << "record of " << address.to_hex()
                    << " differs: probe_selector " << x.proxy.probe_selector
                    << " vs " << y.proxy.probe_selector << ", deduplicated "
                    << x.deduplicated << " vs " << y.deduplicated
                    << ", function_collision " << x.function_collision
                    << " vs " << y.function_collision << ", dependencies "
                    << (rec.dependencies == it->second.dependencies
                            ? "equal"
                            : "differ");
      ++differ;
    }
  }
  EXPECT_EQ(differ, 0u) << "records differing between the two journals";
}

inline void expect_same_records(const std::string& journal_a,
                                const std::string& journal_b,
                                bool same_height = true) {
  expect_same_records(last_records(journal_a), last_records(journal_b),
                      same_height);
}

}  // namespace proxion::test_oracle
