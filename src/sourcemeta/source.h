// "Verified source code" as the collision analyses consume it. The paper's
// source-mode checks (via Slither / Etherscan) only ever use two artifacts
// of the Solidity text: the list of function prototypes and the storage
// layout. A SourceRecord carries exactly those, plus the compiler version
// (the USCHunt baseline halts on unknown versions, §6.2).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/eth.h"
#include "evm/types.h"

namespace proxion::sourcemeta {

using evm::Address;

struct FunctionDecl {
  std::string prototype;  // canonical signature, e.g. "transfer(address,uint256)"
  bool is_public = true;  // only public/external functions get dispatcher slots

  crypto::Selector selector() const { return crypto::selector_of(prototype); }
  std::uint32_t selector_u32() const {
    return crypto::selector_u32(prototype);
  }
};

/// Solidity elementary types as far as storage layout cares: a byte width.
struct VariableDecl {
  std::string name;
  std::string type;        // "address", "bool", "uint256", "mapping", ...
  std::uint32_t slot = 0;  // filled by layout_storage()
  std::uint8_t offset = 0; // byte offset inside the slot (packing)
  std::uint8_t size = 32;  // byte width
  bool is_padding = false; // deliberate gap/reserved slot (not exploitable)
};

/// Computes Solidity's storage packing for an ordered declaration list:
/// consecutive variables share a slot while they fit in 32 bytes; a variable
/// that does not fit starts a new slot; mappings/dynamic arrays always take
/// a fresh full slot.
void layout_storage(std::vector<VariableDecl>& vars);

/// Byte width of a Solidity elementary type name ("uint8" -> 1, "address"
/// -> 20, "bool" -> 1, anything unknown/dynamic -> 32).
std::uint8_t type_width(const std::string& type);

struct SourceRecord {
  std::string contract_name;
  std::string compiler_version = "0.8.17";  // "unknown" models USCHunt halts
  std::vector<FunctionDecl> functions;
  std::vector<VariableDecl> storage;  // laid out (slot/offset/size filled)
  bool fallback_delegates = false;    // source shows delegatecall in fallback

  /// All dispatcher selectors, i.e. what Slither's function list yields.
  std::vector<std::uint32_t> selectors() const;
};

/// The Etherscan stand-in: an address -> verified-source map. Also supports
/// the paper's §7.1 optimization of propagating source to every contract
/// sharing the same bytecode hash.
class SourceRepository {
 public:
  void publish(const Address& address, SourceRecord record);
  const SourceRecord* lookup(const Address& address) const;
  bool has_source(const Address& address) const {
    return records_.contains(address);
  }
  std::size_t size() const noexcept { return records_.size(); }

  /// Registers a bytecode hash for an address so that later addresses with
  /// the same hash inherit the verified source (paper §7.1).
  void index_code_hash(const Address& address, const crypto::Hash256& hash);
  const SourceRecord* lookup_by_code_hash(const crypto::Hash256& hash) const;

 private:
  std::unordered_map<Address, SourceRecord, evm::AddressHasher> records_;
  std::unordered_map<crypto::Hash256, Address, crypto::Hash256Hasher>
      by_code_hash_;
};

}  // namespace proxion::sourcemeta
