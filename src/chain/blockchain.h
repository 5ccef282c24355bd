// A simulated Ethereum chain: accounts, block production, transaction
// execution through the EVM interpreter, and — crucially for the paper — a
// full per-slot storage *history journal* so that `getStorageAt(addr, slot,
// height)` works at any past height, exactly like a mainnet archive node.
//
// The chain also records every internal transaction (call-family edge) the
// way a transaction-tracing indexer would; the CRUSH baseline mines that log.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "evm/host.h"
#include "evm/interpreter.h"
#include "evm/types.h"

namespace proxion::chain {

using evm::Address;
using evm::Bytes;
using evm::BytesView;
using evm::U256;

struct ContractMeta {
  std::uint64_t deploy_block = 0;
  bool has_incoming_tx = false;  // ever the target of an external tx
  bool destroyed = false;
};

/// An account's state at the head. Its storage lives in the chain's slot
/// histories, whose last entries are the current values.
struct Account {
  std::uint64_t nonce = 0;
  U256 balance;
  Bytes code;
  /// keccak256(code), computed once where the code is written, as an
  /// Ethereum account stores its codeHash.
  crypto::Hash256 code_hash = evm::kEmptyCodeHash;
  /// Set once the account receives code.
  std::optional<ContractMeta> contract;
  /// One past the last block whose writer feed lists this account (0: no
  /// block lists it), so a block lists a writer once however many slots
  /// it writes.
  std::uint64_t writer_listed_until = 0;
};

/// One call-family edge observed while tracing a transaction.
struct InternalTx {
  std::uint64_t block = 0;
  evm::CallKind kind = evm::CallKind::kCall;
  Address from;
  Address to;
  int depth = 0;
  std::uint32_t selector = 0;  // first 4 bytes of calldata (0 if shorter)
  bool in_fallback_position = false;  // calldata forwarded verbatim
};

class Blockchain final : public evm::Host {
 public:
  Blockchain();

  // ---- block production -------------------------------------------------
  /// Seals the current block and opens the next one.
  void mine_block();
  /// Mines until the chain reaches `target` height.
  void mine_until(std::uint64_t target);
  std::uint64_t height() const noexcept { return height_; }

  // ---- head subscription / per-block change feeds -------------------------
  /// Invoked synchronously on the mining thread after every height advance
  /// (mine_until fires once, at the final height). The chain follower's
  /// wake-up seam — an eth_subscribe("newHeads") stand-in.
  using HeadCallback = std::function<void(std::uint64_t new_height)>;

  /// Registers `cb`; returns a token for unsubscribe_head(). Subscription
  /// changes must not race block production — the chain is single-writer,
  /// and callbacks run inline on that writer.
  std::uint64_t subscribe_head(HeadCallback cb);
  void unsubscribe_head(std::uint64_t token);

  /// Addresses that received code in `block` (deploy / deploy_runtime /
  /// set_code), first-occurrence order. What an indexer derives from
  /// per-block CREATE traces; the follower's new-contract feed.
  std::vector<Address> deployments_in(std::uint64_t block) const;

  /// Accounts whose storage was written in `block` (deduplicated,
  /// first-occurrence order). Implementation-slot and beacon writes are
  /// storage writes, so this feed is what makes an incremental lap
  /// worthwhile after an upgrade lands.
  std::vector<Address> storage_writers_in(std::uint64_t block) const;

  // ---- transactions -------------------------------------------------------
  /// Deploys via init code (CREATE semantics from an externally owned
  /// account). Returns the new contract address, or nullopt if init reverted.
  std::optional<Address> deploy(const Address& from, BytesView init_code,
                                const U256& value = {});

  /// Installs runtime code directly at a fresh CREATE-derived address —
  /// the shortcut datagen uses to lay down large synthetic populations
  /// without running constructors. Records the deployment block.
  Address deploy_runtime(const Address& from, Bytes runtime_code);

  /// External message call; traced, recorded in the internal-tx log, and
  /// counted as "this contract has transactions".
  evm::ExecResult call(const Address& from, const Address& to,
                       Bytes calldata, const U256& value = {},
                       std::uint64_t gas = 10'000'000);

  /// Funds an account out of thin air (test/datagen faucet).
  void fund(const Address& account, const U256& amount);

  /// §8.2: Proxion "may apply to several other blockchains" — any
  /// EVM-compatible chain differs here only by its chain id (and workload
  /// mix, which datagen controls).
  void set_chain_id(std::uint64_t chain_id) {
    block_ctx_.chain_id = U256{chain_id};
  }

  // ---- archive queries ------------------------------------------------------
  /// Value of `slot` of `account` as of the end of block `block` (i.e. after
  /// all transactions in blocks <= block). This is eth_getStorageAt.
  U256 storage_at(const Address& account, const U256& slot,
                  std::uint64_t block) const;

  /// Deployed code of `account` at the latest block (eth_getCode). The
  /// read-only twin of Host::get_code, which must stay non-const for the
  /// interpreter's Host contract.
  Bytes code_at(const Address& account) const;
  /// keccak256 of `account`'s code, stored when the code was written and
  /// read here without hashing: what EXTCODEHASH (for an account with code)
  /// and eth_getProof's codeHash return. Equals
  /// evm::code_hash(code_at(account)), so evm::kEmptyCodeHash for a
  /// codeless or unknown account.
  crypto::Hash256 code_hash(const Address& account) const;

  const std::vector<InternalTx>& internal_txs() const noexcept {
    return internal_txs_;
  }
  /// Selectors of external transactions ever sent to `account` (what an
  /// indexer would extract from tx calldata). Empty if none.
  std::vector<std::uint32_t> external_selectors(const Address& account) const {
    const auto it = external_selectors_.find(account);
    return it == external_selectors_.end() ? std::vector<std::uint32_t>{}
                                           : it->second;
  }
  std::optional<ContractMeta> contract_meta(const Address& a) const {
    const auto it = accounts_.find(a);
    if (it == accounts_.end()) return std::nullopt;
    return it->second.contract;
  }

  // ---- Host interface ------------------------------------------------------
  Bytes get_code(const Address& a) override;
  U256 get_storage(const Address& a, const U256& slot) override;
  void set_storage(const Address& a, const U256& slot,
                   const U256& value) override;
  U256 get_balance(const Address& a) override;
  void set_balance(const Address& a, const U256& value) override;
  std::uint64_t get_nonce(const Address& a) override;
  void set_nonce(const Address& a, std::uint64_t nonce) override;
  /// The chain's one code write (deploy_runtime and CREATE/CREATE2 come
  /// through here): installs `code` and stores its code_hash.
  void set_code(const Address& a, Bytes code) override;
  bool account_exists(const Address& a) override;
  U256 block_hash(std::uint64_t block_number) override;
  const evm::BlockContext& block_context() override { return block_ctx_; }

 private:
  class TxTracer;

  void note_contract(const Address& a, Account& account);
  void notify_head();

  /// (block, address) entries in block order: one per-block change feed.
  using Feed = std::deque<std::pair<std::uint64_t, Address>>;
  static std::vector<Address> feed_at(const Feed& feed, std::uint64_t block);

  std::unordered_map<Address, Account, evm::AddressHasher> accounts_;
  std::uint64_t height_ = 0;
  evm::BlockContext block_ctx_;

  /// One storage slot of one account.
  struct SlotKey {
    Address account;
    U256 slot;
    friend bool operator==(const SlotKey&, const SlotKey&) = default;
  };
  struct SlotKeyHasher {
    std::size_t operator()(const SlotKey& k) const noexcept {
      std::uint64_t h = evm::AddressHasher{}(k.account);
      for (std::size_t i = 0; i < 4; ++i) {
        h = (h ^ k.slot.limb(i)) * 1099511628211ULL;
      }
      return static_cast<std::size_t>(h);
    }
  };
  /// (block, value) change log of a written slot, blocks ascending; its
  /// last entry is the slot's current value.
  using SlotHistory = std::vector<std::pair<std::uint64_t, U256>>;
  std::unordered_map<SlotKey, SlotHistory, SlotKeyHasher> slots_;

  std::vector<InternalTx> internal_txs_;
  std::unordered_map<Address, std::vector<std::uint32_t>, evm::AddressHasher>
      external_selectors_;

  // ---- head subscription + change feeds ----------------------------------
  std::vector<std::pair<std::uint64_t, HeadCallback>> head_subs_;
  std::uint64_t next_head_token_ = 1;
  /// Appended as deploys and writes happen; heights only grow, so each
  /// feed stays sorted by block. The accounts hold the dedup marks.
  Feed deploys_;
  Feed writers_;
};

}  // namespace proxion::chain
