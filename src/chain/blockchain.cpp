#include "chain/blockchain.h"

#include <algorithm>

#include "crypto/eth.h"

namespace proxion::chain {

/// Observer installed for every externally submitted transaction; records
/// call-family edges into the chain's internal-transaction log, the way a
/// tracing indexer (or Google BigQuery's traces table) would.
class Blockchain::TxTracer final : public evm::TraceObserver {
 public:
  TxTracer(Blockchain& chain, Bytes top_level_calldata)
      : chain_(chain), top_calldata_(std::move(top_level_calldata)) {}

  void on_call(evm::CallKind kind, int depth, const Address& from,
               const Address& to, BytesView calldata) override {
    if (depth == 0) return;  // the external call itself is not "internal"
    InternalTx tx;
    tx.block = chain_.height_;
    tx.kind = kind;
    tx.from = from;
    tx.to = to;
    tx.depth = depth;
    if (calldata.size() >= 4) {
      tx.selector = (std::uint32_t{calldata[0]} << 24) |
                    (std::uint32_t{calldata[1]} << 16) |
                    (std::uint32_t{calldata[2]} << 8) |
                    std::uint32_t{calldata[3]};
    }
    tx.in_fallback_position =
        calldata.size() == top_calldata_.size() &&
        std::equal(calldata.begin(), calldata.end(), top_calldata_.begin());
    chain_.internal_txs_.push_back(tx);
  }

 private:
  Blockchain& chain_;
  Bytes top_calldata_;
};

Blockchain::Blockchain() {
  block_ctx_.number = U256{0};
  block_ctx_.timestamp = U256{1'438'269'973};  // Ethereum genesis timestamp
  block_ctx_.difficulty = U256{1u} << U256{40};
  block_ctx_.coinbase = Address::from_label("coinbase");
}

void Blockchain::mine_block() {
  ++height_;
  block_ctx_.number = U256{height_};
  block_ctx_.timestamp += U256{12};  // post-merge slot time
  notify_head();
}

void Blockchain::mine_until(std::uint64_t target) {
  if (target <= height_) return;
  height_ = target;
  block_ctx_.number = U256{height_};
  block_ctx_.timestamp = U256{1'438'269'973 + 12 * height_};
  notify_head();
}

std::uint64_t Blockchain::subscribe_head(HeadCallback cb) {
  const std::uint64_t token = next_head_token_++;
  head_subs_.emplace_back(token, std::move(cb));
  return token;
}

void Blockchain::unsubscribe_head(std::uint64_t token) {
  std::erase_if(head_subs_,
                [token](const auto& sub) { return sub.first == token; });
}

void Blockchain::notify_head() {
  for (const auto& [token, cb] : head_subs_) cb(height_);
}

std::vector<Address> Blockchain::feed_at(const Feed& feed,
                                         std::uint64_t block) {
  const auto first = std::lower_bound(
      feed.begin(), feed.end(), block,
      [](const auto& entry, std::uint64_t b) { return entry.first < b; });
  std::vector<Address> out;
  for (auto it = first; it != feed.end() && it->first == block; ++it) {
    out.push_back(it->second);
  }
  return out;
}

std::vector<Address> Blockchain::deployments_in(std::uint64_t block) const {
  return feed_at(deploys_, block);
}

std::vector<Address> Blockchain::storage_writers_in(std::uint64_t block) const {
  return feed_at(writers_, block);
}

std::optional<Address> Blockchain::deploy(const Address& from,
                                          BytesView init_code,
                                          const U256& value) {
  Account& sender = accounts_[from];
  crypto::AddressBytes raw{};
  std::copy(from.bytes.begin(), from.bytes.end(), raw.begin());
  const Address target{crypto::create_address(raw, sender.nonce)};
  sender.nonce += 1;

  evm::Interpreter interp(*this);
  const evm::ExecResult result =
      interp.execute_create(from, target, init_code, value, 0, 10'000'000);
  if (result.halt != evm::HaltReason::kReturn) return std::nullopt;
  note_contract(target, accounts_[target]);
  return target;
}

Address Blockchain::deploy_runtime(const Address& from, Bytes runtime_code) {
  Account& sender = accounts_[from];
  crypto::AddressBytes raw{};
  std::copy(from.bytes.begin(), from.bytes.end(), raw.begin());
  const Address target{crypto::create_address(raw, sender.nonce)};
  sender.nonce += 1;
  set_code(target, std::move(runtime_code));
  return target;
}

evm::ExecResult Blockchain::call(const Address& from, const Address& to,
                                 Bytes calldata, const U256& value,
                                 std::uint64_t gas) {
  if (auto it = accounts_.find(to);
      it != accounts_.end() && it->second.contract) {
    it->second.contract->has_incoming_tx = true;
  }
  if (calldata.size() >= 4) {
    external_selectors_[to].push_back((std::uint32_t{calldata[0]} << 24) |
                                      (std::uint32_t{calldata[1]} << 16) |
                                      (std::uint32_t{calldata[2]} << 8) |
                                      std::uint32_t{calldata[3]});
  }

  evm::CallParams params;
  params.code_address = to;
  params.storage_address = to;
  params.caller = from;
  params.origin = from;
  params.value = value;
  params.calldata = std::move(calldata);
  params.gas = gas;

  // Move the value before execution (sender must afford it).
  if (!value.is_zero()) {
    Account& sender = accounts_[from];
    if (sender.balance < value) {
      evm::ExecResult failed;
      failed.halt = evm::HaltReason::kRevert;
      return failed;
    }
    sender.balance -= value;
    accounts_[to].balance += value;
  }

  TxTracer tracer(*this, params.calldata);
  evm::Interpreter interp(*this);
  interp.set_observer(&tracer);
  evm::ExecResult result = interp.execute(params);
  mine_block();  // one transaction per block keeps history queries simple
  return result;
}

void Blockchain::fund(const Address& account, const U256& amount) {
  accounts_[account].balance += amount;
}

U256 Blockchain::storage_at(const Address& account, const U256& slot,
                            std::uint64_t block) const {
  const auto slot_it = slots_.find(SlotKey{account, slot});
  if (slot_it == slots_.end()) return U256{};
  const SlotHistory& history = slot_it->second;
  // Last change with change.block <= block.
  const auto it = std::upper_bound(
      history.begin(), history.end(), block,
      [](std::uint64_t b, const auto& entry) { return b < entry.first; });
  if (it == history.begin()) return U256{};
  return std::prev(it)->second;
}

void Blockchain::note_contract(const Address& a, Account& account) {
  // Listed in this block already when its code was set earlier in it.
  const bool listed =
      account.contract && account.contract->deploy_block == height_;
  if (!account.contract) account.contract.emplace();
  account.contract->deploy_block = height_;
  if (!listed) deploys_.emplace_back(height_, a);
}

Bytes Blockchain::get_code(const Address& a) {
  return code_at(a);
}

Bytes Blockchain::code_at(const Address& a) const {
  const auto it = accounts_.find(a);
  return it == accounts_.end() ? Bytes{} : it->second.code;
}

crypto::Hash256 Blockchain::code_hash(const Address& a) const {
  const auto it = accounts_.find(a);
  return it == accounts_.end() ? evm::kEmptyCodeHash : it->second.code_hash;
}

U256 Blockchain::get_storage(const Address& a, const U256& slot) {
  const auto it = slots_.find(SlotKey{a, slot});
  return it == slots_.end() ? U256{} : it->second.back().second;
}

void Blockchain::set_storage(const Address& a, const U256& slot,
                             const U256& value) {
  Account& account = accounts_[a];
  SlotHistory& history = slots_[SlotKey{a, slot}];
  if (!history.empty() && history.back().first == height_) {
    history.back().second = value;  // same-block overwrite
  } else {
    history.emplace_back(height_, value);
  }
  if (account.writer_listed_until != height_ + 1) {
    writers_.emplace_back(height_, a);
    account.writer_listed_until = height_ + 1;
  }
}

U256 Blockchain::get_balance(const Address& a) {
  const auto it = accounts_.find(a);
  return it == accounts_.end() ? U256{} : it->second.balance;
}

void Blockchain::set_balance(const Address& a, const U256& value) {
  accounts_[a].balance = value;
}

std::uint64_t Blockchain::get_nonce(const Address& a) {
  const auto it = accounts_.find(a);
  return it == accounts_.end() ? 0 : it->second.nonce;
}

void Blockchain::set_nonce(const Address& a, std::uint64_t nonce) {
  accounts_[a].nonce = nonce;
}

void Blockchain::set_code(const Address& a, Bytes code) {
  Account& account = accounts_[a];
  account.code_hash = evm::code_hash(code);
  account.code = std::move(code);
  note_contract(a, account);
}

bool Blockchain::account_exists(const Address& a) {
  return accounts_.contains(a);
}

U256 Blockchain::block_hash(std::uint64_t block_number) {
  if (block_number >= height_) return U256{};
  // Deterministic stand-in hash derived from the height.
  return evm::to_u256(
      crypto::keccak256("block:" + std::to_string(block_number)));
}

}  // namespace proxion::chain
