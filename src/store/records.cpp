#include "store/records.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace proxion::store {

namespace {

using core::ContractAnalysis;
using core::ErrorKind;
using core::ErrorRecord;
using evm::Address;

// ---- encode primitives ----------------------------------------------------

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
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

void put_address(std::vector<std::uint8_t>& out, const Address& a) {
  out.insert(out.end(), a.bytes.begin(), a.bytes.end());
}

void put_hash(std::vector<std::uint8_t>& out, const crypto::Hash256& h) {
  out.insert(out.end(), h.begin(), h.end());
}

void put_u256(std::vector<std::uint8_t>& out, const evm::U256& v) {
  const std::array<std::uint8_t, 32> be = v.to_be_bytes();
  out.insert(out.end(), be.begin(), be.end());
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

// ---- decode cursor (bounds-checked; any failure poisons the cursor) -------

class Cursor {
 public:
  explicit Cursor(std::span<const std::uint8_t> b) : b_(b) {}

  bool ok() const noexcept { return ok_; }
  bool exhausted() const noexcept { return ok_ && pos_ == b_.size(); }

  std::uint8_t u8() { return take(1) ? b_[pos_ - 1] : 0; }

  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | b_[pos_ - 4 + i];
    return v;
  }

  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | b_[pos_ - 8 + i];
    return v;
  }

  Address address() {
    Address a;
    if (take(a.bytes.size())) {
      std::memcpy(a.bytes.data(), &b_[pos_ - a.bytes.size()], a.bytes.size());
    }
    return a;
  }

  crypto::Hash256 hash() {
    crypto::Hash256 h{};
    if (take(h.size())) {
      std::memcpy(h.data(), &b_[pos_ - h.size()], h.size());
    }
    return h;
  }

  evm::U256 u256() {
    if (!take(32)) return {};
    return evm::U256::from_be_bytes(
        std::span<const std::uint8_t, 32>(&b_[pos_ - 32], 32));
  }

  std::string string() {
    const std::uint32_t len = u32();
    if (!take(len)) return {};
    return std::string(reinterpret_cast<const char*>(&b_[pos_ - len]), len);
  }

  /// Typed enum read with an inclusive upper bound on the raw value.
  template <typename E>
  E enum_u8(std::uint8_t max_raw) {
    const std::uint8_t raw = u8();
    if (raw > max_raw) ok_ = false;
    return static_cast<E>(raw);
  }

 private:
  bool take(std::size_t n) {
    if (!ok_ || b_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  std::span<const std::uint8_t> b_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---- contract-record flag bits --------------------------------------------

constexpr std::uint8_t kFlagHasSource = 1u << 0;
constexpr std::uint8_t kFlagHasTx = 1u << 1;
constexpr std::uint8_t kFlagDeduplicated = 1u << 2;
constexpr std::uint8_t kFlagFnCollision = 1u << 3;
constexpr std::uint8_t kFlagStCollision = 1u << 4;
constexpr std::uint8_t kFlagStExploitable = 1u << 5;
constexpr std::uint8_t kFlagLogicHasSource = 1u << 6;
constexpr std::uint8_t kFlagError = 1u << 7;

constexpr std::uint8_t kProxyFlagHasDelegatecall = 1u << 0;
constexpr std::uint8_t kProxyFlagExecuted = 1u << 1;
constexpr std::uint8_t kProxyFlagForwarded = 1u << 2;
constexpr std::uint8_t kProxyFlagLayoutInferred = 1u << 3;
constexpr std::uint8_t kProxyFlagLayoutReliable = 1u << 4;

// Second analysis-flags byte (v2): the first is full.
constexpr std::uint8_t kFlag2FamilyCollision = 1u << 0;

constexpr std::uint8_t kDiamondFlagIsDiamond = 1u << 0;

// Inclusive raw maxima for the journaled enums; decode rejects anything
// beyond (future schema / corruption the CRC missed).
constexpr std::uint8_t kMaxVerdict =
    static_cast<std::uint8_t>(core::ProxyVerdict::kEmulationError);
constexpr std::uint8_t kMaxHalt =
    static_cast<std::uint8_t>(evm::HaltReason::kStepLimit);
constexpr std::uint8_t kMaxLogicSource =
    static_cast<std::uint8_t>(core::LogicSource::kComputed);
constexpr std::uint8_t kMaxStandard =
    static_cast<std::uint8_t>(core::ProxyStandard::kOther);
constexpr std::uint8_t kMaxTriage =
    static_cast<std::uint8_t>(core::StaticTriage::kSkippedMinimalProxy);
constexpr std::uint8_t kMaxErrorKind =
    static_cast<std::uint8_t>(ErrorKind::kDiskIo);

}  // namespace

std::vector<std::uint8_t> encode_contract_record(const ContractRecord& rec) {
  const ContractAnalysis& a = rec.analysis;
  const std::vector<Address>& history = a.logic_history.logic_addresses;
  const std::vector<LogicDependency>& reads = rec.dependencies.logic;
  if (!std::equal(history.begin(), history.end(), reads.begin(), reads.end(),
                  [](const Address& x, const LogicDependency& y) {
                    return x == y.address;
                  })) {
    throw std::invalid_argument(
        "encode_contract_record: dependencies must follow the logic history");
  }
  std::vector<std::uint8_t> out;
  out.reserve(256);

  put_address(out, a.address);
  put_u32(out, static_cast<std::uint32_t>(a.year));
  std::uint8_t flags = 0;
  if (a.has_source) flags |= kFlagHasSource;
  if (a.has_tx) flags |= kFlagHasTx;
  if (a.deduplicated) flags |= kFlagDeduplicated;
  if (a.function_collision) flags |= kFlagFnCollision;
  if (a.storage_collision) flags |= kFlagStCollision;
  if (a.storage_collision_exploitable) flags |= kFlagStExploitable;
  if (a.logic_has_source) flags |= kFlagLogicHasSource;
  if (a.error) flags |= kFlagError;
  put_u8(out, flags);
  std::uint8_t flags2 = 0;
  if (a.family_collision) flags2 |= kFlag2FamilyCollision;
  put_u8(out, flags2);
  put_u32(out, a.collision_pairs_family_checked);
  put_u32(out, a.collision_pairs_source_free);

  const core::ProxyReport& p = a.proxy;
  put_u8(out, static_cast<std::uint8_t>(p.verdict));
  std::uint8_t pflags = 0;
  if (p.has_delegatecall_opcode) pflags |= kProxyFlagHasDelegatecall;
  if (p.delegatecall_executed) pflags |= kProxyFlagExecuted;
  if (p.calldata_forwarded) pflags |= kProxyFlagForwarded;
  if (p.layout_inferred) pflags |= kProxyFlagLayoutInferred;
  if (p.layout_reliable) pflags |= kProxyFlagLayoutReliable;
  put_u8(out, pflags);
  put_u8(out, static_cast<std::uint8_t>(p.halt));
  put_address(out, p.logic_address);
  put_u8(out, static_cast<std::uint8_t>(p.logic_source));
  put_u256(out, p.logic_slot);
  put_u8(out, static_cast<std::uint8_t>(p.standard));
  put_u8(out, static_cast<std::uint8_t>(p.static_triage));
  put_u8(out, p.static_mismatch);
  put_u32(out, p.probe_selector);
  put_u64(out, p.emulation_steps);

  const core::LogicHistory& lh = a.logic_history;
  put_u32(out, static_cast<std::uint32_t>(lh.logic_addresses.size()));
  for (const Address& addr : lh.logic_addresses) put_address(out, addr);
  put_u64(out, lh.upgrade_events);
  put_u64(out, lh.api_calls);

  const core::DiamondReport& d = a.diamond;
  put_u8(out, d.is_diamond ? kDiamondFlagIsDiamond : 0);
  put_u32(out, static_cast<std::uint32_t>(d.routed_selectors.size()));
  for (const std::uint32_t sel : d.routed_selectors) put_u32(out, sel);
  put_u32(out, static_cast<std::uint32_t>(d.facets.size()));
  for (const Address& addr : d.facets) put_address(out, addr);

  if (a.error) {
    put_u8(out, static_cast<std::uint8_t>(a.error->kind));
    put_string(out, a.error->phase);
    put_string(out, a.error->detail);
  }

  put_hash(out, rec.code_hash);
  // v3: the dependencies, each logic's address taken from the history.
  put_address(out, rec.dependencies.donor);
  for (const LogicDependency& l : reads) {
    put_hash(out, l.code_hash);
    put_address(out, l.donor);
  }
  return out;
}

std::optional<ContractRecord> decode_contract_record(
    std::span<const std::uint8_t> payload) {
  Cursor c(payload);
  ContractRecord rec;
  ContractAnalysis& a = rec.analysis;

  a.address = c.address();
  a.year = static_cast<int>(c.u32());
  const std::uint8_t flags = c.u8();
  a.has_source = (flags & kFlagHasSource) != 0;
  a.has_tx = (flags & kFlagHasTx) != 0;
  a.deduplicated = (flags & kFlagDeduplicated) != 0;
  a.function_collision = (flags & kFlagFnCollision) != 0;
  a.storage_collision = (flags & kFlagStCollision) != 0;
  a.storage_collision_exploitable = (flags & kFlagStExploitable) != 0;
  a.logic_has_source = (flags & kFlagLogicHasSource) != 0;
  const std::uint8_t flags2 = c.u8();
  a.family_collision = (flags2 & kFlag2FamilyCollision) != 0;
  a.collision_pairs_family_checked = c.u32();
  a.collision_pairs_source_free = c.u32();

  core::ProxyReport& p = a.proxy;
  p.verdict = c.enum_u8<core::ProxyVerdict>(kMaxVerdict);
  const std::uint8_t pflags = c.u8();
  p.has_delegatecall_opcode = (pflags & kProxyFlagHasDelegatecall) != 0;
  p.delegatecall_executed = (pflags & kProxyFlagExecuted) != 0;
  p.calldata_forwarded = (pflags & kProxyFlagForwarded) != 0;
  p.layout_inferred = (pflags & kProxyFlagLayoutInferred) != 0;
  p.layout_reliable = (pflags & kProxyFlagLayoutReliable) != 0;
  p.halt = c.enum_u8<evm::HaltReason>(kMaxHalt);
  p.logic_address = c.address();
  p.logic_source = c.enum_u8<core::LogicSource>(kMaxLogicSource);
  p.logic_slot = c.u256();
  p.standard = c.enum_u8<core::ProxyStandard>(kMaxStandard);
  p.static_triage = c.enum_u8<core::StaticTriage>(kMaxTriage);
  p.static_mismatch = c.u8();
  p.probe_selector = c.u32();
  p.emulation_steps = c.u64();

  core::LogicHistory& lh = a.logic_history;
  const std::uint32_t n_logic = c.u32();
  for (std::uint32_t i = 0; c.ok() && i < n_logic; ++i) {
    lh.logic_addresses.push_back(c.address());
  }
  lh.upgrade_events = c.u64();
  lh.api_calls = c.u64();

  core::DiamondReport& d = a.diamond;
  d.is_diamond = (c.u8() & kDiamondFlagIsDiamond) != 0;
  const std::uint32_t n_sel = c.u32();
  for (std::uint32_t i = 0; c.ok() && i < n_sel; ++i) {
    d.routed_selectors.push_back(c.u32());
  }
  const std::uint32_t n_facets = c.u32();
  for (std::uint32_t i = 0; c.ok() && i < n_facets; ++i) {
    d.facets.push_back(c.address());
  }

  if ((flags & kFlagError) != 0) {
    ErrorRecord err;
    err.kind = c.enum_u8<ErrorKind>(kMaxErrorKind);
    err.phase = c.string();
    err.detail = c.string();
    a.error = std::move(err);
  }

  rec.code_hash = c.hash();
  rec.dependencies.donor = c.address();
  for (std::size_t i = 0; c.ok() && i < lh.logic_addresses.size(); ++i) {
    LogicDependency& l = rec.dependencies.logic.emplace_back();
    l.address = lh.logic_addresses[i];
    l.code_hash = c.hash();
    l.donor = c.address();
  }
  if (!c.exhausted()) return std::nullopt;
  return rec;
}

std::vector<std::uint8_t> encode_sweep_begin(const SweepBeginRecord& rec) {
  std::vector<std::uint8_t> out;
  put_u64(out, rec.population);
  put_u64(out, rec.shard_size);
  return out;
}

std::optional<SweepBeginRecord> decode_sweep_begin(
    std::span<const std::uint8_t> payload) {
  Cursor c(payload);
  SweepBeginRecord rec;
  rec.population = c.u64();
  rec.shard_size = c.u64();
  if (!c.exhausted()) return std::nullopt;
  return rec;
}

std::vector<std::uint8_t> encode_shard_commit(const ShardCommitRecord& rec) {
  std::vector<std::uint8_t> out;
  put_u64(out, rec.shard_index);
  put_u64(out, rec.contracts);
  return out;
}

std::optional<ShardCommitRecord> decode_shard_commit(
    std::span<const std::uint8_t> payload) {
  Cursor c(payload);
  ShardCommitRecord rec;
  rec.shard_index = c.u64();
  rec.contracts = c.u64();
  if (!c.exhausted()) return std::nullopt;
  return rec;
}

std::vector<std::uint8_t> encode_sweep_end(const SweepEndRecord& rec) {
  std::vector<std::uint8_t> out;
  put_u64(out, rec.contracts);
  return out;
}

std::optional<SweepEndRecord> decode_sweep_end(
    std::span<const std::uint8_t> payload) {
  Cursor c(payload);
  SweepEndRecord rec;
  rec.contracts = c.u64();
  if (!c.exhausted()) return std::nullopt;
  return rec;
}

}  // namespace proxion::store
