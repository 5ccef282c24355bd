#include "store/records.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <stdexcept>

namespace proxion::store {

namespace {

using core::ContractAnalysis;
using core::ErrorKind;
using core::ErrorRecord;
using evm::Address;

// ---- encode writer ---------------------------------------------------------

/// Little-endian writer over a buffer sized once up front: every field is a
/// store through the cursor, so encoding a record allocates exactly once.
/// The caller computes the size; `finish` asserts it was exact.
class Writer {
 public:
  explicit Writer(std::size_t size) : out_(size), p_(out_.data()) {}

  void u8(std::uint8_t v) { *p_++ = v; }
  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }

  void bytes(const std::uint8_t* data, std::size_t n) {
    if (n != 0) std::memcpy(p_, data, n);
    p_ += n;
  }
  void address(const Address& a) { bytes(a.bytes.data(), a.bytes.size()); }
  void hash(const crypto::Hash256& h) { bytes(h.data(), h.size()); }
  void u256(const evm::U256& v) {
    const std::array<std::uint8_t, 32> be = v.to_be_bytes();
    bytes(be.data(), be.size());
  }
  void string(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  std::vector<std::uint8_t> finish() && {
    assert(p_ == out_.data() + out_.size() && "encoded size miscounted");
    return std::move(out_);
  }

 private:
  template <typename T>
  void le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p_[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    p_ += sizeof(T);
  }

  std::vector<std::uint8_t> out_;
  std::uint8_t* p_;
};

constexpr std::size_t kAddressBytes = 20;
constexpr std::size_t kHashBytes = 32;

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
    static_cast<std::uint8_t>(core::StaticTriage::kSkippedRunsToFuse);
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
  const core::DiamondReport& d = a.diamond;
  // The encoded size, section by section in the order written below.
  std::size_t size = kAddressBytes + 4 + 1 + 1 + 4 + 4;  // address .. pairs
  size += 1 + 1 + 1 + kAddressBytes + 1 + 32 + 1 + 1 + 1 + 4 + 8;  // proxy
  size += 4 + kAddressBytes * history.size() + 8 + 8;  // logic history
  size += 1 + 4 + 4 * d.routed_selectors.size() + 4 +
          kAddressBytes * d.facets.size();  // diamond
  if (a.error) {
    size += 1 + 4 + a.error->phase.size() + 4 + a.error->detail.size();
  }
  size += kHashBytes + kAddressBytes +
          (kHashBytes + kAddressBytes) * reads.size();  // hash, dependencies
  Writer w(size);

  w.address(a.address);
  w.u32(static_cast<std::uint32_t>(a.year));
  std::uint8_t flags = 0;
  if (a.has_source) flags |= kFlagHasSource;
  if (a.has_tx) flags |= kFlagHasTx;
  if (a.deduplicated) flags |= kFlagDeduplicated;
  if (a.function_collision) flags |= kFlagFnCollision;
  if (a.storage_collision) flags |= kFlagStCollision;
  if (a.storage_collision_exploitable) flags |= kFlagStExploitable;
  if (a.logic_has_source) flags |= kFlagLogicHasSource;
  if (a.error) flags |= kFlagError;
  w.u8(flags);
  std::uint8_t flags2 = 0;
  if (a.family_collision) flags2 |= kFlag2FamilyCollision;
  w.u8(flags2);
  w.u32(a.collision_pairs_family_checked);
  w.u32(a.collision_pairs_source_free);

  const core::ProxyReport& p = a.proxy;
  w.u8(static_cast<std::uint8_t>(p.verdict));
  std::uint8_t pflags = 0;
  if (p.has_delegatecall_opcode) pflags |= kProxyFlagHasDelegatecall;
  if (p.delegatecall_executed) pflags |= kProxyFlagExecuted;
  if (p.calldata_forwarded) pflags |= kProxyFlagForwarded;
  if (p.layout_inferred) pflags |= kProxyFlagLayoutInferred;
  if (p.layout_reliable) pflags |= kProxyFlagLayoutReliable;
  w.u8(pflags);
  w.u8(static_cast<std::uint8_t>(p.halt));
  w.address(p.logic_address);
  w.u8(static_cast<std::uint8_t>(p.logic_source));
  w.u256(p.logic_slot);
  w.u8(static_cast<std::uint8_t>(p.standard));
  w.u8(static_cast<std::uint8_t>(p.static_triage));
  w.u8(p.static_mismatch);
  w.u32(p.probe_selector);
  w.u64(p.emulation_steps);

  const core::LogicHistory& lh = a.logic_history;
  w.u32(static_cast<std::uint32_t>(history.size()));
  for (const Address& addr : history) w.address(addr);
  w.u64(lh.upgrade_events);
  w.u64(lh.api_calls);

  w.u8(d.is_diamond ? kDiamondFlagIsDiamond : 0);
  w.u32(static_cast<std::uint32_t>(d.routed_selectors.size()));
  for (const std::uint32_t sel : d.routed_selectors) w.u32(sel);
  w.u32(static_cast<std::uint32_t>(d.facets.size()));
  for (const Address& addr : d.facets) w.address(addr);

  if (a.error) {
    w.u8(static_cast<std::uint8_t>(a.error->kind));
    w.string(a.error->phase);
    w.string(a.error->detail);
  }

  w.hash(rec.code_hash);
  // v3: the dependencies, each logic's address taken from the history.
  w.address(rec.dependencies.donor);
  for (const LogicDependency& l : reads) {
    w.hash(l.code_hash);
    w.address(l.donor);
  }
  return std::move(w).finish();
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

std::vector<std::uint8_t> encode_shard_commit(const ShardCommitRecord& rec) {
  Writer w(16);
  w.u64(rec.shard_index);
  w.u64(rec.contracts);
  return std::move(w).finish();
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

}  // namespace proxion::store
