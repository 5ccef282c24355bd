#include "static/provenance.h"

#include <algorithm>
#include <array>

#include "obs/metrics.h"

namespace proxion::static_analysis {

namespace {

// EIP-1167 minimal-proxy runtime: prefix + 20-byte logic address + tail,
// exactly 45 bytes. Matched byte-exactly — near-misses go through emulation.
constexpr std::array<std::uint8_t, 10> kEip1167Prefix = {
    0x36, 0x3d, 0x3d, 0x37, 0x3d, 0x3d, 0x3d, 0x36, 0x3d, 0x73};
constexpr std::array<std::uint8_t, 15> kEip1167Tail = {
    0x5a, 0xf4, 0x3d, 0x82, 0x80, 0x3e, 0x90, 0x3d,
    0x91, 0x60, 0x2b, 0x57, 0xfd, 0x5b, 0xf3};
constexpr std::size_t kEip1167Size =
    kEip1167Prefix.size() + 20 + kEip1167Tail.size();

std::optional<evm::Address> match_eip1167(evm::BytesView code) {
  if (code.size() != kEip1167Size) return std::nullopt;
  if (!std::equal(kEip1167Prefix.begin(), kEip1167Prefix.end(),
                  code.begin())) {
    return std::nullopt;
  }
  if (!std::equal(kEip1167Tail.begin(), kEip1167Tail.end(),
                  code.begin() + kEip1167Prefix.size() + 20)) {
    return std::nullopt;
  }
  evm::Address logic;
  std::copy_n(code.begin() + kEip1167Prefix.size(), logic.bytes.size(),
              logic.bytes.begin());
  return logic;
}

DelegatecallSite classify(const DelegatecallFact& fact) {
  DelegatecallSite site;
  site.pc = fact.pc;
  site.reachable = fact.reachable;
  if (!fact.reachable) return site;  // never executed: class stays kUnknown
  switch (fact.target.kind) {
    case AbstractValue::Kind::kConst:
      site.target_class = TargetClass::kHardcoded;
      site.address = evm::Address::from_word(fact.target.payload);
      break;
    case AbstractValue::Kind::kStorage:
      site.target_class = TargetClass::kStorageSlot;
      site.slot = fact.target.payload;
      break;
    case AbstractValue::Kind::kCalldata:
      site.target_class = TargetClass::kCalldata;
      break;
    case AbstractValue::Kind::kHashed:
      // A keccak-derived slot (mapping facet tables, diamond-style): the
      // concrete slot is not statically known, so no slot claim is made.
    case AbstractValue::Kind::kUnknown:
      site.target_class = TargetClass::kUnknown;
      break;
  }
  return site;
}

}  // namespace

std::string_view to_string(TargetClass c) noexcept {
  switch (c) {
    case TargetClass::kHardcoded: return "hardcoded";
    case TargetClass::kStorageSlot: return "storage-slot";
    case TargetClass::kCalldata: return "calldata";
    case TargetClass::kUnknown: return "unknown";
  }
  return "unknown";
}

std::uint64_t StaticReport::fuse_gas_bound(
    std::uint64_t step_limit) const noexcept {
  constexpr std::uint64_t kMax = UINT64_MAX;
  const std::uint64_t per_step = cfg.max_instruction_gas;
  if (step_limit == kMax ||
      (per_step != 0 && step_limit + 1 > kMax / per_step)) {
    return kMax;
  }
  const std::uint64_t steps_gas = (step_limit + 1) * per_step;
  return steps_gas > kMax - cfg.memory_gas ? kMax : steps_gas + cfg.memory_gas;
}

std::vector<DelegatecallSite> StaticReport::reachable_sites() const {
  std::vector<DelegatecallSite> out;
  for (const DelegatecallSite& s : sites) {
    if (s.reachable) out.push_back(s);
  }
  return out;
}

StaticReport analyze(const evm::Disassembly& dis, const CfgOptions& options) {
  StaticReport report;
  report.cfg = recover_cfg(dis, options);
  const Cfg& cfg = report.cfg;

  report.sites.reserve(cfg.delegatecalls.size());
  for (const DelegatecallFact& fact : cfg.delegatecalls) {
    report.sites.push_back(classify(fact));
    report.any_reachable_delegatecall |= fact.reachable;
  }
  report.has_delegatecall = !report.sites.empty();
  report.provably_no_delegatecall =
      cfg.complete && !report.any_reachable_delegatecall;

  bool any_reachable_fault = false;
  for (const CfgBlock& b : cfg.blocks) {
    any_reachable_fault |= b.reachable && b.may_fault;
  }
  // Both proofs need every concrete path covered (`complete`, which also
  // rules out an entry-depth conflict), no fault, no foreign code and a
  // constant memory bound; they differ in how the probe may end.
  const bool no_fault_or_foreign_code =
      cfg.complete && !any_reachable_fault && !cfg.external_call_reachable &&
      !cfg.unsafe_terminator_reachable && cfg.memory_bounded;
  report.provably_clean_termination =
      no_fault_or_foreign_code && !cfg.has_reachable_cycle;
  report.provably_no_exit =
      no_fault_or_foreign_code && !cfg.clean_halt_reachable;
  for (const StorageFact& fact : cfg.storage_facts) {
    report.any_reachable_storage_access |= fact.reachable;
  }

  report.minimal_proxy_target = match_eip1167(dis.code());

  obs::Registry& reg = obs::Registry::global();
  static obs::Counter& blocks_recovered =
      reg.counter("static.cfg.blocks_recovered");
  static obs::Counter& unresolved_jumps =
      reg.counter("static.cfg.unresolved_jumps");
  blocks_recovered.add(cfg.blocks.size());
  unresolved_jumps.add(cfg.unresolved_jump_count());

  return report;
}

}  // namespace proxion::static_analysis
