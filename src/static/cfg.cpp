#include "static/cfg.h"

#include <algorithm>
#include <deque>
#include <map>
#include <sstream>
#include <unordered_map>

namespace proxion::static_analysis {

namespace {

using evm::Opcode;
using evm::OpcodeInfo;

// Mirrors of the interpreter's limits and EIP-2929 cold surcharges — the
// static gas bound must never undercount what run_frame would charge.
constexpr std::size_t kStackLimit = 1024;
constexpr std::uint64_t kMaxMemory = 16u << 20;
constexpr std::uint64_t kColdSlotSurcharge = 2100;
constexpr std::uint64_t kColdAccountSurcharge = 2600;

using State = std::vector<AbstractValue>;

/// Constant evaluation with the interpreter's exact operand order
/// (`a` popped first = stack top, `b` second).
U256 const_binary(Opcode op, const U256& a, const U256& b) noexcept {
  switch (op) {
    case Opcode::ADD: return a + b;
    case Opcode::MUL: return a * b;
    case Opcode::SUB: return a - b;
    case Opcode::DIV: return a / b;
    case Opcode::SDIV: return a.sdiv(b);
    case Opcode::MOD: return a % b;
    case Opcode::SMOD: return a.smod(b);
    case Opcode::EXP: return a.exp(b);
    case Opcode::SIGNEXTEND: return b.signextend(a);
    case Opcode::LT: return U256{a < b ? 1u : 0u};
    case Opcode::GT: return U256{a > b ? 1u : 0u};
    case Opcode::SLT: return U256{a.slt(b) ? 1u : 0u};
    case Opcode::SGT: return U256{a.sgt(b) ? 1u : 0u};
    case Opcode::EQ: return U256{a == b ? 1u : 0u};
    case Opcode::AND: return a & b;
    case Opcode::OR: return a | b;
    case Opcode::XOR: return a ^ b;
    case Opcode::BYTE: return U256{b.byte(a)};
    case Opcode::SHL: return b << a;
    case Opcode::SHR: return b >> a;
    case Opcode::SAR: return b.sar(a);
    default: return U256{};
  }
}

AbstractValue binary(Opcode op, const AbstractValue& a,
                     const AbstractValue& b) noexcept {
  if (a.is_const() && b.is_const()) {
    return AbstractValue::constant(const_binary(op, a.payload, b.payload));
  }
  // keccak(base) + i stays in the slot family: a constant index folds into
  // the addend, anything else (a caller-chosen array index) keeps the family
  // with the element offset widened away.
  if (op == Opcode::ADD && (a.is_hashed() != b.is_hashed())) {
    const AbstractValue& h = a.is_hashed() ? a : b;
    const AbstractValue& i = a.is_hashed() ? b : a;
    AbstractValue r = h;
    if (i.is_const()) {
      r.addend = h.addend + i.payload;
    } else {
      r.addend = U256{};
      if (i.is_calldata()) {
        r.key_origin = AbstractValue::KeyOrigin::kCalldata;
      }
    }
    return r;
  }
  if (a.is_calldata() || b.is_calldata()) return AbstractValue::calldata();
  // Address-narrowing masks (`sload(slot) & 2^160-1`) must not lose the
  // slot attribution — that is the exact shape of every slot-proxy fallback.
  if (op == Opcode::AND) {
    if (a.is_const() && b.is_storage()) return b;
    if (b.is_const() && a.is_storage()) return a;
    if (a.is_const() && b.is_hashed()) return b;
    if (b.is_const() && a.is_hashed()) return a;
  }
  return AbstractValue::unknown();
}

/// Merges key provenance across nesting levels / joined paths: a calldata
/// key anywhere makes the reachable element caller-chosen.
AbstractValue::KeyOrigin merge_key_origin(AbstractValue::KeyOrigin a,
                                          AbstractValue::KeyOrigin b) noexcept {
  using KeyOrigin = AbstractValue::KeyOrigin;
  if (a == KeyOrigin::kCalldata || b == KeyOrigin::kCalldata) {
    return KeyOrigin::kCalldata;
  }
  if (a == KeyOrigin::kUnknown) return b;
  if (b == KeyOrigin::kUnknown) return a;
  return a == b ? a : KeyOrigin::kUnknown;
}

/// Lifts one KECCAK256 over a tracked memory word into a slot-family value:
/// `mapping` hashes `key ++ base` (0x40 bytes), arrays hash `base` alone
/// (0x20 bytes). Nested compositions extend the path while the inner value
/// still points at the family start (addend zero).
AbstractValue derive_hashed(const AbstractValue& base, bool mapping,
                            const AbstractValue& key) noexcept {
  using KeyOrigin = AbstractValue::KeyOrigin;
  KeyOrigin origin = KeyOrigin::kUnknown;
  if (key.is_const()) origin = KeyOrigin::kConst;
  if (key.is_calldata()) origin = KeyOrigin::kCalldata;
  if (base.is_const()) {
    return AbstractValue::hashed(base.payload, 1,
                                 mapping ? std::uint8_t{1} : std::uint8_t{0},
                                 origin);
  }
  if (base.is_hashed() && base.addend.is_zero() && base.hash_depth < 8) {
    AbstractValue v = base;
    if (mapping) {
      v.hash_path |= static_cast<std::uint8_t>(1u << v.hash_depth);
    }
    ++v.hash_depth;
    v.key_origin = merge_key_origin(v.key_origin, origin);
    return v;
  }
  return AbstractValue::unknown();
}

/// Truncated-PUSH semantics exactly as the interpreter implements them: the
/// EVM right-pads missing immediate bytes with zeros, i.e. shifts left.
U256 push_constant(const evm::Instruction& ins) noexcept {
  const U256 value = ins.push_value();
  const int declared = evm::push_size(ins.byte);
  const std::size_t missing =
      static_cast<std::size_t>(declared) - ins.immediate.size();
  if (missing == 0) return value;
  return value << U256{static_cast<std::uint64_t>(missing * 8)};
}

std::uint64_t memory_expansion_gas(std::uint64_t end_bytes) noexcept {
  const std::uint64_t words = (end_bytes + 31) / 32;
  return 3 * words + words * words / 512;
}

bool is_account_touching(Opcode op) noexcept {
  switch (op) {
    case Opcode::BALANCE:
    case Opcode::EXTCODESIZE:
    case Opcode::EXTCODECOPY:
    case Opcode::EXTCODEHASH:
    case Opcode::CALL:
    case Opcode::CALLCODE:
    case Opcode::DELEGATECALL:
    case Opcode::STATICCALL:
      return true;
    default:
      return false;
  }
}

}  // namespace

AbstractValue join(const AbstractValue& a, const AbstractValue& b) noexcept {
  if (a == b) return a;
  if (a.is_calldata() && b.is_calldata()) return AbstractValue::calldata();
  if (a.same_family(b)) {
    // Same symbolic slot family reached with different element offsets or
    // key provenance: keep the family identity, widen what differs.
    AbstractValue v = a;
    if (!(a.addend == b.addend)) v.addend = U256{};
    v.key_origin = merge_key_origin(a.key_origin, b.key_origin);
    return v;
  }
  return AbstractValue::unknown();
}

std::uint32_t Cfg::reachable_block_count() const noexcept {
  std::uint32_t n = 0;
  for (const CfgBlock& b : blocks) n += b.reachable ? 1 : 0;
  return n;
}

std::optional<std::uint32_t> Cfg::block_containing(std::uint32_t pc) const {
  if (blocks.empty()) return std::nullopt;
  // Last block whose start_pc <= pc (blocks are sorted by start_pc and
  // partition the instruction stream).
  auto it = std::upper_bound(
      blocks.begin(), blocks.end(), pc,
      [](std::uint32_t v, const CfgBlock& b) { return v < b.start_pc; });
  if (it == blocks.begin()) return std::nullopt;
  return static_cast<std::uint32_t>(std::distance(blocks.begin(), it) - 1);
}

bool Cfg::has_edge(std::uint32_t from, std::uint32_t to) const {
  if (from >= blocks.size()) return false;
  const auto& s = blocks[from].successors;
  return std::binary_search(s.begin(), s.end(), to);
}

std::string Cfg::to_string() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const CfgBlock& b = blocks[i];
    out << "block " << i << " @" << b.start_pc << " n=" << b.instruction_count
        << (b.reachable ? " live" : " dead");
    if (b.widened) out << " widened";
    if (b.may_fault) out << " may-fault";
    if (b.unresolved_jump) out << " unresolved";
    out << " ->";
    for (std::uint32_t s : b.successors) out << ' ' << s;
    out << '\n';
  }
  out << "complete=" << (complete ? 1 : 0)
      << " cycle=" << (has_reachable_cycle ? 1 : 0)
      << " unresolved=" << unresolved_jump_pcs.size() << '\n';
  return out.str();
}

Cfg recover_cfg(const evm::Disassembly& dis, const CfgOptions& options) {
  Cfg cfg;
  const auto& instructions = dis.instructions();
  const auto& dis_blocks = dis.blocks();

  cfg.blocks.reserve(dis_blocks.size());
  for (const evm::BasicBlock& b : dis_blocks) {
    CfgBlock cb;
    cb.start_pc = b.start_pc;
    cb.first_instruction = b.first_instruction;
    cb.instruction_count = b.instruction_count;
    cfg.blocks.push_back(std::move(cb));
  }
  if (cfg.blocks.empty()) {
    cfg.complete = true;
    return cfg;
  }

  std::unordered_map<std::uint32_t, std::uint32_t> block_at_pc;
  block_at_pc.reserve(cfg.blocks.size());
  for (std::uint32_t i = 0; i < cfg.blocks.size(); ++i) {
    block_at_pc.emplace(cfg.blocks[i].start_pc, i);
  }

  const std::uint64_t budget =
      options.abstract_step_budget != 0
          ? options.abstract_step_budget
          : std::max<std::uint64_t>(4096, 64 * instructions.size());
  const std::uint32_t max_states =
      std::max<std::uint32_t>(1, options.max_entry_states_per_block);

  struct BlockStates {
    std::vector<State> seen;
  };
  std::vector<BlockStates> states(cfg.blocks.size());
  std::deque<std::pair<std::uint32_t, State>> worklist;
  std::map<std::uint32_t, std::pair<bool, AbstractValue>> dc_facts;
  struct PendingStorageFact {
    AbstractValue slot;
    AbstractValue value;
  };
  std::map<std::uint32_t, PendingStorageFact> st_facts;
  std::vector<std::uint32_t> unresolved_pcs;

  auto record_storage = [&](std::uint32_t pc, const AbstractValue& slot,
                            const AbstractValue& value) {
    auto [it, inserted] =
        st_facts.try_emplace(pc, PendingStorageFact{slot, value});
    if (!inserted) {
      it->second.slot = join(it->second.slot, slot);
      it->second.value = join(it->second.value, value);
    }
  };

  auto propagate = [&](std::uint32_t b, State&& st) {
    BlockStates& bs = states[b];
    cfg.blocks[b].reachable = true;
    for (const State& s : bs.seen) {
      if (s == st) return;
    }
    if (bs.seen.size() < max_states) {
      bs.seen.push_back(st);
      worklist.emplace_back(b, std::move(st));
      return;
    }
    // Widen: fold every seen entry state (and the new one) into a single
    // pointwise join. Monotone — each stack slot can only degrade toward
    // kUnknown — so re-analysis of the block terminates.
    cfg.blocks[b].widened = true;
    bool same_depth = true;
    std::size_t max_depth = st.size();
    for (const State& s : bs.seen) {
      same_depth = same_depth && s.size() == st.size();
      max_depth = std::max(max_depth, s.size());
    }
    State merged;
    if (same_depth) {
      merged = std::move(st);
      for (const State& s : bs.seen) {
        for (std::size_t i = 0; i < merged.size(); ++i) {
          merged[i] = join(merged[i], s[i]);
        }
      }
    } else {
      // Paths disagree on the entry depth; depth-exact underflow tracking
      // is gone, so the CFG stops claiming completeness.
      cfg.depth_conflict = true;
      cfg.blocks[b].may_fault = true;
      merged.assign(max_depth, AbstractValue::unknown());
    }
    for (const State& s : bs.seen) {
      if (s == merged) return;
    }
    bs.seen.clear();
    bs.seen.push_back(merged);
    worklist.emplace_back(b, std::move(merged));
  };

  std::vector<std::vector<std::uint32_t>> edges(cfg.blocks.size());
  auto add_edge = [&](std::uint32_t from, std::uint32_t to, State st) {
    edges[from].push_back(to);
    propagate(to, std::move(st));
  };

  /// Resolves a constant jump target to a block index; nullopt = the jump
  /// faults (non-JUMPDEST target), which the caller records as may_fault.
  auto resolve_target = [&](const U256& target)
      -> std::optional<std::uint32_t> {
    if (!target.fits_u64() || target.low64() > 0xffffffffu) {
      return std::nullopt;
    }
    const auto pc = static_cast<std::uint32_t>(target.low64());
    if (!dis.is_jumpdest(pc)) return std::nullopt;
    const auto it = block_at_pc.find(pc);
    // The disassembler starts a block at every JUMPDEST instruction.
    return it == block_at_pc.end() ? std::nullopt
                                   : std::optional<std::uint32_t>(it->second);
  };

  auto record_mem = [&](const AbstractValue& off, const AbstractValue& size) {
    if (size.is_const() && size.payload.is_zero()) return;
    if (!off.is_const() || !size.is_const() || !off.payload.fits_u64() ||
        !size.payload.fits_u64()) {
      cfg.memory_bounded = false;
      return;
    }
    const std::uint64_t end = off.payload.low64() + size.payload.low64();
    if (end < off.payload.low64() || end > kMaxMemory) {
      cfg.memory_bounded = false;
      return;
    }
    cfg.max_memory_end = std::max(cfg.max_memory_end, end);
  };

  // Abstractly executes `block` under entry state `st`, recording edges,
  // DELEGATECALL facts, and proof hazards as it goes.
  auto exec_block = [&](std::uint32_t block, State st) {
    CfgBlock& cb = cfg.blocks[block];
    State& s = st;
    auto at = [&](std::size_t from_top) -> const AbstractValue& {
      return s[s.size() - 1 - from_top];
    };
    auto pop_n = [&](std::size_t n) { s.resize(s.size() - n); };
    const std::uint32_t end_index = cb.first_instruction + cb.instruction_count;

    // Block-local abstract memory: constant-offset MSTOREs feed KECCAK256 so
    // mapping/array slot derivations (`keccak256(key ++ base)`) survive as
    // kHashed values instead of degrading to kUnknown. Anything less precise
    // than a full-word store at a constant offset clobbers the whole map —
    // the derivation then simply fails closed to kUnknown.
    std::map<std::uint64_t, AbstractValue> mem_words;
    auto mem_store = [&](const AbstractValue& off, const AbstractValue& val) {
      if (!off.is_const() || !off.payload.fits_u64() ||
          off.payload.low64() >= kMaxMemory) {
        mem_words.clear();
        return;
      }
      const std::uint64_t o = off.payload.low64();
      for (auto it = mem_words.begin(); it != mem_words.end();) {
        const bool overlaps = it->first + 32 > o && it->first < o + 32;
        if (overlaps && it->first != o) {
          it = mem_words.erase(it);
        } else {
          ++it;
        }
      }
      mem_words[o] = val;
    };
    auto mem_load_word = [&](std::uint64_t o) -> AbstractValue {
      const auto it = mem_words.find(o);
      return it == mem_words.end() ? AbstractValue::unknown() : it->second;
    };

    for (std::uint32_t idx = cb.first_instruction; idx < end_index; ++idx) {
      if (++cfg.abstract_steps > budget) {
        cfg.budget_exhausted = true;
        return;
      }
      const evm::Instruction& ins = instructions[idx];
      const std::uint8_t byte = ins.byte;
      const OpcodeInfo& info = ins.info();
      const Opcode op = ins.opcode();

      if (!info.defined || op == Opcode::INVALID) {
        cfg.unsafe_terminator_reachable = true;
        return;  // halts as kInvalidOpcode
      }
      if (s.size() < info.stack_in) {
        cb.may_fault = true;  // kStackUnderflow on this path
        return;
      }

      if (evm::is_push(byte)) {
        s.push_back(AbstractValue::constant(push_constant(ins)));
      } else if (evm::is_dup(byte)) {
        const std::size_t n = static_cast<std::size_t>(byte - 0x80) + 1;
        if (s.size() < n) {
          cb.may_fault = true;
          return;
        }
        s.push_back(s[s.size() - n]);
      } else if (evm::is_swap(byte)) {
        const std::size_t n = static_cast<std::size_t>(byte - 0x90) + 1;
        if (s.size() < n + 1) {
          cb.may_fault = true;
          return;
        }
        std::swap(s.back(), s[s.size() - 1 - n]);
      } else if (evm::is_log(byte)) {
        record_mem(at(0), at(1));
        pop_n(info.stack_in);
      } else {
        switch (op) {
          case Opcode::STOP:
            cfg.clean_halt_reachable = true;
            return;
          case Opcode::ADD: case Opcode::MUL: case Opcode::SUB:
          case Opcode::DIV: case Opcode::SDIV: case Opcode::MOD:
          case Opcode::SMOD: case Opcode::EXP: case Opcode::SIGNEXTEND:
          case Opcode::LT: case Opcode::GT: case Opcode::SLT:
          case Opcode::SGT: case Opcode::EQ: case Opcode::AND:
          case Opcode::OR: case Opcode::XOR: case Opcode::BYTE:
          case Opcode::SHL: case Opcode::SHR: case Opcode::SAR: {
            const AbstractValue r = binary(op, at(0), at(1));
            pop_n(2);
            s.push_back(r);
            break;
          }
          case Opcode::ADDMOD: case Opcode::MULMOD: {
            AbstractValue r = AbstractValue::unknown();
            if (at(0).is_const() && at(1).is_const() && at(2).is_const()) {
              r = AbstractValue::constant(
                  op == Opcode::ADDMOD
                      ? U256::addmod(at(0).payload, at(1).payload,
                                     at(2).payload)
                      : U256::mulmod(at(0).payload, at(1).payload,
                                     at(2).payload));
            } else if (at(0).is_calldata() || at(1).is_calldata() ||
                       at(2).is_calldata()) {
              r = AbstractValue::calldata();
            }
            pop_n(3);
            s.push_back(r);
            break;
          }
          case Opcode::ISZERO: {
            AbstractValue r = AbstractValue::unknown();
            if (at(0).is_const()) {
              r = AbstractValue::constant(
                  U256{at(0).payload.is_zero() ? 1u : 0u});
            } else if (at(0).is_calldata()) {
              r = AbstractValue::calldata();
            }
            pop_n(1);
            s.push_back(r);
            break;
          }
          case Opcode::NOT: {
            AbstractValue r = at(0).is_const()
                                  ? AbstractValue::constant(~at(0).payload)
                                  : (at(0).is_calldata()
                                         ? AbstractValue::calldata()
                                         : AbstractValue::unknown());
            pop_n(1);
            s.push_back(r);
            break;
          }
          case Opcode::KECCAK256: {
            const AbstractValue off = at(0);
            const AbstractValue size = at(1);
            record_mem(off, size);
            pop_n(2);
            AbstractValue r = AbstractValue::unknown();
            if (off.is_const() && off.payload.fits_u64() && size.is_const()) {
              const std::uint64_t o = off.payload.low64();
              if (size.payload == U256{0x40}) {
                // Solidity mapping element: keccak256(key ++ base_slot).
                r = derive_hashed(mem_load_word(o + 32), /*mapping=*/true,
                                  mem_load_word(o));
              } else if (size.payload == U256{0x20}) {
                // Dynamic-array data start: keccak256(base_slot).
                r = derive_hashed(mem_load_word(o), /*mapping=*/false,
                                  AbstractValue::unknown());
              }
            }
            s.push_back(r);
            break;
          }
          case Opcode::SLOAD: {
            const AbstractValue slot = at(0);
            record_storage(ins.pc, slot, AbstractValue::unknown());
            pop_n(1);
            s.push_back(slot.is_const()
                            ? AbstractValue::storage(slot.payload)
                            : AbstractValue::unknown());
            break;
          }
          case Opcode::SSTORE:
            record_storage(ins.pc, at(0), at(1));
            pop_n(2);
            break;
          case Opcode::CALLDATALOAD:
            pop_n(1);
            s.push_back(AbstractValue::calldata());
            break;
          case Opcode::CALLDATASIZE:
            s.push_back(AbstractValue::calldata());
            break;
          case Opcode::CALLDATACOPY:
          case Opcode::CODECOPY:
            record_mem(at(0), at(2));
            mem_words.clear();
            pop_n(3);
            break;
          case Opcode::RETURNDATACOPY:
            // With no reachable calls the probe's return-data buffer stays
            // empty, so any copy but (offset 0, size 0) halts
            // kReturnDataOutOfBounds — a zero-size copy from a nonzero
            // offset faults too.
            if (!(at(1).is_const() && at(1).payload.is_zero() &&
                  at(2).is_const() && at(2).payload.is_zero())) {
              cb.may_fault = true;
            }
            record_mem(at(0), at(2));
            mem_words.clear();
            pop_n(3);
            break;
          case Opcode::EXTCODECOPY:
            record_mem(at(1), at(3));
            mem_words.clear();
            pop_n(4);
            break;
          case Opcode::MLOAD:
            record_mem(at(0), AbstractValue::constant(U256{32}));
            pop_n(1);
            s.push_back(AbstractValue::unknown());
            break;
          case Opcode::MSTORE:
            record_mem(at(0), AbstractValue::constant(U256{32}));
            mem_store(at(0), at(1));
            pop_n(2);
            break;
          case Opcode::MSTORE8:
            record_mem(at(0), AbstractValue::constant(U256{1}));
            mem_words.clear();  // byte write: conservatively forget words
            pop_n(2);
            break;
          case Opcode::MCOPY:
            record_mem(at(0), at(2));
            record_mem(at(1), at(2));
            mem_words.clear();
            pop_n(3);
            break;
          case Opcode::PC:
            s.push_back(AbstractValue::constant(U256{ins.pc}));
            break;
          case Opcode::JUMPDEST:
            break;
          case Opcode::JUMP: {
            const AbstractValue target = at(0);
            pop_n(1);
            if (!target.is_const()) {
              cb.unresolved_jump = true;
              unresolved_pcs.push_back(ins.pc);
              return;
            }
            if (const auto to = resolve_target(target.payload)) {
              add_edge(block, *to, std::move(s));
            } else {
              cb.may_fault = true;  // kBadJumpDestination
            }
            return;
          }
          case Opcode::JUMPI: {
            const AbstractValue target = at(0);
            const AbstractValue cond = at(1);
            pop_n(2);
            const bool maybe_taken = !(cond.is_const() &&
                                       cond.payload.is_zero());
            const bool maybe_fallthrough =
                !cond.is_const() || cond.payload.is_zero();
            if (maybe_taken) {
              if (!target.is_const()) {
                cb.unresolved_jump = true;
                unresolved_pcs.push_back(ins.pc);
              } else if (const auto to = resolve_target(target.payload)) {
                add_edge(block, *to, State(s));
              } else {
                cb.may_fault = true;
              }
            }
            if (maybe_fallthrough) {
              if (block + 1 < cfg.blocks.size()) {
                add_edge(block, block + 1, std::move(s));
              } else {
                cfg.clean_halt_reachable = true;  // implicit STOP at code end
              }
            }
            return;  // JUMPI always ends the disassembler's block
          }
          case Opcode::RETURN:
          case Opcode::REVERT:
            record_mem(at(0), at(1));
            cfg.clean_halt_reachable = true;
            return;
          case Opcode::SELFDESTRUCT:
            cfg.unsafe_terminator_reachable = true;
            return;
          case Opcode::DELEGATECALL: {
            auto [it, inserted] = dc_facts.try_emplace(
                ins.pc, std::make_pair(true, at(1)));
            if (!inserted) {
              it->second.first = true;
              it->second.second = join(it->second.second, at(1));
            }
            mem_words.clear();  // callee return data may land in memory
            pop_n(info.stack_in);
            s.push_back(AbstractValue::unknown());
            break;
          }
          case Opcode::CALL:
          case Opcode::CALLCODE:
          case Opcode::STATICCALL:
          case Opcode::CREATE:
          case Opcode::CREATE2:
            cfg.external_call_reachable = true;
            mem_words.clear();
            pop_n(info.stack_in);
            s.push_back(AbstractValue::unknown());
            break;
          default: {
            // Environment / block-context / transient-storage opcodes carry
            // no dataflow the analysis models: generic arity transfer.
            pop_n(info.stack_in);
            for (std::uint8_t k = 0; k < info.stack_out; ++k) {
              s.push_back(AbstractValue::unknown());
            }
            break;
          }
        }
      }
      if (s.size() > kStackLimit) {
        cb.may_fault = true;  // kStackOverflow
        return;
      }
    }
    // Ran off the block's end without a control transfer: fall through to
    // the next block, or halt cleanly at the implicit STOP past code end.
    if (block + 1 < cfg.blocks.size()) {
      add_edge(block, block + 1, std::move(s));
    } else {
      cfg.clean_halt_reachable = true;
    }
  };

  propagate(0, State{});
  while (!worklist.empty() && !cfg.budget_exhausted) {
    auto [block, st] = std::move(worklist.front());
    worklist.pop_front();
    exec_block(block, std::move(st));
  }

  for (std::uint32_t b = 0; b < cfg.blocks.size(); ++b) {
    auto& succ = edges[b];
    std::sort(succ.begin(), succ.end());
    succ.erase(std::unique(succ.begin(), succ.end()), succ.end());
    cfg.blocks[b].successors = std::move(succ);
  }

  std::sort(unresolved_pcs.begin(), unresolved_pcs.end());
  unresolved_pcs.erase(
      std::unique(unresolved_pcs.begin(), unresolved_pcs.end()),
      unresolved_pcs.end());
  cfg.unresolved_jump_pcs = std::move(unresolved_pcs);

  // Every DELEGATECALL instruction gets a fact; unexecuted sites stay
  // kUnknown/dead. The linear sweep already excludes push-data bytes, so a
  // 0xf4 hidden inside a PUSH immediate produces no site at all.
  for (const evm::Instruction& ins : instructions) {
    if (ins.opcode() != Opcode::DELEGATECALL) continue;
    DelegatecallFact fact;
    fact.pc = ins.pc;
    const auto it = dc_facts.find(ins.pc);
    if (it != dc_facts.end()) {
      fact.reachable = it->second.first;
      fact.target = it->second.second;
    }
    cfg.delegatecalls.push_back(std::move(fact));
  }

  // Same treatment for SLOAD/SSTORE: every site gets a fact, unexecuted
  // sites stay kUnknown/dead, executed sites carry the joined abstract slot
  // (and value operand, for writes) across all paths that reached them.
  for (const evm::Instruction& ins : instructions) {
    const Opcode op = ins.opcode();
    if (op != Opcode::SLOAD && op != Opcode::SSTORE) continue;
    StorageFact fact;
    fact.pc = ins.pc;
    fact.is_write = op == Opcode::SSTORE;
    const auto it = st_facts.find(ins.pc);
    if (it != st_facts.end()) {
      fact.reachable = true;
      fact.slot = it->second.slot;
      fact.value = it->second.value;
    }
    cfg.storage_facts.push_back(std::move(fact));
  }

  bool any_unresolved_reachable = false;
  for (const CfgBlock& b : cfg.blocks) {
    if (b.reachable && b.unresolved_jump) any_unresolved_reachable = true;
  }
  cfg.complete = !cfg.budget_exhausted && !cfg.depth_conflict &&
                 !any_unresolved_reachable;

  // Cycle detection (iterative DFS) over the reachable subgraph; an
  // incomplete CFG may hide edges, so it conservatively reports a cycle.
  if (!cfg.complete) {
    cfg.has_reachable_cycle = true;
  } else {
    std::vector<std::uint8_t> color(cfg.blocks.size(), 0);  // 0/1/2 = w/g/b
    std::vector<std::pair<std::uint32_t, std::size_t>> stack;
    for (std::uint32_t root = 0;
         root < cfg.blocks.size() && !cfg.has_reachable_cycle; ++root) {
      if (!cfg.blocks[root].reachable || color[root] != 0) continue;
      color[root] = 1;
      stack.emplace_back(root, 0);
      while (!stack.empty()) {
        auto& [node, child] = stack.back();
        if (child < cfg.blocks[node].successors.size()) {
          const std::uint32_t next = cfg.blocks[node].successors[child++];
          if (color[next] == 1) {
            cfg.has_reachable_cycle = true;
            break;
          }
          if (color[next] == 0) {
            color[next] = 1;
            stack.emplace_back(next, 0);
          }
        } else {
          color[node] = 2;
          stack.pop_back();
        }
      }
      stack.clear();
    }
  }

  // Static cost bounds over the reachable subgraph: worst-case (cold) gas
  // per instruction plus quadratic expansion to the constant memory
  // high-water mark. The dead-skip proof sums them (sound only when
  // `complete` and acyclic — each reachable instruction then executes at
  // most once); the run-to-fuse proof multiplies the costliest one by the
  // step fuse.
  for (const CfgBlock& b : cfg.blocks) {
    if (!b.reachable) continue;
    const std::uint32_t end_index = b.first_instruction + b.instruction_count;
    for (std::uint32_t idx = b.first_instruction; idx < end_index; ++idx) {
      const evm::Instruction& ins = instructions[idx];
      const Opcode op = ins.opcode();
      std::uint64_t cost = ins.info().base_gas;
      if (op == Opcode::SLOAD || op == Opcode::SSTORE) {
        cost += kColdSlotSurcharge;
      } else if (is_account_touching(op)) {
        cost += kColdAccountSurcharge;
      }
      cfg.worst_case_gas += cost;
      cfg.max_instruction_gas = std::max(cfg.max_instruction_gas, cost);
      ++cfg.reachable_instructions;
    }
  }
  if (cfg.memory_bounded) {
    cfg.memory_gas = memory_expansion_gas(cfg.max_memory_end);
    cfg.worst_case_gas += cfg.memory_gas;
  }

  return cfg;
}

}  // namespace proxion::static_analysis
