#include "evm/interpreter.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "crypto/eth.h"
#include "evm/opcodes.h"
#include "evm/precompiles.h"

namespace proxion::evm {

std::string_view to_string(CallKind kind) noexcept {
  switch (kind) {
    case CallKind::kCall: return "CALL";
    case CallKind::kCallCode: return "CALLCODE";
    case CallKind::kDelegateCall: return "DELEGATECALL";
    case CallKind::kStaticCall: return "STATICCALL";
    case CallKind::kCreate: return "CREATE";
    case CallKind::kCreate2: return "CREATE2";
  }
  return "?";
}

std::string_view to_string(HaltReason reason) noexcept {
  switch (reason) {
    case HaltReason::kStop: return "STOP";
    case HaltReason::kReturn: return "RETURN";
    case HaltReason::kRevert: return "REVERT";
    case HaltReason::kSelfDestruct: return "SELFDESTRUCT";
    case HaltReason::kOutOfGas: return "OUT_OF_GAS";
    case HaltReason::kStackUnderflow: return "STACK_UNDERFLOW";
    case HaltReason::kStackOverflow: return "STACK_OVERFLOW";
    case HaltReason::kBadJumpDestination: return "BAD_JUMP";
    case HaltReason::kInvalidOpcode: return "INVALID_OPCODE";
    case HaltReason::kStaticViolation: return "STATIC_VIOLATION";
    case HaltReason::kCallDepthExceeded: return "CALL_DEPTH_EXCEEDED";
    case HaltReason::kReturnDataOutOfBounds: return "RETURNDATA_OOB";
    case HaltReason::kStepLimit: return "STEP_LIMIT";
  }
  return "?";
}

namespace {

constexpr std::size_t kStackLimit = 1024;
constexpr std::size_t kMaxMemory = 16u << 20;  // 16 MiB fuse per frame

/// JUMPDEST positions found by a linear sweep that skips PUSH payloads —
/// exactly the set of valid jump targets.
std::unordered_set<std::uint32_t> valid_jumpdests(BytesView code) {
  std::unordered_set<std::uint32_t> out;
  for (std::size_t pc = 0; pc < code.size();) {
    const std::uint8_t byte = code[pc];
    if (static_cast<Opcode>(byte) == Opcode::JUMPDEST) {
      out.insert(static_cast<std::uint32_t>(pc));
    }
    pc += 1 + static_cast<std::size_t>(push_size(byte));
  }
  return out;
}

}  // namespace

// The hot frame containers (operand stack, byte-addressed memory, return-
// data buffer) draw from the transaction's bump arena: allocation is a
// pointer bump, deallocation a no-op, and the whole transaction's scratch is
// reclaimed in one arena reset at the next top-level execute(). `code`,
// `jumpdests`, and `logs` stay heap-allocated — code is usually a cheap copy
// of host-owned bytes, and logs outlive the frame inside ExecResult.
struct Interpreter::Frame {
  explicit Frame(util::Arena& arena)
      : stack(util::ArenaAllocator<U256>(&arena)),
        memory(util::ArenaAllocator<std::uint8_t>(&arena)),
        last_return_data(util::ArenaAllocator<std::uint8_t>(&arena)) {}

  CallParams params;
  Bytes code;
  std::unordered_set<std::uint32_t> jumpdests;
  std::vector<U256, util::ArenaAllocator<U256>> stack;
  std::vector<std::uint8_t, util::ArenaAllocator<std::uint8_t>> memory;
  std::vector<std::uint8_t, util::ArenaAllocator<std::uint8_t>>
      last_return_data;
  std::vector<LogRecord> logs;
  std::uint64_t pc = 0;
  std::int64_t gas = 0;
};

std::int64_t Interpreter::account_access_surcharge(const Address& a) {
  if (!config_.charge_gas || !config_.eip2929_access_costs) return 0;
  if (is_precompile_address(a)) return 0;  // precompiles are always warm
  return access_->touch_account(a) ? 2500 : 0;
}

std::int64_t Interpreter::slot_access_surcharge(const Address& a,
                                                const U256& slot) {
  if (!config_.charge_gas || !config_.eip2929_access_costs) return 0;
  return access_->touch_slot(a, slot) ? 2000 : 0;
}

ExecResult Interpreter::execute(const CallParams& params) {
  if (params.depth == 0 && access_ == &owned_access_state_) {
    // True top-level entry (not a sub-interpreter sharing our state): no
    // frame is alive, so the previous transaction's arena scratch can be
    // reclaimed wholesale before this frame starts allocating.
    arena_->reset();
  }

  Frame frame(*arena_);
  frame.params = params;
  frame.code = host_.get_code(params.code_address);
  frame.jumpdests = valid_jumpdests(frame.code);
  frame.gas = static_cast<std::int64_t>(params.gas);
  frame.stack.reserve(64);

  if (params.depth == 0 && access_ == &owned_access_state_) {
    // New transaction: reset the access sets and pre-warm to/from
    // (EIP-2929).
    owned_access_state_ = TxAccessState{};
    access_->touch_account(params.code_address);
    access_->touch_account(params.storage_address);
    access_->touch_account(params.caller);
    access_->touch_account(params.origin);
  }

  if (observer_ != nullptr && params.depth == 0) {
    observer_->on_call(CallKind::kCall, 0, params.caller, params.code_address,
                       params.calldata);
  }

  ExecResult result = run_frame(frame);
  result.gas_used =
      params.gas - static_cast<std::uint64_t>(std::max<std::int64_t>(
                       frame.gas, 0));
  if (observer_ != nullptr) observer_->on_halt(params.depth, result.halt);
  return result;
}

ExecResult Interpreter::execute_create(const Address& creator,
                                       const Address& target,
                                       BytesView init_code, const U256& value,
                                       int depth, std::uint64_t gas) {
  CallParams params;
  params.code_address = target;
  params.storage_address = target;
  params.caller = creator;
  params.origin = creator;
  params.value = value;
  params.gas = gas;
  params.depth = depth;

  if (depth == 0 && access_ == &owned_access_state_) {
    arena_->reset();  // same top-level contract as execute()
  }

  Frame frame(*arena_);
  frame.params = params;
  frame.code.assign(init_code.begin(), init_code.end());
  frame.jumpdests = valid_jumpdests(frame.code);
  frame.gas = static_cast<std::int64_t>(gas);

  ExecResult result = run_frame(frame);
  result.gas_used = gas - static_cast<std::uint64_t>(
                              std::max<std::int64_t>(frame.gas, 0));
  if (result.halt == HaltReason::kReturn) {
    host_.set_code(target, result.return_data);
  }
  return result;
}

ExecResult Interpreter::run_frame(Frame& f) {
  ExecResult result;
  auto halt = [&](HaltReason r) {
    result.halt = r;
    result.logs = std::move(f.logs);
    return result;
  };

  // --- small helpers over the frame state ------------------------------
  auto pop = [&](U256& out) -> bool {
    if (f.stack.empty()) return false;
    out = f.stack.back();
    f.stack.pop_back();
    return true;
  };
  auto push = [&](const U256& v) -> bool {
    if (f.stack.size() >= kStackLimit) return false;
    f.stack.push_back(v);
    return true;
  };
  auto charge = [&](std::int64_t amount) -> bool {
    if (!config_.charge_gas) return true;
    f.gas -= amount;
    return f.gas >= 0;
  };
  // Expands memory to cover [offset, offset+size) and charges quadratic
  // expansion gas. Returns false on overflow/fuse/OOG.
  auto touch_memory = [&](const U256& offset, const U256& size) -> bool {
    if (size.is_zero()) return true;
    if (!offset.fits_u64() || !size.fits_u64()) return false;
    const std::uint64_t end = offset.low64() + size.low64();
    if (end < offset.low64() || end > kMaxMemory) return false;
    const std::uint64_t new_words = (end + 31) / 32;
    const std::uint64_t old_words = (f.memory.size() + 31) / 32;
    if (new_words > old_words) {
      const std::int64_t cost =
          static_cast<std::int64_t>(3 * (new_words - old_words) +
                                    (new_words * new_words -
                                     old_words * old_words) /
                                        512);
      if (!charge(cost)) return false;
      f.memory.resize(new_words * 32, 0);
    }
    return true;
  };
  auto mem_read = [&](const U256& offset, const U256& size) -> Bytes {
    if (size.is_zero()) return {};
    return Bytes(f.memory.begin() + static_cast<std::ptrdiff_t>(offset.low64()),
                 f.memory.begin() +
                     static_cast<std::ptrdiff_t>(offset.low64() + size.low64()));
  };
  // Copies `src` into memory at dst_off, reading src from src_off for `size`
  // bytes and zero-padding past the end of src.
  auto mem_write_padded = [&](const U256& dst_off, const U256& src_off,
                              const U256& size, BytesView src) {
    if (size.is_zero()) return;
    const std::uint64_t dst = dst_off.low64();
    const std::uint64_t n = size.low64();
    for (std::uint64_t i = 0; i < n; ++i) {
      std::uint8_t byte = 0;
      if (src_off.fits_u64()) {
        const std::uint64_t s = src_off.low64() + i;
        if (s >= src_off.low64() && s < src.size()) byte = src[s];
      }
      f.memory[dst + i] = byte;
    }
  };

  const BlockContext& block = host_.block_context();

  while (true) {
    if (++steps_ > config_.step_limit) return halt(HaltReason::kStepLimit);
    if (f.pc >= f.code.size()) return halt(HaltReason::kStop);

    const std::uint8_t byte = f.code[f.pc];
    const OpcodeInfo& info = opcode_info(byte);
    const Opcode op = static_cast<Opcode>(byte);

    if (observer_ != nullptr) {
      observer_->on_instruction(f.params.depth, f.params.code_address,
                                static_cast<std::uint32_t>(f.pc), byte,
                                f.stack);
    }

    if (!info.defined) return halt(HaltReason::kInvalidOpcode);
    if (f.stack.size() < info.stack_in) {
      return halt(HaltReason::kStackUnderflow);
    }
    if (!charge(info.base_gas)) return halt(HaltReason::kOutOfGas);

    // PUSH / DUP / SWAP families first (range-dispatched).
    if (is_push(byte)) {
      const int n = push_size(byte);
      const std::size_t end =
          std::min(f.pc + 1 + static_cast<std::size_t>(n), f.code.size());
      const U256 value = U256::from_be_slice(
          BytesView(f.code.data() + f.pc + 1, end - f.pc - 1));
      // Truncated PUSH at end of code: the EVM right-pads with zeros, i.e.
      // the value is shifted left by the missing bytes.
      const std::size_t missing = f.pc + 1 + static_cast<std::size_t>(n) - end;
      const U256 padded =
          missing == 0 ? value
                       : value << U256{static_cast<std::uint64_t>(missing * 8)};
      if (!push(padded)) return halt(HaltReason::kStackOverflow);
      f.pc += 1 + static_cast<std::size_t>(n);
      continue;
    }
    if (is_dup(byte)) {
      const std::size_t n = static_cast<std::size_t>(byte - 0x80) + 1;
      if (!push(f.stack[f.stack.size() - n])) {
        return halt(HaltReason::kStackOverflow);
      }
      ++f.pc;
      continue;
    }
    if (is_swap(byte)) {
      const std::size_t n = static_cast<std::size_t>(byte - 0x90) + 1;
      std::swap(f.stack.back(), f.stack[f.stack.size() - 1 - n]);
      ++f.pc;
      continue;
    }
    if (is_log(byte)) {
      if (f.params.is_static) return halt(HaltReason::kStaticViolation);
      const std::size_t topics = static_cast<std::size_t>(byte - 0xa0);
      U256 offset, size;
      pop(offset);
      pop(size);
      if (!touch_memory(offset, size)) return halt(HaltReason::kOutOfGas);
      LogRecord log;
      log.emitter = f.params.storage_address;
      for (std::size_t i = 0; i < topics; ++i) {
        U256 t;
        pop(t);
        log.topics.push_back(t);
      }
      log.data = mem_read(offset, size);
      f.logs.push_back(std::move(log));
      ++f.pc;
      continue;
    }

    switch (op) {
      case Opcode::STOP:
        return halt(HaltReason::kStop);

      // ---- arithmetic ------------------------------------------------
      case Opcode::ADD: case Opcode::MUL: case Opcode::SUB:
      case Opcode::DIV: case Opcode::SDIV: case Opcode::MOD:
      case Opcode::SMOD: case Opcode::EXP: case Opcode::SIGNEXTEND:
      case Opcode::LT: case Opcode::GT: case Opcode::SLT:
      case Opcode::SGT: case Opcode::EQ: case Opcode::AND:
      case Opcode::OR: case Opcode::XOR: case Opcode::BYTE:
      case Opcode::SHL: case Opcode::SHR: case Opcode::SAR: {
        U256 a, b;
        pop(a);
        pop(b);
        U256 r;
        switch (op) {
          case Opcode::ADD: r = a + b; break;
          case Opcode::MUL: r = a * b; break;
          case Opcode::SUB: r = a - b; break;
          case Opcode::DIV: r = a / b; break;
          case Opcode::SDIV: r = a.sdiv(b); break;
          case Opcode::MOD: r = a % b; break;
          case Opcode::SMOD: r = a.smod(b); break;
          case Opcode::EXP: r = a.exp(b); break;
          case Opcode::SIGNEXTEND: r = b.signextend(a); break;
          case Opcode::LT: r = U256{a < b ? 1u : 0u}; break;
          case Opcode::GT: r = U256{a > b ? 1u : 0u}; break;
          case Opcode::SLT: r = U256{a.slt(b) ? 1u : 0u}; break;
          case Opcode::SGT: r = U256{a.sgt(b) ? 1u : 0u}; break;
          case Opcode::EQ: r = U256{a == b ? 1u : 0u}; break;
          case Opcode::AND: r = a & b; break;
          case Opcode::OR: r = a | b; break;
          case Opcode::XOR: r = a ^ b; break;
          case Opcode::BYTE: r = U256{b.byte(a)}; break;
          case Opcode::SHL: r = b << a; break;
          case Opcode::SHR: r = b >> a; break;
          case Opcode::SAR: r = b.sar(a); break;
          default: break;
        }
        push(r);
        ++f.pc;
        break;
      }
      case Opcode::ADDMOD: case Opcode::MULMOD: {
        U256 a, b, m;
        pop(a);
        pop(b);
        pop(m);
        push(op == Opcode::ADDMOD ? U256::addmod(a, b, m)
                                  : U256::mulmod(a, b, m));
        ++f.pc;
        break;
      }
      case Opcode::ISZERO: {
        U256 a;
        pop(a);
        push(U256{a.is_zero() ? 1u : 0u});
        ++f.pc;
        break;
      }
      case Opcode::NOT: {
        U256 a;
        pop(a);
        push(~a);
        ++f.pc;
        break;
      }

      case Opcode::KECCAK256: {
        U256 offset, size;
        pop(offset);
        pop(size);
        if (!touch_memory(offset, size)) return halt(HaltReason::kOutOfGas);
        const Bytes data = mem_read(offset, size);
        const U256 hash = to_u256(crypto::keccak256(data));
        if (observer_ != nullptr) {
          observer_->on_keccak(f.params.depth, data, hash);
        }
        push(hash);
        ++f.pc;
        break;
      }

      // ---- environment -----------------------------------------------
      case Opcode::ADDRESS:
        push(f.params.storage_address.to_word());
        ++f.pc;
        break;
      case Opcode::BALANCE: {
        U256 a;
        pop(a);
        const Address target = Address::from_word(a);
        if (!charge(account_access_surcharge(target))) {
          return halt(HaltReason::kOutOfGas);
        }
        push(host_.get_balance(target));
        ++f.pc;
        break;
      }
      case Opcode::ORIGIN:
        push(f.params.origin.to_word());
        ++f.pc;
        break;
      case Opcode::CALLER:
        push(f.params.caller.to_word());
        ++f.pc;
        break;
      case Opcode::CALLVALUE:
        push(f.params.value);
        ++f.pc;
        break;
      case Opcode::CALLDATALOAD: {
        U256 offset;
        pop(offset);
        std::array<std::uint8_t, 32> word{};
        if (offset.fits_u64()) {
          for (std::size_t i = 0; i < 32; ++i) {
            const std::uint64_t idx = offset.low64() + i;
            if (idx < f.params.calldata.size()) {
              word[i] = f.params.calldata[idx];
            }
          }
        }
        push(U256::from_be_bytes(word));
        ++f.pc;
        break;
      }
      case Opcode::CALLDATASIZE:
        push(U256{f.params.calldata.size()});
        ++f.pc;
        break;
      case Opcode::CALLDATACOPY: {
        U256 dst, src, size;
        pop(dst);
        pop(src);
        pop(size);
        if (!touch_memory(dst, size)) return halt(HaltReason::kOutOfGas);
        mem_write_padded(dst, src, size, f.params.calldata);
        ++f.pc;
        break;
      }
      case Opcode::CODESIZE:
        push(U256{f.code.size()});
        ++f.pc;
        break;
      case Opcode::CODECOPY: {
        U256 dst, src, size;
        pop(dst);
        pop(src);
        pop(size);
        if (!touch_memory(dst, size)) return halt(HaltReason::kOutOfGas);
        mem_write_padded(dst, src, size, f.code);
        ++f.pc;
        break;
      }
      case Opcode::GASPRICE:
        push(block.gas_price);
        ++f.pc;
        break;
      case Opcode::EXTCODESIZE: {
        U256 a;
        pop(a);
        const Address target = Address::from_word(a);
        if (!charge(account_access_surcharge(target))) {
          return halt(HaltReason::kOutOfGas);
        }
        push(U256{host_.get_code(target).size()});
        ++f.pc;
        break;
      }
      case Opcode::EXTCODECOPY: {
        U256 a, dst, src, size;
        pop(a);
        pop(dst);
        pop(src);
        pop(size);
        if (!touch_memory(dst, size)) return halt(HaltReason::kOutOfGas);
        const Address ext_target = Address::from_word(a);
        if (!charge(account_access_surcharge(ext_target))) {
          return halt(HaltReason::kOutOfGas);
        }
        const Bytes ext = host_.get_code(ext_target);
        mem_write_padded(dst, src, size, ext);
        ++f.pc;
        break;
      }
      case Opcode::RETURNDATASIZE:
        push(U256{f.last_return_data.size()});
        ++f.pc;
        break;
      case Opcode::RETURNDATACOPY: {
        U256 dst, src, size;
        pop(dst);
        pop(src);
        pop(size);
        // Unlike CALLDATACOPY, reading past the end of return data faults.
        if (!src.fits_u64() || !size.fits_u64() ||
            src.low64() + size.low64() < src.low64() ||
            src.low64() + size.low64() > f.last_return_data.size()) {
          return halt(HaltReason::kReturnDataOutOfBounds);
        }
        if (!touch_memory(dst, size)) return halt(HaltReason::kOutOfGas);
        mem_write_padded(dst, src, size, f.last_return_data);
        ++f.pc;
        break;
      }
      case Opcode::EXTCODEHASH: {
        U256 a;
        pop(a);
        const Address hash_target = Address::from_word(a);
        if (!charge(account_access_surcharge(hash_target))) {
          return halt(HaltReason::kOutOfGas);
        }
        // EIP-1052: 0 for an absent or EIP-161-empty account (no code,
        // nonce 0, balance 0); a codeless account that is not empty, such as
        // a funded EOA, hashes its empty code.
        const Bytes ext = host_.get_code(hash_target);
        if (!ext.empty()) {
          push(to_u256(crypto::keccak256(ext)));
        } else if (host_.get_nonce(hash_target) != 0 ||
                   !host_.get_balance(hash_target).is_zero()) {
          push(to_u256(kEmptyCodeHash));
        } else {
          push(U256{});
        }
        ++f.pc;
        break;
      }

      // ---- block context ----------------------------------------------
      case Opcode::BLOCKHASH: {
        U256 n;
        pop(n);
        push(n.fits_u64() ? host_.block_hash(n.low64()) : U256{});
        ++f.pc;
        break;
      }
      case Opcode::COINBASE:
        push(block.coinbase.to_word());
        ++f.pc;
        break;
      case Opcode::TIMESTAMP:
        push(block.timestamp);
        ++f.pc;
        break;
      case Opcode::NUMBER:
        push(block.number);
        ++f.pc;
        break;
      case Opcode::DIFFICULTY:
        push(block.difficulty);
        ++f.pc;
        break;
      case Opcode::GASLIMIT:
        push(block.gas_limit);
        ++f.pc;
        break;
      case Opcode::CHAINID:
        push(block.chain_id);
        ++f.pc;
        break;
      case Opcode::SELFBALANCE:
        push(host_.get_balance(f.params.storage_address));
        ++f.pc;
        break;
      case Opcode::BASEFEE:
        push(block.base_fee);
        ++f.pc;
        break;

      // ---- stack / memory / storage ------------------------------------
      case Opcode::POP: {
        U256 a;
        pop(a);
        ++f.pc;
        break;
      }
      case Opcode::MLOAD: {
        U256 offset;
        pop(offset);
        if (!touch_memory(offset, U256{32})) {
          return halt(HaltReason::kOutOfGas);
        }
        std::array<std::uint8_t, 32> word{};
        std::memcpy(word.data(), f.memory.data() + offset.low64(), 32);
        push(U256::from_be_bytes(word));
        ++f.pc;
        break;
      }
      case Opcode::MSTORE: {
        U256 offset, value;
        pop(offset);
        pop(value);
        if (!touch_memory(offset, U256{32})) {
          return halt(HaltReason::kOutOfGas);
        }
        const auto be = value.to_be_bytes();
        std::memcpy(f.memory.data() + offset.low64(), be.data(), 32);
        ++f.pc;
        break;
      }
      case Opcode::MSTORE8: {
        U256 offset, value;
        pop(offset);
        pop(value);
        if (!touch_memory(offset, U256{1})) {
          return halt(HaltReason::kOutOfGas);
        }
        f.memory[offset.low64()] =
            static_cast<std::uint8_t>(value.low64() & 0xff);
        ++f.pc;
        break;
      }
      case Opcode::SLOAD: {
        U256 slot;
        pop(slot);
        if (!charge(slot_access_surcharge(f.params.storage_address, slot))) {
          return halt(HaltReason::kOutOfGas);
        }
        const U256 value = host_.get_storage(f.params.storage_address, slot);
        if (observer_ != nullptr) {
          observer_->on_sload(f.params.depth, f.params.storage_address, slot,
                              value);
        }
        push(value);
        ++f.pc;
        break;
      }
      case Opcode::SSTORE: {
        if (f.params.is_static) return halt(HaltReason::kStaticViolation);
        U256 slot, value;
        pop(slot);
        pop(value);
        if (!charge(slot_access_surcharge(f.params.storage_address, slot))) {
          return halt(HaltReason::kOutOfGas);
        }
        if (observer_ != nullptr) {
          observer_->on_sstore(f.params.depth, f.params.storage_address, slot,
                               value);
        }
        host_.set_storage(f.params.storage_address, slot, value);
        ++f.pc;
        break;
      }
      case Opcode::JUMP: {
        U256 target;
        pop(target);
        if (!target.fits_u64() ||
            !f.jumpdests.contains(static_cast<std::uint32_t>(target.low64()))) {
          return halt(HaltReason::kBadJumpDestination);
        }
        f.pc = target.low64();
        break;
      }
      case Opcode::JUMPI: {
        U256 target, condition;
        pop(target);
        pop(condition);
        if (condition.is_zero()) {
          ++f.pc;
          break;
        }
        if (!target.fits_u64() ||
            !f.jumpdests.contains(static_cast<std::uint32_t>(target.low64()))) {
          return halt(HaltReason::kBadJumpDestination);
        }
        f.pc = target.low64();
        break;
      }
      case Opcode::PC:
        push(U256{f.pc});
        ++f.pc;
        break;
      case Opcode::MSIZE:
        push(U256{f.memory.size()});
        ++f.pc;
        break;
      case Opcode::GAS:
        push(U256{static_cast<std::uint64_t>(std::max<std::int64_t>(f.gas, 0))});
        ++f.pc;
        break;
      case Opcode::JUMPDEST:
        ++f.pc;
        break;
      case Opcode::TLOAD: {
        U256 slot;
        pop(slot);
        U256 value;
        const auto acct = access_->transient.find(f.params.storage_address);
        if (acct != access_->transient.end()) {
          const auto it = acct->second.find(slot);
          if (it != acct->second.end()) value = it->second;
        }
        push(value);
        ++f.pc;
        break;
      }
      case Opcode::TSTORE: {
        if (f.params.is_static) return halt(HaltReason::kStaticViolation);
        U256 slot, value;
        pop(slot);
        pop(value);
        access_->transient[f.params.storage_address][slot] = value;
        ++f.pc;
        break;
      }
      case Opcode::MCOPY: {
        U256 dst, src, size;
        pop(dst);
        pop(src);
        pop(size);
        if (!touch_memory(dst, size) || !touch_memory(src, size)) {
          return halt(HaltReason::kOutOfGas);
        }
        if (!size.is_zero()) {
          std::memmove(f.memory.data() + dst.low64(),
                       f.memory.data() + src.low64(), size.low64());
        }
        ++f.pc;
        break;
      }

      // ---- calls --------------------------------------------------------
      case Opcode::CALL:
      case Opcode::CALLCODE:
      case Opcode::DELEGATECALL:
      case Opcode::STATICCALL: {
        U256 gas_req, to_word, value, in_off, in_size, out_off, out_size;
        pop(gas_req);
        pop(to_word);
        const bool has_value =
            op == Opcode::CALL || op == Opcode::CALLCODE;
        if (has_value) pop(value);
        pop(in_off);
        pop(in_size);
        pop(out_off);
        pop(out_size);

        if (op == Opcode::CALL && f.params.is_static && !value.is_zero()) {
          return halt(HaltReason::kStaticViolation);
        }
        if (!touch_memory(in_off, in_size) ||
            !touch_memory(out_off, out_size)) {
          return halt(HaltReason::kOutOfGas);
        }

        const Address callee = Address::from_word(to_word);
        if (!charge(account_access_surcharge(callee))) {
          return halt(HaltReason::kOutOfGas);
        }
        CallParams sub;
        sub.code_address = callee;
        sub.caller = f.params.storage_address;
        sub.origin = f.params.origin;
        sub.calldata = mem_read(in_off, in_size);
        sub.depth = f.params.depth + 1;
        sub.is_static = f.params.is_static || op == Opcode::STATICCALL;
        switch (op) {
          case Opcode::CALL:
            sub.storage_address = callee;
            sub.value = value;
            break;
          case Opcode::CALLCODE:
            sub.storage_address = f.params.storage_address;
            sub.value = value;
            break;
          case Opcode::DELEGATECALL:
            // Runs callee code with *our* storage, caller and value.
            sub.storage_address = f.params.storage_address;
            sub.caller = f.params.caller;
            sub.value = f.params.value;
            break;
          case Opcode::STATICCALL:
            sub.storage_address = callee;
            break;
          default:
            break;
        }

        if (sub.depth > config_.max_call_depth) {
          f.last_return_data.clear();
          push(U256{0});
          ++f.pc;
          break;
        }

        // 63/64 rule: the callee gets at most all-but-one-64th of our gas.
        const std::uint64_t available =
            static_cast<std::uint64_t>(std::max<std::int64_t>(f.gas, 0));
        const std::uint64_t forwarded =
            std::min(gas_req.fits_u64() ? gas_req.low64() : available,
                     available - available / 64);
        sub.gas = forwarded;

        // Value transfer for CALL: fail the call if the balance is short.
        bool balance_ok = true;
        if (op == Opcode::CALL && !value.is_zero()) {
          const U256 from_balance =
              host_.get_balance(f.params.storage_address);
          if (from_balance < value) {
            balance_ok = false;
          } else {
            host_.set_balance(f.params.storage_address, from_balance - value);
            host_.set_balance(callee, host_.get_balance(callee) + value);
          }
        }

        if (!balance_ok) {
          f.last_return_data.clear();
          push(U256{0});
          ++f.pc;
          break;
        }

        if (observer_ != nullptr) {
          const CallKind kind = op == Opcode::CALL ? CallKind::kCall
                                : op == Opcode::CALLCODE ? CallKind::kCallCode
                                : op == Opcode::DELEGATECALL
                                    ? CallKind::kDelegateCall
                                    : CallKind::kStaticCall;
          observer_->on_call(kind, sub.depth, f.params.storage_address, callee,
                             sub.calldata);
        }

        // Precompiled contracts short-circuit the callee frame entirely.
        if (const auto pre = run_precompile(callee, sub.calldata)) {
          if (!charge(static_cast<std::int64_t>(pre->gas_cost))) {
            return halt(HaltReason::kOutOfGas);
          }
          f.last_return_data.assign(pre->output.begin(), pre->output.end());
          const std::uint64_t copy_len = std::min<std::uint64_t>(
              out_size.fits_u64() ? out_size.low64() : 0,
              f.last_return_data.size());
          for (std::uint64_t i = 0; i < copy_len; ++i) {
            f.memory[out_off.low64() + i] = f.last_return_data[i];
          }
          push(U256{1});
          ++f.pc;
          break;
        }

        Interpreter sub_interp(host_, config_);
        sub_interp.steps_ = steps_;
        sub_interp.observer_ = observer_;
        sub_interp.access_ = access_;  // same transaction, same warm sets
        sub_interp.arena_ = arena_;    // same transaction, same scratch arena
        const ExecResult sub_result = sub_interp.execute(sub);
        steps_ = sub_interp.steps_;

        if (config_.charge_gas) {
          f.gas -= static_cast<std::int64_t>(sub_result.gas_used);
          if (f.gas < 0) return halt(HaltReason::kOutOfGas);
        }
        if (sub_result.halt == HaltReason::kStepLimit) {
          return halt(HaltReason::kStepLimit);
        }

        f.last_return_data.assign(sub_result.return_data.begin(),
                                  sub_result.return_data.end());
        for (const auto& log : sub_result.logs) f.logs.push_back(log);

        // Copy return data into the caller-specified output window.
        const std::uint64_t copy_len = std::min<std::uint64_t>(
            out_size.fits_u64() ? out_size.low64() : 0,
            f.last_return_data.size());
        for (std::uint64_t i = 0; i < copy_len; ++i) {
          f.memory[out_off.low64() + i] = f.last_return_data[i];
        }

        push(U256{sub_result.success() ? 1u : 0u});
        ++f.pc;
        break;
      }

      case Opcode::CREATE:
      case Opcode::CREATE2: {
        if (f.params.is_static) return halt(HaltReason::kStaticViolation);
        U256 value, offset, size, salt;
        pop(value);
        pop(offset);
        pop(size);
        if (op == Opcode::CREATE2) pop(salt);
        if (!touch_memory(offset, size)) return halt(HaltReason::kOutOfGas);
        const Bytes init_code = mem_read(offset, size);

        const Address creator = f.params.storage_address;
        crypto::AddressBytes raw{};
        std::memcpy(raw.data(), creator.bytes.data(), 20);
        crypto::AddressBytes target_raw;
        if (op == Opcode::CREATE) {
          const std::uint64_t nonce = host_.get_nonce(creator);
          host_.set_nonce(creator, nonce + 1);
          target_raw = crypto::create_address(raw, nonce);
        } else {
          target_raw = crypto::create2_address(
              raw, salt.to_be_bytes(), init_code);
        }
        const Address target{target_raw};

        if (observer_ != nullptr) {
          observer_->on_call(op == Opcode::CREATE ? CallKind::kCreate
                                                  : CallKind::kCreate2,
                             f.params.depth + 1, creator, target, init_code);
        }

        Interpreter sub_interp(host_, config_);
        sub_interp.steps_ = steps_;
        sub_interp.observer_ = observer_;
        sub_interp.access_ = access_;
        sub_interp.arena_ = arena_;
        const std::uint64_t available =
            static_cast<std::uint64_t>(std::max<std::int64_t>(f.gas, 0));
        const ExecResult sub_result = sub_interp.execute_create(
            creator, target, init_code, value, f.params.depth + 1,
            available - available / 64);
        steps_ = sub_interp.steps_;

        if (config_.charge_gas) {
          f.gas -= static_cast<std::int64_t>(sub_result.gas_used);
          if (f.gas < 0) return halt(HaltReason::kOutOfGas);
        }
        if (sub_result.halt == HaltReason::kStepLimit) {
          return halt(HaltReason::kStepLimit);
        }

        f.last_return_data.clear();  // per EIP-211, CREATE clears it on success
        if (sub_result.halt == HaltReason::kRevert) {
          f.last_return_data.assign(sub_result.return_data.begin(),
                                    sub_result.return_data.end());
        }
        push(sub_result.halt == HaltReason::kReturn ? target.to_word()
                                                    : U256{});
        ++f.pc;
        break;
      }

      case Opcode::RETURN:
      case Opcode::REVERT: {
        U256 offset, size;
        pop(offset);
        pop(size);
        if (!touch_memory(offset, size)) return halt(HaltReason::kOutOfGas);
        result.return_data = mem_read(offset, size);
        return halt(op == Opcode::RETURN ? HaltReason::kReturn
                                         : HaltReason::kRevert);
      }

      case Opcode::INVALID:
        return halt(HaltReason::kInvalidOpcode);

      case Opcode::SELFDESTRUCT: {
        if (f.params.is_static) return halt(HaltReason::kStaticViolation);
        U256 beneficiary_word;
        pop(beneficiary_word);
        const Address beneficiary = Address::from_word(beneficiary_word);
        const U256 balance = host_.get_balance(f.params.storage_address);
        host_.set_balance(f.params.storage_address, U256{});
        host_.set_balance(beneficiary,
                          host_.get_balance(beneficiary) + balance);
        return halt(HaltReason::kSelfDestruct);
      }

      default:
        return halt(HaltReason::kInvalidOpcode);
    }
  }
}

}  // namespace proxion::evm
