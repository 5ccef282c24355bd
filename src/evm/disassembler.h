// Linear-sweep disassembler (§4.1 of the paper) and a basic-block builder
// used by the selector extractor and the storage-slice analysis.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "evm/opcodes.h"
#include "evm/types.h"

namespace proxion::evm {

struct Instruction {
  std::uint32_t pc = 0;      // byte offset in the code
  std::uint8_t byte = 0;     // raw opcode byte
  /// PUSH payload (possibly truncated at code end): a view into the owning
  /// Disassembly's code, valid for the Disassembly's lifetime.
  BytesView immediate;

  Opcode opcode() const noexcept { return static_cast<Opcode>(byte); }
  const OpcodeInfo& info() const noexcept { return opcode_info(byte); }
  /// PUSH immediate as a word (zero for non-push instructions).
  U256 push_value() const noexcept { return U256::from_be_slice(immediate); }
  /// "0042 PUSH1 0x80" style rendering.
  std::string to_string() const;
};

/// One straight-line run of instructions. Blocks end at terminators, JUMPI,
/// call-family instructions are *not* block boundaries (they fall through).
struct BasicBlock {
  std::uint32_t start_pc = 0;
  std::uint32_t first_instruction = 0;  // index into Disassembly::instructions
  std::uint32_t instruction_count = 0;
  bool starts_at_jumpdest = false;
};

class Disassembly {
 public:
  explicit Disassembly(BytesView code);
  // The code view and every instruction's immediate point into the owned
  // copy: a move keeps that buffer, a copy would not.
  Disassembly(const Disassembly&) = delete;
  Disassembly& operator=(const Disassembly&) = delete;
  Disassembly(Disassembly&&) noexcept = default;
  Disassembly& operator=(Disassembly&&) noexcept = default;

  const std::vector<Instruction>& instructions() const noexcept {
    return instructions_;
  }
  const std::vector<BasicBlock>& blocks() const noexcept { return blocks_; }
  BytesView code() const noexcept { return code_; }

  /// True iff the given opcode appears anywhere in the linear sweep. This is
  /// the paper's first-phase prefilter: contracts without DELEGATECALL
  /// anywhere in the bytecode cannot be proxies.
  bool contains(Opcode op) const noexcept;

  /// Every 4-byte immediate that follows a PUSH4 — the superset of candidate
  /// function selectors (§4.2): includes garbage constants, so callers must
  /// treat these as "signatures to avoid", not as the real function list.
  std::vector<std::uint32_t> push4_values() const;

  /// True iff `pc` is a JUMPDEST reachable as instruction (not push data).
  bool is_jumpdest(std::uint32_t pc) const noexcept {
    return jumpdests_.contains(pc);
  }
  const std::unordered_set<std::uint32_t>& jumpdests() const noexcept {
    return jumpdests_;
  }

  /// Index into instructions() for the instruction starting at `pc`.
  std::optional<std::uint32_t> instruction_at(std::uint32_t pc) const noexcept;

  /// Full assembly listing (one instruction per line).
  std::string to_string() const;

 private:
  Bytes owned_code_;
  BytesView code_;
  std::vector<Instruction> instructions_;
  std::vector<BasicBlock> blocks_;
  std::unordered_set<std::uint32_t> jumpdests_;
  std::vector<std::int32_t> pc_to_index_;  // -1 where no instruction starts
};

}  // namespace proxion::evm
