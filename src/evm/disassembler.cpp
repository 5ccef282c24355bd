#include "evm/disassembler.h"

#include <sstream>

#include "crypto/keccak.h"

namespace proxion::evm {

std::string Instruction::to_string() const {
  std::ostringstream out;
  char pc_buf[8];
  std::snprintf(pc_buf, sizeof(pc_buf), "%04x", pc);
  out << pc_buf << ' ' << info().mnemonic;
  if (!immediate.empty()) {
    out << " 0x" << crypto::to_hex(immediate);
  }
  return out.str();
}

Disassembly::Disassembly(BytesView code)
    : owned_code_(code.begin(), code.end()), code_(owned_code_) {
  pc_to_index_.assign(code_.size(), -1);

  // Linear sweep: PUSH immediates are skipped as data; a PUSH whose payload
  // runs off the end of the code is kept with a truncated immediate (the EVM
  // zero-pads it at execution time).
  for (std::size_t pc = 0; pc < code_.size();) {
    Instruction ins;
    ins.pc = static_cast<std::uint32_t>(pc);
    ins.byte = code_[pc];
    const int imm = push_size(ins.byte);
    const std::size_t imm_end = std::min(pc + 1 + static_cast<std::size_t>(imm),
                                         code_.size());
    ins.immediate = code_.subspan(pc + 1, imm_end - pc - 1);
    if (ins.opcode() == Opcode::JUMPDEST) {
      jumpdests_.insert(ins.pc);
    }
    pc_to_index_[pc] = static_cast<std::int32_t>(instructions_.size());
    instructions_.push_back(std::move(ins));
    pc = imm_end == pc + 1 + static_cast<std::size_t>(imm) ? imm_end
                                                           : code_.size();
  }

  // Basic blocks: boundaries before every JUMPDEST and after every
  // terminator or JUMPI.
  std::uint32_t block_start = 0;
  auto flush = [&](std::uint32_t end_exclusive) {
    if (end_exclusive <= block_start) return;
    BasicBlock b;
    b.first_instruction = block_start;
    b.instruction_count = end_exclusive - block_start;
    b.start_pc = instructions_[block_start].pc;
    b.starts_at_jumpdest =
        instructions_[block_start].opcode() == Opcode::JUMPDEST;
    blocks_.push_back(b);
    block_start = end_exclusive;
  };
  for (std::uint32_t i = 0; i < instructions_.size(); ++i) {
    const Instruction& ins = instructions_[i];
    if (ins.opcode() == Opcode::JUMPDEST && i != block_start) {
      flush(i);
    }
    if (is_terminator(ins.byte) || ins.opcode() == Opcode::JUMPI) {
      flush(i + 1);
    }
  }
  flush(static_cast<std::uint32_t>(instructions_.size()));
}

bool Disassembly::contains(Opcode op) const noexcept {
  for (const Instruction& ins : instructions_) {
    if (ins.opcode() == op) return true;
  }
  return false;
}

std::vector<std::uint32_t> Disassembly::push4_values() const {
  std::vector<std::uint32_t> out;
  for (const Instruction& ins : instructions_) {
    if (ins.byte == 0x63 && ins.immediate.size() == 4) {  // PUSH4
      out.push_back((std::uint32_t{ins.immediate[0]} << 24) |
                    (std::uint32_t{ins.immediate[1]} << 16) |
                    (std::uint32_t{ins.immediate[2]} << 8) |
                    std::uint32_t{ins.immediate[3]});
    }
  }
  return out;
}

std::optional<std::uint32_t> Disassembly::instruction_at(
    std::uint32_t pc) const noexcept {
  if (pc >= pc_to_index_.size() || pc_to_index_[pc] < 0) return std::nullopt;
  return static_cast<std::uint32_t>(pc_to_index_[pc]);
}

std::string Disassembly::to_string() const {
  std::string out;
  for (const Instruction& ins : instructions_) {
    out += ins.to_string();
    out += '\n';
  }
  return out;
}

}  // namespace proxion::evm
