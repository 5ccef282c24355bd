#include "static/layout.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <unordered_set>

#include "obs/metrics.h"

namespace proxion::static_analysis {

using evm::Instruction;
using evm::Opcode;

namespace {

using KeyOrigin = AbstractValue::KeyOrigin;

/// Is `mask` a contiguous run of 0xff bytes somewhere in the word? Returns
/// (byte offset from the LSB end, byte width).
std::optional<std::pair<std::uint8_t, std::uint8_t>> contiguous_byte_mask(
    const U256& mask) {
  const auto be = mask.to_be_bytes();
  int first = -1, last = -1;
  for (int i = 0; i < 32; ++i) {
    if (be[static_cast<std::size_t>(i)] == 0xff) {
      if (first < 0) first = i;
      last = i;
    } else if (be[static_cast<std::size_t>(i)] != 0x00) {
      return std::nullopt;  // partial byte: not a byte-granular mask
    }
  }
  if (first < 0) return std::nullopt;
  for (int i = first; i <= last; ++i) {
    if (be[static_cast<std::size_t>(i)] != 0xff) return std::nullopt;
  }
  const std::uint8_t offset = static_cast<std::uint8_t>(31 - last);
  const std::uint8_t width = static_cast<std::uint8_t>(last - first + 1);
  return std::make_pair(offset, width);
}

/// Is `mask` a contiguous low-byte mask (0xff, 0xffff, ..., 2^160-1, ...)?
std::optional<std::uint8_t> low_mask_width(const U256& mask) {
  const int bits = mask.bit_length();
  if (bits == 0 || bits % 8 != 0 || bits > 256) return std::nullopt;
  const U256 plus1 = mask + U256{1};
  if ((plus1 & mask) != U256{}) return std::nullopt;
  return static_cast<std::uint8_t>(bits / 8);
}

/// Block-local mask/shift scanner: CRUSH's slicing idioms (narrowing AND,
/// packed-write hole/OR, CALLER comparisons, guard edges) with an abstract
/// memory so KECCAK256 over recorded words resolves mapping/array slot
/// families instead of poisoning to unknown.
class StorageScanner {
 public:
  StorageScanner(StorageScan& scan,
                 std::unordered_set<std::uint32_t>& guarded_pcs)
      : scan_(scan), guarded_pcs_(guarded_pcs) {}

  void run(const std::vector<Instruction>& ins, std::uint32_t first,
           std::uint32_t count) {
    stack_.clear();
    mem_.clear();
    for (std::uint32_t i = first; i < first + count; ++i) {
      step(ins[i]);
    }
  }

  std::uint32_t current_block_start_ = 0;

 private:
  struct Val {
    enum class Kind : std::uint8_t {
      kUnknown,
      kConst,
      kCaller,
      kCalldata,
      kSload,        // value loaded from a resolved slot / family element
      kHashed,       // keccak result; family_id >= 0 when resolved
      kCallerCheck,  // boolean result of comparing something with CALLER
      kPacked,       // read-modify-write value ready for a packed SSTORE
    };
    Kind kind = Kind::kUnknown;
    U256 constant;
    int access_index = -1;  // kSload: index into scan_.accesses
    int family_id = -1;     // kHashed: resolved family; kSload: source family
    std::uint8_t width = 32;
    std::uint8_t byte_offset = 0;  // kSload: bytes shifted off (packing)
    bool negated = false;          // kCallerCheck polarity
    bool displaced = false;  // kHashed: an index was added — no longer the
                             // family start, so it cannot seed a nested hash
    bool is_hole = false;    // kSload with a contiguous byte range masked OUT
    std::uint8_t hole_offset = 0;
    std::uint8_t hole_width = 0;
    WriteOrigin shifted_origin = WriteOrigin::kUnknown;

    static Val unknown() { return {}; }
  };

  Val pop() {
    if (stack_.empty()) return Val::unknown();
    Val v = stack_.back();
    stack_.pop_back();
    return v;
  }
  void push(Val v) { stack_.push_back(std::move(v)); }
  void push_unknown(int n) {
    for (int i = 0; i < n; ++i) push(Val::unknown());
  }

  int intern_family(const U256& base, std::uint8_t depth, std::uint8_t path,
                    KeyOrigin key) {
    for (std::size_t i = 0; i < scan_.families.size(); ++i) {
      ScannedFamily& f = scan_.families[i];
      if (f.base == base && f.depth == depth && f.path == path) {
        if (f.key == KeyOrigin::kUnknown) f.key = key;
        if (key == KeyOrigin::kCalldata) f.key = key;
        return static_cast<int>(i);
      }
    }
    scan_.families.push_back({base, depth, path, key});
    return static_cast<int>(scan_.families.size()) - 1;
  }

  /// Lifts one keccak over tracked memory into a resolved family value.
  Val derive_hash(const Val& base, bool mapping, const Val& key) {
    Val out;
    out.kind = Val::Kind::kHashed;
    KeyOrigin origin = KeyOrigin::kUnknown;
    if (key.kind == Val::Kind::kConst) origin = KeyOrigin::kConst;
    if (key.kind == Val::Kind::kCalldata) origin = KeyOrigin::kCalldata;
    if (base.kind == Val::Kind::kConst) {
      out.family_id = intern_family(
          base.constant, 1, mapping ? std::uint8_t{1} : std::uint8_t{0},
          origin);
      return out;
    }
    if (base.kind == Val::Kind::kHashed && base.family_id >= 0 &&
        !base.displaced) {
      const ScannedFamily inner =
          scan_.families[static_cast<std::size_t>(base.family_id)];
      if (inner.depth < 8) {
        std::uint8_t path = inner.path;
        if (mapping) path |= static_cast<std::uint8_t>(1u << inner.depth);
        out.family_id = intern_family(
            inner.base, static_cast<std::uint8_t>(inner.depth + 1), path,
            origin != KeyOrigin::kUnknown ? origin : inner.key);
        return out;
      }
    }
    return out;  // unresolved hash (family_id -1)
  }

  /// Narrows a loaded value's *read* record to (byte_offset, width). First
  /// interpretation refines in place; a second, different interpretation of
  /// the same load gets its own record (one physical read, two typed views).
  void refine_read(Val& v, std::uint8_t width) {
    if (v.kind != Val::Kind::kSload || v.access_index < 0) return;
    width = std::min<std::uint8_t>(
        width, static_cast<std::uint8_t>(32 - v.byte_offset));
    auto& access = scan_.accesses[static_cast<std::size_t>(v.access_index)];
    if (!refined_.contains(v.access_index)) {
      access.width = width;
      access.offset = v.byte_offset;
      refined_.insert(v.access_index);
    } else if (access.offset != v.byte_offset || access.width != width) {
      ScannedAccess extra = access;
      extra.width = width;
      extra.offset = v.byte_offset;
      extra.caller_compared = false;
      scan_.accesses.push_back(extra);
      v.access_index = static_cast<int>(scan_.accesses.size()) - 1;
      refined_.insert(v.access_index);
    }
    v.width = width;
  }

  void mem_store(const Val& off, const Val& val) {
    if (off.kind != Val::Kind::kConst || !off.constant.fits_u64() ||
        off.constant.low64() > (16u << 20)) {
      mem_.clear();
      return;
    }
    const std::uint64_t o = off.constant.low64();
    std::erase_if(mem_, [o](const auto& word) {
      return word.first + 32 > o && word.first < o + 32;
    });
    mem_.emplace_back(o, val);
  }

  Val mem_load(std::uint64_t o) const {
    for (const auto& [at, val] : mem_) {
      if (at == o) return val;
    }
    return Val::unknown();
  }

  void record_access(const Val& slot, bool is_write, std::uint8_t offset,
                     std::uint8_t width, WriteOrigin origin, bool guarded,
                     std::uint32_t pc) {
    ScannedAccess access;
    if (slot.kind == Val::Kind::kConst) {
      access.slot = slot.constant;
    } else {
      access.family_id = slot.family_id;
    }
    access.is_write = is_write;
    access.offset = offset;
    access.width = width;
    access.origin = origin;
    access.guarded = guarded;
    access.pc = pc;
    scan_.accesses.push_back(access);
  }

  static bool clobbers_memory(Opcode op) {
    switch (op) {
      case Opcode::MSTORE8:
      case Opcode::CALLDATACOPY:
      case Opcode::CODECOPY:
      case Opcode::RETURNDATACOPY:
      case Opcode::EXTCODECOPY:
      case Opcode::MCOPY:
      case Opcode::CALL:
      case Opcode::CALLCODE:
      case Opcode::DELEGATECALL:
      case Opcode::STATICCALL:
      case Opcode::CREATE:
      case Opcode::CREATE2:
        return true;
      default:
        return false;
    }
  }

  void step(const Instruction& ins) {
    const std::uint8_t byte = ins.byte;
    const Opcode op = ins.opcode();

    if (clobbers_memory(op)) mem_.clear();

    if (evm::is_push(byte)) {
      Val v;
      v.kind = Val::Kind::kConst;
      v.constant = ins.push_value();
      v.width = static_cast<std::uint8_t>(
          std::max<std::size_t>(ins.immediate.size(), 1));
      push(std::move(v));
      return;
    }
    if (evm::is_dup(byte)) {
      const std::size_t n = static_cast<std::size_t>(byte - 0x80) + 1;
      push(n <= stack_.size() ? stack_[stack_.size() - n] : Val::unknown());
      return;
    }
    if (evm::is_swap(byte)) {
      const std::size_t n = static_cast<std::size_t>(byte - 0x90) + 1;
      if (n < stack_.size()) {
        std::swap(stack_.back(), stack_[stack_.size() - 1 - n]);
      } else {
        stack_.clear();  // lost track; poison the block-local stack
      }
      return;
    }

    switch (op) {
      case Opcode::CALLER: {
        Val v;
        v.kind = Val::Kind::kCaller;
        v.width = 20;
        push(std::move(v));
        return;
      }
      case Opcode::CALLDATALOAD: {
        pop();
        Val v;
        v.kind = Val::Kind::kCalldata;
        push(std::move(v));
        return;
      }
      case Opcode::MSTORE: {
        const Val off = pop();
        const Val value = pop();
        mem_store(off, value);
        return;
      }
      case Opcode::KECCAK256: {
        const Val off = pop();
        const Val size = pop();
        if (off.kind == Val::Kind::kConst && off.constant.fits_u64() &&
            size.kind == Val::Kind::kConst) {
          const std::uint64_t o = off.constant.low64();
          if (size.constant == U256{0x40}) {
            // Solidity mapping element: keccak256(key ++ base_slot).
            push(derive_hash(mem_load(o + 32), /*mapping=*/true, mem_load(o)));
            return;
          }
          if (size.constant == U256{0x20}) {
            // Dynamic-array data start: keccak256(base_slot).
            push(derive_hash(mem_load(o), /*mapping=*/false, Val::unknown()));
            return;
          }
        }
        Val v;
        v.kind = Val::Kind::kHashed;  // unresolved (family_id -1)
        push(std::move(v));
        return;
      }
      case Opcode::ADD: {
        Val a = pop();
        Val b = pop();
        if (b.kind == Val::Kind::kHashed && a.kind != Val::Kind::kHashed) {
          std::swap(a, b);
        }
        // keccak(base) + index stays in the family, but is no longer the
        // family start (cannot seed a nested derivation).
        if (a.kind == Val::Kind::kHashed && a.family_id >= 0 &&
            b.kind != Val::Kind::kHashed) {
          a.displaced = true;
          if (b.kind == Val::Kind::kCalldata) {
            ScannedFamily& f =
                scan_.families[static_cast<std::size_t>(a.family_id)];
            f.key = KeyOrigin::kCalldata;
          }
          push(std::move(a));
          return;
        }
        push_unknown(1);
        return;
      }
      case Opcode::SLOAD: {
        const Val slot = pop();
        if (slot.kind == Val::Kind::kHashed) ++scan_.hashed_accesses;
        const bool resolved =
            slot.kind == Val::Kind::kConst ||
            (slot.kind == Val::Kind::kHashed && slot.family_id >= 0);
        if (!resolved) {
          push(Val::unknown());
          return;
        }
        record_access(slot, /*is_write=*/false, 0, 32, WriteOrigin::kUnknown,
                      false, ins.pc);
        Val v;
        v.kind = Val::Kind::kSload;
        v.family_id = slot.kind == Val::Kind::kHashed ? slot.family_id : -1;
        v.access_index = static_cast<int>(scan_.accesses.size()) - 1;
        push(std::move(v));
        return;
      }
      case Opcode::SSTORE: {
        const Val slot = pop();
        const Val value = pop();
        if (slot.kind == Val::Kind::kHashed) ++scan_.hashed_accesses;
        const bool resolved =
            slot.kind == Val::Kind::kConst ||
            (slot.kind == Val::Kind::kHashed && slot.family_id >= 0);
        if (!resolved) return;
        const bool guarded = guarded_pcs_.contains(current_block_start_);
        if (value.kind == Val::Kind::kPacked) {
          // The read-modify-write idiom writes only the hole's bytes.
          record_access(slot, /*is_write=*/true, value.byte_offset,
                        value.width, value.shifted_origin, guarded, ins.pc);
          return;
        }
        std::uint8_t width = value.width;
        WriteOrigin origin = WriteOrigin::kUnknown;
        switch (value.kind) {
          case Val::Kind::kConst: origin = WriteOrigin::kConstant; break;
          case Val::Kind::kCaller:
            origin = WriteOrigin::kCaller;
            width = 20;
            break;
          case Val::Kind::kCalldata: origin = WriteOrigin::kCalldata; break;
          case Val::Kind::kSload: origin = WriteOrigin::kStorage; break;
          default: break;
        }
        record_access(slot, /*is_write=*/true, 0, width, origin, guarded,
                      ins.pc);
        return;
      }
      case Opcode::AND: {
        Val a = pop();
        Val b = pop();
        if (a.kind == Val::Kind::kConst && b.kind != Val::Kind::kConst) {
          std::swap(a, b);
        }
        // a = value, b = mask (if constant)
        if (b.kind == Val::Kind::kConst) {
          if (a.kind == Val::Kind::kHashed) {
            push(std::move(a));  // mask narrows the value, keeps the family
            return;
          }
          if (const auto w = low_mask_width(b.constant)) {
            if (a.kind == Val::Kind::kSload) {
              refine_read(a, *w);
            } else {
              a.width = std::min(a.width, *w);
            }
            push(std::move(a));
            return;
          }
          // Hole mask: sload & ~(mask << 8k) — first half of a packed write.
          if (a.kind == Val::Kind::kSload) {
            if (const auto hole = contiguous_byte_mask(~b.constant)) {
              a.is_hole = true;
              a.hole_offset = hole->first;
              a.hole_width = hole->second;
              const std::uint8_t saved_offset = a.byte_offset;
              a.byte_offset = hole->first;
              refine_read(a, hole->second);
              a.byte_offset = saved_offset;
              push(std::move(a));
              return;
            }
          }
        }
        push(Val::unknown());
        return;
      }
      case Opcode::EQ: {
        Val a = pop();
        Val b = pop();
        Val* caller = nullptr;
        Val* other = nullptr;
        if (a.kind == Val::Kind::kCaller) {
          caller = &a;
          other = &b;
        } else if (b.kind == Val::Kind::kCaller) {
          caller = &b;
          other = &a;
        }
        if (caller != nullptr && other->kind == Val::Kind::kSload &&
            other->access_index >= 0) {
          // CALLER comparison types the read as an address at the read's
          // packing offset (refine_read, not a direct width clobber, which
          // would make a shifted address claim its lower neighbours' bytes).
          refine_read(*other, 20);
          auto& access =
              scan_.accesses[static_cast<std::size_t>(other->access_index)];
          access.caller_compared = true;
          Val check;
          check.kind = Val::Kind::kCallerCheck;
          check.width = 1;
          push(std::move(check));
          return;
        }
        push_unknown(1);
        return;
      }
      case Opcode::ISZERO: {
        Val a = pop();
        if (a.kind == Val::Kind::kCallerCheck) {
          a.negated = !a.negated;
          push(std::move(a));
          return;
        }
        push_unknown(1);
        return;
      }
      case Opcode::SHL: {
        const Val shift = pop();
        Val value = pop();
        const bool typed = value.kind == Val::Kind::kCaller ||
                           value.kind == Val::Kind::kCalldata ||
                           value.kind == Val::Kind::kConst;
        if (typed && shift.kind == Val::Kind::kConst &&
            shift.constant.fits_u64() && shift.constant.low64() < 256 &&
            shift.constant.low64() % 8 == 0) {
          value.byte_offset =
              static_cast<std::uint8_t>(shift.constant.low64() / 8);
          switch (value.kind) {
            case Val::Kind::kCaller:
              value.shifted_origin = WriteOrigin::kCaller;
              break;
            case Val::Kind::kCalldata:
              value.shifted_origin = WriteOrigin::kCalldata;
              break;
            default:
              value.shifted_origin = WriteOrigin::kConstant;
              break;
          }
          push(std::move(value));
          return;
        }
        push_unknown(1);
        return;
      }
      case Opcode::OR: {
        Val a = pop();
        Val b = pop();
        if (b.is_hole && !a.is_hole) std::swap(a, b);
        if (a.is_hole) {
          WriteOrigin origin = WriteOrigin::kUnknown;
          if (b.shifted_origin != WriteOrigin::kUnknown &&
              b.byte_offset == a.hole_offset) {
            origin = b.shifted_origin;
          } else if (a.hole_offset == 0) {
            switch (b.kind) {
              case Val::Kind::kCaller: origin = WriteOrigin::kCaller; break;
              case Val::Kind::kCalldata:
                origin = WriteOrigin::kCalldata;
                break;
              case Val::Kind::kConst: origin = WriteOrigin::kConstant; break;
              default: break;
            }
          }
          if (origin != WriteOrigin::kUnknown) {
            Val packed;
            packed.kind = Val::Kind::kPacked;
            packed.family_id = a.family_id;
            packed.byte_offset = a.hole_offset;
            packed.width = a.hole_width;
            packed.shifted_origin = origin;
            push(std::move(packed));
            return;
          }
        }
        push_unknown(1);
        return;
      }
      case Opcode::SHR: {
        const Val shift = pop();
        Val value = pop();
        if (value.kind == Val::Kind::kSload &&
            shift.kind == Val::Kind::kConst && shift.constant.fits_u64() &&
            shift.constant.low64() < 256 && shift.constant.low64() % 8 == 0) {
          value.byte_offset = static_cast<std::uint8_t>(
              value.byte_offset + shift.constant.low64() / 8);
          push(std::move(value));
          return;
        }
        push_unknown(1);
        return;
      }
      case Opcode::JUMPI: {
        const Val target = pop();
        const Val cond = pop();
        if (cond.kind == Val::Kind::kCallerCheck && !cond.negated &&
            target.kind == Val::Kind::kConst && target.constant.fits_u64()) {
          guarded_pcs_.insert(
              static_cast<std::uint32_t>(target.constant.low64()));
        }
        if (cond.kind == Val::Kind::kCallerCheck && cond.negated) {
          guarded_pcs_.insert(ins.pc + 1);
        }
        return;
      }
      default: {
        const auto& info = ins.info();
        for (int i = 0; i < info.stack_in; ++i) pop();
        push_unknown(info.stack_out);
        return;
      }
    }
  }

  StorageScan& scan_;
  std::unordered_set<std::uint32_t>& guarded_pcs_;
  std::vector<Val> stack_;
  std::vector<std::pair<std::uint64_t, Val>> mem_;  // word offset -> value
  std::unordered_set<int> refined_;  // access indices already typed once
};

WriteOrigin origin_of(const AbstractValue& v) {
  switch (v.kind) {
    case AbstractValue::Kind::kConst: return WriteOrigin::kConstant;
    case AbstractValue::Kind::kCalldata: return WriteOrigin::kCalldata;
    case AbstractValue::Kind::kStorage: return WriteOrigin::kStorage;
    default: return WriteOrigin::kUnknown;
  }
}

/// Merge rule for write provenance: exactly one distinct non-unknown origin
/// survives; disagreement degrades to unknown.
WriteOrigin merge_origin(WriteOrigin a, WriteOrigin b) {
  if (a == WriteOrigin::kUnknown) return b;
  if (b == WriteOrigin::kUnknown) return a;
  return a == b ? a : WriteOrigin::kUnknown;
}

KeyOrigin merge_key(KeyOrigin a, KeyOrigin b) {
  if (a == KeyOrigin::kCalldata || b == KeyOrigin::kCalldata) {
    return KeyOrigin::kCalldata;
  }
  if (a == KeyOrigin::kUnknown) return b;
  if (b == KeyOrigin::kUnknown) return a;
  return a == b ? a : KeyOrigin::kUnknown;
}

}  // namespace

bool StorageLayout::admits_slot(const U256& slot) const noexcept {
  for (const LayoutMember& m : members) {
    if (m.slot == slot) return true;
  }
  return false;
}

bool StorageLayout::covers_range(const U256& slot, std::uint8_t offset,
                                 std::uint8_t width) const noexcept {
  const unsigned end = std::min(32u, static_cast<unsigned>(offset) + width);
  for (unsigned b = offset; b < end; ++b) {
    bool covered = false;
    for (const LayoutMember& m : members) {
      if (m.slot == slot && b >= m.offset &&
          b < static_cast<unsigned>(m.offset) + m.width) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

const SlotFamily* StorageLayout::family(const U256& base_slot,
                                        std::uint8_t depth,
                                        std::uint8_t path) const noexcept {
  for (const SlotFamily& f : families) {
    if (f.base_slot == base_slot && f.depth == depth && f.path == path) {
      return &f;
    }
  }
  return nullptr;
}

std::string StorageLayout::to_string() const {
  std::ostringstream out;
  for (const LayoutMember& m : members) {
    out << "slot " << m.slot.to_hex() << " [" << int{m.offset} << "+"
        << int{m.width} << ")";
    if (m.read) out << " r";
    if (m.written) out << " w";
    if (m.caller_compared) out << " sensitive";
    if (m.unguarded_write) out << " unguarded";
    out << '\n';
  }
  for (const SlotFamily& f : families) {
    out << "family " << f.base_slot.to_hex() << " depth=" << int{f.depth}
        << " path=" << int{f.path} << " [" << int{f.value_offset} << "+"
        << int{f.value_width} << ")";
    if (f.read) out << " r";
    if (f.written) out << " w";
    if (f.key_origin == KeyOrigin::kCalldata) out << " calldata-key";
    out << '\n';
  }
  out << "unresolved=" << unresolved_accesses
      << " complete=" << (cfg_complete ? 1 : 0) << '\n';
  return out.str();
}

StorageScan scan_storage(const evm::Disassembly& dis) {
  StorageScan scan;
  std::unordered_set<std::uint32_t> guarded_pcs;
  // Pass 1 discovers caller-guard jump targets; pass 2 attributes them to
  // writes inside those targets' blocks.
  for (int pass = 0; pass < 2; ++pass) {
    if (pass == 1) scan = StorageScan{};
    StorageScanner scanner(scan, guarded_pcs);
    for (const evm::BasicBlock& block : dis.blocks()) {
      scanner.current_block_start_ = block.start_pc;
      scanner.run(dis.instructions(), block.first_instruction,
                  block.instruction_count);
    }
  }
  return scan;
}

StorageLayout infer_layout(const evm::Disassembly& dis, const Cfg& cfg) {
  StorageLayout layout;
  layout.cfg_complete = cfg.complete;

  StorageScan scan = scan_storage(dis);
  std::vector<ScannedAccess>& raw = scan.accesses;
  std::vector<ScannedFamily>& family_keys = scan.families;

  // ---- union with the CFG's path-sensitive storage facts -----------------
  // The scanner resolves widths/offsets/guards; the facts resolve slots the
  // scanner's block-local view missed (cross-block computations) and decide
  // reliability: a reachable access neither stream resolves is a claim the
  // layout cannot make.
  std::unordered_set<std::uint32_t> scanned_pcs;
  for (const ScannedAccess& a : raw) scanned_pcs.insert(a.pc);

  for (const StorageFact& fact : cfg.storage_facts) {
    if (!fact.reachable) continue;
    if (fact.slot.is_const()) {
      if (!scanned_pcs.contains(fact.pc)) {
        ScannedAccess access;
        access.slot = fact.slot.payload;
        access.is_write = fact.is_write;
        access.origin = origin_of(fact.value);
        access.pc = fact.pc;
        raw.push_back(access);
      }
      continue;
    }
    if (fact.slot.is_hashed()) {
      if (!scanned_pcs.contains(fact.pc)) {
        ScannedAccess access;
        access.family_id = -2;  // resolved below via fact_families
        access.is_write = fact.is_write;
        access.origin = origin_of(fact.value);
        access.pc = fact.pc;
        raw.push_back(access);
        // Intern the fact's family identity alongside the scanner's.
        int id = -1;
        for (std::size_t i = 0; i < family_keys.size(); ++i) {
          ScannedFamily& f = family_keys[i];
          if (f.base == fact.slot.payload &&
              f.depth == fact.slot.hash_depth &&
              f.path == fact.slot.hash_path) {
            f.key = merge_key(f.key, fact.slot.key_origin);
            id = static_cast<int>(i);
            break;
          }
        }
        if (id < 0) {
          family_keys.push_back({fact.slot.payload, fact.slot.hash_depth,
                                 fact.slot.hash_path, fact.slot.key_origin});
          id = static_cast<int>(family_keys.size()) - 1;
        }
        raw.back().family_id = id;
      }
      continue;
    }
    ++layout.unresolved_accesses;
  }

  // ---- aggregate raw accesses into members and families ------------------
  for (const ScannedAccess& a : raw) {
    if (a.family_id < 0) {
      LayoutMember* member = nullptr;
      for (LayoutMember& m : layout.members) {
        if (m.slot == a.slot && m.offset == a.offset && m.width == a.width) {
          member = &m;
          break;
        }
      }
      if (member == nullptr) {
        LayoutMember m;
        m.slot = a.slot;
        m.offset = a.offset;
        m.width = a.width;
        layout.members.push_back(m);
        member = &layout.members.back();
      }
      member->read |= !a.is_write;
      member->written |= a.is_write;
      member->caller_compared |= a.caller_compared;
      if (a.is_write) {
        member->unguarded_write |= !a.guarded;
        member->write_origin = merge_origin(member->write_origin, a.origin);
      }
    } else {
      const ScannedFamily& key =
          family_keys[static_cast<std::size_t>(a.family_id)];
      SlotFamily* family = nullptr;
      for (SlotFamily& f : layout.families) {
        if (f.base_slot == key.base && f.depth == key.depth &&
            f.path == key.path) {
          family = &f;
          break;
        }
      }
      if (family == nullptr) {
        SlotFamily f;
        f.base_slot = key.base;
        f.depth = key.depth;
        f.path = key.path;
        f.value_offset = a.offset;
        f.value_width = a.width;
        layout.families.push_back(f);
        family = &layout.families.back();
      } else if (family->value_offset != a.offset ||
                 family->value_width != a.width) {
        // Conflicting typed views of the element value: widen to the whole
        // word (families keep a single range, unlike packed static slots).
        family->value_offset = 0;
        family->value_width = 32;
      }
      family->key_origin = merge_key(family->key_origin, key.key);
      family->read |= !a.is_write;
      family->written |= a.is_write;
      family->caller_compared |= a.caller_compared;
      if (a.is_write) {
        family->unguarded_write |= !a.guarded;
        family->write_origin = merge_origin(family->write_origin, a.origin);
      }
    }
  }

  std::sort(layout.members.begin(), layout.members.end(),
            [](const LayoutMember& a, const LayoutMember& b) {
              if (!(a.slot == b.slot)) return a.slot < b.slot;
              if (a.offset != b.offset) return a.offset < b.offset;
              return a.width < b.width;
            });
  std::sort(layout.families.begin(), layout.families.end(),
            [](const SlotFamily& a, const SlotFamily& b) {
              if (!(a.base_slot == b.base_slot)) {
                return a.base_slot < b.base_slot;
              }
              if (a.depth != b.depth) return a.depth < b.depth;
              return a.path < b.path;
            });

  obs::Registry& reg = obs::Registry::global();
  static obs::Counter& inferred = reg.counter("layout.inferred");
  static obs::Counter& unresolved = reg.counter("layout.unresolved_accesses");
  inferred.add(1);
  unresolved.add(layout.unresolved_accesses);

  return layout;
}

StorageLayout infer_layout(const evm::Disassembly& dis) {
  return infer_layout(dis, recover_cfg(dis));
}

}  // namespace proxion::static_analysis
