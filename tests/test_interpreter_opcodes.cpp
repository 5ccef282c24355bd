// Systematic per-opcode interpreter coverage, including a differential
// property sweep: every binary ALU opcode executed in the EVM must agree
// with the U256 reference implementation on randomized operands.
#include <gtest/gtest.h>

#include <random>

#include "crypto/keccak.h"
#include "datagen/assembler.h"
#include "evm/host.h"
#include "evm/interpreter.h"

namespace {

using namespace proxion::evm;
using proxion::crypto::from_hex;
using proxion::datagen::Assembler;

class OpcodeTest : public ::testing::Test {
 protected:
  ExecResult run(const Bytes& code, Bytes calldata = {}) {
    host_.set_code(self_, code);
    Interpreter interp(host_);
    CallParams params;
    params.code_address = self_;
    params.storage_address = self_;
    params.caller = caller_;
    params.origin = origin_;
    params.calldata = std::move(calldata);
    return interp.execute(params);
  }

  /// Executes `op` on two stack operands (a on top) and returns the result.
  U256 eval2(Opcode op, const U256& a, const U256& b) {
    Assembler asm_;
    asm_.push(b, 32).push(a, 32).op(op);
    asm_.push(U256{0}, 1).op(Opcode::MSTORE);
    asm_.push(U256{32}, 1).push(U256{0}, 1).op(Opcode::RETURN);
    const ExecResult r = run(asm_.assemble());
    EXPECT_EQ(r.halt, HaltReason::kReturn) << opcode_info(op).mnemonic;
    return U256::from_be_slice(r.return_data);
  }

  U256 eval3(Opcode op, const U256& a, const U256& b, const U256& c) {
    Assembler asm_;
    asm_.push(c, 32).push(b, 32).push(a, 32).op(op);
    asm_.push(U256{0}, 1).op(Opcode::MSTORE);
    asm_.push(U256{32}, 1).push(U256{0}, 1).op(Opcode::RETURN);
    const ExecResult r = run(asm_.assemble());
    EXPECT_EQ(r.halt, HaltReason::kReturn);
    return U256::from_be_slice(r.return_data);
  }

  /// Runs a no-operand opcode and returns the single word it pushes.
  U256 eval0(Opcode op) {
    Assembler asm_;
    asm_.op(op);
    asm_.push(U256{0}, 1).op(Opcode::MSTORE);
    asm_.push(U256{32}, 1).push(U256{0}, 1).op(Opcode::RETURN);
    const ExecResult r = run(asm_.assemble());
    EXPECT_EQ(r.halt, HaltReason::kReturn);
    return U256::from_be_slice(r.return_data);
  }

  MemoryHost host_;
  Address self_ = Address::from_label("opcodes.self");
  Address caller_ = Address::from_label("opcodes.caller");
  Address origin_ = Address::from_label("opcodes.origin");
};

// ---- differential ALU sweep -------------------------------------------------

class AluDifferentialTest : public OpcodeTest,
                            public ::testing::WithParamInterface<unsigned> {};

TEST_P(AluDifferentialTest, BinaryOpsMatchReference) {
  std::mt19937_64 rng(GetParam());
  auto rand_word = [&] {
    switch (rng() % 4) {
      case 0: return U256{rng() % 256};
      case 1: return U256{rng()};
      case 2: return U256{rng(), rng(), rng(), rng()};
      default: return ~U256{} - U256{rng() % 64};
    }
  };
  for (int i = 0; i < 40; ++i) {
    const U256 a = rand_word();
    const U256 b = rand_word();
    EXPECT_EQ(eval2(Opcode::ADD, a, b), a + b);
    EXPECT_EQ(eval2(Opcode::SUB, a, b), a - b);
    EXPECT_EQ(eval2(Opcode::MUL, a, b), a * b);
    EXPECT_EQ(eval2(Opcode::DIV, a, b), a / b);
    EXPECT_EQ(eval2(Opcode::MOD, a, b), a % b);
    EXPECT_EQ(eval2(Opcode::SDIV, a, b), a.sdiv(b));
    EXPECT_EQ(eval2(Opcode::SMOD, a, b), a.smod(b));
    EXPECT_EQ(eval2(Opcode::AND, a, b), a & b);
    EXPECT_EQ(eval2(Opcode::OR, a, b), a | b);
    EXPECT_EQ(eval2(Opcode::XOR, a, b), a ^ b);
    EXPECT_EQ(eval2(Opcode::LT, a, b), U256{a < b ? 1u : 0u});
    EXPECT_EQ(eval2(Opcode::GT, a, b), U256{a > b ? 1u : 0u});
    EXPECT_EQ(eval2(Opcode::SLT, a, b), U256{a.slt(b) ? 1u : 0u});
    EXPECT_EQ(eval2(Opcode::SGT, a, b), U256{a.sgt(b) ? 1u : 0u});
    EXPECT_EQ(eval2(Opcode::EQ, a, b), U256{a == b ? 1u : 0u});
    EXPECT_EQ(eval2(Opcode::BYTE, a, b), U256{b.byte(a)});
    EXPECT_EQ(eval2(Opcode::SHL, a, b), b << a);
    EXPECT_EQ(eval2(Opcode::SHR, a, b), b >> a);
    EXPECT_EQ(eval2(Opcode::SAR, a, b), b.sar(a));
    EXPECT_EQ(eval2(Opcode::SIGNEXTEND, a, b), b.signextend(a));
  }
}

TEST_P(AluDifferentialTest, TernaryOpsMatchReference) {
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 25; ++i) {
    const U256 a{rng(), rng(), rng(), rng()};
    const U256 b{rng(), rng(), rng(), rng()};
    const U256 m{rng() % 2 == 0 ? rng() : 0};
    EXPECT_EQ(eval3(Opcode::ADDMOD, a, b, m), U256::addmod(a, b, m));
    EXPECT_EQ(eval3(Opcode::MULMOD, a, b, m), U256::mulmod(a, b, m));
  }
}

TEST_P(AluDifferentialTest, ExpMatchesReference) {
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 15; ++i) {
    const U256 base{rng() % 1000};
    const U256 exponent{rng() % 64};
    EXPECT_EQ(eval2(Opcode::EXP, base, exponent), base.exp(exponent));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AluDifferentialTest,
                         ::testing::Values(11u, 1337u, 99991u));

// ---- environment opcodes ----------------------------------------------------

TEST_F(OpcodeTest, OriginVsCaller) {
  EXPECT_EQ(eval0(Opcode::ORIGIN), origin_.to_word());
  EXPECT_EQ(eval0(Opcode::CALLER), caller_.to_word());
}

TEST_F(OpcodeTest, BlockContextOpcodes) {
  auto& ctx = host_.mutable_block_context();
  ctx.number = U256{12'345'678};
  ctx.timestamp = U256{1'700'000'000};
  ctx.difficulty = U256{0x1234};
  ctx.gas_limit = U256{30'000'000};
  ctx.base_fee = U256{17};
  ctx.gas_price = U256{42};
  ctx.coinbase = Address::from_label("validator");

  EXPECT_EQ(eval0(Opcode::NUMBER), U256{12'345'678});
  EXPECT_EQ(eval0(Opcode::TIMESTAMP), U256{1'700'000'000});
  EXPECT_EQ(eval0(Opcode::DIFFICULTY), U256{0x1234});
  EXPECT_EQ(eval0(Opcode::GASLIMIT), U256{30'000'000});
  EXPECT_EQ(eval0(Opcode::BASEFEE), U256{17});
  EXPECT_EQ(eval0(Opcode::GASPRICE), U256{42});
  EXPECT_EQ(eval0(Opcode::COINBASE),
            Address::from_label("validator").to_word());
}

TEST_F(OpcodeTest, SelfBalance) {
  host_.set_balance(self_, U256{987});
  EXPECT_EQ(eval0(Opcode::SELFBALANCE), U256{987});
}

TEST_F(OpcodeTest, BalanceOfOther) {
  const Address rich = Address::from_label("rich");
  host_.set_balance(rich, U256{5555});
  Assembler a;
  a.push_address(rich).op(Opcode::BALANCE);
  a.push(U256{0}, 1).op(Opcode::MSTORE);
  a.push(U256{32}, 1).push(U256{0}, 1).op(Opcode::RETURN);
  EXPECT_EQ(U256::from_be_slice(run(a.assemble()).return_data), U256{5555});
}

TEST_F(OpcodeTest, ExtCodeFamilyOnDeployedAccount) {
  const Address other = Address::from_label("other");
  const Bytes other_code = from_hex("6001600201");
  host_.set_code(other, other_code);

  Assembler a;
  a.push_address(other).op(Opcode::EXTCODESIZE);
  a.push(U256{0}, 1).op(Opcode::MSTORE);
  a.push_address(other).op(Opcode::EXTCODEHASH);
  a.push(U256{0x20}, 1).op(Opcode::MSTORE);
  // extcodecopy(other, dest=0x40, offset=0, size=5)
  a.push(U256{5}, 1).push(U256{0}, 1).push(U256{0x40}, 1);
  a.push_address(other).op(Opcode::EXTCODECOPY);
  a.push(U256{0x60}, 1).push(U256{0}, 1).op(Opcode::RETURN);
  const ExecResult r = run(a.assemble());
  ASSERT_EQ(r.halt, HaltReason::kReturn);
  const BytesView out(r.return_data);
  EXPECT_EQ(U256::from_be_slice(out.subspan(0, 32)), U256{5});  // size
  EXPECT_EQ(U256::from_be_slice(out.subspan(32, 32)),
            to_u256(proxion::crypto::keccak256(other_code)));
  EXPECT_TRUE(std::equal(other_code.begin(), other_code.end(),
                         out.begin() + 64));
}

TEST_F(OpcodeTest, ExtCodeFamilyOnEmptyAccount) {
  Assembler a;
  a.push_address(Address::from_label("ghost")).op(Opcode::EXTCODESIZE);
  a.push(U256{0}, 1).op(Opcode::MSTORE);
  a.push_address(Address::from_label("ghost")).op(Opcode::EXTCODEHASH);
  a.push(U256{0x20}, 1).op(Opcode::MSTORE);
  a.push(U256{0x40}, 1).push(U256{0}, 1).op(Opcode::RETURN);
  const ExecResult r = run(a.assemble());
  const BytesView out(r.return_data);
  EXPECT_EQ(U256::from_be_slice(out.subspan(0, 32)), U256{});
  EXPECT_EQ(U256::from_be_slice(out.subspan(32, 32)), U256{});  // empty -> 0
}

TEST_F(OpcodeTest, ExtCodeHashOfCodelessButNonEmptyAccount) {
  // EIP-1052: an account that exists and is not EIP-161-empty hashes its
  // empty code, whether it holds a balance or only a nonce.
  const Address funded = Address::from_label("funded.eoa");
  const Address used = Address::from_label("used.eoa");
  host_.set_balance(funded, U256{1});
  host_.set_nonce(used, 1);
  Assembler a;
  a.push_address(funded).op(Opcode::EXTCODESIZE);
  a.push(U256{0}, 1).op(Opcode::MSTORE);
  a.push_address(funded).op(Opcode::EXTCODEHASH);
  a.push(U256{0x20}, 1).op(Opcode::MSTORE);
  a.push_address(used).op(Opcode::EXTCODEHASH);
  a.push(U256{0x40}, 1).op(Opcode::MSTORE);
  a.push(U256{0x60}, 1).push(U256{0}, 1).op(Opcode::RETURN);
  const ExecResult r = run(a.assemble());
  const BytesView out(r.return_data);
  const U256 empty_hash = to_u256(proxion::crypto::keccak256(Bytes{}));
  EXPECT_EQ(U256::from_be_slice(out.subspan(0, 32)), U256{});
  EXPECT_EQ(U256::from_be_slice(out.subspan(32, 32)), empty_hash);
  EXPECT_EQ(U256::from_be_slice(out.subspan(64, 32)), empty_hash);
}

TEST_F(OpcodeTest, PcMsizeGas) {
  Assembler a;
  a.op(Opcode::PC);                                 // pc 0 -> pushes 0
  a.push(U256{0}, 1).op(Opcode::MSTORE);            // memory now 32 bytes
  a.op(Opcode::MSIZE);
  a.push(U256{0x20}, 1).op(Opcode::MSTORE);
  a.op(Opcode::GAS);
  a.push(U256{0x40}, 1).op(Opcode::MSTORE);
  a.push(U256{0x60}, 1).push(U256{0}, 1).op(Opcode::RETURN);
  const ExecResult r = run(a.assemble());
  const BytesView out(r.return_data);
  EXPECT_EQ(U256::from_be_slice(out.subspan(0, 32)), U256{0});
  EXPECT_EQ(U256::from_be_slice(out.subspan(32, 32)), U256{32});
  EXPECT_GT(U256::from_be_slice(out.subspan(64, 32)), U256{0});  // gas left
}

TEST_F(OpcodeTest, Push0AndAllPushWidths) {
  // PUSH0 then PUSH1..PUSH32 of 0xff..ff patterns; ensure each decodes.
  for (int width = 0; width <= 32; ++width) {
    Assembler a;
    if (width == 0) {
      a.op(Opcode::PUSH0);
    } else {
      Bytes payload(static_cast<std::size_t>(width), 0xab);
      a.push_bytes(payload);
    }
    a.push(U256{0}, 1).op(Opcode::MSTORE);
    a.push(U256{32}, 1).push(U256{0}, 1).op(Opcode::RETURN);
    const U256 got = U256::from_be_slice(run(a.assemble()).return_data);
    if (width == 0) {
      EXPECT_EQ(got, U256{});
    } else {
      U256 expected;
      for (int i = 0; i < width; ++i) {
        expected = (expected << U256{8}) | U256{0xab};
      }
      EXPECT_EQ(got, expected) << "width " << width;
    }
  }
}

TEST_F(OpcodeTest, DupAndSwapFullRange) {
  // Push 17 distinct values, DUP16 must duplicate the 16th from top.
  Assembler a;
  for (int i = 1; i <= 17; ++i) a.push(U256{static_cast<std::uint64_t>(i)});
  a.dup(16);  // 16th from top is value 2
  a.push(U256{0}, 1).op(Opcode::MSTORE);
  a.push(U256{32}, 1).push(U256{0}, 1).op(Opcode::RETURN);
  EXPECT_EQ(U256::from_be_slice(run(a.assemble()).return_data), U256{2});

  Assembler b;
  for (int i = 1; i <= 17; ++i) b.push(U256{static_cast<std::uint64_t>(i)});
  b.swap(16);  // top (17) swaps with the 17th (1)
  b.push(U256{0}, 1).op(Opcode::MSTORE);
  b.push(U256{32}, 1).push(U256{0}, 1).op(Opcode::RETURN);
  EXPECT_EQ(U256::from_be_slice(run(b.assemble()).return_data), U256{1});
}

TEST_F(OpcodeTest, MemoryExpansionChargesQuadratically) {
  // Touching memory far out must cost much more than nearby; and beyond the
  // fuse it fails cleanly.
  Assembler near;
  near.push(U256{1}, 1).push(U256{0x100}, 2).op(Opcode::MSTORE8);
  near.op(Opcode::STOP);
  host_.set_code(self_, near.assemble());
  Interpreter interp1(host_);
  CallParams params;
  params.code_address = self_;
  params.storage_address = self_;
  params.gas = 100'000;
  const auto r1 = interp1.execute(params);
  EXPECT_TRUE(r1.success());

  Assembler far;
  far.push(U256{1}, 1).push(U256{8'000'000}, 4).op(Opcode::MSTORE8);
  far.op(Opcode::STOP);
  host_.set_code(self_, far.assemble());
  Interpreter interp2(host_);
  const auto r2 = interp2.execute(params);
  EXPECT_EQ(r2.halt, HaltReason::kOutOfGas);  // quadratic cost bites
  EXPECT_GT(r2.gas_used, r1.gas_used * 10);
}

TEST_F(OpcodeTest, MemoryFuseBlocksAbsurdOffsets) {
  Assembler a;
  a.push(U256{1}, 1).push(~U256{}, 32).op(Opcode::MSTORE8);
  EXPECT_EQ(run(a.assemble()).halt, HaltReason::kOutOfGas);
}

TEST_F(OpcodeTest, NestedStaticPropagates) {
  // outer STATICCALL -> middle CALL -> inner SSTORE must still fail.
  const Address middle = Address::from_label("middle");
  const Address inner = Address::from_label("inner");

  Assembler inner_asm;  // SSTORE(0, 1)
  inner_asm.push(U256{1}, 1).push(U256{0}, 1).op(Opcode::SSTORE);
  inner_asm.op(Opcode::STOP);
  host_.set_code(inner, inner_asm.assemble());

  Assembler middle_asm;  // CALL inner, propagate success flag in returndata
  middle_asm.push(U256{0}, 1).push(U256{0}, 1).push(U256{0}, 1)
      .push(U256{0}, 1).push(U256{0}, 1);
  middle_asm.push_address(inner).op(Opcode::GAS).op(Opcode::CALL);
  middle_asm.push(U256{0}, 1).op(Opcode::MSTORE);
  middle_asm.push(U256{32}, 1).push(U256{0}, 1).op(Opcode::RETURN);
  host_.set_code(middle, middle_asm.assemble());

  Assembler outer;  // STATICCALL middle, return its returndata
  outer.push(U256{0}, 1).push(U256{0}, 1).push(U256{0}, 1).push(U256{0}, 1);
  outer.push_address(middle).op(Opcode::GAS).op(Opcode::STATICCALL);
  outer.op(Opcode::POP);
  outer.op(Opcode::RETURNDATASIZE).push(U256{0}, 1).push(U256{0}, 1)
      .op(Opcode::RETURNDATACOPY);
  outer.op(Opcode::RETURNDATASIZE).push(U256{0}, 1).op(Opcode::RETURN);

  const ExecResult r = run(outer.assemble());
  ASSERT_EQ(r.halt, HaltReason::kReturn);
  // middle's CALL to inner reported failure (0) because of staticness.
  EXPECT_EQ(U256::from_be_slice(r.return_data), U256{0});
  EXPECT_EQ(host_.get_storage(inner, U256{0}), U256{});
}

TEST_F(OpcodeTest, SixtyThreeSixtyFourthsRule) {
  // A callee trying to burn everything cannot exhaust the caller: 1/64 of
  // gas is withheld, so the caller can still finish.
  const Address burner = Address::from_label("burner");
  Assembler spin;
  spin.jumpdest("loop");
  spin.push_label("loop").op(Opcode::JUMP);
  host_.set_code(burner, spin.assemble());

  Assembler a;
  a.push(U256{0}, 1).push(U256{0}, 1).push(U256{0}, 1).push(U256{0}, 1);
  a.push(U256{0}, 1);
  a.push_address(burner);
  a.op(Opcode::GAS).op(Opcode::CALL).op(Opcode::POP);
  a.push(U256{0x42}, 1).push(U256{0}, 1).op(Opcode::MSTORE);
  a.push(U256{32}, 1).push(U256{0}, 1).op(Opcode::RETURN);

  host_.set_code(self_, a.assemble());
  InterpreterConfig config;
  config.step_limit = 2'000'000;
  Interpreter interp(host_, config);
  CallParams params;
  params.code_address = self_;
  params.storage_address = self_;
  params.gas = 200'000;
  const auto r = interp.execute(params);
  ASSERT_EQ(r.halt, HaltReason::kReturn);
  EXPECT_EQ(U256::from_be_slice(r.return_data), U256{0x42});
}

TEST_F(OpcodeTest, CallDepthLimitReturnsFailure) {
  // Self-recursive CALL: at depth 1024 the call must fail (push 0), not
  // crash. Depth grows fast, so cap gas high but finite.
  Assembler a;
  a.push(U256{0}, 1).push(U256{0}, 1).push(U256{0}, 1).push(U256{0}, 1);
  a.push(U256{0}, 1);
  a.push_address(self_);
  a.op(Opcode::GAS).op(Opcode::CALL);
  // return the sub-call's success flag
  a.push(U256{0}, 1).op(Opcode::MSTORE);
  a.push(U256{32}, 1).push(U256{0}, 1).op(Opcode::RETURN);
  host_.set_code(self_, a.assemble());

  InterpreterConfig config;
  config.step_limit = 10'000'000;
  config.max_call_depth = 64;  // keep the recursion cheap for the test
  config.charge_gas = false;
  Interpreter interp(host_, config);
  CallParams params;
  params.code_address = self_;
  params.storage_address = self_;
  const auto r = interp.execute(params);
  ASSERT_EQ(r.halt, HaltReason::kReturn);
  // The innermost frame saw its CALL fail (depth limit) -> somewhere a 0
  // bubbled; the outermost result is its own sub-call's success = 1, so
  // instead assert that execution terminated without fault.
  EXPECT_TRUE(r.success());
}

TEST_F(OpcodeTest, ReturndatacopyExactBoundaryOk) {
  const Address callee = Address::from_label("cal");
  Assembler c;
  c.push(U256{0xaa}, 1).push(U256{0}, 1).op(Opcode::MSTORE);
  c.push(U256{32}, 1).push(U256{0}, 1).op(Opcode::RETURN);
  host_.set_code(callee, c.assemble());

  Assembler a;
  a.push(U256{0}, 1).push(U256{0}, 1).push(U256{0}, 1).push(U256{0}, 1);
  a.push_address(callee).op(Opcode::GAS).op(Opcode::STATICCALL).op(Opcode::POP);
  // copy exactly 32 bytes from offset 0: fine
  a.push(U256{32}, 1).push(U256{0}, 1).push(U256{0}, 1)
      .op(Opcode::RETURNDATACOPY);
  // copy 1 byte from offset 32: out of bounds -> fault
  a.push(U256{1}, 1).push(U256{32}, 1).push(U256{0x40}, 1)
      .op(Opcode::RETURNDATACOPY);
  a.op(Opcode::STOP);
  EXPECT_EQ(run(a.assemble()).halt, HaltReason::kReturnDataOutOfBounds);
}

TEST_F(OpcodeTest, CodesizeAndCodecopyOfSelf) {
  Assembler a;
  a.op(Opcode::CODESIZE);
  a.push(U256{0}, 1).op(Opcode::MSTORE);
  a.push(U256{32}, 1).push(U256{0}, 1).op(Opcode::RETURN);
  const Bytes code = a.assemble();
  const ExecResult r = run(code);
  EXPECT_EQ(U256::from_be_slice(r.return_data), U256{code.size()});
}

TEST_F(OpcodeTest, BlockhashOfRecentAndFutureBlocks) {
  auto& ctx = host_.mutable_block_context();
  ctx.number = U256{100};
  Assembler a;
  a.push(U256{50}, 1).op(Opcode::BLOCKHASH);
  a.push(U256{0}, 1).op(Opcode::MSTORE);
  a.push(U256{32}, 1).push(U256{0}, 1).op(Opcode::RETURN);
  const U256 h = U256::from_be_slice(run(a.assemble()).return_data);
  EXPECT_EQ(h, host_.block_hash(50));
}

TEST_F(OpcodeTest, ChainIdIsMainnet) {
  // §4.2: "the chain ID of Ethereum's mainnet is 1".
  EXPECT_EQ(eval0(Opcode::CHAINID), U256{1});
}

}  // namespace
