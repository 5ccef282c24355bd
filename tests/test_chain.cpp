// The simulated blockchain: deployment, transaction execution, the storage
// history journal (archive-node semantics), internal-transaction tracing,
// and the ArchiveNode call counters.
#include <gtest/gtest.h>

#include "chain/archive_node.h"
#include "chain/blockchain.h"
#include "crypto/eth.h"
#include "datagen/assembler.h"
#include "datagen/contract_factory.h"

namespace {

using namespace proxion;
using namespace proxion::chain;
using datagen::Assembler;
using datagen::BodyKind;
using datagen::ContractFactory;
using evm::Opcode;
using evm::U256;

Bytes selector_calldata(std::string_view prototype) {
  const auto sel = crypto::selector_of(prototype);
  Bytes out(36, 0);
  std::copy(sel.begin(), sel.end(), out.begin());
  return out;
}

class ChainTest : public ::testing::Test {
 protected:
  Blockchain chain_;
  Address user_ = Address::from_label("chain.user");
};

TEST_F(ChainTest, DeployRuntimeInstallsCodeAndMeta) {
  const Bytes code = ContractFactory::token_contract(1);
  const Address a = chain_.deploy_runtime(user_, code);
  EXPECT_EQ(chain_.get_code(a), code);
  const auto meta = chain_.contract_meta(a);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->deploy_block, chain_.height());
  EXPECT_FALSE(meta->has_incoming_tx);
}

/// The oracle for the stored code hash: it is the keccak of the code the
/// account holds now.
void expect_stored_hash(const Blockchain& chain, const Address& a) {
  EXPECT_EQ(chain.code_hash(a), crypto::keccak256(chain.code_at(a)))
      << a.to_hex();
}

TEST_F(ChainTest, StoredCodeHashFollowsEveryCodeWrite) {
  // deploy_runtime, then set_code on the existing contract.
  const Address a =
      chain_.deploy_runtime(user_, ContractFactory::token_contract(4));
  expect_stored_hash(chain_, a);
  chain_.set_code(a, ContractFactory::token_contract(5));
  expect_stored_hash(chain_, a);
  EXPECT_EQ(chain_.code_hash(a),
            evm::code_hash(ContractFactory::token_contract(5)));

  // deploy() through init code (CREATE).
  const Bytes runtime = ContractFactory::token_contract(6);
  const auto created = chain_.deploy(user_, Assembler::wrap_initcode(runtime));
  ASSERT_TRUE(created.has_value());
  expect_stored_hash(chain_, *created);
  EXPECT_EQ(chain_.code_hash(*created), evm::code_hash(runtime));

  // An unknown address and a codeless EOA hash the empty code.
  const Address ghost = Address::from_label("chain.ghost");
  const Address eoa = Address::from_label("chain.eoa");
  chain_.fund(eoa, U256{5});
  for (const Address& codeless : {ghost, eoa}) {
    expect_stored_hash(chain_, codeless);
    EXPECT_EQ(chain_.code_hash(codeless), evm::kEmptyCodeHash);
  }
}

TEST_F(ChainTest, StoredCodeHashFollowsCreate2Redeploy) {
  // A metamorphic factory: its CREATE2 init code copies a template's code,
  // so the same salt and init code land different code at one address.
  const Address tmpl =
      chain_.deploy_runtime(user_, ContractFactory::token_contract(7));
  Assembler init;
  init.push_address(tmpl).op(Opcode::EXTCODESIZE);
  init.dup(1).push(U256{0}, 1).push(U256{0}, 1).push_address(tmpl);
  init.op(Opcode::EXTCODECOPY);
  init.push(U256{0}, 1).op(Opcode::RETURN);
  const Bytes init_code = init.assemble();

  Assembler factory;
  factory.push(U256{init_code.size()}, 2).push_label("init").push(U256{0}, 1);
  factory.op(Opcode::CODECOPY);
  factory.push(U256{0x5a17}, 2);  // salt
  factory.push(U256{init_code.size()}, 2).push(U256{0}, 1).push(U256{0}, 1);
  factory.op(Opcode::CREATE2).op(Opcode::STOP);
  factory.label("init").raw(init_code);
  const Address f = chain_.deploy_runtime(user_, factory.assemble());

  crypto::AddressBytes sender{};
  std::copy(f.bytes.begin(), f.bytes.end(), sender.begin());
  const Address target{
      crypto::create2_address(sender, U256{0x5a17}.to_be_bytes(), init_code)};

  ASSERT_TRUE(chain_.call(user_, f, {}).success());
  EXPECT_EQ(chain_.code_at(target), ContractFactory::token_contract(7));
  expect_stored_hash(chain_, target);

  chain_.set_code(tmpl, ContractFactory::token_contract(8));
  ASSERT_TRUE(chain_.call(user_, f, {}).success());
  EXPECT_EQ(chain_.code_at(target), ContractFactory::token_contract(8));
  expect_stored_hash(chain_, target);
  EXPECT_EQ(chain_.code_hash(target),
            evm::code_hash(ContractFactory::token_contract(8)));
}

TEST_F(ChainTest, DeployDistinctAddressesPerNonce) {
  const Address a = chain_.deploy_runtime(user_, {0x00});
  const Address b = chain_.deploy_runtime(user_, {0x00});
  EXPECT_NE(a, b);
}

TEST_F(ChainTest, CallExecutesAndMarksIncomingTx) {
  const Address token =
      chain_.deploy_runtime(user_, ContractFactory::token_contract(1));
  const auto r = chain_.call(user_, token, selector_calldata("totalSupply()"));
  EXPECT_TRUE(r.success());
  EXPECT_EQ(evm::U256::from_be_slice(r.return_data), U256{1'000'001});
  EXPECT_TRUE(chain_.contract_meta(token)->has_incoming_tx);
}

TEST_F(ChainTest, EachCallMinesABlock) {
  const Address token =
      chain_.deploy_runtime(user_, ContractFactory::token_contract(1));
  const auto h0 = chain_.height();
  chain_.call(user_, token, selector_calldata("totalSupply()"));
  chain_.call(user_, token, selector_calldata("totalSupply()"));
  EXPECT_EQ(chain_.height(), h0 + 2);
}

TEST_F(ChainTest, StorageHistoryTracksChanges) {
  const Address a = chain_.deploy_runtime(user_, {0x00});
  chain_.mine_until(10);
  chain_.set_storage(a, U256{0}, U256{111});
  chain_.mine_until(20);
  chain_.set_storage(a, U256{0}, U256{222});
  chain_.mine_until(30);

  EXPECT_EQ(chain_.storage_at(a, U256{0}, 5), U256{});
  EXPECT_EQ(chain_.storage_at(a, U256{0}, 10), U256{111});
  EXPECT_EQ(chain_.storage_at(a, U256{0}, 15), U256{111});
  EXPECT_EQ(chain_.storage_at(a, U256{0}, 20), U256{222});
  EXPECT_EQ(chain_.storage_at(a, U256{0}, 30), U256{222});
  // Live state agrees with the head of the journal.
  EXPECT_EQ(chain_.get_storage(a, U256{0}), U256{222});
}

TEST_F(ChainTest, SameBlockOverwriteKeepsLastValue) {
  const Address a = chain_.deploy_runtime(user_, {0x00});
  chain_.mine_until(5);
  chain_.set_storage(a, U256{3}, U256{1});
  chain_.set_storage(a, U256{3}, U256{2});
  EXPECT_EQ(chain_.storage_at(a, U256{3}, 5), U256{2});
}

TEST_F(ChainTest, UnknownSlotReadsZeroAtAnyHeight) {
  const Address a = chain_.deploy_runtime(user_, {0x00});
  EXPECT_EQ(chain_.storage_at(a, U256{42}, 0), U256{});
  EXPECT_EQ(chain_.storage_at(Address::from_label("ghost"), U256{0}, 100),
            U256{});
}

TEST_F(ChainTest, InternalTxLogRecordsDelegatecalls) {
  const Address logic = chain_.deploy_runtime(
      user_, ContractFactory::plain_contract(
                 {{.prototype = "f()", .body = BodyKind::kStop}}));
  const Address proxy =
      chain_.deploy_runtime(user_, ContractFactory::minimal_proxy(logic));

  ASSERT_TRUE(chain_.internal_txs().empty());
  chain_.call(user_, proxy, selector_calldata("f()"));
  ASSERT_EQ(chain_.internal_txs().size(), 1u);
  const InternalTx& tx = chain_.internal_txs()[0];
  EXPECT_EQ(tx.kind, evm::CallKind::kDelegateCall);
  EXPECT_EQ(tx.from, proxy);
  EXPECT_EQ(tx.to, logic);
  EXPECT_TRUE(tx.in_fallback_position);  // full calldata forwarded
  EXPECT_EQ(tx.selector, crypto::selector_u32("f()"));
}

TEST_F(ChainTest, LibraryCallAlsoAppearsInInternalTxLog) {
  // ... which is exactly why tx-mining tools (CRUSH) over-approximate.
  const Address lib =
      chain_.deploy_runtime(user_, ContractFactory::math_library());
  const Address lib_user =
      chain_.deploy_runtime(user_, ContractFactory::library_user(lib));
  chain_.call(user_, lib_user, selector_calldata("compute(uint256)"));
  ASSERT_EQ(chain_.internal_txs().size(), 1u);
  EXPECT_EQ(chain_.internal_txs()[0].kind, evm::CallKind::kDelegateCall);
  EXPECT_EQ(chain_.internal_txs()[0].from, lib_user);
  EXPECT_EQ(chain_.internal_txs()[0].to, lib);
}

TEST_F(ChainTest, CallWithValueMovesBalance) {
  const Address sink = chain_.deploy_runtime(user_, {0x00});  // STOP
  chain_.fund(user_, U256{1000});
  const auto r = chain_.call(user_, sink, {}, U256{250});
  EXPECT_TRUE(r.success());
  EXPECT_EQ(chain_.get_balance(sink), U256{250});
  EXPECT_EQ(chain_.get_balance(user_), U256{750});
}

TEST_F(ChainTest, CallWithInsufficientBalanceReverts) {
  const Address sink = chain_.deploy_runtime(user_, {0x00});
  const auto r = chain_.call(user_, sink, {}, U256{250});
  EXPECT_FALSE(r.success());
  EXPECT_EQ(chain_.get_balance(sink), U256{});
}

TEST_F(ChainTest, DeployWithInitCode) {
  const Bytes runtime = ContractFactory::token_contract(3);
  const Bytes init = Assembler::wrap_initcode(runtime, {{U256{0}, U256{77}}});
  const auto deployed = chain_.deploy(user_, init);
  ASSERT_TRUE(deployed.has_value());
  EXPECT_EQ(chain_.get_code(*deployed), runtime);
  EXPECT_EQ(chain_.get_storage(*deployed, U256{0}), U256{77});
  // Constructor writes are journaled too.
  EXPECT_EQ(chain_.storage_at(*deployed, U256{0}, chain_.height()), U256{77});
}

TEST_F(ChainTest, RevertingInitCodeReturnsNullopt) {
  EXPECT_EQ(chain_.deploy(user_, Bytes{0xfd}), std::nullopt);
}

TEST_F(ChainTest, BlockContextAdvances) {
  const U256 n0 = chain_.block_context().number;
  chain_.mine_block();
  EXPECT_EQ(chain_.block_context().number, n0 + U256{1});
  EXPECT_NE(chain_.block_hash(0), chain_.block_hash(1));
  EXPECT_EQ(chain_.block_hash(999'999), U256{});  // future blocks unknown
}

TEST(ArchiveNodeTest, CountsApiCalls) {
  Blockchain chain;
  const Address user = Address::from_label("user");
  const Address a = chain.deploy_runtime(user, {0x00});
  chain.mine_until(50);
  chain.set_storage(a, U256{0}, U256{9});

  ArchiveNode node(chain);
  EXPECT_EQ(node.get_storage_at_calls(), 0u);
  EXPECT_EQ(node.get_storage_at(a, U256{0}, 50), U256{9});
  EXPECT_EQ(node.get_storage_at(a, U256{0}, 10), U256{});
  EXPECT_EQ(node.get_storage_at_calls(), 2u);
  node.get_code(a);
  EXPECT_EQ(node.get_code_calls(), 1u);
  node.reset_counters();
  EXPECT_EQ(node.get_storage_at_calls(), 0u);
  EXPECT_EQ(node.latest_block(), chain.height());
}

}  // namespace
