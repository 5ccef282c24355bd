// The batched archive-read path: batch/scalar equivalence through every
// decorator and whole-batch abort semantics under injected faults (no
// partial results).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "chain/archive_node.h"
#include "chain/blockchain.h"
#include "chain/fault_injection.h"
#include "chain/resilient_node.h"
#include "datagen/contract_factory.h"
#include "util/resilience.h"

namespace {

using namespace proxion;
using chain::ArchiveNode;
using chain::Blockchain;
using chain::FaultInjectingArchiveNode;
using chain::FaultProfile;
using chain::ResilientArchiveNode;
using chain::RpcError;
using chain::StorageQuery;
using datagen::ContractFactory;
using evm::Address;
using evm::U256;

/// A chain with two accounts whose slots change at known historical heights,
/// then plenty of sealed history on top.
class ArchiveBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    deployer_ = Address::from_label("batch.deployer");
    a_ = chain_.deploy_runtime(deployer_, ContractFactory::token_contract(1));
    b_ = chain_.deploy_runtime(deployer_, ContractFactory::token_contract(2));
    chain_.mine_until(100);
    chain_.set_storage(a_, kSlot, U256{0xaaaa});
    chain_.set_storage(b_, kSlot, U256{0xb0b0});
    chain_.mine_until(500);
    chain_.set_storage(a_, kSlot, U256{0xaaab});
    chain_.mine_until(1000);
  }

  /// Probes across both accounts at a spread of heights, duplicates included.
  std::vector<StorageQuery> mixed_queries() const {
    return {
        {a_, kSlot, 50},  {a_, kSlot, 100}, {a_, kSlot, 300},
        {a_, kSlot, 500}, {a_, kSlot, 999}, {b_, kSlot, 100},
        {b_, kSlot, 700}, {a_, kSlot, 300},  // duplicate of [2]
    };
  }

  static constexpr U256 kSlot{7};
  Blockchain chain_;
  Address deployer_, a_, b_;
};

TEST_F(ArchiveBatchTest, BatchMatchesScalarCallByCall) {
  ArchiveNode node(chain_);
  const auto queries = mixed_queries();
  const auto batched = node.get_storage_at_many(queries);
  ASSERT_EQ(batched.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batched[i], node.get_storage_at(queries[i].account,
                                              queries[i].slot,
                                              queries[i].block))
        << "query " << i;
  }
}

TEST_F(ArchiveBatchTest, BatchCountsOneCallPerQuery) {
  ArchiveNode node(chain_);
  node.reset_counters();
  const auto queries = mixed_queries();
  (void)node.get_storage_at_many(queries);
  EXPECT_EQ(node.get_storage_at_calls(), queries.size());
}

TEST_F(ArchiveBatchTest, DefaultBatchImplEqualsScalarLoop) {
  // A backend that only implements the scalar call inherits a batch method
  // that must agree with it exactly.
  class ScalarOnlyNode final : public chain::IArchiveNode {
   public:
    explicit ScalarOnlyNode(const Blockchain& chain) : chain_(chain) {}
    U256 get_storage_at(const Address& account, const U256& slot,
                        std::uint64_t block) const override {
      return chain_.storage_at(account, slot, block);
    }
    evm::Bytes get_code(const Address& account) const override {
      return chain_.code_at(account);
    }
    std::uint64_t latest_block() const override { return chain_.height(); }
    std::uint64_t get_storage_at_calls() const override { return 0; }
    std::uint64_t get_code_calls() const override { return 0; }
    void reset_counters() const override {}

   private:
    const Blockchain& chain_;
  };

  ScalarOnlyNode node(chain_);
  ArchiveNode reference(chain_);
  const auto queries = mixed_queries();
  EXPECT_EQ(node.get_storage_at_many(queries),
            reference.get_storage_at_many(queries));
}

TEST_F(ArchiveBatchTest, MidBatchFaultAbortsWholeBatchThenHealsCleanly) {
  ArchiveNode inner(chain_);
  FaultProfile profile;
  profile.seed = 21;
  profile.transient_rate = 0.5;  // some — not all — queries draw a fault
  profile.failures_per_fault = 1;
  FaultInjectingArchiveNode faulty(inner, profile);

  const auto queries = mixed_queries();
  const auto expected = inner.get_storage_at_many(queries);

  // The faulted batch throws as a whole: no partial results to corrupt.
  EXPECT_THROW((void)faulty.get_storage_at_many(queries), RpcError);
  EXPECT_GT(faulty.injected_faults(), 0u);

  // One batch attempt consumes every armed key's fault budget (scalar
  // parity: one attempt per key), so with single-failure budgets the very
  // next retry succeeds — and its results are the true values, nothing
  // stale or shifted by the earlier abort.
  EXPECT_EQ(faulty.get_storage_at_many(queries), expected);
}

TEST_F(ArchiveBatchTest, ResilientNodeRetriesTheWholeBatch) {
  ArchiveNode inner(chain_);
  FaultProfile profile;
  profile.seed = 33;
  profile.transient_rate = 0.6;
  profile.failures_per_fault = 2;
  FaultInjectingArchiveNode faulty(inner, profile);

  // Every faulty key fails twice and each batch attempt burns one failure
  // per armed key, so the third attempt goes clean — comfortably inside
  // the default-sized retry ladder, exactly as the scalar path would be.
  util::RetryPolicy retry;
  retry.max_attempts = 4;
  retry.base_delay_us = 1;
  retry.max_delay_us = 10;
  ResilientArchiveNode node(faulty, retry, {}, [](std::uint32_t) {});

  const auto queries = mixed_queries();
  EXPECT_EQ(node.get_storage_at_many(queries),
            inner.get_storage_at_many(queries));
  EXPECT_GT(node.retries(), 0u);
  EXPECT_EQ(node.giveups(), 0u);
}

}  // namespace
