// The fault-tolerance subsystem end to end: backoff shaping, the circuit
// breaker state machine, deterministic fault injection, retry convergence,
// and the pipeline-level acceptance properties — a faulty sweep with retries
// is bit-identical to a fault-free one, exhausted retries quarantine instead
// of aborting, a durable sweep's next boot converges, and adversarial
// bytecode halts at the step fuse instead of hanging the sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <string>
#include <unordered_map>
#include <thread>
#include <vector>

#include "chain/archive_node.h"
#include "chain/blockchain.h"
#include "chain/fault_injection.h"
#include "chain/resilient_node.h"
#include "core/pipeline.h"
#include "datagen/contract_factory.h"
#include "datagen/population.h"
#include "record_oracle.h"
#include "store/durable_sweep.h"
#include "util/resilience.h"

namespace {

using namespace proxion;
using namespace proxion::core;
using chain::FaultInjectingArchiveNode;
using chain::FaultProfile;
using chain::ResilientArchiveNode;
using chain::RpcError;
using chain::RpcErrorKind;
using datagen::ContractFactory;
using datagen::Population;
using datagen::PopulationGenerator;
using datagen::PopulationSpec;
using util::BackoffSequence;
using util::CircuitBreaker;
using util::CircuitBreakerConfig;
using util::RetryPolicy;
using util::Watchdog;
using util::WatchdogExpired;

/// Retry shape used throughout: enough budget to outlast default fault
/// healing, microsecond-scale delays so tests never visibly sleep.
RetryPolicy fast_retry() {
  RetryPolicy p;
  p.max_attempts = 6;
  p.base_delay_us = 1;
  p.max_delay_us = 20;
  return p;
}

// ---------------------------------------------------------------------------
// BackoffSequence
// ---------------------------------------------------------------------------

TEST(BackoffSequenceTest, DelaysStayWithinPolicyBounds) {
  RetryPolicy policy;
  policy.base_delay_us = 100;
  policy.max_delay_us = 2'000;
  BackoffSequence seq(policy, /*salt=*/7);
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t d = seq.next();
    EXPECT_GE(d, policy.base_delay_us);
    EXPECT_LE(d, policy.max_delay_us);
  }
}

TEST(BackoffSequenceTest, DeterministicPerSeedAndSalt) {
  RetryPolicy policy;
  BackoffSequence a(policy, 3), b(policy, 3), c(policy, 4);
  bool salted_differs = false;
  for (int i = 0; i < 16; ++i) {
    const std::uint32_t da = a.next();
    EXPECT_EQ(da, b.next());
    salted_differs |= (da != c.next());
  }
  // Different salts must decorrelate (the anti-thundering-herd property).
  EXPECT_TRUE(salted_differs);
}

// ---------------------------------------------------------------------------
// CircuitBreaker
// ---------------------------------------------------------------------------

struct FakeClock {
  std::uint64_t now_us = 0;
  CircuitBreaker::Clock fn() {
    return [this] { return now_us; };
  }
};

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailuresAndFastFails) {
  FakeClock clock;
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 3;
  cfg.cooldown_us = 100;
  CircuitBreaker breaker(cfg, clock.fn());

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.allow());
    breaker.on_failure();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
  EXPECT_FALSE(breaker.allow());  // fast-fail while cooling down
}

TEST(CircuitBreakerTest, HalfOpenAdmitsExactlyOneProbe) {
  FakeClock clock;
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 1;
  cfg.cooldown_us = 100;
  CircuitBreaker breaker(cfg, clock.fn());

  ASSERT_TRUE(breaker.allow());
  breaker.on_failure();  // trips immediately
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  clock.now_us = 99;
  EXPECT_FALSE(breaker.allow());
  clock.now_us = 100;
  EXPECT_TRUE(breaker.allow());   // the probe
  EXPECT_FALSE(breaker.allow());  // everyone else still fast-fails
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);

  breaker.on_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow());
}

TEST(CircuitBreakerTest, FailedProbeReopensAndResetCloses) {
  FakeClock clock;
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 1;
  cfg.cooldown_us = 50;
  CircuitBreaker breaker(cfg, clock.fn());

  ASSERT_TRUE(breaker.allow());
  breaker.on_failure();
  clock.now_us = 50;
  ASSERT_TRUE(breaker.allow());  // probe
  breaker.on_failure();          // probe failed -> open again, new cooldown
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 2u);
  clock.now_us = 99;
  EXPECT_FALSE(breaker.allow());

  breaker.reset();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow());
  EXPECT_EQ(breaker.trips(), 2u);  // history preserved
}

TEST(CircuitBreakerTest, SuccessZeroesTheFailureRunOnTheLockFreePath) {
  // A success between two sub-threshold failure runs must restart the
  // count even though a quiet breaker's success takes no lock.
  FakeClock clock;
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 5;
  cfg.cooldown_us = 100;
  CircuitBreaker breaker(cfg, clock.fn());

  for (unsigned i = 0; i + 1 < cfg.failure_threshold; ++i) {
    ASSERT_TRUE(breaker.allow());
    breaker.on_failure();
  }
  ASSERT_TRUE(breaker.allow());
  breaker.on_success();
  for (unsigned i = 0; i + 1 < cfg.failure_threshold; ++i) {
    ASSERT_TRUE(breaker.allow());
    breaker.on_failure();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.trips(), 0u);

  ASSERT_TRUE(breaker.allow());
  breaker.on_failure();  // the threshold-th in a row
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
  EXPECT_FALSE(breaker.allow());

  breaker.reset();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow());
  EXPECT_TRUE(breaker.allow());
}

TEST(CircuitBreakerTest, ConcurrentTrafficWithFailureBurstsEndsClosed) {
  // Four threads hammer the lock-free allow()/on_success() path while short
  // failure bursts flip the breaker in and out of its locked states (three
  // threads bursting at once can trip it; the zero cooldown half-opens it
  // again). Under TSan this is the data-race check for the quiet flag.
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 8;
  cfg.cooldown_us = 0;
  CircuitBreaker breaker(cfg);

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&breaker, t] {
      for (int i = 0; i < 20'000; ++i) {
        if (!breaker.allow()) continue;
        if ((i + t * 7) % 97 < 3) {
          breaker.on_failure();
        } else {
          breaker.on_success();
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  ASSERT_TRUE(breaker.allow());
  breaker.on_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  // The final success left a zero failure run behind it.
  for (unsigned i = 0; i + 1 < cfg.failure_threshold; ++i) {
    ASSERT_TRUE(breaker.allow());
    breaker.on_failure();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(WatchdogTest, ZeroBudgetNeverExpiresAndTinyBudgetThrows) {
  Watchdog unlimited(0.0);
  EXPECT_FALSE(unlimited.expired());
  EXPECT_NO_THROW(unlimited.check("anywhere"));

  Watchdog tiny(1e-9);
  while (!tiny.expired()) {
  }
  EXPECT_THROW(tiny.check("pair-collisions"), WatchdogExpired);
}

// ---------------------------------------------------------------------------
// FaultInjectingArchiveNode
// ---------------------------------------------------------------------------

class FaultNodeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    deployer_ = evm::Address::from_label("deployer");
    for (std::uint64_t i = 0; i < 64; ++i) {
      targets_.push_back(chain_.deploy_runtime(
          deployer_, ContractFactory::token_contract(i)));
    }
  }

  chain::Blockchain chain_;
  evm::Address deployer_;
  std::vector<evm::Address> targets_;
};

TEST_F(FaultNodeTest, FaultDecisionIsAPureFunctionOfSeedAndRequest) {
  chain::ArchiveNode inner(chain_);
  FaultProfile profile;
  profile.seed = 42;
  profile.transient_rate = 0.3;
  profile.failures_per_fault = 1'000'000;  // never heals within the test

  auto faulting_set = [&](const std::vector<evm::Address>& order) {
    FaultInjectingArchiveNode node(inner, profile);
    std::vector<evm::Address> faulted;
    for (const auto& a : order) {
      try {
        (void)node.get_code(a);
      } catch (const RpcError&) {
        faulted.push_back(a);
      }
    }
    std::sort(faulted.begin(), faulted.end(),
              [](const evm::Address& x, const evm::Address& y) {
                return x.bytes < y.bytes;
              });
    return faulted;
  };

  std::vector<evm::Address> reversed(targets_.rbegin(), targets_.rend());
  const auto forward = faulting_set(targets_);
  const auto backward = faulting_set(reversed);
  EXPECT_EQ(forward, backward);  // call order is irrelevant
  EXPECT_FALSE(forward.empty());
  EXPECT_LT(forward.size(), targets_.size());
}

TEST_F(FaultNodeTest, FaultyRequestsHealAfterTheirBudgetAndConverge) {
  chain::ArchiveNode inner(chain_);
  FaultProfile profile;
  profile.seed = 7;
  profile.transient_rate = 1.0;  // every request is faulty...
  profile.failures_per_fault = 2;  // ...for exactly two attempts
  FaultInjectingArchiveNode node(inner, profile);

  const evm::Address& a = targets_.front();
  EXPECT_THROW((void)node.get_code(a), RpcError);
  EXPECT_THROW((void)node.get_code(a), RpcError);
  const evm::Bytes healed = node.get_code(a);
  EXPECT_EQ(healed, inner.get_code(a));  // true value, not stale/corrupt
  EXPECT_NO_THROW((void)node.get_code(a));  // stays healed
  EXPECT_EQ(node.injected_faults(), 2u);
}

TEST_F(FaultNodeTest, RateLimitBurstsOutlastSingleFailureFaults) {
  chain::ArchiveNode inner(chain_);
  FaultProfile profile;
  profile.seed = 9;
  profile.rate_limit_rate = 1.0;
  profile.failures_per_fault = 1;
  profile.rate_limit_burst = 3;
  FaultInjectingArchiveNode node(inner, profile);

  const evm::Address& a = targets_.front();
  for (int i = 0; i < 3; ++i) {
    try {
      (void)node.get_code(a);
      FAIL() << "attempt " << i << " should have been rate-limited";
    } catch (const RpcError& e) {
      EXPECT_EQ(e.kind(), RpcErrorKind::kRateLimited);
      EXPECT_TRUE(e.retriable());
    }
  }
  EXPECT_NO_THROW((void)node.get_code(a));
}

TEST_F(FaultNodeTest, StaleReadsSurfaceAsErrorsNeverAsStaleData) {
  // The stale-read mode must never silently return an old value — that
  // would break bit-identity. It throws like every other fault.
  chain::ArchiveNode inner(chain_);
  FaultProfile profile;
  profile.seed = 11;
  profile.stale_read_rate = 1.0;
  FaultInjectingArchiveNode node(inner, profile);

  try {
    (void)node.get_storage_at(targets_.front(), evm::U256{0}, 1);
    FAIL() << "expected a stale-read fault";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.kind(), RpcErrorKind::kStaleRead);
  }
}

TEST_F(FaultNodeTest, HealStopsInjectionEntirely) {
  chain::ArchiveNode inner(chain_);
  FaultProfile profile;
  profile.transient_rate = 1.0;
  profile.failures_per_fault = 1'000'000;
  FaultInjectingArchiveNode node(inner, profile);

  EXPECT_THROW((void)node.get_code(targets_.front()), RpcError);
  node.heal();
  for (const auto& a : targets_) {
    EXPECT_NO_THROW((void)node.get_code(a));
  }
}

// ---------------------------------------------------------------------------
// ResilientArchiveNode
// ---------------------------------------------------------------------------

TEST_F(FaultNodeTest, RetriesAbsorbBoundedFaultsTransparently) {
  chain::ArchiveNode inner(chain_);
  FaultProfile profile;
  profile.seed = 3;
  profile.transient_rate = 0.5;
  profile.failures_per_fault = 2;
  FaultInjectingArchiveNode faulty(inner, profile);

  std::uint64_t slept_us = 0;
  ResilientArchiveNode node(faulty, fast_retry(), {},
                            [&](std::uint32_t us) { slept_us += us; });
  for (const auto& a : targets_) {
    EXPECT_EQ(node.get_code(a), inner.get_code(a));
  }
  EXPECT_GT(node.faults_seen(), 0u);
  EXPECT_EQ(node.retries(), node.faults_seen());  // every fault was retried
  EXPECT_EQ(node.giveups(), 0u);
  EXPECT_GT(slept_us, 0u);  // backoff actually engaged
}

TEST_F(FaultNodeTest, SuccessfulCallsDoNotAdvanceTheJitterSalt) {
  // The backoff salt is drawn when a call first fails, so a failing call
  // sleeps the same sequence whether or not successful calls ran before it.
  chain::ArchiveNode inner(chain_);
  FaultProfile profile;
  profile.seed = 5;
  profile.transient_rate = 1.0;
  profile.failures_per_fault = 4;
  profile.fault_get_storage_at = false;  // storage reads always succeed

  RetryPolicy policy = fast_retry();
  policy.base_delay_us = 100;
  policy.max_delay_us = 1'000'000;
  auto failing_call_sleeps = [&](int successes_first) {
    FaultInjectingArchiveNode faulty(inner, profile);
    std::vector<std::uint32_t> sleeps;
    ResilientArchiveNode node(faulty, policy, {},
                              [&](std::uint32_t us) { sleeps.push_back(us); });
    for (int i = 0; i < successes_first; ++i) {
      (void)node.get_storage_at(targets_[i % targets_.size()], evm::U256{0},
                                chain_.height());
    }
    EXPECT_TRUE(sleeps.empty());
    EXPECT_EQ(node.get_code(targets_.front()), inner.get_code(targets_.front()));
    return sleeps;
  };

  const std::vector<std::uint32_t> fresh = failing_call_sleeps(0);
  ASSERT_EQ(fresh.size(), profile.failures_per_fault);
  EXPECT_EQ(failing_call_sleeps(1), fresh);
  EXPECT_EQ(failing_call_sleeps(37), fresh);
}

TEST_F(FaultNodeTest, ExhaustedBudgetSurfacesAsTerminalRpcError) {
  chain::ArchiveNode inner(chain_);
  FaultProfile profile;
  profile.seed = 3;
  profile.transient_rate = 1.0;
  profile.failures_per_fault = 1'000'000;  // outlasts any retry budget
  FaultInjectingArchiveNode faulty(inner, profile);

  ResilientArchiveNode node(faulty, fast_retry(), {},
                            [](std::uint32_t) {});
  try {
    (void)node.get_code(targets_.front());
    FAIL() << "expected kExhausted";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.kind(), RpcErrorKind::kExhausted);
    EXPECT_FALSE(e.retriable());
  }
  EXPECT_EQ(node.giveups(), 1u);
}

TEST_F(FaultNodeTest, OpenBreakerFastFailsWithoutTouchingTheBackend) {
  chain::ArchiveNode inner(chain_);
  FaultProfile profile;
  profile.transient_rate = 1.0;
  profile.failures_per_fault = 1'000'000;
  FaultInjectingArchiveNode faulty(inner, profile);

  CircuitBreakerConfig breaker;
  breaker.failure_threshold = 4;
  breaker.cooldown_us = 1'000'000'000;  // stays open for the whole test
  ResilientArchiveNode node(faulty, fast_retry(), breaker,
                            [](std::uint32_t) {});

  EXPECT_THROW((void)node.get_code(targets_[0]), RpcError);  // trips it
  ASSERT_EQ(node.breaker().state(), CircuitBreaker::State::kOpen);

  const std::uint64_t backend_faults = faulty.injected_faults();
  try {
    (void)node.get_code(targets_[1]);
    FAIL() << "expected kCircuitOpen";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.kind(), RpcErrorKind::kCircuitOpen);
  }
  EXPECT_EQ(faulty.injected_faults(), backend_faults);  // never asked
  EXPECT_EQ(node.breaker().trips(), 1u);
}

// ---------------------------------------------------------------------------
// Pipeline-level acceptance properties
// ---------------------------------------------------------------------------

/// Counts the storage queries that reach the backend, per account.
class StorageQueriesPerAccount final : public chain::IArchiveNode {
 public:
  explicit StorageQueriesPerAccount(const chain::IArchiveNode& inner)
      : inner_(inner) {}

  evm::U256 get_storage_at(const evm::Address& account, const evm::U256& slot,
                           std::uint64_t block) const override {
    count(account);
    return inner_.get_storage_at(account, slot, block);
  }
  std::vector<evm::U256> get_storage_at_many(
      std::span<const chain::StorageQuery> queries) const override {
    for (const chain::StorageQuery& q : queries) count(q.account);
    return inner_.get_storage_at_many(queries);
  }
  evm::Bytes get_code(const evm::Address& account) const override {
    return inner_.get_code(account);
  }
  std::uint64_t latest_block() const override { return inner_.latest_block(); }
  std::uint64_t get_storage_at_calls() const override {
    return inner_.get_storage_at_calls();
  }
  std::uint64_t get_code_calls() const override {
    return inner_.get_code_calls();
  }
  void reset_counters() const override { inner_.reset_counters(); }

  std::uint64_t queries(const evm::Address& account) const {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = queries_.find(account);
    return it == queries_.end() ? 0 : it->second;
  }

 private:
  void count(const evm::Address& account) const {
    std::lock_guard<std::mutex> lk(mu_);
    ++queries_[account];
  }

  const chain::IArchiveNode& inner_;
  mutable std::mutex mu_;
  mutable std::unordered_map<evm::Address, std::uint64_t, evm::AddressHasher>
      queries_;
};

/// Every storage batch that asks `victim`'s slot fails with a transient
/// error, on every attempt.
class SlotOutageNode final : public chain::IArchiveNode {
 public:
  SlotOutageNode(const chain::IArchiveNode& inner, const evm::Address& victim)
      : inner_(inner), victim_(victim) {}

  evm::U256 get_storage_at(const evm::Address& account, const evm::U256& slot,
                           std::uint64_t block) const override {
    if (account == victim_) fail();
    return inner_.get_storage_at(account, slot, block);
  }
  std::vector<evm::U256> get_storage_at_many(
      std::span<const chain::StorageQuery> queries) const override {
    for (const chain::StorageQuery& q : queries) {
      if (q.account == victim_) fail();
    }
    return inner_.get_storage_at_many(queries);
  }
  evm::Bytes get_code(const evm::Address& account) const override {
    return inner_.get_code(account);
  }
  std::uint64_t latest_block() const override { return inner_.latest_block(); }
  std::uint64_t get_storage_at_calls() const override {
    return inner_.get_storage_at_calls();
  }
  std::uint64_t get_code_calls() const override {
    return inner_.get_code_calls();
  }
  void reset_counters() const override { inner_.reset_counters(); }

 private:
  [[noreturn]] static void fail() {
    throw RpcError(RpcErrorKind::kTransient, "victim slot unreachable");
  }

  const chain::IArchiveNode& inner_;
  evm::Address victim_;
};

class FaultSweepTest : public ::testing::Test {
 protected:
  static Population make_population(std::uint32_t n) {
    PopulationSpec spec;
    spec.total_contracts = n;
    return PopulationGenerator().generate(spec);
  }

  static PipelineConfig faulted_config(chain::IArchiveNode* backend) {
    PipelineConfig cfg;
    cfg.archive_node = backend;
    cfg.retry = fast_retry();
    return cfg;
  }

  /// A durable-sweep config journaling to a fresh temp file named `name`.
  static store::DurableSweepConfig sweep_config(const std::string& name) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "proxion_resilience_tests";
    fs::create_directories(dir);
    store::DurableSweepConfig sc;
    sc.journal_path = (dir / name).string();
    fs::remove(sc.journal_path);
    fs::remove(store::manifest_path_for(sc.journal_path));
    return sc;
  }

  /// The last journaled report per input, in input order.
  static std::vector<ContractAnalysis> journaled(
      const std::string& journal, const std::vector<SweepInput>& inputs) {
    const test_oracle::RecordMap records = test_oracle::last_records(journal);
    std::vector<ContractAnalysis> out;
    for (const SweepInput& input : inputs) {
      out.push_back(records.at(input.address).analysis);
    }
    return out;
  }
};

TEST_F(FaultSweepTest, TenPercentFaultsWithRetriesIsBitIdenticalToFaultFree) {
  Population pop = make_population(400);
  const auto inputs = pop.sweep_inputs();

  AnalysisPipeline clean_pipeline(*pop.chain, &pop.sources);
  const auto clean = clean_pipeline.run(inputs);

  chain::ArchiveNode inner(*pop.chain);
  FaultProfile profile;
  profile.seed = 1234;
  profile.transient_rate = 0.04;
  profile.timeout_rate = 0.03;
  profile.rate_limit_rate = 0.02;
  profile.stale_read_rate = 0.01;  // 10% overall
  FaultInjectingArchiveNode faulty(inner, profile);

  AnalysisPipeline pipeline(*pop.chain, &pop.sources, faulted_config(&faulty));
  const auto reports = pipeline.run(inputs);

  EXPECT_GT(faulty.injected_faults(), 0u) << "fault injection never engaged";
  ASSERT_EQ(reports.size(), clean.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i], clean[i]) << "report " << i << " diverged";
  }

  const LandscapeStats stats = pipeline.summarize(reports);
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_EQ(stats.analyzed_contracts, stats.total_contracts);
  EXPECT_GT(stats.rpc_retries, 0u);
  EXPECT_EQ(stats.rpc_giveups, 0u);
  EXPECT_EQ(stats.breaker_trips, 0u);
}

TEST_F(FaultSweepTest, ExhaustedRetriesQuarantineAndResumeConverges) {
  Population pop = make_population(300);
  const auto inputs = pop.sweep_inputs();

  AnalysisPipeline clean_pipeline(*pop.chain, &pop.sources);
  const auto clean = clean_pipeline.run(inputs);

  chain::ArchiveNode inner(*pop.chain);
  FaultProfile profile;
  profile.seed = 99;
  profile.transient_rate = 0.10;
  profile.failures_per_fault = 1'000'000;  // outlasts the retry budget
  FaultInjectingArchiveNode faulty(inner, profile);

  AnalysisPipeline pipeline(*pop.chain, &pop.sources, faulted_config(&faulty));
  const store::DurableSweepConfig sc = sweep_config("outage.journal");
  const store::DurableSweepResult outage =
      store::DurableSweep(pipeline, *pop.chain, &pop.sources, sc).run(inputs);
  ASSERT_TRUE(outage.error.empty()) << outage.error;
  auto reports = journaled(sc.journal_path, inputs);

  const LandscapeStats partial = pipeline.summarize(reports);
  ASSERT_GT(partial.quarantined, 0u) << "the outage quarantined nothing";
  EXPECT_LT(partial.quarantined, partial.total_contracts);
  EXPECT_EQ(partial.analyzed_contracts,
            partial.total_contracts - partial.quarantined);
  std::uint64_t exhausted = 0;
  for (const auto& [kind, n] : partial.errors_by_kind) {
    if (kind == ErrorKind::kRpcExhausted) exhausted += n;
  }
  EXPECT_GT(exhausted, 0u);
  EXPECT_GT(partial.rpc_giveups, 0u);
  for (const auto& r : reports) {
    if (r.quarantined()) {
      EXPECT_EQ(r.error->kind, ErrorKind::kRpcExhausted);
      EXPECT_FALSE(r.error->phase.empty());
    }
  }

  // The backend recovers; a restarted service boots from the journal,
  // retries the quarantined set, and the journaled reports converge to
  // exactly the fault-free run's.
  faulty.heal();
  store::DurableSweep restarted(pipeline, *pop.chain, &pop.sources, sc);
  const store::DurableSweepResult healed = restarted.incremental(inputs, {});
  ASSERT_TRUE(healed.error.empty()) << healed.error;
  EXPECT_EQ(healed.stats.quarantined, 0u);
  EXPECT_GT(healed.recomputed, 0u);
  reports = journaled(sc.journal_path, inputs);
  ASSERT_EQ(reports.size(), clean.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i], clean[i]) << "healed report " << i << " diverged";
  }
  // A lap over healthy records is a no-op.
  EXPECT_EQ(restarted.incremental(inputs, {}).recomputed, 0u);
}

TEST_F(FaultSweepTest, PermanentSlotFaultQuarantinesOnlyThatProxy) {
  // Every proxy's logic search shares each depth's archive batch; a proxy
  // whose slot reads never succeed must still fail alone.
  Population pop = make_population(300);
  const auto inputs = pop.sweep_inputs();

  AnalysisPipeline clean_pipeline(*pop.chain, &pop.sources);
  const auto clean = clean_pipeline.run(inputs);

  std::unordered_map<evm::Address, unsigned, evm::AddressHasher> occurrences;
  for (const SweepInput& input : inputs) ++occurrences[input.address];
  std::size_t victim = clean.size();
  for (std::size_t i = 0; i < clean.size(); ++i) {
    if (!clean[i].quarantined() && clean[i].logic_history.api_calls > 0 &&
        occurrences[inputs[i].address] == 1) {
      victim = i;
      break;
    }
  }
  ASSERT_LT(victim, clean.size()) << "no slot proxy to fail";

  chain::ArchiveNode inner(*pop.chain);
  StorageQueriesPerAccount backend(inner);
  SlotOutageNode faulty(backend, inputs[victim].address);
  AnalysisPipeline pipeline(*pop.chain, &pop.sources, faulted_config(&faulty));
  const auto reports = pipeline.run(inputs);
  ASSERT_EQ(reports.size(), clean.size());

  ASSERT_TRUE(reports[victim].quarantined());
  EXPECT_EQ(reports[victim].error->kind, ErrorKind::kRpcExhausted);
  EXPECT_EQ(reports[victim].error->phase, "pairs");
  EXPECT_EQ(backend.queries(inputs[victim].address), 0u);

  std::unordered_map<evm::Address, std::uint64_t, evm::AddressHasher>
      api_calls;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (i == victim) continue;
    EXPECT_EQ(reports[i], clean[i]) << "report " << i << " diverged";
    api_calls[inputs[i].address] += reports[i].logic_history.api_calls;
  }
  // Each survivor's search reached the backend exactly as often as it
  // reports: the depth whose shared batch failed was asked again per
  // target without repeating an answered height.
  for (const auto& [address, calls] : api_calls) {
    EXPECT_EQ(backend.queries(address), calls) << address.to_hex();
  }

  const LandscapeStats stats = pipeline.summarize(reports);
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_GT(stats.rpc_giveups, 0u);
}

TEST_F(FaultSweepTest, RetriesDisabledQuarantinesEveryFaultedContract) {
  Population pop = make_population(200);
  const auto inputs = pop.sweep_inputs();

  chain::ArchiveNode inner(*pop.chain);
  FaultProfile profile;
  profile.seed = 5;
  profile.transient_rate = 0.10;
  FaultInjectingArchiveNode faulty(inner, profile);

  PipelineConfig cfg;
  cfg.archive_node = &faulty;
  cfg.enable_retries = false;
  AnalysisPipeline pipeline(*pop.chain, &pop.sources, cfg);
  const auto reports = pipeline.run(inputs);

  const LandscapeStats stats = pipeline.summarize(reports);
  EXPECT_GT(stats.quarantined, 0u);
  EXPECT_EQ(stats.rpc_retries, 0u);
  for (const auto& r : reports) {
    if (r.quarantined()) {
      EXPECT_EQ(r.error->kind, ErrorKind::kRpcTransient);
    }
  }
}

TEST_F(FaultSweepTest, AdversarialBytecodeHaltsAtTheStepFuseNotForever) {
  chain::Blockchain chain;
  const auto deployer = evm::Address::from_label("deployer");
  const auto spinner =
      chain.deploy_runtime(deployer, ContractFactory::infinite_loop_contract());
  const auto recurser =
      chain.deploy_runtime(deployer, ContractFactory::deep_recursion_contract());
  const auto honest =
      chain.deploy_runtime(deployer, ContractFactory::token_contract(1));

  std::vector<SweepInput> inputs = {
      {.address = spinner}, {.address = recurser}, {.address = honest}};

  PipelineConfig cfg;
  cfg.emulation_step_limit = 20'000;  // small fuse: the test must be fast
  AnalysisPipeline pipeline(chain, nullptr, cfg);
  const auto reports = pipeline.run(inputs);  // terminates — that IS the test

  ASSERT_EQ(reports.size(), 3u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(reports[i].quarantined());  // contained, not quarantined
    EXPECT_EQ(reports[i].proxy.verdict, ProxyVerdict::kEmulationError)
        << "adversarial contract " << i;
    EXPECT_EQ(reports[i].proxy.halt, evm::HaltReason::kStepLimit);
  }
  EXPECT_NE(reports[2].proxy.verdict, ProxyVerdict::kEmulationError);

  const LandscapeStats stats = pipeline.summarize(reports);
  EXPECT_EQ(stats.emulation_errors, 2u);
  const auto it = stats.errors_by_kind.find(ErrorKind::kEmulationLimit);
  ASSERT_NE(it, stats.errors_by_kind.end());
  EXPECT_EQ(it->second, 2u);
  EXPECT_EQ(stats.quarantined, 0u);
}

TEST_F(FaultSweepTest, WallClockWatchdogQuarantinesAsEmulationLimit) {
  Population pop = make_population(120);
  const auto inputs = pop.sweep_inputs();

  PipelineConfig cfg;
  cfg.contract_wall_budget_ms = 1e-9;  // everything blows the budget
  AnalysisPipeline pipeline(*pop.chain, &pop.sources, cfg);
  const store::DurableSweepConfig sc = sweep_config("watchdog.journal");
  ASSERT_TRUE(store::DurableSweep(pipeline, *pop.chain, &pop.sources, sc)
                  .run(inputs)
                  .error.empty());
  auto reports = journaled(sc.journal_path, inputs);

  std::uint64_t dogged = 0;
  for (const auto& r : reports) {
    if (r.quarantined() && r.error->kind == ErrorKind::kEmulationLimit) {
      ++dogged;
    }
  }
  EXPECT_GT(dogged, 0u) << "watchdog never fired";

  // Restarting with the budget back at unlimited clears the quarantine and
  // converges to the plain run.
  AnalysisPipeline clean_pipeline(*pop.chain, &pop.sources);
  const auto clean = clean_pipeline.run(inputs);
  AnalysisPipeline retry_pipeline(*pop.chain, &pop.sources);
  const store::DurableSweepResult healed =
      store::DurableSweep(retry_pipeline, *pop.chain, &pop.sources, sc)
          .incremental(inputs, {});
  ASSERT_TRUE(healed.error.empty()) << healed.error;
  EXPECT_EQ(healed.stats.quarantined, 0u);
  reports = journaled(sc.journal_path, inputs);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i], clean[i]);
  }
}

}  // namespace
