// The always-on service layer: chain follower + lock-free query plane.
// Covers bit-identity of the followed snapshot against a cold batch sweep
// at the same head, fast-forward on empty blocks, quarantine healing
// through an impl-slot write, same-block deploy+upgrade, the dirty-set
// following semantics (set_code on a known contract, a write that changes
// nothing, a restart that reads the journal once, quarantine retries),
// the scale-free work of a one-proxy lap, concurrent scrapes during
// snapshot swaps and stop() during a wait_synced() fence (the TSan leg),
// the /v1 JSON schemas from docs/QUERY_API.md, golden bytes of every /v1
// body (in-process and over loopback) and of the JSON value appenders, and
// HTTP prefix routing over a real loopback socket.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chain/archive_node.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "crypto/keccak.h"
#include "datagen/contract_factory.h"
#include "datagen/population.h"
#include "obs/export.h"
#include "obs/http.h"
#include "serve/follower.h"
#include "serve/query_service.h"
#include "store/durable_sweep.h"
#include "store/journal.h"
#include "store/records.h"
#include "util/vfs.h"

namespace {

using namespace proxion;

namespace fs = std::filesystem;

std::string temp_journal(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / "proxion_serve_tests";
  fs::create_directories(dir);
  const fs::path p = dir / name;
  fs::remove(p);
  fs::remove(store::manifest_path_for(p.string()));
  return p.string();
}

datagen::Population make_population(std::uint32_t n = 500) {
  datagen::PopulationSpec spec;
  spec.total_contracts = n;
  return datagen::PopulationGenerator().generate(spec);
}

int year_of_block(std::uint64_t block) {
  const std::uint64_t year = datagen::PopulationGenerator::kFirstYear +
                             block / datagen::PopulationGenerator::kBlocksPerYear;
  return static_cast<int>(std::min<std::uint64_t>(
      year, datagen::PopulationGenerator::kLastYear));
}

serve::ChainFollowerConfig follower_config(obs::SweepStatus* status = nullptr) {
  serve::ChainFollowerConfig config;
  config.year_of_block = year_of_block;
  config.status = status;
  return config;
}

evm::Address find_archetype(const datagen::Population& pop,
                            datagen::Archetype a, std::size_t skip = 0) {
  for (const auto& c : pop.contracts) {
    if (c.archetype != a) continue;
    if (skip > 0) {
      --skip;
      continue;
    }
    return c.address;
  }
  return {};
}

std::vector<core::VerdictRow> sorted_rows(const serve::Snapshot& snap) {
  std::vector<core::VerdictRow> rows(snap.rows.begin(), snap.rows.end());
  std::sort(rows.begin(), rows.end(),
            [](const core::VerdictRow& a, const core::VerdictRow& b) {
              return a.address < b.address;
            });
  return rows;
}

/// A cold batch sweep over the follower's own inputs on the current chain
/// must produce bit-identical rows, at the same head.
void expect_matches_cold(datagen::Population& pop,
                         serve::ChainFollower& follower,
                         const serve::QueryService& query,
                         const std::string& journal) {
  const std::uint64_t head = pop.chain->height();
  const std::shared_ptr<const serve::Snapshot> live = query.snapshot();
  EXPECT_EQ(live->head_block, head);

  core::AnalysisPipeline cold_pipe(*pop.chain, &pop.sources);
  serve::QueryService cold_query;
  store::DurableSweepConfig cold_sc;
  cold_sc.journal_path = temp_journal(journal);
  cold_sc.shard_size = 200;
  cold_sc.record_sink = [&](std::span<const store::ContractRecord> records) {
    cold_query.apply_records(records);
  };
  store::DurableSweep cold(cold_pipe, *pop.chain, &pop.sources, cold_sc);
  const store::DurableSweepResult result = cold.run(follower.inputs());
  ASSERT_TRUE(result.error.empty()) << result.error;
  const std::shared_ptr<const serve::Snapshot> batch = cold_query.publish(head);

  ASSERT_EQ(live->rows.size(), batch->rows.size());
  EXPECT_EQ(live->proxies, batch->proxies);
  EXPECT_EQ(live->quarantined, batch->quarantined);
  const std::vector<core::VerdictRow> a = sorted_rows(*live);
  const std::vector<core::VerdictRow> b = sorted_rows(*batch);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "row " << i << " (" << a[i].address.to_hex()
                          << ") diverges from the cold batch sweep";
  }
}

/// The real filesystem, counting whole-file reads of one path.
class CountingVfs final : public util::Vfs {
 public:
  explicit CountingVfs(std::string watched) : watched_(std::move(watched)) {}

  std::unique_ptr<util::VfsFile> open(const std::string& path, OpenMode mode,
                                      util::VfsStatus* status) override {
    return util::Vfs::real().open(path, mode, status);
  }
  std::optional<std::vector<std::uint8_t>> read_file(
      const std::string& path) override {
    std::optional<std::vector<std::uint8_t>> bytes =
        util::Vfs::real().read_file(path);
    if (path == watched_) {
      ++reads;
      read_bytes += bytes ? bytes->size() : 0;
    }
    return bytes;
  }
  util::VfsStatus rename(const std::string& from,
                         const std::string& to) override {
    return util::Vfs::real().rename(from, to);
  }
  util::VfsStatus remove(const std::string& path) override {
    return util::Vfs::real().remove(path);
  }
  util::VfsStatus sync_dir(const std::string& path) override {
    return util::Vfs::real().sync_dir(path);
  }

  std::uint64_t reads = 0;
  std::uint64_t read_bytes = 0;

 private:
  std::string watched_;
};

/// An archive whose code fetches for one address fail while `down` is set:
/// an outage that quarantines exactly that contract.
class OutageNode final : public chain::IArchiveNode {
 public:
  OutageNode(const chain::IArchiveNode& inner, store::AddressSet victims)
      : inner_(inner), victims_(std::move(victims)) {}

  evm::U256 get_storage_at(const evm::Address& account, const evm::U256& slot,
                           std::uint64_t block) const override {
    return inner_.get_storage_at(account, slot, block);
  }
  std::vector<evm::U256> get_storage_at_many(
      std::span<const chain::StorageQuery> queries) const override {
    return inner_.get_storage_at_many(queries);
  }
  evm::Bytes get_code(const evm::Address& account) const override {
    if (victims_.contains(account)) {
      victim_fetches.fetch_add(1);
      if (down.load()) {
        throw chain::RpcError(chain::RpcErrorKind::kExhausted,
                              "victim unreachable");
      }
    }
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

  std::atomic<bool> down{true};
  mutable std::atomic<std::uint64_t> victim_fetches{0};

 private:
  const chain::IArchiveNode& inner_;
  const store::AddressSet victims_;
};

const core::VerdictRow* row_of(const serve::Snapshot& snap,
                                   const evm::Address& a) {
  const auto it = snap.by_address.find(a);
  return it == snap.by_address.end() ? nullptr : &snap.rows[it->second];
}

/// Absorb the population generator's open-block tail: one empty block plus a
/// poll so later polls see only the blocks the test itself mines.
void settle(datagen::Population& pop, serve::ChainFollower& follower) {
  follower.poll();
  pop.chain->mine_block();
  follower.poll();
}

// Blocking one-shot GET against 127.0.0.1:port; returns the full response
// (status line + headers + body) or "" on connect failure.
std::string http_get(std::uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req =
      "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  std::size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

// ---------------------------------------------------------------------------
// VulnClass names.

TEST(VulnClassTest, NamesRoundTrip) {
  for (std::size_t i = 0; i < serve::kVulnClassCount; ++i) {
    const auto c = static_cast<serve::VulnClass>(i);
    const auto parsed = serve::vuln_class_from_name(serve::to_string(c));
    ASSERT_TRUE(parsed.has_value()) << serve::to_string(c);
    EXPECT_EQ(*parsed, c);
  }
  EXPECT_FALSE(serve::vuln_class_from_name("bogus").has_value());
  EXPECT_FALSE(serve::vuln_class_from_name("").has_value());
}

TEST(VulnClassTest, LogicSourceNames) {
  EXPECT_EQ(core::to_string(core::LogicSource::kNone), "none");
  EXPECT_EQ(core::to_string(core::LogicSource::kHardcoded), "hardcoded");
  EXPECT_EQ(core::to_string(core::LogicSource::kStorageSlot), "storage-slot");
  EXPECT_EQ(core::to_string(core::LogicSource::kComputed), "computed");
}

// ---------------------------------------------------------------------------
// Follower vs cold batch sweep: bit identity at the same head.

TEST(ChainFollower, SnapshotMatchesColdBatchAfterFollowedMutations) {
  datagen::Population pop = make_population();
  core::PipelineConfig config;
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("identity.journal");
  sc.shard_size = 200;
  serve::QueryService query;
  serve::ChainFollower follower(pipeline, *pop.chain, &pop.sources, sc, query,
                                pop.sweep_inputs(), follower_config());
  settle(pop, follower);

  // Mixed workload: a deploy, an upgrade, an empty block, and a
  // deploy+same-block-upgrade, each sealed and absorbed before the next.
  const evm::Address deployer = evm::Address::from_label("identity-deployer");
  const evm::Address proxy =
      find_archetype(pop, datagen::Archetype::kEip1967Proxy);
  const evm::Address logic = find_archetype(pop, datagen::Archetype::kToken);
  ASSERT_FALSE(proxy.is_zero());
  ASSERT_FALSE(logic.is_zero());
  const evm::U256 slot = datagen::ContractFactory::eip1967_slot();

  pop.chain->deploy_runtime(deployer,
                            datagen::ContractFactory::token_contract(77));
  pop.chain->mine_block();
  follower.poll();

  pop.chain->set_storage(proxy, slot, logic.to_word());
  pop.chain->mine_block();
  follower.poll();

  pop.chain->mine_block();  // empty
  follower.poll();

  const evm::Address late_proxy = pop.chain->deploy_runtime(
      deployer, datagen::ContractFactory::eip1967_proxy());
  pop.chain->set_storage(late_proxy, slot, logic.to_word());
  pop.chain->mine_block();
  follower.poll();

  expect_matches_cold(pop, follower, query, "identity_cold.journal");
}

TEST(ChainFollower, EmptyBlockFastForwardsWithoutResweep) {
  datagen::Population pop = make_population(300);
  core::PipelineConfig config;
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("ff.journal");
  serve::QueryService query;
  serve::ChainFollower follower(pipeline, *pop.chain, &pop.sources, sc, query,
                                pop.sweep_inputs(), follower_config());
  settle(pop, follower);

  const std::uint64_t laps = follower.stats().laps.load();
  const std::uint64_t ffs = follower.stats().fast_forwards.load();
  const std::uint64_t version = query.snapshot()->version;

  pop.chain->mine_block();  // nothing deployed, nothing written
  EXPECT_EQ(follower.poll(), 1u);

  EXPECT_EQ(follower.stats().laps.load(), laps) << "empty block caused a lap";
  EXPECT_EQ(follower.stats().fast_forwards.load(), ffs + 1);
  const std::shared_ptr<const serve::Snapshot> snap = query.snapshot();
  EXPECT_EQ(snap->head_block, pop.chain->height());
  EXPECT_GT(snap->version, version);  // stamp advanced without a resweep
}

TEST(ChainFollower, ImplSlotWriteToQuarantinedContractHeals) {
  datagen::Population pop = make_population();
  core::PipelineConfig config;
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("heal.journal");
  sc.shard_size = 200;
  {
    serve::QueryService query;
    serve::ChainFollower follower(pipeline, *pop.chain, &pop.sources, sc,
                                  query, pop.sweep_inputs(), follower_config());
    settle(pop, follower);
  }

  const evm::Address victim =
      find_archetype(pop, datagen::Archetype::kEip1967Proxy);
  const evm::Address new_logic =
      find_archetype(pop, datagen::Archetype::kToken);
  ASSERT_FALSE(victim.is_zero());
  ASSERT_FALSE(new_logic.is_zero());

  // While the service is down, quarantine the victim in the journal, as a
  // crash-adjacent RPC outage would have: last-wins, so it supersedes the
  // healthy record.
  const auto replay = store::read_journal(sc.journal_path);
  ASSERT_TRUE(replay.has_value());
  std::optional<store::ContractRecord> injected;
  for (const auto& frame : replay->frames) {
    if (frame.type != store::RecordType::kContract) continue;
    auto rec = store::decode_contract_record(frame.payload);
    ASSERT_TRUE(rec.has_value());
    if (rec->analysis.address == victim) injected = std::move(*rec);
  }
  ASSERT_TRUE(injected.has_value());
  injected->analysis.error = core::ErrorRecord{core::ErrorKind::kRpcExhausted,
                                               "pairs", "injected outage"};
  {
    auto writer = store::JournalWriter::open_append(sc.journal_path);
    ASSERT_TRUE(writer.has_value());
    ASSERT_TRUE(writer->append(store::RecordType::kContract,
                               store::encode_contract_record(*injected)));
    ASSERT_TRUE(writer->sync());
  }

  // The very contract the journal now quarantines gets an impl-slot write
  // before the restart: the restarted follower must recompute it, not
  // replay the poisoned record.
  pop.chain->set_storage(victim, datagen::ContractFactory::eip1967_slot(),
                         new_logic.to_word());
  pop.chain->mine_block();
  serve::QueryService query;
  serve::ChainFollower follower(pipeline, *pop.chain, &pop.sources, sc, query,
                                pop.sweep_inputs(), follower_config());
  follower.poll();
  EXPECT_EQ(follower.last_error(), "");

  const std::shared_ptr<const serve::Snapshot> snap = query.snapshot();
  const core::VerdictRow* row = row_of(*snap, victim);
  ASSERT_NE(row, nullptr);
  EXPECT_FALSE(row->quarantined);
  EXPECT_EQ(row->verdict, core::ProxyVerdict::kProxy);
  EXPECT_EQ(row->logic_address, new_logic);
  EXPECT_EQ(row->logic_source, core::LogicSource::kStorageSlot);
}

TEST(ChainFollower, DeployAndSameBlockUpgradeServesPostUpgradeImpl) {
  datagen::Population pop = make_population(300);
  core::PipelineConfig config;
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("sameblock.journal");
  serve::QueryService query;
  serve::ChainFollower follower(pipeline, *pop.chain, &pop.sources, sc, query,
                                pop.sweep_inputs(), follower_config());
  settle(pop, follower);

  const evm::Address impl = find_archetype(pop, datagen::Archetype::kToken);
  ASSERT_FALSE(impl.is_zero());
  const evm::Address deployer = evm::Address::from_label("sameblock-deployer");
  const evm::Address proxy = pop.chain->deploy_runtime(
      deployer, datagen::ContractFactory::eip1967_proxy());
  pop.chain->set_storage(proxy, datagen::ContractFactory::eip1967_slot(),
                         impl.to_word());
  pop.chain->mine_block();
  const std::uint64_t discovered_before =
      follower.stats().contracts_discovered.load();
  follower.poll();

  EXPECT_EQ(follower.stats().contracts_discovered.load(),
            discovered_before + 1);
  const std::shared_ptr<const serve::Snapshot> snap = query.snapshot();
  const auto it = snap->by_address.find(proxy);
  ASSERT_NE(it, snap->by_address.end());
  const core::VerdictRow& row = snap->rows[it->second];
  EXPECT_EQ(row.verdict, core::ProxyVerdict::kProxy);
  EXPECT_EQ(row.standard, core::ProxyStandard::kEip1967);
  EXPECT_EQ(row.logic_address, impl);
}

// ---------------------------------------------------------------------------
// Following semantics of the dirty-set laps, each checked against a cold
// batch sweep of the same chain.

TEST(ChainFollower, SetCodeOnKnownAddressIsReanalyzedNextLap) {
  datagen::Population pop = make_population();
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("setcode.journal");
  serve::QueryService query;
  serve::ChainFollower follower(pipeline, *pop.chain, &pop.sources, sc, query,
                                pop.sweep_inputs(), follower_config());
  settle(pop, follower);

  // The representative (first member) of a clone family: replacing its
  // code also hands the family's dedup representative role to the next
  // member, whose record must change with it.
  const std::shared_ptr<const serve::Snapshot> before = query.snapshot();
  evm::Address target;
  for (const core::SweepInput& input : follower.inputs()) {
    const crypto::Hash256& hash = row_of(*before, input.address)->code_hash;
    if (before->by_code_hash.find(hash)->second.size() >= 2) {
      target = input.address;
      break;
    }
  }
  ASSERT_FALSE(target.is_zero()) << "population lost its clone families";
  const evm::Bytes code = datagen::ContractFactory::token_contract(4242);
  pop.chain->set_code(target, code);
  pop.chain->mine_block();
  const std::uint64_t laps = follower.stats().laps.load();
  follower.poll();

  EXPECT_EQ(follower.stats().laps.load(), laps + 1);
  EXPECT_GE(follower.stats().last_lap_recomputed.load(), 2u);
  const core::VerdictRow* row = row_of(*query.snapshot(), target);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->code_hash, evm::code_hash(code));
  expect_matches_cold(pop, follower, query, "setcode_cold.journal");
}

TEST(ChainFollower, NonImplementationSlotWriteRecomputesNothing) {
  datagen::Population pop = make_population();
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("otherslot.journal");
  serve::QueryService query;
  serve::ChainFollower follower(pipeline, *pop.chain, &pop.sources, sc, query,
                                pop.sweep_inputs(), follower_config());
  settle(pop, follower);

  const evm::Address proxy =
      find_archetype(pop, datagen::Archetype::kEip1967Proxy, 1);
  ASSERT_FALSE(proxy.is_zero());
  const std::uint64_t version = query.snapshot()->version;
  pop.chain->set_storage(proxy, evm::U256{0x5151}, evm::U256{7});
  pop.chain->mine_block();
  const std::uint64_t laps = follower.stats().laps.load();
  follower.poll();

  EXPECT_EQ(follower.stats().laps.load(), laps + 1);
  EXPECT_GE(follower.stats().last_lap_touched.load(), 1u);
  EXPECT_EQ(follower.stats().last_lap_recomputed.load(), 0u);
  // Only the lap-end stamp publish: no row changed.
  EXPECT_EQ(query.snapshot()->version, version + 1);
  expect_matches_cold(pop, follower, query, "otherslot_cold.journal");
}

TEST(ChainFollower, RestartReadsJournalOnceThenStaysIdenticalToCold) {
  datagen::Population pop = make_population(400);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("restart.journal");
  CountingVfs vfs(sc.journal_path);
  sc.vfs = &vfs;
  const evm::U256 slot = datagen::ContractFactory::eip1967_slot();
  const evm::Address logic = find_archetype(pop, datagen::Archetype::kToken);
  {
    core::AnalysisPipeline pipeline(*pop.chain, &pop.sources);
    serve::QueryService query;
    serve::ChainFollower follower(pipeline, *pop.chain, &pop.sources, sc,
                                  query, pop.sweep_inputs(), follower_config());
    settle(pop, follower);
    pop.chain->set_storage(
        find_archetype(pop, datagen::Archetype::kEip1967Proxy), slot,
        logic.to_word());
    pop.chain->mine_block();
    follower.poll();
  }

  // The restarted service boots from the journal: one read...
  vfs.reads = 0;
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  serve::QueryService query;
  serve::ChainFollower follower(pipeline, *pop.chain, &pop.sources, sc, query,
                                pop.sweep_inputs(), follower_config());
  follower.poll();
  EXPECT_EQ(vfs.reads, 1u);

  // ...and none over further laps: a deployment, an upgrade, empty blocks.
  const evm::Address deployer = evm::Address::from_label("restart-deployer");
  pop.chain->deploy_runtime(deployer,
                            datagen::ContractFactory::token_contract(91));
  pop.chain->mine_block();
  follower.poll();
  pop.chain->set_storage(
      find_archetype(pop, datagen::Archetype::kEip1967Proxy, 2), slot,
      logic.to_word());
  pop.chain->mine_block();
  follower.poll();
  pop.chain->mine_block();
  follower.poll();
  pop.chain->mine_block();
  follower.poll();
  EXPECT_EQ(vfs.reads, 1u);
  EXPECT_GE(follower.stats().laps.load(), 3u);
  expect_matches_cold(pop, follower, query, "restart_cold.journal");
}

TEST(ChainFollower, QuarantinedContractIsRetriedEveryLap) {
  datagen::Population pop = make_population(400);
  const evm::Address victim =
      find_archetype(pop, datagen::Archetype::kEip1967Proxy);
  const evm::Address other = find_archetype(pop, datagen::Archetype::kToken);
  ASSERT_FALSE(victim.is_zero());
  ASSERT_FALSE(other.is_zero());
  // The outage covers the victim's code hash: code is fetched per hash, so
  // any address of it that answers serves the whole family.
  store::AddressSet family;
  for (const auto& c : pop.contracts) {
    if (pop.chain->code_hash(c.address) == pop.chain->code_hash(victim)) {
      family.insert(c.address);
    }
  }
  chain::ArchiveNode base(*pop.chain);
  OutageNode outage(base, family);
  core::PipelineConfig config;
  config.archive_node = &outage;
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("retry.journal");
  serve::QueryService query;
  serve::ChainFollower follower(pipeline, *pop.chain, &pop.sources, sc, query,
                                pop.sweep_inputs(), follower_config());
  settle(pop, follower);
  const core::VerdictRow* row = row_of(*query.snapshot(), victim);
  ASSERT_NE(row, nullptr);
  ASSERT_TRUE(row->quarantined);

  // A lap for an unrelated write still retries the quarantined contract.
  for (std::uint64_t v = 1; v <= 2; ++v) {
    const std::uint64_t fetches = outage.victim_fetches.load();
    pop.chain->set_storage(other, evm::U256{0x77}, evm::U256{v});
    pop.chain->mine_block();
    follower.poll();
    EXPECT_GT(outage.victim_fetches.load(), fetches) << "lap " << v;
    EXPECT_GE(follower.stats().last_lap_touched.load(), 2u);
    EXPECT_TRUE(row_of(*query.snapshot(), victim)->quarantined);
  }

  // The outage ends: the next lap heals it without any write to it.
  outage.down.store(false);
  pop.chain->set_storage(other, evm::U256{0x77}, evm::U256{3});
  pop.chain->mine_block();
  follower.poll();
  EXPECT_FALSE(row_of(*query.snapshot(), victim)->quarantined);
  expect_matches_cold(pop, follower, query, "retry_cold.journal");
}

/// What one lap cost, read off counters (no timing).
struct LapWork {
  std::uint64_t journal_read_bytes = 0;
  std::uint64_t code_fetches = 0;
  std::uint64_t keccaks = 0;
  std::uint64_t rows_changed = 0;
  std::uint64_t row_chunks_copied = 0;
  std::uint64_t ff_rows_changed = 0;
  std::uint64_t ff_row_chunks_copied = 0;
};

/// Follows a population of `scale` contracts and measures one upgrade lap
/// of a proxy whose whole history is the same at every scale, then one
/// fast-forward.
LapWork one_proxy_upgrade_lap(std::uint32_t scale) {
  datagen::Population pop = make_population(scale);
  chain::ArchiveNode archive(*pop.chain);
  core::PipelineConfig config;
  config.archive_node = &archive;
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("work_" + std::to_string(scale) + ".journal");
  CountingVfs vfs(sc.journal_path);
  sc.vfs = &vfs;
  serve::QueryService query;
  serve::ChainFollower follower(pipeline, *pop.chain, &pop.sources, sc, query,
                                pop.sweep_inputs(), follower_config());
  settle(pop, follower);

  const evm::U256 slot = datagen::ContractFactory::eip1967_slot();
  const evm::Address deployer = evm::Address::from_label("work-deployer");
  const evm::Address logic_a = pop.chain->deploy_runtime(
      deployer, datagen::ContractFactory::token_contract(9001));
  const evm::Address logic_b = pop.chain->deploy_runtime(
      deployer, datagen::ContractFactory::token_contract(9002));
  const evm::Address logic_c = pop.chain->deploy_runtime(
      deployer, datagen::ContractFactory::token_contract(9003));
  const evm::Address proxy = pop.chain->deploy_runtime(
      deployer, datagen::ContractFactory::eip1967_proxy());
  pop.chain->set_storage(proxy, slot, logic_a.to_word());
  auto block = [&] {
    pop.chain->mine_block();
    follower.poll();
  };
  block();
  block();
  // A warm-up upgrade, so process-wide memos have seen these logic
  // contracts' functions before the measured lap at either scale. Every
  // upgrade names a new logic contract: Algorithm 1 cannot see an A-B-A
  // history whose probes straddle B, and which probes do depends on the
  // chain height.
  pop.chain->set_storage(proxy, slot, logic_b.to_word());
  block();
  block();

  LapWork w;
  vfs.read_bytes = 0;
  archive.reset_counters();
  const std::uint64_t keccaks = crypto::keccak_invocations();
  const serve::PublishStats p0 = query.publish_stats();
  pop.chain->set_storage(proxy, slot, logic_c.to_word());
  block();
  w.journal_read_bytes = vfs.read_bytes;
  w.code_fetches = archive.get_code_calls();
  w.keccaks = crypto::keccak_invocations() - keccaks;
  const serve::PublishStats p1 = query.publish_stats();
  w.rows_changed = p1.rows_changed - p0.rows_changed;
  w.row_chunks_copied = p1.row_chunks_copied - p0.row_chunks_copied;
  EXPECT_EQ(row_of(*query.snapshot(), proxy)->logic_address, logic_c);

  block();  // the inclusive rescan of the upgrade block: a no-change lap
  const std::uint64_t ffs = follower.stats().fast_forwards.load();
  const serve::PublishStats p2 = query.publish_stats();
  block();
  EXPECT_EQ(follower.stats().fast_forwards.load(), ffs + 1);
  const serve::PublishStats p3 = query.publish_stats();
  w.ff_rows_changed = p3.rows_changed - p2.rows_changed;
  w.ff_row_chunks_copied = p3.row_chunks_copied - p2.row_chunks_copied;
  return w;
}

TEST(FollowerWorkCount, OneProxyUpgradeLapCostsTheSameAt2kAnd8k) {
  const LapWork small = one_proxy_upgrade_lap(2'000);
  const LapWork large = one_proxy_upgrade_lap(8'000);
  for (const LapWork* w : {&small, &large}) {
    EXPECT_EQ(w->journal_read_bytes, 0u);
    EXPECT_EQ(w->rows_changed, 1u);
    EXPECT_LE(w->row_chunks_copied, w->rows_changed);
    EXPECT_EQ(w->ff_rows_changed, 0u);
    EXPECT_EQ(w->ff_row_chunks_copied, 0u);
  }
  EXPECT_GT(small.code_fetches, 0u);
  EXPECT_EQ(small.code_fetches, large.code_fetches);
  EXPECT_GT(small.keccaks, 0u);
  EXPECT_EQ(small.keccaks, large.keccaks);
}

// The TSan leg: readers hammer the snapshot and the JSON renderers while
// the follower's background thread publishes new snapshots.
TEST(ChainFollower, ConcurrentScrapeDuringSnapshotSwap) {
  datagen::Population pop = make_population(300);
  core::PipelineConfig config;
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("swap.journal");
  serve::QueryService query;
  serve::ChainFollower follower(pipeline, *pop.chain, &pop.sources, sc, query,
                                pop.sweep_inputs(), follower_config());
  settle(pop, follower);

  const evm::Address proxy =
      find_archetype(pop, datagen::Archetype::kEip1967Proxy);
  ASSERT_FALSE(proxy.is_zero());
  const std::string proxy_hex = proxy.to_hex();

  follower.start();
  // Fence the catch-up poll start() schedules before mutating the chain —
  // the single-writer contract from serve/follower.h.
  ASSERT_TRUE(follower.wait_synced(pop.chain->height()));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::shared_ptr<const serve::Snapshot> snap = query.snapshot();
        ASSERT_NE(snap, nullptr);
        ASSERT_EQ(snap->rows.size(), snap->by_address.size());
        const obs::HttpResponse r = query.contract_endpoint(proxy_hex);
        ASSERT_EQ(r.status, 200);
        const obs::HttpResponse s = follower.status_endpoint();
        ASSERT_EQ(s.status, 200);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (std::size_t wave = 0; wave < 6; ++wave) {
    const evm::Address impl =
        find_archetype(pop, datagen::Archetype::kToken, wave);
    ASSERT_FALSE(impl.is_zero());
    pop.chain->set_storage(proxy, datagen::ContractFactory::eip1967_slot(),
                           impl.to_word());
    pop.chain->mine_block();
    ASSERT_TRUE(follower.wait_synced(pop.chain->height()));
  }

  stop.store(true);
  for (std::thread& t : readers) t.join();
  follower.stop();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_GE(follower.stats().laps.load(), 6u);
}

// The TSan leg for stop(): it resets the fence flags a concurrent
// wait_synced() reads, so it must do that under the fence's lock and wake
// the waiter.
TEST(ChainFollower, StopDuringWaitSyncedIsRaceFree) {
  datagen::Population pop = make_population(300);
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("stop.journal");
  serve::QueryService query;
  serve::ChainFollower follower(pipeline, *pop.chain, &pop.sources, sc, query,
                                pop.sweep_inputs(), follower_config());
  settle(pop, follower);
  follower.start();
  ASSERT_TRUE(follower.wait_synced(pop.chain->height()));

  const std::uint64_t synced = pop.chain->height();
  pop.chain->mine_block();  // flags the poll thread
  std::atomic<bool> fenced{false};
  const auto t0 = std::chrono::steady_clock::now();
  std::thread waiter(
      [&] { fenced.store(follower.wait_synced(synced, 30'000)); });
  follower.stop();
  waiter.join();
  EXPECT_TRUE(fenced.load());
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
}

TEST(ChainFollower, StatusEscapesControlCharactersInLastError) {
  datagen::Population pop = make_population(200);
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  const fs::path dir =
      fs::temp_directory_path() / "proxion_serve_tests" / "no\nsuch\tdir";
  fs::remove_all(dir);
  store::DurableSweepConfig sc;
  sc.journal_path = (dir / "x.journal").string();
  sc.degrade_on_disk_failure = false;
  serve::QueryService query;
  serve::ChainFollower follower(pipeline, *pop.chain, &pop.sources, sc, query,
                                pop.sweep_inputs(), follower_config());
  follower.poll();
  ASSERT_NE(follower.last_error().find('\n'), std::string::npos);

  std::string body = follower.status_endpoint().body;
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body.back(), '\n');
  body.pop_back();
  for (const char c : body) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "raw control byte";
  }
  EXPECT_NE(body.find("no\\nsuch\\tdir"), std::string::npos) << body;
}

// ---------------------------------------------------------------------------
// /v1 JSON schemas — the normative shapes from docs/QUERY_API.md.

class QueryApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pop_ = make_population();
    pipeline_.emplace(*pop_->chain, &pop_->sources, config_);
    sc_.journal_path = temp_journal("api.journal");
    follower_.emplace(*pipeline_, *pop_->chain, &pop_->sources, sc_, query_,
                      pop_->sweep_inputs(), follower_config());
    settle(*pop_, *follower_);
  }

  std::optional<datagen::Population> pop_;
  core::PipelineConfig config_;
  std::optional<core::AnalysisPipeline> pipeline_;
  store::DurableSweepConfig sc_;
  serve::QueryService query_;
  std::optional<serve::ChainFollower> follower_;
};

TEST_F(QueryApiTest, ContractResponseCarriesEveryDocumentedField) {
  const evm::Address proxy =
      find_archetype(*pop_, datagen::Archetype::kEip1967Proxy);
  const obs::HttpResponse r = query_.contract_endpoint(proxy.to_hex());
  ASSERT_EQ(r.status, 200);
  EXPECT_EQ(r.content_type, "application/json");
  for (const char* field :
       {"\"head_block\":", "\"snapshot_version\":", "\"address\":",
        "\"code_hash\":", "\"year\":", "\"verdict\":", "\"standard\":",
        "\"hidden\":", "\"has_source\":", "\"has_tx\":", "\"deduplicated\":",
        "\"quarantined\":", "\"error_kind\":", "\"logic\":", "\"source\":",
        "\"logic_address\":", "\"slot\":", "\"upgrade_events\":", "\"vulns\":",
        "\"function_collision\":", "\"storage_collision\":",
        "\"storage_collision_exploitable\":", "\"family_collision\":"}) {
    EXPECT_NE(r.body.find(field), std::string::npos) << field;
  }
  EXPECT_NE(r.body.find("\"verdict\":\"proxy\""), std::string::npos);
  EXPECT_NE(r.body.find("\"standard\":\"EIP-1967\""), std::string::npos);
  EXPECT_NE(r.body.find("\"source\":\"storage-slot\""), std::string::npos);
  EXPECT_NE(r.body.find("\"error_kind\":null"), std::string::npos);
}

TEST_F(QueryApiTest, CodehashResponseListsCloneFamily) {
  const evm::Address proxy =
      find_archetype(*pop_, datagen::Archetype::kMinimalProxy);
  const std::shared_ptr<const serve::Snapshot> snap = query_.snapshot();
  const auto it = snap->by_address.find(proxy);
  ASSERT_NE(it, snap->by_address.end());
  const std::string hash_hex =
      "0x" + crypto::to_hex(snap->rows[it->second].code_hash);

  const obs::HttpResponse r = query_.codehash_endpoint(hash_hex);
  ASSERT_EQ(r.status, 200);
  for (const char* field : {"\"head_block\":", "\"snapshot_version\":",
                            "\"code_hash\":", "\"count\":", "\"truncated\":",
                            "\"addresses\":"}) {
    EXPECT_NE(r.body.find(field), std::string::npos) << field;
  }
  EXPECT_NE(r.body.find(proxy.to_hex()), std::string::npos);
}

TEST_F(QueryApiTest, VulnsResponseFiltersByClass) {
  const obs::HttpResponse r = query_.vulns_endpoint("class=function_collision");
  ASSERT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"class\":\"function_collision\""),
            std::string::npos);
  for (const char* field :
       {"\"head_block\":", "\"count\":", "\"truncated\":", "\"addresses\":"}) {
    EXPECT_NE(r.body.find(field), std::string::npos) << field;
  }
  // Every listed address really carries the flag in the snapshot.
  const std::shared_ptr<const serve::Snapshot> snap = query_.snapshot();
  for (const std::uint32_t index :
       snap->by_vuln[static_cast<std::size_t>(
           serve::VulnClass::kFunctionCollision)]) {
    EXPECT_TRUE(snap->rows[index].function_collision);
  }
}

TEST_F(QueryApiTest, TruncationReportsFullCount) {
  const std::shared_ptr<const serve::Snapshot> snap = query_.snapshot();
  std::size_t vulnerable = 0;
  for (const core::VerdictRow& row : snap->rows) {
    vulnerable += row.function_collision ? 1 : 0;
  }
  ASSERT_GT(vulnerable, 2u) << "population lost its collision family";

  // The default cap is generous enough for the whole family...
  const obs::HttpResponse full =
      query_.vulns_endpoint("class=function_collision");
  ASSERT_EQ(full.status, 200);
  EXPECT_NE(full.body.find("\"truncated\":false"), std::string::npos);
  EXPECT_NE(full.body.find("\"count\":" + std::to_string(vulnerable)),
            std::string::npos);

  // ...a capped service (fed the same records, replayed from the journal)
  // truncates the list but still reports the full count.
  serve::QueryServiceConfig small;
  small.max_results = 2;
  serve::QueryService capped(small);
  const auto replay = store::read_journal(sc_.journal_path);
  ASSERT_TRUE(replay.has_value());
  for (const auto& frame : replay->frames) {
    if (frame.type != store::RecordType::kContract) continue;
    auto rec = store::decode_contract_record(frame.payload);
    ASSERT_TRUE(rec.has_value());
    capped.apply_records({&*rec, 1});
  }
  capped.publish(snap->head_block);
  const obs::HttpResponse r = capped.vulns_endpoint("class=function_collision");
  ASSERT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"truncated\":true"), std::string::npos);
  EXPECT_NE(r.body.find("\"count\":" + std::to_string(vulnerable)),
            std::string::npos);
}

TEST_F(QueryApiTest, ErrorShapesAreUniform) {
  struct Case {
    obs::HttpResponse resp;
    int status;
    const char* code;
  };
  const Case cases[] = {
      {query_.contract_endpoint("0x1234"), 400, "bad_address"},
      {query_.contract_endpoint(evm::Address{}.to_hex()), 404, "not_found"},
      {query_.codehash_endpoint("zz"), 400, "bad_hash"},
      {query_.codehash_endpoint(std::string(64, '0')), 404, "not_found"},
      {query_.vulns_endpoint(""), 400, "missing_class"},
      {query_.vulns_endpoint("class=bogus"), 400, "unknown_class"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(c.resp.status, c.status) << c.code;
    EXPECT_NE(c.resp.body.find(std::string("\"error\":\"") + c.code + "\""),
              std::string::npos)
        << c.resp.body;
    EXPECT_NE(c.resp.body.find("\"detail\":"), std::string::npos) << c.code;
  }
}

TEST_F(QueryApiTest, StatusReportsFollowerCounters) {
  const obs::HttpResponse r = follower_->status_endpoint();
  ASSERT_EQ(r.status, 200);
  for (const char* field :
       {"\"following\":", "\"chain_head\":", "\"snapshot_head\":",
        "\"staleness_blocks\":", "\"snapshot_version\":",
        "\"snapshot_entries\":", "\"laps\":", "\"fast_forwards\":",
        "\"blocks_processed\":", "\"contracts_discovered\":",
        "\"last_lap_us\":", "\"last_lap_touched\":",
        "\"last_lap_recomputed\":", "\"degraded\":", "\"last_error\":"}) {
    EXPECT_NE(r.body.find(field), std::string::npos) << field;
  }
  EXPECT_NE(r.body.find("\"staleness_blocks\":0"), std::string::npos);
  EXPECT_NE(r.body.find("\"last_error\":\"\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// The /healthz phase between laps, and HTTP routing over a real socket.

TEST(ChainFollower, HealthzReportsFollowingPhaseBetweenLaps) {
  datagen::Population pop = make_population(300);
  obs::SweepStatus status;
  core::PipelineConfig config;
  config.telemetry.status = &status;
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("phase.journal");
  sc.status = &status;
  serve::QueryService query;
  serve::ChainFollower follower(pipeline, *pop.chain, &pop.sources, sc, query,
                                pop.sweep_inputs(), follower_config(&status));
  follower.poll();

  // Between laps the process is live-following, not stuck in the last batch
  // phase the sweep happened to end on.
  EXPECT_EQ(status.get_phase(), obs::SweepPhase::kFollowing);
  obs::Registry reg;
  obs::ExporterConfig exp_config;
  exp_config.interval_ms = 0;
  exp_config.clock = [] { return std::uint64_t{1}; };
  obs::Exporter exporter({&reg}, exp_config);
  const std::string json = exporter.render_healthz(&status);
  EXPECT_NE(json.find("\"phase\":\"following\""), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"ok\""), std::string::npos);
}

TEST(QueryHttp, PrefixRoutingServesV1OverLoopback) {
  datagen::Population pop = make_population(300);
  core::PipelineConfig config;
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("http.journal");
  serve::QueryService query;
  serve::ChainFollower follower(pipeline, *pop.chain, &pop.sources, sc, query,
                                pop.sweep_inputs(), follower_config());
  settle(pop, follower);

  obs::HttpServer server;
  query.register_endpoints(server);
  follower.register_status_endpoint(server);
  ASSERT_TRUE(server.start(0));

  const evm::Address proxy =
      find_archetype(pop, datagen::Archetype::kEip1967Proxy);
  const std::string ok =
      http_get(server.port(), "/v1/contract/" + proxy.to_hex());
  EXPECT_NE(ok.find("200"), std::string::npos);
  EXPECT_NE(ok.find("\"verdict\":\"proxy\""), std::string::npos);

  const std::string status = http_get(server.port(), "/v1/status");
  EXPECT_NE(status.find("200"), std::string::npos);
  EXPECT_NE(status.find("\"staleness_blocks\":"), std::string::npos);

  const std::string vulns =
      http_get(server.port(), "/v1/vulns?class=storage_collision");
  EXPECT_NE(vulns.find("200"), std::string::npos);
  EXPECT_NE(vulns.find("\"class\":\"storage_collision\""), std::string::npos);

  const std::string bad = http_get(server.port(), "/v1/contract/nope");
  EXPECT_NE(bad.find("400"), std::string::npos);
  EXPECT_NE(bad.find("bad_address"), std::string::npos);

  const std::string missing = http_get(server.port(), "/v1/unknown");
  EXPECT_NE(missing.find("404"), std::string::npos);

  server.stop();
}

// ---------------------------------------------------------------------------
// Golden bodies: the exact bytes of every /v1 shape, rendered from
// hand-built records so a renderer rewrite cannot drift a single byte.

evm::Address golden_address(std::string_view label) {
  return evm::Address::from_label(label);
}

core::ContractAnalysis golden_report(std::string_view label, int year) {
  core::ContractAnalysis a;
  a.address = golden_address(label);
  a.year = year;
  return a;
}

/// One service over every row shape: a slot proxy (all collisions), two
/// slot proxies whose slots render with a dropped leading nibble and as
/// zero, a three-clone EIP-1167 family (hard-coded logic, no slot), a
/// non-proxy and a quarantined row. `max_results` 2 truncates the clone
/// family and the storage-collision list; no row has a family collision.
void fill_golden(serve::QueryService& query) {
  std::vector<store::ContractRecord> records;
  {
    core::ContractAnalysis a = golden_report("golden-slot-proxy", 2021);
    a.has_source = true;
    a.has_tx = true;
    a.proxy.verdict = core::ProxyVerdict::kProxy;
    a.proxy.standard = core::ProxyStandard::kEip1967;
    a.proxy.logic_source = core::LogicSource::kStorageSlot;
    a.proxy.logic_address = golden_address("golden-impl");
    a.proxy.logic_slot = evm::U256::from_hex(
        "0x360894a13ba1a3210667c828492db98dca3e2076cc3735a920a3ca505d382bbc");
    a.logic_history.upgrade_events = 3;
    a.function_collision = true;
    a.storage_collision = true;
    a.storage_collision_exploitable = true;
    records.push_back({a, crypto::keccak256("golden-code-slot")});
  }
  {
    core::ContractAnalysis a = golden_report("golden-small-slot-proxy", 2017);
    a.has_tx = true;
    a.proxy.verdict = core::ProxyVerdict::kProxy;
    a.proxy.standard = core::ProxyStandard::kOther;
    a.proxy.logic_source = core::LogicSource::kStorageSlot;
    a.proxy.logic_address = golden_address("golden-impl");
    a.proxy.logic_slot = evm::U256(0x0f00);
    records.push_back({a, crypto::keccak256("golden-code-small-slot")});
  }
  {
    core::ContractAnalysis a = golden_report("golden-slot-zero-proxy", 2016);
    a.has_source = true;
    a.proxy.verdict = core::ProxyVerdict::kProxy;
    a.proxy.standard = core::ProxyStandard::kOther;
    a.proxy.logic_source = core::LogicSource::kStorageSlot;
    a.proxy.logic_address = golden_address("golden-impl-zero");
    a.logic_history.upgrade_events = 18446744073709551615ULL;
    records.push_back({a, crypto::keccak256("golden-code-slot-zero")});
  }
  for (int i = 0; i < 3; ++i) {
    core::ContractAnalysis a =
        golden_report("golden-clone-" + std::to_string(i), 2022);
    a.proxy.verdict = core::ProxyVerdict::kProxy;
    a.proxy.standard = core::ProxyStandard::kEip1167;
    a.proxy.logic_source = core::LogicSource::kHardcoded;
    a.proxy.logic_address = golden_address("golden-clone-impl");
    a.deduplicated = i > 0;
    a.storage_collision = true;
    records.push_back({a, crypto::keccak256("golden-code-clone")});
  }
  {
    core::ContractAnalysis a = golden_report("golden-plain", 2018);
    a.has_source = true;
    records.push_back({a, crypto::keccak256("golden-code-plain")});
  }
  {
    core::ContractAnalysis a = golden_report("golden-quarantined", 2020);
    a.error = core::ErrorRecord{core::ErrorKind::kRpcExhausted, "fetch",
                                "archive unreachable"};
    records.push_back({a, crypto::keccak256("golden-code-quarantined")});
  }
  query.apply_records(records);
  query.publish(19000000);
}

std::string golden_hash_hex(std::string_view code_label) {
  return "0x" + crypto::to_hex(crypto::keccak256(code_label));
}

struct GoldenCase {
  std::string target;
  int status;
  std::string body;
};

std::vector<GoldenCase> golden_cases() {
  const auto contract = [](std::string_view label) {
    return "/v1/contract/" + golden_address(label).to_hex();
  };
  std::string upper_hash = golden_hash_hex("golden-code-clone");
  std::transform(upper_hash.begin(), upper_hash.end(), upper_hash.begin(),
                 [](unsigned char c) {
                   return static_cast<char>(std::toupper(c));
                 });
  return {
      {contract("golden-slot-proxy"),
       200,
       "{\"head_block\":19000000,\"snapshot_version\":1,"
       "\"address\":\"0xd2c7829c9c9c3f1bd8fd1fca902a0214668da3dc\","
       "\"code_hash\":"
       "\"0x2695b30185dfeb655c41b3a5dd6ef2324456fce9b942788af03ce51945c7e607\","
       "\"year\":2021,\"verdict\":\"proxy\",\"standard\":\"EIP-1967\","
       "\"hidden\":false,\"has_source\":true,\"has_tx\":true,"
       "\"deduplicated\":false,\"quarantined\":false,\"error_kind\":null,"
       "\"logic\":{\"source\":\"storage-slot\","
       "\"logic_address\":\"0xc5d1ed23f47ec122422d96d3d38736b4c9c8dd81\","
       "\"slot\":"
       "\"0x360894a13ba1a3210667c828492db98dca3e2076cc3735a920a3ca505d382bbc\","
       "\"upgrade_events\":3},\"vulns\":{\"function_collision\":true,"
       "\"storage_collision\":true,\"storage_collision_exploitable\":true,"
       "\"family_collision\":false}}\n"},
      {contract("golden-small-slot-proxy"),
       200,
       "{\"head_block\":19000000,\"snapshot_version\":1,"
       "\"address\":\"0x0d8c6be634976f70fe473447eb7b9ce70506b561\","
       "\"code_hash\":"
       "\"0x064ef420b8574bfdde13fb84c8bc72a5fc77d309e7499c93885bca2c3271873b\","
       "\"year\":2017,\"verdict\":\"proxy\",\"standard\":\"other\","
       "\"hidden\":false,\"has_source\":false,\"has_tx\":true,"
       "\"deduplicated\":false,\"quarantined\":false,\"error_kind\":null,"
       "\"logic\":{\"source\":\"storage-slot\","
       "\"logic_address\":\"0xc5d1ed23f47ec122422d96d3d38736b4c9c8dd81\","
       "\"slot\":\"0xf00\",\"upgrade_events\":0},"
       "\"vulns\":{\"function_collision\":false,\"storage_collision\":false,"
       "\"storage_collision_exploitable\":false,"
       "\"family_collision\":false}}\n"},
      {contract("golden-slot-zero-proxy"),
       200,
       "{\"head_block\":19000000,\"snapshot_version\":1,"
       "\"address\":\"0x12b21f5ba04442a4c103b188e334741aba36c937\","
       "\"code_hash\":"
       "\"0xb2905455228526ff48f600e7432b4b2a385b6c676ea540b6f1c9731295a18b15\","
       "\"year\":2016,\"verdict\":\"proxy\",\"standard\":\"other\","
       "\"hidden\":false,\"has_source\":true,\"has_tx\":false,"
       "\"deduplicated\":false,\"quarantined\":false,\"error_kind\":null,"
       "\"logic\":{\"source\":\"storage-slot\","
       "\"logic_address\":\"0xdd69c9cd744577092ddcaa962f95b57a46254b18\","
       "\"slot\":\"0x0\",\"upgrade_events\":18446744073709551615},"
       "\"vulns\":{\"function_collision\":false,\"storage_collision\":false,"
       "\"storage_collision_exploitable\":false,"
       "\"family_collision\":false}}\n"},
      {contract("golden-clone-1"),
       200,
       "{\"head_block\":19000000,\"snapshot_version\":1,"
       "\"address\":\"0x5adabd6a94a04720c9e0b76f55ec3799cf6d3b41\","
       "\"code_hash\":"
       "\"0x539bc156b10574537c4ce4458e32327dd87e664f68a232921a43fe7b9f03e79e\","
       "\"year\":2022,\"verdict\":\"proxy\",\"standard\":\"EIP-1167\","
       "\"hidden\":true,\"has_source\":false,\"has_tx\":false,"
       "\"deduplicated\":true,\"quarantined\":false,\"error_kind\":null,"
       "\"logic\":{\"source\":\"hardcoded\","
       "\"logic_address\":\"0x63cacba711035582a25c568c76d6e4d3b5eef88c\","
       "\"slot\":null,\"upgrade_events\":0},"
       "\"vulns\":{\"function_collision\":false,\"storage_collision\":true,"
       "\"storage_collision_exploitable\":false,"
       "\"family_collision\":false}}\n"},
      {contract("golden-plain"),
       200,
       "{\"head_block\":19000000,\"snapshot_version\":1,"
       "\"address\":\"0x58933ffcd3335699e9205630379b4abd3cb70eb9\","
       "\"code_hash\":"
       "\"0xc9c7a107f05d6b2529d2dd126c8f96c6723d37bab86b85f46aeda31774c8567a\","
       "\"year\":2018,\"verdict\":\"not-proxy\",\"standard\":\"not-proxy\","
       "\"hidden\":false,\"has_source\":true,\"has_tx\":false,"
       "\"deduplicated\":false,\"quarantined\":false,\"error_kind\":null,"
       "\"logic\":{\"source\":\"none\",\"logic_address\":null,\"slot\":null,"
       "\"upgrade_events\":0},\"vulns\":{\"function_collision\":false,"
       "\"storage_collision\":false,\"storage_collision_exploitable\":false,"
       "\"family_collision\":false}}\n"},
      {contract("golden-quarantined"),
       200,
       "{\"head_block\":19000000,\"snapshot_version\":1,"
       "\"address\":\"0x226e57c219074749a868af2c566d8ca85ab13221\","
       "\"code_hash\":"
       "\"0xe28a105161a9407a9fe97b0e549ef0a3482c393fd2d1525d94bf3db2ff4cd785\","
       "\"year\":2020,\"verdict\":\"not-proxy\",\"standard\":\"not-proxy\","
       "\"hidden\":false,\"has_source\":false,\"has_tx\":false,"
       "\"deduplicated\":false,\"quarantined\":true,"
       "\"error_kind\":\"rpc_exhausted\",\"logic\":{\"source\":\"none\","
       "\"logic_address\":null,\"slot\":null,\"upgrade_events\":0},"
       "\"vulns\":{\"function_collision\":false,\"storage_collision\":false,"
       "\"storage_collision_exploitable\":false,"
       "\"family_collision\":false}}\n"},
      {"/v1/codehash/" + golden_hash_hex("golden-code-clone"),
       200,
       "{\"head_block\":19000000,\"snapshot_version\":1,"
       "\"code_hash\":"
       "\"0x539bc156b10574537c4ce4458e32327dd87e664f68a232921a43fe7b9f03e79e\","
       "\"count\":3,\"truncated\":true,"
       "\"addresses\":[\"0x2a6f9ef6663a2f1cb6b48f9061217af6f0a5f700\","
       "\"0x5adabd6a94a04720c9e0b76f55ec3799cf6d3b41\"]}\n"},
      {"/v1/codehash/" + upper_hash,
       200,
       "{\"head_block\":19000000,\"snapshot_version\":1,"
       "\"code_hash\":"
       "\"0x539bc156b10574537c4ce4458e32327dd87e664f68a232921a43fe7b9f03e79e\","
       "\"count\":3,\"truncated\":true,"
       "\"addresses\":[\"0x2a6f9ef6663a2f1cb6b48f9061217af6f0a5f700\","
       "\"0x5adabd6a94a04720c9e0b76f55ec3799cf6d3b41\"]}\n"},
      {"/v1/codehash/" + golden_hash_hex("golden-code-slot"),
       200,
       "{\"head_block\":19000000,\"snapshot_version\":1,"
       "\"code_hash\":"
       "\"0x2695b30185dfeb655c41b3a5dd6ef2324456fce9b942788af03ce51945c7e607\","
       "\"count\":1,\"truncated\":false,"
       "\"addresses\":[\"0xd2c7829c9c9c3f1bd8fd1fca902a0214668da3dc\"]}\n"},
      {"/v1/vulns?class=function_collision",
       200,
       "{\"head_block\":19000000,\"snapshot_version\":1,"
       "\"class\":\"function_collision\",\"count\":1,\"truncated\":false,"
       "\"addresses\":[\"0xd2c7829c9c9c3f1bd8fd1fca902a0214668da3dc\"]}\n"},
      {"/v1/vulns?class=storage_collision",
       200,
       "{\"head_block\":19000000,\"snapshot_version\":1,"
       "\"class\":\"storage_collision\",\"count\":4,\"truncated\":true,"
       "\"addresses\":[\"0xd2c7829c9c9c3f1bd8fd1fca902a0214668da3dc\","
       "\"0x2a6f9ef6663a2f1cb6b48f9061217af6f0a5f700\"]}\n"},
      {"/v1/vulns?class=storage_collision_exploitable",
       200,
       "{\"head_block\":19000000,\"snapshot_version\":1,"
       "\"class\":\"storage_collision_exploitable\",\"count\":1,"
       "\"truncated\":false,"
       "\"addresses\":[\"0xd2c7829c9c9c3f1bd8fd1fca902a0214668da3dc\"]}\n"},
      {"/v1/vulns?class=family_collision",
       200,
       "{\"head_block\":19000000,\"snapshot_version\":1,"
       "\"class\":\"family_collision\",\"count\":0,\"truncated\":false,"
       "\"addresses\":[]}\n"},
      {"/v1/contract/0x1234",
       400,
       "{\"error\":\"bad_address\","
       "\"detail\":\"expected /v1/contract/0x + 40 hex digits\"}\n"},
      {"/v1/contract/" + golden_address("golden-absent").to_hex(),
       404,
       "{\"error\":\"not_found\","
       "\"detail\":\"address not in the current snapshot\"}\n"},
      {"/v1/codehash/zz",
       400,
       "{\"error\":\"bad_hash\","
       "\"detail\":\"expected /v1/codehash/0x + 64 hex digits\"}\n"},
      {"/v1/codehash/" + std::string(64, '0'),
       404,
       "{\"error\":\"not_found\","
       "\"detail\":\"code hash not in the current snapshot\"}\n"},
      {"/v1/vulns",
       400,
       "{\"error\":\"missing_class\","
       "\"detail\":\"expected /v1/vulns?class=<vulnerability class>\"}\n"},
      {"/v1/vulns?class=",
       400,
       "{\"error\":\"missing_class\","
       "\"detail\":\"expected /v1/vulns?class=<vulnerability class>\"}\n"},
      {"/v1/vulns?class=bogus",
       400,
       "{\"error\":\"unknown_class\","
       "\"detail\":\"unknown class; one of: function_collision "
       "storage_collision storage_collision_exploitable "
       "family_collision\"}\n"},
  };
}

/// The in-process renderer a /v1 target routes to.
obs::HttpResponse render_target(const serve::QueryService& query,
                                const std::string& target) {
  const std::size_t q = target.find('?');
  const std::string path = target.substr(0, q);
  const std::string query_string =
      q == std::string::npos ? "" : target.substr(q + 1);
  for (const std::string_view prefix : {"/v1/contract/", "/v1/codehash/"}) {
    if (!path.starts_with(prefix)) continue;
    const std::string rest = path.substr(prefix.size());
    return prefix == "/v1/contract/" ? query.contract_endpoint(rest)
                                     : query.codehash_endpoint(rest);
  }
  return query.vulns_endpoint(query_string);
}

serve::QueryServiceConfig golden_config() {
  serve::QueryServiceConfig config;
  config.max_results = 2;
  return config;
}

TEST(GoldenBodies, RenderersMatchByteForByte) {
  serve::QueryService query(golden_config());
  fill_golden(query);
  for (const GoldenCase& c : golden_cases()) {
    const obs::HttpResponse r = render_target(query, c.target);
    EXPECT_EQ(r.status, c.status) << c.target;
    EXPECT_EQ(r.content_type, "application/json") << c.target;
    EXPECT_EQ(r.body, c.body) << c.target;
  }
}

TEST(GoldenBodies, StatusBeforeTheFirstPoll) {
  datagen::Population pop = make_population(40);
  core::PipelineConfig config;
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("golden_status.journal");
  serve::QueryService query;
  const serve::ChainFollower follower(pipeline, *pop.chain, &pop.sources, sc,
                                      query, pop.sweep_inputs(),
                                      follower_config());
  const obs::HttpResponse r = follower.status_endpoint();
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.content_type, "application/json");
  EXPECT_EQ(r.body,
            "{\"following\":false,\"chain_head\":0,\"snapshot_head\":0,"
            "\"staleness_blocks\":0,\"snapshot_version\":0,"
            "\"snapshot_entries\":0,\"laps\":0,\"fast_forwards\":0,"
            "\"blocks_processed\":0,\"contracts_discovered\":0,"
            "\"last_lap_us\":0,\"last_lap_touched\":0,"
            "\"last_lap_recomputed\":0,\"degraded\":false,"
            "\"last_error\":\"\"}\n");
}

/// Splits a raw HTTP response into its status code, its Content-Length
/// header value and its body; -1 for a part that is missing.
struct RawResponse {
  int status = -1;
  long content_length = -1;
  std::string body;
};

RawResponse split_response(const std::string& raw) {
  RawResponse out;
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (raw.rfind("HTTP/1.1 ", 0) != 0 || head_end == std::string::npos) {
    return out;
  }
  out.status = std::stoi(raw.substr(9, 3));
  const std::string head = raw.substr(0, head_end + 2);
  const std::size_t cl = head.find("\r\nContent-Length: ");
  if (cl != std::string::npos) {
    out.content_length = std::stol(head.substr(cl + 18));
  }
  out.body = raw.substr(head_end + 4);
  return out;
}

TEST(GoldenBodies, LoopbackSendsTheSameBytesWithTheirLength) {
  serve::QueryService query(golden_config());
  fill_golden(query);
  obs::HttpServer server;
  query.register_endpoints(server);
  ASSERT_TRUE(server.start(0));
  for (const GoldenCase& c : golden_cases()) {
    const RawResponse r = split_response(http_get(server.port(), c.target));
    EXPECT_EQ(r.status, c.status) << c.target;
    EXPECT_EQ(r.body, c.body) << c.target;
    EXPECT_EQ(r.content_length, static_cast<long>(r.body.size())) << c.target;
  }
  // The server's own shapes: an unrouted target and an oversized body.
  const RawResponse missing = split_response(http_get(server.port(), "/v2"));
  EXPECT_EQ(missing.status, 404);
  EXPECT_EQ(missing.body,
            "no such endpoint; try /metrics /healthz /spans /v1/status\n");
  EXPECT_EQ(missing.content_length, static_cast<long>(missing.body.size()));
  server.stop();
}

TEST(JsonAppenders, MatchTheStringRenderings) {
  std::mt19937_64 rng(0xa99e);
  std::vector<evm::U256> words = {evm::U256(0), evm::U256(1), evm::U256(0xf),
                                  evm::U256(0x10), evm::U256(~0ULL)};
  for (int bits = 1; bits < 256; ++bits) {
    // Random words of every width, so every leading-nibble case occurs.
    const evm::U256 w(rng(), rng(), rng(), rng());
    words.push_back(w >> (256 - bits));
  }
  for (const evm::U256& w : words) {
    std::string out = "x";
    serve::append_u256(out, w);
    EXPECT_EQ(out, "x\"" + w.to_hex() + "\"");
  }
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t v = i == 0 ? 0 : (rng() >> (i - 1));
    std::string out = "x";
    serve::append_u64(out, v);
    EXPECT_EQ(out, "x" + std::to_string(v));
  }
  for (int i = 0; i < 32; ++i) {
    const evm::Address a =
        evm::Address::from_label("appender-" + std::to_string(i));
    std::string out = "x";
    serve::append_address(out, a);
    EXPECT_EQ(out, "x\"" + a.to_hex() + "\"");
    const crypto::Hash256 h = crypto::keccak256(a.to_hex());
    out = "x";
    serve::append_hash(out, h);
    EXPECT_EQ(out, "x\"0x" + crypto::to_hex(h) + "\"");
  }
}

}  // namespace
