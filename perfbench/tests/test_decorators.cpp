// The benchmark's decorators only observe: a sweep through each one is
// bit-identical to a sweep without it, and the counts they report add up.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "chain/archive_node.h"
#include "core/pipeline.h"
#include "datagen/population.h"
#include "decorators.h"
#include "spans.h"
#include "store/durable_sweep.h"
#include "store/journal.h"
#include "store/records.h"
#include "util/vfs.h"

namespace {

using namespace proxion;

datagen::Population small_population() {
  datagen::PopulationSpec spec;
  spec.total_contracts = 300;
  spec.seed = 7;
  return datagen::PopulationGenerator().generate(spec);
}

std::vector<store::ContractRecord> records_of(const std::string& journal) {
  std::vector<store::ContractRecord> out;
  const auto replay = store::read_journal(journal);
  if (!replay) return out;
  for (const store::JournalFrame& f : replay->frames) {
    if (f.type != store::RecordType::kContract) continue;
    if (auto rec = store::decode_contract_record(f.payload)) {
      out.push_back(std::move(*rec));
    }
  }
  return out;
}

std::vector<store::ContractRecord> durable_sweep(datagen::Population& pop,
                                                 const std::string& journal,
                                                 chain::IArchiveNode* archive,
                                                 util::Vfs* vfs) {
  core::PipelineConfig config;
  config.archive_node = archive;
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sc;
  sc.journal_path = journal;
  sc.vfs = vfs;
  sc.shard_size = 64;
  store::DurableSweep sweep(pipeline, *pop.chain, &pop.sources, sc);
  const store::DurableSweepResult result = sweep.run(pop.sweep_inputs());
  EXPECT_TRUE(result.error.empty()) << result.error;
  EXPECT_TRUE(result.complete);
  return records_of(journal);
}

std::string temp_journal(const char* name) {
  return ::testing::TempDir() + "/perfbench_" + name + ".journal";
}

TEST(Decorators, ArchiveDecoratorSweepIsBitIdentical) {
  datagen::Population pop = small_population();
  const std::string journal = temp_journal("archive");
  const auto plain = durable_sweep(pop, journal, nullptr, nullptr);
  ASSERT_EQ(plain.size(), pop.contracts.size());

  chain::ArchiveNode base(*pop.chain);
  perfbench::RemoteArchiveNode counting(base, 0);
  EXPECT_EQ(durable_sweep(pop, journal, &counting, nullptr), plain);
  const perfbench::ArchiveCounts c = counting.counts();
  EXPECT_GT(c.code_fetches, 0u);
  EXPECT_GT(c.storage_queries, 0u);
  EXPECT_GE(c.storage_queries, c.storage_batches + c.storage_calls);

  // With a modelled round trip every call waits at least that long.
  perfbench::RemoteArchiveNode remote(base, 20'000);
  EXPECT_EQ(durable_sweep(pop, journal, &remote, nullptr), plain);
  const perfbench::ArchiveCounts r = remote.counts();
  EXPECT_EQ(r.code_fetches, c.code_fetches);
  EXPECT_EQ(r.storage_queries, c.storage_queries);
  EXPECT_GE(r.busy_ns,
            20'000 * (r.code_fetches + r.storage_batches + r.storage_calls));
  std::remove(journal.c_str());
}

TEST(Decorators, TimingVfsSweepIsBitIdentical) {
  datagen::Population pop = small_population();
  const std::string journal = temp_journal("vfs");
  const auto plain = durable_sweep(pop, journal, nullptr, nullptr);

  perfbench::TimingVfs vfs(util::Vfs::real());
  EXPECT_EQ(durable_sweep(pop, journal, nullptr, &vfs), plain);
  const perfbench::VfsCounts c = vfs.counts();
  const auto bytes = util::Vfs::real().read_file(journal);
  ASSERT_TRUE(bytes.has_value());
  // Journal bytes plus the manifest rewrites all pass through the decorator.
  EXPECT_GE(c.write_bytes, bytes->size());
  EXPECT_GT(c.fsyncs, 0u);
  EXPECT_GE(c.io_ns, c.fsync_ns);
  std::remove(journal.c_str());
}

TEST(Spans, LayerTotalsCountSelfAndBusyTime) {
  perfbench::set_tracing(true);
  {
    perfbench::Span outer("testlayer", "outer");
    perfbench::Span inner("testlayer", "inner");
  }
  perfbench::set_tracing(false);
  { perfbench::Span ignored("testlayer", "off"); }
  const auto totals = perfbench::layer_totals();
  const auto it = totals.find("testlayer");
  ASSERT_NE(it, totals.end());
  EXPECT_EQ(it->second.count, 2u);
  // The nested span is not counted twice in busy time.
  EXPECT_LE(it->second.self_ms, it->second.busy_ms + 1e-9);
}

}  // namespace
