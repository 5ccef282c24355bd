// Torture tests for the checkpoint journal: frame round-trips, empty and
// missing journals, truncated tails, corrupted CRC frames, record
// serialization fidelity, the append buffer's growth, retired frame types,
// and a boot over a journal of another version.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "datagen/population.h"
#include "record_oracle.h"
#include "store/crc32.h"
#include "store/durable_sweep.h"
#include "store/journal.h"
#include "store/records.h"

// Counting replacements of the global scalar operator new/delete: while
// `g_count_allocations` is set, every allocation this binary makes is
// counted, so a test can bound how often a buffer reallocates without
// timing anything.
namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t n) noexcept {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}
// Out of line, so the compiler never pairs an inlined free() with a new
// expression's pointer.
[[gnu::noinline]] void counted_free(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace {

using namespace proxion;
using namespace proxion::store;

namespace fs = std::filesystem;

/// Fresh per-test path under the build tree's temp dir.
std::string temp_path(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / "proxion_journal_tests";
  fs::create_directories(dir);
  const fs::path p = dir / name;
  fs::remove(p);
  return p.string();
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

/// A ContractAnalysis exercising every serialized field.
ContractRecord full_record() {
  ContractRecord rec;
  core::ContractAnalysis& a = rec.analysis;
  a.address = evm::Address::from_label("journal-test-proxy");
  a.year = 2021;
  a.has_source = true;
  a.has_tx = false;
  a.deduplicated = true;
  a.function_collision = true;
  a.storage_collision = true;
  a.storage_collision_exploitable = false;
  a.logic_has_source = true;
  a.proxy.verdict = core::ProxyVerdict::kProxy;
  a.proxy.has_delegatecall_opcode = true;
  a.proxy.delegatecall_executed = true;
  a.proxy.calldata_forwarded = true;
  a.proxy.halt = evm::HaltReason::kReturn;
  a.proxy.logic_address = evm::Address::from_label("journal-test-logic");
  a.proxy.logic_source = core::LogicSource::kStorageSlot;
  a.proxy.logic_slot = evm::U256::from_hex(
      "360894a13ba1a3210667c828492db98dca3e2076cc3735a920a3ca505d382bbc");
  a.proxy.standard = core::ProxyStandard::kEip1967;
  a.proxy.static_triage = core::StaticTriage::kEmulated;
  a.proxy.static_mismatch = core::kMismatchSlot;
  a.proxy.probe_selector = 0xDEADBEEF;
  a.proxy.emulation_steps = 12'345;
  a.logic_history.logic_addresses = {
      evm::Address::from_label("logic-v1"), evm::Address::from_label("logic-v2")};
  a.logic_history.upgrade_events = 1;
  a.logic_history.api_calls = 26;
  a.diamond.is_diamond = true;
  a.diamond.routed_selectors = {0x11223344u, 0x55667788u};
  a.diamond.facets = {evm::Address::from_label("facet-a")};
  static const std::vector<std::uint8_t> blob{0x60, 0x80, 0x60, 0x40};
  rec.code_hash = crypto::keccak256(blob);
  rec.dependencies.donor = evm::Address::from_label("journal-test-donor");
  rec.dependencies.logic = {
      {a.logic_history.logic_addresses[0], crypto::keccak256("logic-v1 code"),
       evm::Address::from_label("logic-v1-donor")},
      {a.logic_history.logic_addresses[1], crypto::keccak256("logic-v2 code"),
       evm::Address{}}};
  return rec;
}

TEST(Crc32c, KnownVector) {
  // The CRC-32C check value for "123456789".
  const char* s = "123456789";
  EXPECT_EQ(crc32c(s, 9), 0xE3069283u);
}

TEST(Crc32c, SeedChainsAcrossBuffers) {
  const char* s = "123456789";
  const std::uint32_t split = crc32c(s + 4, 5, crc32c(s, 4));
  EXPECT_EQ(split, crc32c(s, 9));
}

/// Bit-at-a-time reference CRC32C: the definition of the checksum, with no
/// table to get wrong. Only the tests use it.
std::uint32_t reference_crc32c(const std::uint8_t* p, std::size_t len,
                               std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc32c, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Every length through several 8-byte words plus every tail, from every
  // start offset within a word, so the word loop, the tail loop and
  // unaligned loads are all compared against the reference.
  std::vector<std::uint8_t> buf(1'100 + 8);
  std::uint64_t x = 0x243F6A8885A308D3ull;
  for (std::uint8_t& b : buf) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<std::uint8_t>(x >> 56);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const std::uint8_t* p = buf.data() + offset;
    for (std::size_t len = 0; len <= 1'100; ++len) {
      ASSERT_EQ(crc32c(p, len), reference_crc32c(p, len, 0))
          << "offset " << offset << " length " << len;
    }
  }
  // Chained seeds: any split point, any seed, equals the reference.
  for (const std::uint32_t seed : {0u, 1u, 0xE3069283u, 0xFFFFFFFFu}) {
    for (std::size_t cut = 0; cut <= 300; cut += 7) {
      const std::uint32_t head = crc32c(buf.data(), cut, seed);
      EXPECT_EQ(crc32c(buf.data() + cut, 300 - cut, head),
                reference_crc32c(buf.data(), 300, seed))
          << "seed " << seed << " cut " << cut;
    }
  }
}

TEST(Journal, FrameRoundTrip) {
  const std::string path = temp_path("roundtrip.journal");
  {
    auto writer = JournalWriter::create(path);
    ASSERT_TRUE(writer.has_value());
    ASSERT_TRUE(writer->append(RecordType::kContract,
                               encode_contract_record(full_record())));
    ASSERT_TRUE(writer->append(RecordType::kShardCommit,
                               encode_shard_commit({7, 1})));
    ASSERT_TRUE(writer->sync());
  }
  const auto replay = read_journal(path);
  ASSERT_TRUE(replay.has_value());
  ASSERT_EQ(replay->frames.size(), 2u);
  EXPECT_FALSE(replay->tail_dropped);
  EXPECT_EQ(replay->crc_failures, 0u);

  ASSERT_EQ(replay->frames[0].type, RecordType::kContract);
  const auto rec = decode_contract_record(replay->frames[0].payload);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(*rec, full_record());  // field-for-field, incl. nested reports

  ASSERT_EQ(replay->frames[1].type, RecordType::kShardCommit);
  const auto commit = decode_shard_commit(replay->frames[1].payload);
  ASSERT_TRUE(commit.has_value());
  EXPECT_EQ(commit->shard_index, 7u);
  EXPECT_EQ(commit->contracts, 1u);
}

TEST(Journal, QuarantinedRecordRoundTrip) {
  ContractRecord rec = full_record();
  rec.analysis.error = core::ErrorRecord{core::ErrorKind::kRpcExhausted,
                                         "pairs", "breaker open"};
  const auto decoded = decode_contract_record(encode_contract_record(rec));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, rec);
}

TEST(Journal, RecordEncodingIsPinnedByteForByte) {
  // Golden values of the record encoding (unchanged from v3 to v4): any
  // change to the bytes a record encodes to, however it is built, fails
  // here before it reaches a journal.
  const std::vector<std::uint8_t> full = encode_contract_record(full_record());
  EXPECT_EQ(full.size(), 358u);
  EXPECT_EQ(crc32c(full.data(), full.size()), 0x460743DBu);
  ContractRecord quarantined = full_record();
  quarantined.analysis.error = core::ErrorRecord{
      core::ErrorKind::kRpcExhausted, "pairs", "breaker open"};
  const std::vector<std::uint8_t> q = encode_contract_record(quarantined);
  EXPECT_EQ(q.size(), 384u);
  EXPECT_EQ(crc32c(q.data(), q.size()), 0x4CBE2DB9u);
  const std::vector<std::uint8_t> commit = encode_shard_commit({3, 64});
  EXPECT_EQ(crc32c(commit.data(), commit.size()), 0x4B88312Bu);

  // The buffer is sized once: encoding allocates only the bytes it returns.
  const ContractRecord rec = full_record();
  g_allocations = 0;
  g_count_allocations = true;
  const std::vector<std::uint8_t> again = encode_contract_record(rec);
  g_count_allocations = false;
  EXPECT_EQ(g_allocations.load(), 1u);
  EXPECT_EQ(again, full);
}

TEST(Journal, EmptyJournalIsValid) {
  const std::string path = temp_path("empty.journal");
  { ASSERT_TRUE(JournalWriter::create(path).has_value()); }
  const auto replay = read_journal(path);
  ASSERT_TRUE(replay.has_value());
  EXPECT_TRUE(replay->frames.empty());
  EXPECT_EQ(replay->valid_bytes, kJournalHeaderSize);
  EXPECT_FALSE(replay->tail_dropped);
}

TEST(Journal, MissingFileIsNullopt) {
  const std::string path = temp_path("missing.journal");
  EXPECT_FALSE(read_journal(path).has_value());
  EXPECT_FALSE(JournalWriter::open_append(path).has_value());
}

TEST(Journal, GarbageHeaderIsNullopt) {
  const std::string path = temp_path("garbage.journal");
  write_file(path, {'n', 'o', 't', 'a', 'j', 'r', 'n', 'l', 1, 0, 0, 0});
  EXPECT_FALSE(read_journal(path).has_value());
}

TEST(Journal, TruncatedTailIsDropped) {
  const std::string path = temp_path("torn.journal");
  {
    auto writer = JournalWriter::create(path);
    ASSERT_TRUE(writer.has_value());
    ASSERT_TRUE(writer->append(RecordType::kContract,
                               encode_contract_record(full_record())));
    ASSERT_TRUE(writer->append(RecordType::kShardCommit,
                               encode_shard_commit({0, 1})));
    ASSERT_TRUE(writer->sync());
  }
  // Tear the last frame mid-way, as a crash mid-write would.
  std::vector<std::uint8_t> bytes = file_bytes(path);
  const std::size_t torn_size = bytes.size() - 5;
  bytes.resize(torn_size);
  write_file(path, bytes);

  const auto replay = read_journal(path);
  ASSERT_TRUE(replay.has_value());
  ASSERT_EQ(replay->frames.size(), 1u);  // the commit frame is gone
  EXPECT_TRUE(replay->tail_dropped);
  EXPECT_LT(replay->valid_bytes, torn_size);

  // Appending resumes AFTER the valid prefix: the torn bytes are overwritten
  // and the journal reads back clean.
  {
    auto writer = JournalWriter::open_append(path);
    ASSERT_TRUE(writer.has_value());
    ASSERT_TRUE(writer->append(RecordType::kShardCommit,
                               encode_shard_commit({0, 1})));
    ASSERT_TRUE(writer->sync());
  }
  const auto healed = read_journal(path);
  ASSERT_TRUE(healed.has_value());
  ASSERT_EQ(healed->frames.size(), 2u);
  EXPECT_EQ(healed->frames[1].type, RecordType::kShardCommit);
}

TEST(Journal, CorruptedCrcStopsReplay) {
  const std::string path = temp_path("bitrot.journal");
  std::uint64_t first_frame_end = 0;
  {
    auto writer = JournalWriter::create(path);
    ASSERT_TRUE(writer.has_value());
    ASSERT_TRUE(writer->append(RecordType::kContract,
                               encode_contract_record(full_record())));
    first_frame_end = writer->size_bytes();
    ASSERT_TRUE(writer->append(RecordType::kContract,
                               encode_contract_record(full_record())));
    ASSERT_TRUE(writer->append(RecordType::kShardCommit,
                               encode_shard_commit({0, 2})));
    ASSERT_TRUE(writer->sync());
  }
  std::vector<std::uint8_t> bytes = file_bytes(path);
  bytes[first_frame_end + 20] ^= 0xFF;  // flip a payload byte of frame 2
  write_file(path, bytes);

  const auto replay = read_journal(path);
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(replay->frames.size(), 1u);  // replay stops at the bad frame
  EXPECT_EQ(replay->crc_failures, 1u);
  EXPECT_TRUE(replay->tail_dropped);
}

TEST(Journal, RejectsOversizedLengthField) {
  const std::string path = temp_path("hostile.journal");
  { ASSERT_TRUE(JournalWriter::create(path).has_value()); }
  std::vector<std::uint8_t> bytes = file_bytes(path);
  // A frame claiming a ~4 GiB payload must read as a torn tail, not an
  // allocation.
  for (int i = 0; i < 4; ++i) bytes.push_back(0xFF);
  bytes.push_back(2);
  write_file(path, bytes);
  const auto replay = read_journal(path);
  ASSERT_TRUE(replay.has_value());
  EXPECT_TRUE(replay->frames.empty());
  EXPECT_TRUE(replay->tail_dropped);
}

TEST(Journal, DecodeRejectsTrailingBytes) {
  std::vector<std::uint8_t> payload = encode_contract_record(full_record());
  ASSERT_TRUE(decode_contract_record(payload).has_value());
  // Every strict prefix is short somewhere: the dependency list's length
  // is the logic history's, so a cut inside it cannot pass for a shorter
  // list.
  for (std::size_t n = 0; n < payload.size(); ++n) {
    EXPECT_FALSE(decode_contract_record(
                     std::span<const std::uint8_t>(payload.data(), n))
                     .has_value())
        << "prefix of " << n << " of " << payload.size() << " bytes";
  }
  payload.push_back(0x00);
  EXPECT_FALSE(decode_contract_record(payload).has_value());
}

TEST(Journal, VersionTwoJournalBootsAsAFreshSweep) {
  // Readers reject a journal of another version, such as v2 or v3,
  // wholesale. A boot over one replays nothing: it starts a new journal and
  // sweeps every input, so its records are a cold sweep's.
  datagen::PopulationSpec spec;
  spec.total_contracts = 300;
  datagen::Population pop = datagen::PopulationGenerator().generate(spec);
  const std::vector<core::SweepInput> inputs = pop.sweep_inputs();
  DurableSweepConfig cold;
  cold.journal_path = temp_path("older_version_cold.journal");
  cold.shard_size = 100;
  {
    core::AnalysisPipeline cold_pipeline(*pop.chain, &pop.sources);
    ASSERT_TRUE(DurableSweep(cold_pipeline, *pop.chain, &pop.sources, cold)
                    .run(inputs)
                    .error.empty());
  }
  for (const std::uint8_t version : {2, 3}) {
    SCOPED_TRACE("journal version " + std::to_string(version));
    DurableSweepConfig sc = cold;
    sc.journal_path = temp_path("older_version.journal");
    {
      core::AnalysisPipeline piped(*pop.chain, &pop.sources);
      ASSERT_TRUE(DurableSweep(piped, *pop.chain, &pop.sources, sc)
                      .run(inputs)
                      .error.empty());
    }
    // The header's u16 version follows the 8-byte magic, little-endian.
    std::vector<std::uint8_t> bytes = file_bytes(sc.journal_path);
    ASSERT_GE(bytes.size(), kJournalHeaderSize);
    ASSERT_EQ(bytes[8] | (bytes[9] << 8), kJournalVersion);
    bytes[8] = version;
    bytes[9] = 0;
    write_file(sc.journal_path, bytes);
    ASSERT_FALSE(read_journal(sc.journal_path).has_value());

    core::AnalysisPipeline piped(*pop.chain, &pop.sources);
    const DurableSweepResult boot =
        DurableSweep(piped, *pop.chain, &pop.sources, sc)
            .incremental(inputs, {});
    ASSERT_TRUE(boot.error.empty()) << boot.error;
    EXPECT_TRUE(boot.complete);
    EXPECT_EQ(boot.replayed, 0u);
    EXPECT_EQ(boot.recomputed, inputs.size());
    test_oracle::expect_same_records(sc.journal_path, cold.journal_path);
  }
}

TEST(Journal, RetiredFrameTypesAreNotFrames) {
  // Types 1 and 4 (v3's sweep begin and end) are no frame type in v4. A
  // CRC-valid frame carrying one ends a plain scan, and salvage skips it
  // as one corrupt gap, keeping the frames past it.
  for (const std::uint8_t retired : {1, 4}) {
    SCOPED_TRACE("frame type " + std::to_string(retired));
    const std::string path = temp_path("retired.journal");
    std::uint64_t retired_at = 0;
    {
      auto writer = JournalWriter::create(path);
      ASSERT_TRUE(writer.has_value());
      ASSERT_TRUE(writer->append(RecordType::kContract,
                                 encode_contract_record(full_record())));
      retired_at = writer->size_bytes();
      ASSERT_TRUE(writer->append(RecordType::kShardCommit,
                                 encode_shard_commit({0, 1})));
      ASSERT_TRUE(writer->sync());
    }
    // Between the two, the frame a v3 writer would have written: length,
    // type, 8 payload bytes, CRC32C over type and payload.
    const std::vector<std::uint8_t> body{retired, 100, 0, 0, 0, 0, 0, 0, 0};
    const std::uint32_t crc = crc32c(body.data(), body.size());
    std::vector<std::uint8_t> frame{8, 0, 0, 0};
    frame.insert(frame.end(), body.begin(), body.end());
    for (int i = 0; i < 4; ++i) {
      frame.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
    }
    std::vector<std::uint8_t> bytes = file_bytes(path);
    bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(retired_at),
                 frame.begin(), frame.end());
    write_file(path, bytes);

    const auto plain = read_journal(path);
    ASSERT_TRUE(plain.has_value());
    ASSERT_EQ(plain->frames.size(), 1u);
    EXPECT_EQ(plain->frames[0].type, RecordType::kContract);
    EXPECT_EQ(plain->valid_bytes, retired_at);
    EXPECT_EQ(plain->crc_failures, 0u);
    EXPECT_TRUE(plain->tail_dropped);

    const auto salvaged =
        read_journal(path, util::Vfs::real(), ReplayOptions{.salvage = true});
    ASSERT_TRUE(salvaged.has_value());
    ASSERT_EQ(salvaged->frames.size(), 2u);
    EXPECT_EQ(salvaged->frames[0].type, RecordType::kContract);
    EXPECT_EQ(salvaged->frames[1].type, RecordType::kShardCommit);
    EXPECT_EQ(salvaged->corrupt_gaps, 1u);
    EXPECT_EQ(salvaged->gap_bytes, frame.size());
    EXPECT_FALSE(salvaged->tail_dropped);
  }
}

TEST(Journal, EncodeRejectsDependenciesOffTheHistory) {
  // The encoding stores each logic address once, in the history: a
  // dependency list that names other addresses could not round-trip.
  ContractRecord rec = full_record();
  rec.dependencies.logic.pop_back();
  EXPECT_THROW(encode_contract_record(rec), std::invalid_argument);
  rec = full_record();
  rec.dependencies.logic[0].address = evm::Address::from_label("elsewhere");
  EXPECT_THROW(encode_contract_record(rec), std::invalid_argument);
}

TEST(Journal, DecodeRejectsOutOfRangeEnum) {
  std::vector<std::uint8_t> payload = encode_contract_record(full_record());
  // Byte 34 is the verdict (20 address + 4 year + 1 flags + 1 flags2 +
  // 4 pairs-family-checked + 4 pairs-source-free).
  payload[34] = 0x77;
  EXPECT_FALSE(decode_contract_record(payload).has_value());
}

TEST(Journal, AppendBufferGrowsGeometrically) {
  // Past a MiB of ~190-byte frames with no sync(), the append buffer
  // reallocates a logarithmic number of times in the bytes appended, not
  // once per frame (an exact-size reserve per append would copy the whole
  // buffer every time).
  const std::string path = temp_path("growth.journal");
  auto writer = JournalWriter::create(path);
  ASSERT_TRUE(writer.has_value());
  const std::vector<std::uint8_t> payload(190 - kFrameOverhead, 0x5a);
  std::size_t appended = 0;
  bool ok = true;
  g_allocations = 0;
  g_count_allocations = true;
  while (ok && appended < (std::size_t{1} << 20) + 4096) {
    ok = writer->append(RecordType::kContract, payload).ok;
    appended += kFrameOverhead + payload.size();
  }
  g_count_allocations = false;
  ASSERT_TRUE(ok);
  EXPECT_EQ(writer->frames_appended(), appended / 190);
  EXPECT_LE(g_allocations.load(), 2 * std::bit_width(appended))
      << "allocations while appending " << appended << " bytes";
}

}  // namespace
