// Bit-flip fuzz over serialized journals: EVERY single-byte corruption of a
// valid journal must either replay a valid prefix (non-salvage), an ordered
// subsequence of the original frames (salvage resync), or fail cleanly
// (header damage) — never crash, never surface a frame that was not in the
// original. Runs against the in-memory model filesystem so it is fast
// enough to be exhaustive and is wired into tools/sanitize_smoke.sh.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "store/journal.h"
#include "util/vfs_fault.h"

namespace {

using namespace proxion;
using store::JournalFrame;
using store::JournalReplay;
using store::JournalWriter;
using store::ReplayOptions;
using util::FaultInjectingVfs;
using util::Vfs;

std::vector<std::uint8_t> payload_of(std::size_t n, std::uint8_t fill) {
  return std::vector<std::uint8_t>(n, fill);
}

/// Builds a journal with a spread of frame sizes (including empty) in `vfs`.
std::vector<JournalFrame> build_journal(FaultInjectingVfs& vfs,
                                        const std::string& path) {
  auto writer = JournalWriter::create(path, vfs);
  EXPECT_TRUE(writer.has_value());
  const std::size_t sizes[] = {0, 1, 7, 24, 40, 3};
  std::vector<JournalFrame> frames;
  for (std::size_t k = 0; k < std::size(sizes); ++k) {
    JournalFrame f;
    f.type = k % 2 == 0 ? store::RecordType::kContract
                        : store::RecordType::kShardCommit;
    f.payload = payload_of(sizes[k], static_cast<std::uint8_t>(0x30 + k));
    EXPECT_TRUE(writer->append(f.type, f.payload));
    frames.push_back(std::move(f));
  }
  EXPECT_TRUE(writer->sync());
  EXPECT_TRUE(vfs.sync_dir(path));
  return frames;
}

bool same_frame(const JournalFrame& a, const JournalFrame& b) {
  return a.type == b.type && a.payload == b.payload;
}

/// True when `got` is `orig` cut off at some index (valid-prefix property).
bool is_prefix(const std::vector<JournalFrame>& got,
               const std::vector<JournalFrame>& orig) {
  if (got.size() > orig.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!same_frame(got[i], orig[i])) return false;
  }
  return true;
}

/// True when `got` is an ordered subsequence of `orig` (salvage property:
/// corrupt gaps drop frames, never invent or reorder them).
bool is_subsequence(const std::vector<JournalFrame>& got,
                    const std::vector<JournalFrame>& orig) {
  std::size_t j = 0;
  for (const JournalFrame& f : got) {
    while (j < orig.size() && !same_frame(orig[j], f)) ++j;
    if (j == orig.size()) return false;
    ++j;
  }
  return true;
}

TEST(JournalFuzz, EverySingleByteCorruptionRecoversOrFailsCleanly) {
  FaultInjectingVfs vfs;
  const std::string path = "fuzz/journal";
  const std::vector<JournalFrame> orig = build_journal(vfs, path);
  const std::size_t file_size = vfs.peek(path)->size();
  ASSERT_GT(file_size, store::kJournalHeaderSize);

  for (std::size_t i = 0; i < file_size; ++i) {
    SCOPED_TRACE("corrupt byte " + std::to_string(i));
    ASSERT_TRUE(vfs.flip_byte(path, i));

    const auto plain = store::read_journal(path, vfs);
    const auto salvage =
        store::read_journal(path, vfs, ReplayOptions{.salvage = true});

    // Magic/version damage is unrecoverable by design and must fail
    // CLEANLY (nullopt). Everything else parses (reserved bytes are
    // ignored; frame damage drops frames).
    if (i < store::kJournalMagicSize + 2) {
      EXPECT_FALSE(plain.has_value());
      EXPECT_FALSE(salvage.has_value());
    } else {
      ASSERT_TRUE(plain.has_value());
      ASSERT_TRUE(salvage.has_value());
      EXPECT_LE(plain->valid_bytes, file_size);
      EXPECT_LE(salvage->valid_bytes, file_size);
      // Never a frame that was not in the original, never out of order.
      EXPECT_TRUE(is_prefix(plain->frames, orig));
      EXPECT_TRUE(is_subsequence(salvage->frames, orig));
      // Salvage never recovers less than the plain scan.
      EXPECT_GE(salvage->frames.size(), plain->frames.size());
      if (i >= store::kJournalHeaderSize) {
        // One corrupt byte hits exactly one frame: salvage loses at most
        // that frame.
        EXPECT_GE(salvage->frames.size(), orig.size() - 1);
      }
    }

    ASSERT_TRUE(vfs.flip_byte(path, i));  // xor 0xFF is self-inverse
  }

  // The restored journal reads back whole (the fuzz loop left no damage).
  const auto clean = store::read_journal(path, vfs);
  ASSERT_TRUE(clean.has_value());
  EXPECT_EQ(clean->frames.size(), orig.size());
  EXPECT_FALSE(clean->tail_dropped);
}

TEST(JournalFuzz, OpenAppendAfterCorruptionPreservesTornSidecar) {
  FaultInjectingVfs vfs;
  const std::string path = "fuzz/journal2";
  const std::vector<JournalFrame> orig = build_journal(vfs, path);
  const std::size_t file_size = vfs.peek(path)->size();

  // Corrupt the LAST frame (its CRC trailer): a plain scan drops it as a
  // torn tail; open_append must save the dropped bytes to the sidecar,
  // truncate them off, and leave an appendable journal.
  ASSERT_TRUE(vfs.flip_byte(path, file_size - 1));
  auto writer = JournalWriter::open_append(path, vfs);
  ASSERT_TRUE(writer.has_value());
  const std::string sidecar = store::torn_sidecar_path_for(path);
  ASSERT_TRUE(vfs.exists(sidecar));
  EXPECT_GT(vfs.peek(sidecar)->size(), 0u);
  EXPECT_EQ(writer->size_bytes(), vfs.peek(path)->size());

  // Appending after the heal yields a clean journal: original frames minus
  // the torn one, plus the new one.
  const std::vector<std::uint8_t> extra(9, 0x77);
  ASSERT_TRUE(writer->append(store::RecordType::kShardCommit, extra));
  ASSERT_TRUE(writer->sync());
  const auto replay = store::read_journal(path, vfs);
  ASSERT_TRUE(replay.has_value());
  EXPECT_FALSE(replay->tail_dropped);
  ASSERT_EQ(replay->frames.size(), orig.size());
  EXPECT_EQ(replay->frames.back().payload, extra);
}

TEST(JournalFuzz, SalvageKeepsFramesPastMidFileBitRot) {
  FaultInjectingVfs vfs;
  const std::string path = "fuzz/journal3";
  const std::vector<JournalFrame> orig = build_journal(vfs, path);

  // Hit the middle frame's payload. Plain scan stops there; salvage loses
  // exactly that frame and keeps everything after.
  std::size_t pos = store::kJournalHeaderSize;
  for (std::size_t k = 0; k < 2; ++k) {
    pos += store::kFrameOverhead + orig[k].payload.size();
  }
  const std::size_t victim_byte = pos + 5;  // first payload byte of frame 2
  ASSERT_TRUE(vfs.flip_byte(path, victim_byte));

  const auto plain = store::read_journal(path, vfs);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->frames.size(), 2u);
  EXPECT_EQ(plain->crc_failures, 1u);

  const auto salvage =
      store::read_journal(path, vfs, ReplayOptions{.salvage = true});
  ASSERT_TRUE(salvage.has_value());
  ASSERT_EQ(salvage->frames.size(), orig.size() - 1);
  EXPECT_EQ(salvage->corrupt_gaps, 1u);
  EXPECT_GT(salvage->gap_bytes, 0u);
  EXPECT_FALSE(salvage->tail_dropped);
  // Frames 0,1 then 3.. survive bit-identical.
  EXPECT_TRUE(same_frame(salvage->frames[2], orig[3]));
}

}  // namespace
