// CRC32C (Castagnoli) — the checksum framing every journal record. Chosen
// over CRC32 (zlib polynomial) for its better burst-error detection and
// because it is what LevelDB/RocksDB-style record logs use. Portable
// slice-by-8 software (eight 256-entry tables, one 8-byte little-endian word
// per step, the tail bytewise) so the store layer has zero dependencies
// beyond the standard library; no hardware dispatch, one code path.
#pragma once

#include <cstddef>
#include <cstdint>

namespace proxion::store {

/// CRC32C of `data[0..len)`, optionally chained: pass a previous crc32c()
/// result as `seed` to extend the checksum over discontiguous buffers
/// (the journal checksums record-type byte + payload that way).
std::uint32_t crc32c(const void* data, std::size_t len,
                     std::uint32_t seed = 0) noexcept;

}  // namespace proxion::store
