#include "store/crc32.h"

#include <array>
#include <cstring>

namespace proxion::store {

namespace {

// Reflected CRC32C polynomial (0x1EDC6F41 bit-reversed).
constexpr std::uint32_t kPoly = 0x82F63B78u;

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// Slice-by-8 tables: kTables[0] is the classic byte table; kTables[k][b] is
// the CRC of byte b followed by k zero bytes, so one 8-byte word folds in
// with eight independent lookups instead of eight dependent ones.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t len,
                     std::uint32_t seed) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = ~seed;
  for (; len >= 8; p += 8, len -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);  // little-endian hosts only
    word ^= crc;
    crc = kTables[7][word & 0xFFu] ^ kTables[6][(word >> 8) & 0xFFu] ^
          kTables[5][(word >> 16) & 0xFFu] ^ kTables[4][(word >> 24) & 0xFFu] ^
          kTables[3][(word >> 32) & 0xFFu] ^ kTables[2][(word >> 40) & 0xFFu] ^
          kTables[1][(word >> 48) & 0xFFu] ^ kTables[0][word >> 56];
  }
  for (; len > 0; ++p, --len) {
    crc = kTables[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace proxion::store
