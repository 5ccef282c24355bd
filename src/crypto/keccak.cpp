#include "crypto/keccak.h"

#include <cstring>
#include <stdexcept>

#include "obs/metrics.h"

namespace proxion::crypto {
namespace {

constexpr int kRounds = 24;

constexpr std::uint64_t kRoundConstants[kRounds] = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808aULL,
    0x8000000080008000ULL, 0x000000000000808bULL, 0x0000000080000001ULL,
    0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008aULL,
    0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000aULL,
    0x000000008000808bULL, 0x800000000000008bULL, 0x8000000000008089ULL,
    0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
    0x000000000000800aULL, 0x800000008000000aULL, 0x8000000080008081ULL,
    0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL,
};

constexpr std::uint64_t rotl64(std::uint64_t x, unsigned n) noexcept {
  return (x << n) | (x >> (64 - n));
}

// The keccak-f[1600] permutation (24 rounds) over the 25-word state, lane
// (x, y) at index x + 5y. The round is written out in full with the lanes in
// locals: theta's column mix, rho's rotations (constant offsets), pi's lane
// move from (x, y) to (y, 2x + 3y) and chi fuse into one pass per output
// row, and iota folds into that pass's first lane.
void keccak_f1600(std::array<std::uint64_t, 25>& s) noexcept {
  std::uint64_t a00 = s[0], a01 = s[1], a02 = s[2], a03 = s[3], a04 = s[4];
  std::uint64_t a05 = s[5], a06 = s[6], a07 = s[7], a08 = s[8], a09 = s[9];
  std::uint64_t a10 = s[10], a11 = s[11], a12 = s[12], a13 = s[13],
                a14 = s[14];
  std::uint64_t a15 = s[15], a16 = s[16], a17 = s[17], a18 = s[18],
                a19 = s[19];
  std::uint64_t a20 = s[20], a21 = s[21], a22 = s[22], a23 = s[23],
                a24 = s[24];
  for (const std::uint64_t rc : kRoundConstants) {
    // Theta: column parities, then the mix each column's lanes take.
    const std::uint64_t c0 = a00 ^ a05 ^ a10 ^ a15 ^ a20;
    const std::uint64_t c1 = a01 ^ a06 ^ a11 ^ a16 ^ a21;
    const std::uint64_t c2 = a02 ^ a07 ^ a12 ^ a17 ^ a22;
    const std::uint64_t c3 = a03 ^ a08 ^ a13 ^ a18 ^ a23;
    const std::uint64_t c4 = a04 ^ a09 ^ a14 ^ a19 ^ a24;
    const std::uint64_t d0 = c4 ^ rotl64(c1, 1);
    const std::uint64_t d1 = c0 ^ rotl64(c2, 1);
    const std::uint64_t d2 = c1 ^ rotl64(c3, 1);
    const std::uint64_t d3 = c2 ^ rotl64(c4, 1);
    const std::uint64_t d4 = c3 ^ rotl64(c0, 1);

    // Rho + pi gather each output row's five lanes; chi mixes the row.
    std::uint64_t b0 = a00 ^ d0;
    std::uint64_t b1 = rotl64(a06 ^ d1, 44);
    std::uint64_t b2 = rotl64(a12 ^ d2, 43);
    std::uint64_t b3 = rotl64(a18 ^ d3, 21);
    std::uint64_t b4 = rotl64(a24 ^ d4, 14);
    const std::uint64_t e00 = b0 ^ (~b1 & b2) ^ rc;
    const std::uint64_t e01 = b1 ^ (~b2 & b3);
    const std::uint64_t e02 = b2 ^ (~b3 & b4);
    const std::uint64_t e03 = b3 ^ (~b4 & b0);
    const std::uint64_t e04 = b4 ^ (~b0 & b1);

    b0 = rotl64(a03 ^ d3, 28);
    b1 = rotl64(a09 ^ d4, 20);
    b2 = rotl64(a10 ^ d0, 3);
    b3 = rotl64(a16 ^ d1, 45);
    b4 = rotl64(a22 ^ d2, 61);
    const std::uint64_t e05 = b0 ^ (~b1 & b2);
    const std::uint64_t e06 = b1 ^ (~b2 & b3);
    const std::uint64_t e07 = b2 ^ (~b3 & b4);
    const std::uint64_t e08 = b3 ^ (~b4 & b0);
    const std::uint64_t e09 = b4 ^ (~b0 & b1);

    b0 = rotl64(a01 ^ d1, 1);
    b1 = rotl64(a07 ^ d2, 6);
    b2 = rotl64(a13 ^ d3, 25);
    b3 = rotl64(a19 ^ d4, 8);
    b4 = rotl64(a20 ^ d0, 18);
    const std::uint64_t e10 = b0 ^ (~b1 & b2);
    const std::uint64_t e11 = b1 ^ (~b2 & b3);
    const std::uint64_t e12 = b2 ^ (~b3 & b4);
    const std::uint64_t e13 = b3 ^ (~b4 & b0);
    const std::uint64_t e14 = b4 ^ (~b0 & b1);

    b0 = rotl64(a04 ^ d4, 27);
    b1 = rotl64(a05 ^ d0, 36);
    b2 = rotl64(a11 ^ d1, 10);
    b3 = rotl64(a17 ^ d2, 15);
    b4 = rotl64(a23 ^ d3, 56);
    const std::uint64_t e15 = b0 ^ (~b1 & b2);
    const std::uint64_t e16 = b1 ^ (~b2 & b3);
    const std::uint64_t e17 = b2 ^ (~b3 & b4);
    const std::uint64_t e18 = b3 ^ (~b4 & b0);
    const std::uint64_t e19 = b4 ^ (~b0 & b1);

    b0 = rotl64(a02 ^ d2, 62);
    b1 = rotl64(a08 ^ d3, 55);
    b2 = rotl64(a14 ^ d4, 39);
    b3 = rotl64(a15 ^ d0, 41);
    b4 = rotl64(a21 ^ d1, 2);
    const std::uint64_t e20 = b0 ^ (~b1 & b2);
    const std::uint64_t e21 = b1 ^ (~b2 & b3);
    const std::uint64_t e22 = b2 ^ (~b3 & b4);
    const std::uint64_t e23 = b3 ^ (~b4 & b0);
    const std::uint64_t e24 = b4 ^ (~b0 & b1);

    a00 = e00, a01 = e01, a02 = e02, a03 = e03, a04 = e04;
    a05 = e05, a06 = e06, a07 = e07, a08 = e08, a09 = e09;
    a10 = e10, a11 = e11, a12 = e12, a13 = e13, a14 = e14;
    a15 = e15, a16 = e16, a17 = e17, a18 = e18, a19 = e19;
    a20 = e20, a21 = e21, a22 = e22, a23 = e23, a24 = e24;
  }
  s = {a00, a01, a02, a03, a04, a05, a06, a07, a08, a09, a10, a11, a12,
       a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24};
}

}  // namespace

Keccak256::Keccak256() noexcept = default;

void Keccak256::absorb_block() noexcept {
  for (std::size_t i = 0; i < buffer_.size() / 8; ++i) {
    std::uint64_t lane = 0;
    std::memcpy(&lane, buffer_.data() + i * 8, 8);  // little-endian hosts only
    state_[i] ^= lane;
  }
  keccak_f1600(state_);
  buffered_ = 0;
}

void Keccak256::update(std::span<const std::uint8_t> data) noexcept {
  for (std::size_t i = 0; i < data.size();) {
    const std::size_t take =
        std::min(data.size() - i, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data() + i, take);
    buffered_ += take;
    i += take;
    if (buffered_ == buffer_.size()) absorb_block();
  }
}

void Keccak256::update(std::string_view text) noexcept {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

namespace {
// The invocation count lives in the process-wide metrics registry; this
// accessor caches the counter reference so the hot path never takes the
// registry's name-lookup mutex.
obs::Counter& invocation_counter() noexcept {
  static obs::Counter& c =
      obs::Registry::global().counter("crypto.keccak.invocations");
  return c;
}
}  // namespace

std::uint64_t keccak_invocations() noexcept {
  return invocation_counter().value();
}

Hash256 Keccak256::finalize() noexcept {
  invocation_counter().add(1);
  // Keccak padding: 0x01 ... 0x80 (multi-rate padding, first bit 1).
  std::memset(buffer_.data() + buffered_, 0, buffer_.size() - buffered_);
  buffer_[buffered_] = 0x01;
  buffer_[buffer_.size() - 1] |= 0x80;
  buffered_ = buffer_.size();
  absorb_block();

  Hash256 out{};
  std::memcpy(out.data(), state_.data(), out.size());
  return out;
}

Hash256 keccak256(std::span<const std::uint8_t> data) {
  Keccak256 h;
  h.update(data);
  return h.finalize();
}

Hash256 keccak256(std::string_view text) {
  Keccak256 h;
  h.update(text);
  return h.finalize();
}

std::vector<std::uint8_t> from_hex(std::string_view hex) {
  if (hex.starts_with("0x") || hex.starts_with("0X")) hex.remove_prefix(2);
  if (hex.size() % 2 != 0) {
    throw std::invalid_argument("from_hex: odd-length hex string");
  }
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    throw std::invalid_argument("from_hex: non-hex character");
  };
  std::vector<std::uint8_t> out(hex.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(nibble(hex[2 * i]) << 4 |
                                       nibble(hex[2 * i + 1]));
  }
  return out;
}

std::string to_hex(std::span<const std::uint8_t> data) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (const std::uint8_t b : data) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0x0f]);
  }
  return out;
}

}  // namespace proxion::crypto
