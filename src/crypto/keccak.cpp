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

// The keccak-f[1600] permutation (24 rounds) over the 25-word state.
void keccak_f1600(std::array<std::uint64_t, 25>& a) noexcept {
  for (int round = 0; round < kRounds; ++round) {
    // Theta
    std::uint64_t c[5];
    for (int x = 0; x < 5; ++x) {
      c[x] = a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20];
    }
    for (int x = 0; x < 5; ++x) {
      const std::uint64_t d = c[(x + 4) % 5] ^ rotl64(c[(x + 1) % 5], 1);
      for (int y = 0; y < 25; y += 5) a[x + y] ^= d;
    }
    // Rho + Pi
    std::uint64_t last = a[1];
    constexpr int kPi[24] = {10, 7,  11, 17, 18, 3,  5,  16, 8,  21, 24, 4,
                             15, 23, 19, 13, 12, 2,  20, 14, 22, 9,  6,  1};
    constexpr int kRho[24] = {1,  3,  6,  10, 15, 21, 28, 36, 45, 55, 2,  14,
                              27, 41, 56, 8,  25, 43, 62, 18, 39, 61, 20, 44};
    for (int i = 0; i < 24; ++i) {
      const int j = kPi[i];
      const std::uint64_t tmp = a[j];
      a[j] = rotl64(last, static_cast<unsigned>(kRho[i]));
      last = tmp;
    }
    // Chi
    for (int y = 0; y < 25; y += 5) {
      std::uint64_t row[5];
      for (int x = 0; x < 5; ++x) row[x] = a[y + x];
      for (int x = 0; x < 5; ++x) {
        a[y + x] = row[x] ^ (~row[(x + 1) % 5] & row[(x + 2) % 5]);
      }
    }
    // Iota
    a[0] ^= kRoundConstants[round];
  }
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
