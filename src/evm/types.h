// Core value types for the EVM: 256-bit words (U256), 20-byte addresses, and
// raw byte buffers. U256 implements the full arithmetic the EVM instruction
// set needs (wrapping add/sub/mul, div/mod, signed variants, exp, shifts,
// byte extraction) on four 64-bit limbs.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/keccak.h"

namespace proxion::evm {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// 256-bit unsigned integer, little-endian limb order (limbs_[0] = least
/// significant 64 bits). All arithmetic wraps modulo 2^256, matching EVM
/// semantics.
class U256 {
 public:
  constexpr U256() noexcept : limbs_{} {}
  constexpr U256(std::uint64_t v) noexcept : limbs_{v, 0, 0, 0} {}  // NOLINT: implicit by design — EVM code is full of small literals
  constexpr U256(std::uint64_t l3, std::uint64_t l2, std::uint64_t l1,
                 std::uint64_t l0) noexcept
      : limbs_{l0, l1, l2, l3} {}

  /// Big-endian 32-byte word -> U256.
  static U256 from_be_bytes(std::span<const std::uint8_t, 32> be) noexcept;
  /// Big-endian bytes of any length <= 32, left-padded with zeros.
  static U256 from_be_slice(BytesView be) noexcept;
  /// Parses "0x..." or bare hex (up to 64 nibbles). Throws on bad input.
  static U256 from_hex(std::string_view hex);

  /// Writes the value as a big-endian 32-byte word.
  std::array<std::uint8_t, 32> to_be_bytes() const noexcept;
  /// Lowercase minimal hex with 0x prefix (e.g. "0x0", "0x1f").
  std::string to_hex() const;

  constexpr std::uint64_t limb(std::size_t i) const noexcept {
    return limbs_[i];
  }
  /// Low 64 bits (truncating).
  constexpr std::uint64_t low64() const noexcept { return limbs_[0]; }
  /// True iff the value fits in 64 bits.
  constexpr bool fits_u64() const noexcept {
    return limbs_[1] == 0 && limbs_[2] == 0 && limbs_[3] == 0;
  }
  constexpr bool is_zero() const noexcept {
    return (limbs_[0] | limbs_[1] | limbs_[2] | limbs_[3]) == 0;
  }
  /// Sign bit (bit 255), for the EVM's signed instructions.
  constexpr bool is_negative() const noexcept {
    return (limbs_[3] >> 63) != 0;
  }
  /// Index of the highest set bit, or -1 for zero.
  int bit_length() const noexcept;

  friend constexpr bool operator==(const U256&, const U256&) noexcept =
      default;
  std::strong_ordering operator<=>(const U256& rhs) const noexcept;

  U256 operator+(const U256& rhs) const noexcept;
  U256 operator-(const U256& rhs) const noexcept;
  U256 operator*(const U256& rhs) const noexcept;
  /// EVM DIV: division by zero yields zero.
  U256 operator/(const U256& rhs) const noexcept;
  /// EVM MOD: modulo zero yields zero.
  U256 operator%(const U256& rhs) const noexcept;

  U256 operator&(const U256& rhs) const noexcept;
  U256 operator|(const U256& rhs) const noexcept;
  U256 operator^(const U256& rhs) const noexcept;
  U256 operator~() const noexcept;
  /// Logical shifts; shift counts >= 256 yield zero (EVM SHL/SHR semantics).
  U256 operator<<(const U256& shift) const noexcept;
  U256 operator>>(const U256& shift) const noexcept;

  U256& operator+=(const U256& rhs) noexcept { return *this = *this + rhs; }
  U256& operator-=(const U256& rhs) noexcept { return *this = *this - rhs; }

  /// EVM SDIV / SMOD (two's-complement signed, div-by-zero -> 0).
  U256 sdiv(const U256& rhs) const noexcept;
  U256 smod(const U256& rhs) const noexcept;
  /// EVM SAR: arithmetic right shift.
  U256 sar(const U256& shift) const noexcept;
  /// EVM SLT / SGT.
  bool slt(const U256& rhs) const noexcept;
  bool sgt(const U256& rhs) const noexcept { return rhs.slt(*this); }
  /// EVM EXP (square-and-multiply mod 2^256).
  U256 exp(const U256& exponent) const noexcept;
  /// EVM ADDMOD / MULMOD (intermediate results not truncated to 256 bits).
  static U256 addmod(const U256& a, const U256& b, const U256& m) noexcept;
  static U256 mulmod(const U256& a, const U256& b, const U256& m) noexcept;
  /// EVM SIGNEXTEND: extends the sign of the (i+1)-th lowest byte.
  U256 signextend(const U256& byte_index) const noexcept;
  /// EVM BYTE: the i-th byte counted from the most significant end.
  std::uint8_t byte(const U256& index) const noexcept;

 private:
  std::array<std::uint64_t, 4> limbs_;  // little-endian limb order
};

/// A 20-byte Ethereum account address.
struct Address {
  std::array<std::uint8_t, 20> bytes{};

  constexpr Address() = default;
  explicit constexpr Address(std::array<std::uint8_t, 20> b) : bytes(b) {}

  /// Low 20 bytes of a 256-bit word (how CALL-family operands are read):
  /// it keeps the low 160 bits and drops the rest, so a caller needs no
  /// mask first.
  static Address from_word(const U256& w) noexcept;
  static Address from_hex(std::string_view hex);
  /// Deterministic pseudo-address for tests/datagen: keccak of a label.
  static Address from_label(std::string_view label);

  U256 to_word() const noexcept;
  std::string to_hex() const;  // "0x" + 40 hex digits
  bool is_zero() const noexcept;

  friend bool operator==(const Address&, const Address&) = default;
  auto operator<=>(const Address&) const = default;
};

struct AddressHasher {
  std::size_t operator()(const Address& a) const noexcept {
    std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the 20 bytes
    for (const std::uint8_t b : a.bytes) {
      h = (h ^ b) * 1099511628211ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

struct U256Hasher {
  std::size_t operator()(const U256& v) const noexcept {
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t i = 0; i < 4; ++i) {
      h = (h ^ v.limb(i)) * 1099511628211ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

/// keccak256 of a code blob, used as the dedup key across the population.
crypto::Hash256 code_hash(BytesView code);

/// code_hash() of empty code, keccak256(""): the code hash of an account
/// without code (EIP-1052).
inline constexpr crypto::Hash256 kEmptyCodeHash = {
    0xc5, 0xd2, 0x46, 0x01, 0x86, 0xf7, 0x23, 0x3c,
    0x92, 0x7e, 0x7d, 0xb2, 0xdc, 0xc7, 0x03, 0xc0,
    0xe5, 0x00, 0xb6, 0x53, 0xca, 0x82, 0x27, 0x3b,
    0x7b, 0xfa, 0xd8, 0x04, 0x5d, 0x85, 0xa4, 0x70};

/// U256 view of a 32-byte hash (big-endian), e.g. storage slot constants.
U256 to_u256(const crypto::Hash256& h) noexcept;

}  // namespace proxion::evm
