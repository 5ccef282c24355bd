// Keccak-256 as used by Ethereum (original Keccak padding 0x01, not SHA-3's
// 0x06). Self-contained; no external dependencies.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace proxion::crypto {

using Hash256 = std::array<std::uint8_t, 32>;

/// Hash-table hasher for digests: the leading bytes are already uniform.
struct Hash256Hasher {
  std::size_t operator()(const Hash256& h) const noexcept {
    std::size_t out = 0;
    for (std::size_t i = 0; i < sizeof(out); ++i) out = (out << 8) | h[i];
    return out;
  }
};

/// Keccak-256 digest of an arbitrary byte string.
Hash256 keccak256(std::span<const std::uint8_t> data);

/// Process-wide count of digests computed (one per finalize), monotonic and
/// thread-safe. Lets perf tests assert that hashing work was amortized (e.g.
/// the pipeline hashes each distinct logic blob once, not once per pair).
std::uint64_t keccak_invocations() noexcept;

/// Convenience overload hashing the raw bytes of a string (no terminator).
Hash256 keccak256(std::string_view text);

/// Incremental hasher for streaming input (used when hashing large code blobs
/// chunk-by-chunk, e.g. while deduplicating a population of contracts).
class Keccak256 {
 public:
  Keccak256() noexcept;

  void update(std::span<const std::uint8_t> data) noexcept;
  void update(std::string_view text) noexcept;

  /// Finalizes and returns the digest. The hasher must not be reused after.
  Hash256 finalize() noexcept;

 private:
  void absorb_block() noexcept;

  std::array<std::uint64_t, 25> state_{};
  std::array<std::uint8_t, 136> buffer_{};  // rate = 1088 bits = 136 bytes
  std::size_t buffered_ = 0;
};

/// Hex string ("deadbeef" or "0xdeadbeef") -> bytes. Throws std::invalid_argument
/// on odd length or non-hex characters.
std::vector<std::uint8_t> from_hex(std::string_view hex);

/// Bytes -> lowercase hex without 0x prefix.
std::string to_hex(std::span<const std::uint8_t> data);

}  // namespace proxion::crypto
