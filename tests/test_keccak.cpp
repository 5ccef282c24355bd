// Keccak-256 known-answer tests plus the Ethereum-specific helpers built on
// it (selectors, proxy storage slot constants, CREATE/CREATE2 addresses).
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "crypto/eth.h"
#include "crypto/keccak.h"
#include "obs/metrics.h"

namespace {

using namespace proxion::crypto;

std::string hex_of(const Hash256& h) {
  return to_hex(std::span<const std::uint8_t>(h));
}

TEST(Keccak, EmptyString) {
  // The famous Keccak-256("") digest, e.g. the default account code hash.
  EXPECT_EQ(hex_of(keccak256("")),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470");
}

TEST(Keccak, Abc) {
  EXPECT_EQ(hex_of(keccak256("abc")),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45");
}

TEST(Keccak, HelloWorld) {
  EXPECT_EQ(hex_of(keccak256("hello world")),
            "47173285a8d7341e5e972fc677286384f802f8ef42a5ec5f03bbfa254cb01fad");
}

TEST(Keccak, LongInputCrossingBlockBoundary) {
  // 200 bytes > rate (136): exercises multi-block absorption.
  std::string input(200, 'a');
  const Hash256 once = keccak256(input);
  Keccak256 streaming;
  streaming.update(std::string_view(input).substr(0, 77));
  streaming.update(std::string_view(input).substr(77));
  EXPECT_EQ(once, streaming.finalize());
}

TEST(Keccak, ExactlyOneRateBlock) {
  std::string input(136, 'x');
  Keccak256 h;
  h.update(input);
  EXPECT_EQ(h.finalize(), keccak256(input));
}

TEST(Keccak, IncrementalByteAtATime) {
  const std::string input = "the quick brown fox jumps over the lazy dog";
  Keccak256 h;
  for (const char c : input) h.update(std::string_view(&c, 1));
  EXPECT_EQ(h.finalize(), keccak256(input));
}

// ---- rate-boundary known answers -----------------------------------------

std::vector<std::uint8_t> patterned_message(std::size_t len,
                                            std::uint8_t seed) {
  std::vector<std::uint8_t> m(len);
  for (std::size_t i = 0; i < len; ++i) {
    m[i] = static_cast<std::uint8_t>(seed + i * 7 + (i >> 3));
  }
  return m;
}

TEST(Keccak, RateBoundaryKnownAnswers) {
  // Lengths straddling the 136-byte rate: 135 needs the 0x81 combined pad
  // byte, 136 gains an all-padding block, 271/272 repeat that at two blocks,
  // and 0 is the empty message. Message i is patterned_message(length, i).
  // The digests were computed by two independent permutation codes (a 4-lane
  // SWAR/AVX2 kernel and a textbook Python Keccak), not by this one.
  struct Case {
    std::size_t length;
    const char* digest;
  };
  const Case cases[] = {
      {0, "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"},
      {1, "5fe7f977e71dba2ea1a68e21057beebb9be2ac30c6410aa38d4f3fbe41dcffd2"},
      {31, "260ad3688d845dfc8ab34e7d7772d7cf2839b88f30e08efb494feed2a75923e6"},
      {32, "ac0c64f1e0ba9c7d27dbdd75485a2ea54a6f3f91841868ab107a31072778573e"},
      {135, "77f3278c36e21b7761fc6013844dff6b9cc4d9f83622cf93197016f9b8c4116b"},
      {136, "aeaa48983d69dba4f006d8609fc60583ef846f204e923210994a53f72dd44c54"},
      {137, "d7ffa62f8dd3619c978ab9687aa0482f89bb43c8196619f5cd464766e8428eb9"},
      {200, "e0c301a44d64de877d6fede6fb178f9e9f135cbabdab21b87149f0ed63568bd0"},
      {271, "8a6e8914de8d972397a5db0181c6b61254cb6289d68ffb652d81f5fdb49ca8cb"},
      {272, "1eef1192098c9776350b96ce38113b3c3304163b8599f003ea83300b15128719"},
      {500, "784fb74bd8ff1368426400f76e5569695766b6710cfe5878a7a83d793f49ecbf"},
  };
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const auto msg =
        patterned_message(cases[i].length, static_cast<std::uint8_t>(i));
    EXPECT_EQ(hex_of(keccak256(msg)), cases[i].digest)
        << "length " << cases[i].length;
  }
}

TEST(Keccak, MultiPermutationKnownAnswers) {
  // Inputs that chain many permutations: an EIP-170 maximum-size (24,576
  // byte) code blob, 181 blocks, and a 10 * 136 + 7 byte message, whose
  // eleventh block is 7 bytes plus padding. Digests computed with the
  // loop-form permutation this one replaced and checked against a
  // textbook Python Keccak.
  const auto code = patterned_message(24576, 0x60);
  EXPECT_EQ(hex_of(keccak256(code)),
            "b06c29f98ef335abd648df30ad30dbdd12a6665c2db098654fa3b379fb05fd75");
  const auto message = patterned_message(10 * 136 + 7, 0x0b);
  EXPECT_EQ(hex_of(keccak256(message)),
            "74d1f0b0e45ce3d4dfb0e27cce509738b87a05f787c97af8bc41a47e63c45f2a");

  // Streaming the code blob in chunks that straddle block boundaries lands
  // on the same digest.
  Keccak256 streaming;
  for (std::size_t at = 0; at < code.size(); at += 1000) {
    streaming.update(std::span<const std::uint8_t>(code).subspan(
        at, std::min<std::size_t>(1000, code.size() - at)));
  }
  EXPECT_EQ(hex_of(streaming.finalize()),
            "b06c29f98ef335abd648df30ad30dbdd12a6665c2db098654fa3b379fb05fd75");
}

// ---- selector memo --------------------------------------------------------

TEST(SelectorMemo, MemoizedMatchesDirectHash) {
  set_selector_memo_enabled(true);
  clear_selector_memo();
  const Selector first = selector_of("transfer(address,uint256)");
  const Selector again = selector_of("transfer(address,uint256)");
  EXPECT_EQ(first, again);
  EXPECT_EQ(selector_u32("transfer(address,uint256)"), 0xa9059cbbu);
}

TEST(SelectorMemo, DisableBypassesAndClears) {
  set_selector_memo_enabled(true);
  clear_selector_memo();
  const Selector memoized = selector_of("balanceOf(address)");
  set_selector_memo_enabled(false);
  EXPECT_FALSE(selector_memo_enabled());
  const Selector direct = selector_of("balanceOf(address)");
  EXPECT_EQ(memoized, direct);
  set_selector_memo_enabled(true);
  EXPECT_TRUE(selector_memo_enabled());
}

TEST(SelectorMemo, CountsHitsAndMisses) {
  using proxion::obs::Registry;
  set_selector_memo_enabled(true);
  clear_selector_memo();
  const auto counter = [](const char* name) {
    const auto snap = Registry::global().snapshot();
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? std::uint64_t{0} : it->second;
  };
  const std::uint64_t hits0 = counter("crypto.selector_memo.hits");
  const std::uint64_t misses0 = counter("crypto.selector_memo.misses");
  (void)selector_of("proxionMemoProbe(uint256)");  // cold: miss
  (void)selector_of("proxionMemoProbe(uint256)");  // warm: hit
  (void)selector_of("proxionMemoProbe(uint256)");  // warm: hit
  EXPECT_EQ(counter("crypto.selector_memo.misses") - misses0, 1u);
  EXPECT_EQ(counter("crypto.selector_memo.hits") - hits0, 2u);
}

TEST(Selector, TransferSelector) {
  // transfer(address,uint256) -> 0xa9059cbb, the best-known selector.
  EXPECT_EQ(selector_u32("transfer(address,uint256)"), 0xa9059cbbu);
}

TEST(Selector, PaperExampleFreeEtherWithdrawal) {
  // §2.1 states free_ether_withdrawal() hashes to 0xdf4a3106.
  EXPECT_EQ(selector_u32("free_ether_withdrawal()"), 0xdf4a3106u);
}

TEST(Selector, BalanceOf) {
  EXPECT_EQ(selector_u32("balanceOf(address)"), 0x70a08231u);
}

TEST(Slots, Eip1967ImplementationSlot) {
  // The well-known constant from EIP-1967.
  EXPECT_EQ(
      hex_of(eip1967_implementation_slot()),
      "360894a13ba1a3210667c828492db98dca3e2076cc3735a920a3ca505d382bbc");
}

TEST(Slots, Eip1967AdminSlot) {
  EXPECT_EQ(
      hex_of(eip1967_admin_slot()),
      "b53127684a568b3173ae13b9f8a6016e243e63b6e8ee1178d6a717850b5d6103");
}

TEST(Slots, Eip1822ProxiableSlot) {
  EXPECT_EQ(
      hex_of(eip1822_proxiable_slot()),
      "c5f16f0fcc639fa48a6947836d9850f504798523bf8c9a3a87d5876cf622bcf7");
}

TEST(Slots, DistinctFromEachOther) {
  EXPECT_NE(eip1967_implementation_slot(), eip1967_admin_slot());
  EXPECT_NE(eip1967_implementation_slot(), eip1967_beacon_slot());
  EXPECT_NE(eip1822_proxiable_slot(), eip2535_diamond_storage_slot());
}

TEST(Rlp, SingleSmallByte) {
  const std::vector<std::uint8_t> data = {0x42};
  EXPECT_EQ(rlp::encode_bytes(data), (std::vector<std::uint8_t>{0x42}));
}

TEST(Rlp, ShortString) {
  const std::vector<std::uint8_t> data = {0xde, 0xad};
  EXPECT_EQ(rlp::encode_bytes(data),
            (std::vector<std::uint8_t>{0x82, 0xde, 0xad}));
}

TEST(Rlp, ZeroEncodesAsEmptyString) {
  EXPECT_EQ(rlp::encode_uint(0), (std::vector<std::uint8_t>{0x80}));
}

TEST(Rlp, SmallIntEncodesAsItself) {
  EXPECT_EQ(rlp::encode_uint(5), (std::vector<std::uint8_t>{0x05}));
}

TEST(Rlp, LongStringUsesLengthOfLength) {
  std::vector<std::uint8_t> data(60, 0xaa);
  const auto encoded = rlp::encode_bytes(data);
  EXPECT_EQ(encoded[0], 0xb8);  // 0xb7 + 1 length byte
  EXPECT_EQ(encoded[1], 60);
  EXPECT_EQ(encoded.size(), 62u);
}

TEST(CreateAddress, KnownVector) {
  // The canonical test vector: sender 0x6ac7ea33f8831ea9dcc53393aaa88b25a785dbf0
  // with nonce 0 creates 0xcd234a471b72ba2f1ccf0a70fcaba648a5eecd8d.
  AddressBytes sender{};
  const auto raw = from_hex("6ac7ea33f8831ea9dcc53393aaa88b25a785dbf0");
  std::copy(raw.begin(), raw.end(), sender.begin());
  EXPECT_EQ(to_hex(create_address(sender, 0)),
            "cd234a471b72ba2f1ccf0a70fcaba648a5eecd8d");
  EXPECT_EQ(to_hex(create_address(sender, 1)),
            "343c43a37d37dff08ae8c4a11544c718abb4fcf8");
}

TEST(Create2Address, Eip1014Vector) {
  // EIP-1014 example 1: address 0x0000...00, salt 0, init code 0x00.
  AddressBytes sender{};
  Hash256 salt{};
  const std::vector<std::uint8_t> init_code = {0x00};
  EXPECT_EQ(to_hex(create2_address(sender, salt, init_code)),
            "4d1a2e2bb4f88f0250f26ffff098b0b30b26bf38");
}

TEST(Create2Address, DependsOnEveryInput) {
  AddressBytes sender{};
  Hash256 salt{};
  const std::vector<std::uint8_t> code1 = {0x00};
  const std::vector<std::uint8_t> code2 = {0x01};
  const auto a = create2_address(sender, salt, code1);
  const auto b = create2_address(sender, salt, code2);
  EXPECT_NE(a, b);
  salt[31] = 1;
  const auto c = create2_address(sender, salt, code1);
  EXPECT_NE(a, c);
}

TEST(Hex, RoundTrip) {
  const std::vector<std::uint8_t> data = {0x00, 0xff, 0x12, 0xab};
  EXPECT_EQ(from_hex(to_hex(data)), data);
  EXPECT_EQ(from_hex("0x00ff12ab"), data);
}

TEST(Hex, RejectsBadInput) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);   // odd length
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);    // non-hex
}

}  // namespace
