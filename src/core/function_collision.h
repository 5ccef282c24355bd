// Function-collision detection (§5.1). For a proxy/logic pair the detector
// compares the two contracts' function-selector sets; any intersection means
// calls meant for the logic contract are silently captured by the proxy
// (Listing 1's honeypot). Selector sets come from verified source when
// available (the Slither path) and from dispatcher-pattern extraction over
// the bytecode otherwise — the paper's novel no-source mode.
#pragma once

#include <cstdint>
#include <vector>

#include "evm/types.h"
#include "sourcemeta/source.h"

namespace proxion::core {

using evm::Address;
using evm::BytesView;

enum class CollisionMode : std::uint8_t {
  kSourceSource,      // both sides had verified source
  kMixed,             // one side from source, one from bytecode
  kBytecodeBytecode,  // both sides from bytecode (the novel coverage)
};

struct FunctionCollisionResult {
  CollisionMode mode = CollisionMode::kBytecodeBytecode;
  std::vector<std::uint32_t> colliding_selectors;
  std::vector<std::uint32_t> proxy_selectors;
  std::vector<std::uint32_t> logic_selectors;

  bool has_collision() const noexcept { return !colliding_selectors.empty(); }
};

class FunctionCollisionDetector {
 public:
  /// `sources` may be null (pure bytecode mode).
  explicit FunctionCollisionDetector(
      const sourcemeta::SourceRepository* sources = nullptr)
      : sources_(sources) {}

  FunctionCollisionResult detect(const Address& proxy, BytesView proxy_code,
                                 const Address& logic,
                                 BytesView logic_code) const;

 private:
  std::vector<std::uint32_t> selectors_for(const Address& address,
                                           BytesView code,
                                           bool& from_source) const;

  const sourcemeta::SourceRepository* sources_;
};

}  // namespace proxion::core
