// Storage-collision detection (§5.2), after CRUSH: profile both contracts'
// storage accesses (slots, inferred widths, guards), compare the layouts
// slot-by-slot, and for each type mismatch on a *sensitive* slot attempt a
// concrete exploit: drive the logic contract's functions through the proxy's
// fallback inside a state overlay and observe whether the sensitive slot is
// overwritten with attacker-derived data.
//
// Substitution note (DESIGN.md): CRUSH proves path feasibility symbolically;
// we approximate it concretely by attempting the exploit both from the
// current chain state and from a state where the colliding slot is zeroed
// (a state the slot provably had when the contract was fresh).
#pragma once

#include <cstdint>
#include <vector>

#include "core/storage_profile.h"
#include "evm/host.h"
#include "evm/types.h"
#include "sourcemeta/source.h"
#include "static/layout.h"

namespace proxion::core {

using evm::Address;
using evm::BytesView;
using evm::U256;

struct StorageCollisionFinding {
  U256 slot;
  std::uint8_t proxy_width = 32;
  std::uint8_t logic_width = 32;
  /// Byte offsets (Solidity packing) of the conflicting accesses.
  std::uint8_t proxy_offset = 0;
  std::uint8_t logic_offset = 0;
  bool sensitive = false;     // slot feeds an access-control decision
  bool exploitable = false;   // sensitive + an unguarded colliding write path
  bool verified = false;      // concrete exploit succeeded in the overlay
  /// §2.3 (Audius): the exploit transaction can be replayed — the collision
  /// breaks the "only once" guard itself, so e.g. initialize() re-runs and
  /// ownership can be reassigned repeatedly.
  bool repeatable = false;
  std::uint32_t exploit_selector = 0;  // logic function that performed it
};

/// One typed view of a keccak-derived slot family, normalized so declared
/// (sourcemeta) and inferred (static/layout.h) families compare through the
/// same code path — bit-identical verdicts regardless of where the layout
/// came from is the source-free mode's core contract.
struct FamilyView {
  U256 base_slot;
  std::uint8_t depth = 1;
  std::uint8_t path = 0;  // bit (level-1): 1 = mapping, 0 = array
  std::uint8_t value_offset = 0;
  std::uint8_t value_width = 32;

  bool same_identity(const FamilyView& o) const noexcept {
    return base_slot == o.base_slot && depth == o.depth && path == o.path;
  }
  friend bool operator==(const FamilyView&, const FamilyView&) = default;
};

/// A collision between two contracts' views of the *same* slot family: both
/// derive element slots from the same base via the same keccak shape, but
/// type the element value differently (the mapping analogue of a static-slot
/// width/offset disagreement).
struct FamilyCollisionFinding {
  U256 base_slot;
  std::uint8_t depth = 1;
  std::uint8_t path = 0;
  std::uint8_t proxy_offset = 0;
  std::uint8_t proxy_width = 32;
  std::uint8_t logic_offset = 0;
  std::uint8_t logic_width = 32;

  friend bool operator==(const FamilyCollisionFinding&,
                         const FamilyCollisionFinding&) = default;
};

struct StorageCollisionResult {
  std::vector<StorageCollisionFinding> findings;
  StorageProfile proxy_profile;
  StorageProfile logic_profile;

  /// Family-by-family comparison ran (config.compare_families)...
  bool family_checked = false;
  /// ...and used bytecode-inferred layouts because sourcemeta had no record
  /// for the pair (the source-free mode).
  bool family_source_free = false;
  std::vector<FamilyCollisionFinding> family_findings;

  bool has_collision() const noexcept { return !findings.empty(); }
  bool has_family_collision() const noexcept {
    return !family_findings.empty();
  }
  bool has_verified_exploit() const noexcept {
    for (const auto& f : findings) {
      if (f.verified) return true;
    }
    return false;
  }
};

struct StorageCollisionConfig {
  bool attempt_verification = true;
  std::size_t max_probe_functions = 16;  // logic selectors tried per finding
  std::uint64_t emulation_gas = 5'000'000;
  /// Compare mapping/array slot families in addition to static slots:
  /// declared layouts when sourcemeta has the pair, bytecode-inferred
  /// layouts otherwise (the source-free mode). Off by default for standalone
  /// detector use; the pipeline turns it on with static_tier.infer_layout.
  bool compare_families = false;
};

class StorageCollisionDetector {
 public:
  /// `sources` (may be null) supplies declared layouts for the family
  /// comparison; without it (or without records for the pair),
  /// compare_families falls back to bytecode-inferred layouts.
  explicit StorageCollisionDetector(
      evm::Host& state, StorageCollisionConfig config = {},
      const sourcemeta::SourceRepository* sources = nullptr)
      : state_(state), config_(config), sources_(sources) {}

  /// `proxy_source_lookup`/`logic_source_lookup` (when non-null) are the
  /// addresses to query sourcemeta with — the pipeline passes §7.1 donor
  /// addresses so same-bytecode clones of verified contracts count as
  /// verified; null falls back to `proxy`/`logic` themselves.
  StorageCollisionResult detect(const Address& proxy, BytesView proxy_code,
                                const Address& logic, BytesView logic_code,
                                const Address* proxy_source_lookup = nullptr,
                                const Address* logic_source_lookup = nullptr)
      const;

  /// Declared-layout families of a source record (mapping / dynamic-array
  /// declarations), normalized to FamilyViews. Exposed for tests.
  static std::vector<FamilyView> declared_families(
      const sourcemeta::SourceRecord& record);
  /// Inferred-layout families, normalized to FamilyViews. Exposed for tests.
  static std::vector<FamilyView> inferred_families(
      const static_analysis::StorageLayout& layout);

 private:
  bool verify_exploit(const Address& proxy, BytesView proxy_code,
                      const Address& logic, BytesView logic_code,
                      const std::vector<std::uint32_t>& logic_selectors,
                      StorageCollisionFinding& finding) const;

  void compare_family_layouts(const Address& proxy_lookup,
                              BytesView proxy_code,
                              const Address& logic_lookup,
                              BytesView logic_code,
                              StorageCollisionResult& result) const;

  evm::Host& state_;
  StorageCollisionConfig config_;
  const sourcemeta::SourceRepository* sources_;
};

}  // namespace proxion::core
