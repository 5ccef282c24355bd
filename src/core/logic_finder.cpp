#include "core/logic_finder.h"

#include <algorithm>
#include <unordered_map>

namespace proxion::core {

namespace {

/// The distinct slot values one search has seen, each named by its index,
/// so pieces hold 4-byte ids, not 32-byte words: a run's search holds every
/// proxy's pieces at once.
class ValueTable {
 public:
  std::uint32_t id(const U256& value) {
    const auto [it, fresh] =
        ids_.try_emplace(value, static_cast<std::uint32_t>(values_.size()));
    if (fresh) values_.push_back(value);
    return it->second;
  }
  const U256& operator[](std::uint32_t id) const { return values_[id]; }

 private:
  std::unordered_map<U256, std::uint32_t, evm::U256Hasher> ids_;
  std::vector<U256> values_;
};

/// A piece [lo, hi] of one target's block range, open or settled. An open
/// piece is still to search; an endpoint value is known once it was probed
/// or inherited from the piece it was split from. A settled piece observed
/// v_lo at lo and v_hi at hi and no other change in between.
struct Piece {
  std::uint32_t target;
  std::uint32_t v_lo;  // ValueTable ids, valid once known
  std::uint32_t v_hi;
  bool lo_known;
  bool hi_known;
  bool settled;
  std::uint64_t lo;
  std::uint64_t hi;
};

/// Appends `piece` to `tiles` as settled. It merges into the settled piece
/// just below it (the same target's previous tile) when the two observe at
/// most one change together, because the history folds equal neighbours.
void settle(std::vector<Piece>& tiles, Piece piece) {
  piece.settled = true;
  if (!tiles.empty()) {
    Piece& below = tiles.back();
    const int changes = (below.v_lo != below.v_hi) +
                        (below.v_hi != piece.v_lo) +
                        (piece.v_lo != piece.v_hi);
    if (below.settled && below.target == piece.target && changes <= 1) {
      below.hi = piece.hi;
      below.v_hi = piece.v_hi;
      return;
    }
  }
  tiles.push_back(piece);
}

/// Folds one target's settled pieces, in block order, into its history.
LogicHistory summarize(std::span<const Piece> pieces, const ValueTable& values,
                       std::uint64_t api_calls) {
  LogicHistory history;
  history.api_calls = api_calls;
  std::uint32_t previous = 0;
  bool have_previous = false;
  for (const Piece& piece : pieces) {
    for (const std::uint32_t id : {piece.v_lo, piece.v_hi}) {
      if (have_previous && id == previous) continue;
      const U256& value = values[id];
      if (have_previous && !values[previous].is_zero() && !value.is_zero()) {
        ++history.upgrade_events;
      }
      previous = id;
      have_previous = true;
      if (value.is_zero()) continue;
      const Address logic = Address::from_word(value);
      if (std::find(history.logic_addresses.begin(),
                    history.logic_addresses.end(),
                    logic) == history.logic_addresses.end()) {
        history.logic_addresses.push_back(logic);
      }
    }
  }
  return history;
}

}  // namespace

std::vector<LogicSearch> LogicFinder::find(
    std::span<const LogicTarget> targets) const {
  std::vector<LogicSearch> out(targets.size());
  const std::uint64_t latest = node_.latest_block();

  // Algorithm 1, breadth-first over every slot proxy at once. `tiles` covers
  // each target's range [0, latest] with pieces, grouped by target and in
  // block order. A split's children inherit the parent's known endpoint, so
  // each depth probes only the new side of every split (mid, mid + 1); the
  // pieces are disjoint, so no height is probed twice and the heights
  // probed, api_calls and histories are those of the recursive formulation
  // run per target.
  std::vector<Piece> tiles;
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const ProxyReport& report = *targets[t].report;
    if (!report.is_proxy()) continue;
    if (report.logic_source != LogicSource::kStorageSlot) {
      // Hard-coded (EIP-1167) or computed targets: one fixed logic contract,
      // no archive queries needed (§4.3).
      if (!report.logic_address.is_zero()) {
        out[t].history.logic_addresses.push_back(report.logic_address);
      }
      continue;
    }
    tiles.push_back({static_cast<std::uint32_t>(t), 0, 0, false, false, false,
                     0, latest});
  }
  std::size_t open = tiles.size();

  ValueTable values;
  std::uint32_t asked_target = 0;  // the first target of the last batch
  bool asked_several = false;      // whether that batch asked others too
  // Asks the unknown endpoints of the open pieces in tiles[b, e) in one
  // batch and fills them in. A throw leaves every piece as it was (batches
  // return no partial results).
  auto probe = [&](std::size_t b, std::size_t e) {
    std::vector<chain::StorageQuery> batch;
    asked_several = false;
    for (std::size_t i = b; i < e; ++i) {
      const Piece& piece = tiles[i];
      if (piece.settled) continue;
      if (batch.empty()) {
        asked_target = piece.target;
      } else if (piece.target != asked_target) {
        asked_several = true;
      }
      const LogicTarget& target = targets[piece.target];
      const U256& slot = target.report->logic_slot;
      if (!piece.lo_known) batch.push_back({target.proxy, slot, piece.lo});
      // A one-block piece (only a chain at height 0 starts with one) needs
      // one probe for both endpoints.
      if (!piece.hi_known && piece.hi != piece.lo) {
        batch.push_back({target.proxy, slot, piece.hi});
      }
    }
    if (batch.empty()) return;
    const std::vector<U256> answers = node_.get_storage_at_many(batch);
    std::size_t k = 0;
    for (std::size_t i = b; i < e; ++i) {
      Piece& piece = tiles[i];
      if (piece.settled) continue;
      // Paper semantics: api_calls counts the heights a target's search
      // needed (§6.1's ~26 per proxy), however the batches are shared.
      std::uint64_t& api_calls = out[piece.target].history.api_calls;
      if (!piece.lo_known) {
        piece.v_lo = values.id(answers[k++]);
        piece.lo_known = true;
        ++api_calls;
        if (piece.hi == piece.lo) {
          piece.v_hi = piece.v_lo;
          piece.hi_known = true;
        }
      }
      if (!piece.hi_known) {
        piece.v_hi = values.id(answers[k++]);
        piece.hi_known = true;
        ++api_calls;
      }
    }
  };
  auto fail = [&](std::uint32_t t, const chain::RpcError& e) {
    out[t].history = {};
    out[t].error = e;
  };

  std::vector<Piece> next;
  bool one_target_per_batch = false;
  while (open > 0) {
    if (!one_target_per_batch) {
      try {
        probe(0, tiles.size());
      } catch (const chain::RpcError& e) {
        if (asked_several) {
          // Per-contract failure domains: ask this depth again, and every
          // later one, one target at a time.
          one_target_per_batch = true;
        } else {
          fail(asked_target, e);
        }
      }
    }
    if (one_target_per_batch) {
      for (std::size_t b = 0, e = 0; b < tiles.size(); b = e) {
        while (e < tiles.size() && tiles[e].target == tiles[b].target) ++e;
        try {
          probe(b, e);
        } catch (const chain::RpcError& err) {
          fail(tiles[b].target, err);
        }
      }
    }

    next.clear();
    open = 0;
    for (const Piece& p : tiles) {
      if (out[p.target].error) continue;
      // Equal endpoint values settle a piece: Algorithm 1's core assumption
      // is that logic addresses are unique through history, so they mean no
      // change inside it.
      if (p.settled || p.v_lo == p.v_hi || p.hi == p.lo + 1) {
        settle(next, p);
        continue;
      }
      const std::uint64_t mid = p.lo + (p.hi - p.lo) / 2;
      next.push_back({p.target, p.v_lo, 0, true, false, false, p.lo, mid});
      ++open;
      if (mid + 1 == p.hi) {
        // A one-block right half is its own known endpoint.
        settle(next, {p.target, p.v_hi, p.v_hi, true, true, true, p.hi, p.hi});
      } else {
        next.push_back(
            {p.target, 0, p.v_hi, false, true, false, mid + 1, p.hi});
        ++open;
      }
    }
    tiles.swap(next);
  }

  for (std::size_t b = 0, e = 0; b < tiles.size(); b = e) {
    const std::uint32_t t = tiles[b].target;
    while (e < tiles.size() && tiles[e].target == t) ++e;
    out[t].history = summarize(std::span(tiles).subspan(b, e - b), values,
                               out[t].history.api_calls);
  }
  return out;
}

LogicHistory LogicFinder::find(const Address& proxy,
                               const ProxyReport& report) const {
  const LogicTarget target{proxy, &report};
  LogicSearch result = std::move(find(std::span(&target, 1)).front());
  if (result.error) throw *result.error;
  return std::move(result.history);
}

LogicHistory LogicFinder::find_naive(const Address& proxy,
                                     const U256& slot) const {
  ValueTable values;
  std::vector<Piece> pieces;
  const std::uint64_t latest = node_.latest_block();
  for (std::uint64_t b = 0; b <= latest; ++b) {
    const std::uint32_t id = values.id(node_.get_storage_at(proxy, slot, b));
    pieces.push_back({0, id, id, true, true, true, b, b});
  }
  return summarize(pieces, values, latest + 1);
}

}  // namespace proxion::core
