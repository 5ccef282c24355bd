#include "core/logic_finder.h"

#include <algorithm>
#include <map>

namespace proxion::core {

namespace {

LogicHistory summarize(std::vector<std::pair<std::uint64_t, U256>> values,
                       std::uint64_t api_calls) {
  std::sort(values.begin(), values.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  LogicHistory history;
  history.api_calls = api_calls;
  U256 previous;
  bool have_previous = false;
  for (const auto& [block, value] : values) {
    if (have_previous && value == previous) continue;
    if (have_previous && !previous.is_zero() && !value.is_zero()) {
      ++history.upgrade_events;
    }
    previous = value;
    have_previous = true;
    if (value.is_zero()) continue;
    const Address logic = Address::from_word(value);
    if (std::find(history.logic_addresses.begin(),
                  history.logic_addresses.end(),
                  logic) == history.logic_addresses.end()) {
      history.logic_addresses.push_back(logic);
    }
  }
  return history;
}

}  // namespace

LogicHistory LogicFinder::find(const Address& proxy,
                               const ProxyReport& report) const {
  LogicHistory history;
  if (!report.is_proxy()) return history;

  if (report.logic_source != LogicSource::kStorageSlot) {
    // Hard-coded (EIP-1167) or computed targets: one fixed logic contract,
    // no archive queries needed (§4.3).
    if (!report.logic_address.is_zero()) {
      history.logic_addresses.push_back(report.logic_address);
    }
    return history;
  }

  // Algorithm 1, run breadth-first: instead of recursing one range at a
  // time, all open ranges of the current depth emit their uncached
  // endpoints as ONE batched get_storage_at_many probe — the archive stack
  // (retry ladder, trace span) then handles a frontier per
  // round trip instead of a call per endpoint. The ranges visited, the
  // heights probed, and api_calls are exactly those of the recursive
  // formulation (endpoints are memoized in `cache` just as the recursive
  // client memoized re-visited endpoints), so LogicHistory is bit-identical.
  std::map<std::uint64_t, U256> cache;
  std::uint64_t api_calls = 0;
  std::vector<std::pair<std::uint64_t, U256>> values;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> open = {
      {0, node_.latest_block()}};

  while (!open.empty()) {
    // The probe frontier: endpoints of every open range not yet fetched.
    std::vector<std::uint64_t> need;
    for (const auto& [lo, hi] : open) {
      if (cache.find(lo) == cache.end()) need.push_back(lo);
      if (cache.find(hi) == cache.end()) need.push_back(hi);
    }
    std::sort(need.begin(), need.end());
    need.erase(std::unique(need.begin(), need.end()), need.end());
    if (!need.empty()) {
      std::vector<chain::StorageQuery> batch;
      batch.reserve(need.size());
      for (const std::uint64_t b : need) {
        batch.push_back({proxy, report.logic_slot, b});
      }
      const std::vector<U256> fetched = node_.get_storage_at_many(batch);
      for (std::size_t i = 0; i < need.size(); ++i) {
        cache.emplace(need[i], fetched[i]);
      }
      // Paper semantics: api_calls counts distinct heights the search needed
      // (§6.1's ~26 per proxy), independent of how the archive stack
      // batches them.
      api_calls += need.size();
    }

    std::vector<std::pair<std::uint64_t, std::uint64_t>> next;
    for (const auto& [lo, hi] : open) {
      const U256& v_lo = cache.at(lo);
      const U256& v_hi = cache.at(hi);
      if (v_lo == v_hi) {
        // Algorithm 1's core assumption: logic addresses are unique through
        // history, so equal endpoint values mean no change inside the range.
        values.emplace_back(lo, v_lo);
      } else if (hi == lo + 1) {
        values.emplace_back(lo, v_lo);
        values.emplace_back(hi, v_hi);
      } else {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        next.emplace_back(lo, mid);
        next.emplace_back(mid + 1, hi);
      }
    }
    open = std::move(next);
  }
  return summarize(std::move(values), api_calls);
}

LogicHistory LogicFinder::find_naive(const Address& proxy,
                                     const U256& slot) const {
  std::vector<std::pair<std::uint64_t, U256>> values;
  const std::uint64_t latest = node_.latest_block();
  for (std::uint64_t b = 0; b <= latest; ++b) {
    values.emplace_back(b, node_.get_storage_at(proxy, slot, b));
  }
  return summarize(std::move(values), latest + 1);
}

}  // namespace proxion::core
