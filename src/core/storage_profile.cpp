#include "core/storage_profile.h"

#include <algorithm>

namespace proxion::core {

using evm::U256;

std::vector<U256> StorageProfile::slots() const {
  std::vector<U256> out;
  for (const StorageAccess& a : accesses) {
    if (std::find(out.begin(), out.end(), a.slot) == out.end()) {
      out.push_back(a.slot);
    }
  }
  return out;
}

std::vector<std::pair<std::uint8_t, std::uint8_t>> StorageProfile::ranges_of(
    const U256& slot) const {
  std::vector<std::pair<std::uint8_t, std::uint8_t>> out;
  for (const StorageAccess& a : accesses) {
    if (!(a.slot == slot)) continue;
    const auto range = std::make_pair(a.offset, a.width);
    if (std::find(out.begin(), out.end(), range) == out.end()) {
      out.push_back(range);
    }
  }
  return out;
}

std::optional<std::uint8_t> StorageProfile::width_of(const U256& slot) const {
  std::optional<std::uint8_t> width;
  for (const StorageAccess& a : accesses) {
    if (a.slot == slot) {
      width = width ? std::min(*width, a.width) : a.width;
    }
  }
  return width;
}

bool StorageProfile::is_sensitive(const U256& slot) const {
  return std::any_of(accesses.begin(), accesses.end(),
                     [&](const StorageAccess& a) {
                       return a.slot == slot &&
                              (a.caller_compared ||
                               (a.is_write &&
                                a.value_origin == ValueOrigin::kCaller));
                     });
}

bool StorageProfile::has_unguarded_write(const U256& slot) const {
  return std::any_of(accesses.begin(), accesses.end(),
                     [&](const StorageAccess& a) {
                       return a.slot == slot && a.is_write &&
                              !a.guarded_by_caller;
                     });
}

StorageProfile profile_storage(const evm::Disassembly& dis) {
  const static_analysis::StorageScan scan = static_analysis::scan_storage(dis);
  StorageProfile profile;
  profile.hashed_slot_accesses = scan.hashed_accesses;
  profile.accesses.reserve(scan.accesses.size());
  for (const static_analysis::ScannedAccess& a : scan.accesses) {
    if (a.family_id >= 0) continue;
    StorageAccess access;
    access.slot = a.slot;
    access.is_write = a.is_write;
    access.width = a.width;
    access.offset = a.offset;
    access.caller_compared = a.caller_compared;
    access.guarded_by_caller = a.guarded;
    access.value_origin = a.origin;
    access.pc = a.pc;
    profile.accesses.push_back(access);
  }
  return profile;
}

StorageProfile profile_storage(evm::BytesView code) {
  return profile_storage(evm::Disassembly(code));
}

}  // namespace proxion::core
