#include "core/function_collision.h"

#include <algorithm>

#include "core/selector_extractor.h"

namespace proxion::core {

std::vector<std::uint32_t> FunctionCollisionDetector::selectors_for(
    const Address& address, BytesView code, bool& from_source) const {
  if (sources_ != nullptr) {
    if (const auto* record = sources_->lookup(address)) {
      from_source = true;
      return record->selectors();  // already sorted + deduped
    }
  }
  from_source = false;
  return extract_selectors(code);  // sorted + deduped
}

FunctionCollisionResult FunctionCollisionDetector::detect(
    const Address& proxy, BytesView proxy_code, const Address& logic,
    BytesView logic_code) const {
  FunctionCollisionResult result;
  bool proxy_from_source = false;
  bool logic_from_source = false;
  result.proxy_selectors = selectors_for(proxy, proxy_code, proxy_from_source);
  result.logic_selectors = selectors_for(logic, logic_code, logic_from_source);

  if (proxy_from_source && logic_from_source) {
    result.mode = CollisionMode::kSourceSource;
  } else if (proxy_from_source || logic_from_source) {
    result.mode = CollisionMode::kMixed;
  } else {
    result.mode = CollisionMode::kBytecodeBytecode;
  }

  std::set_intersection(result.proxy_selectors.begin(),
                        result.proxy_selectors.end(),
                        result.logic_selectors.begin(),
                        result.logic_selectors.end(),
                        std::back_inserter(result.colliding_selectors));
  return result;
}

}  // namespace proxion::core
