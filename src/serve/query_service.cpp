#include "serve/query_service.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <utility>

namespace proxion::serve {

namespace {

constexpr std::string_view kJsonContentType = "application/json";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string_view strip_0x(std::string_view s) {
  if (s.size() >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    return s.substr(2);
  }
  return s;
}

/// Strict: optional 0x, then exactly 2 * out.size() hex digits, in either
/// case. Decodes into `out` in place.
bool parse_hex_bytes(std::string_view text, std::span<std::uint8_t> out) {
  const std::string_view hex = strip_0x(text);
  if (hex.size() != 2 * out.size()) return false;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const int hi = hex_value(hex[2 * i]);
    const int lo = hex_value(hex[2 * i + 1]);
    if (hi < 0 || lo < 0) return false;
    out[i] = static_cast<std::uint8_t>(hi << 4 | lo);
  }
  return true;
}

std::optional<evm::Address> parse_address(std::string_view text) {
  evm::Address out;
  if (!parse_hex_bytes(text, out.bytes)) return std::nullopt;
  return out;
}

std::optional<crypto::Hash256> parse_hash(std::string_view text) {
  crypto::Hash256 out{};
  if (!parse_hex_bytes(text, out)) return std::nullopt;
  return out;
}

/// "00".."ff": the two lowercase hex digits of every byte value.
constexpr std::array<char, 512> kHexPairs = [] {
  constexpr std::string_view kDigits = "0123456789abcdef";
  std::array<char, 512> pairs{};
  for (std::size_t b = 0; b < 256; ++b) {
    pairs[2 * b] = kDigits[b >> 4];
    pairs[2 * b + 1] = kDigits[b & 0xf];
  }
  return pairs;
}();

/// Grows `out` by `n` bytes and returns where they start; the caller writes
/// all `n`. Within a reserved body this never reallocates.
char* grow(std::string& out, std::size_t n) {
  const std::size_t at = out.size();
  out.resize(at + n);
  return out.data() + at;
}

/// Writes `"0x` + two hex digits per byte + `"` (address and hash form),
/// 2 * bytes.size() + 4 chars, at `p`; returns the end.
char* write_hex_string(char* p, std::span<const std::uint8_t> bytes) {
  *p++ = '"';
  *p++ = '0';
  *p++ = 'x';
  for (const std::uint8_t b : bytes) {
    std::memcpy(p, &kHexPairs[2 * b], 2);
    p += 2;
  }
  *p++ = '"';
  return p;
}

void append_hex_string(std::string& out, std::span<const std::uint8_t> bytes) {
  write_hex_string(grow(out, 2 * bytes.size() + 4), bytes);
}

void append_str(std::string& out, std::string_view value) {
  out += '"';
  out += value;  // hex strings and enum names only — nothing needs escaping
  out += '"';
}

void append_bool(std::string& out, bool v) { out += v ? "true" : "false"; }

obs::HttpResponse json_response(int status, std::string body) {
  obs::HttpResponse resp;
  resp.status = status;
  resp.content_type = std::string(kJsonContentType);
  resp.body = std::move(body);
  return resp;
}

/// The uniform error shape: {"error": <code>, "detail": <human text>}.
obs::HttpResponse error_response(int status, std::string_view code,
                                 std::string_view detail) {
  std::string out;
  out.reserve(32 + code.size() + detail.size());
  out += '{';
  append_key(out, "error");
  append_str(out, code);
  out += ',';
  append_key(out, "detail");
  append_str(out, detail);
  out += "}\n";
  return json_response(status, std::move(out));
}

/// Every OK response leads with the staleness stamp: the head the rows are
/// complete through plus the snapshot version that answered.
void append_stamp(std::string& out, const Snapshot& snap) {
  append_key(out, "head_block");
  append_u64(out, snap.head_block);
  out += ',';
  append_key(out, "snapshot_version");
  append_u64(out, snap.version);
}

/// Room for a whole body, so rendering one response allocates once: a
/// contract body is under 800 bytes, and a list body is under 256 bytes
/// plus 45 per listed address (`"0x` + 40 digits + `"` and a comma).
constexpr std::size_t kContractBodyBytes = 1024;
constexpr std::size_t kListedAddressBytes = 45;

std::size_t list_body_bytes(std::size_t members, std::size_t max_results) {
  return 256 + kListedAddressBytes * std::min(members, max_results);
}

void append_address_list(std::string& out, const Snapshot& snap,
                         const std::vector<std::uint32_t>& indexes,
                         std::size_t max_results) {
  const std::size_t listed = std::min(indexes.size(), max_results);
  append_key(out, "count");
  append_u64(out, indexes.size());
  out += ',';
  append_key(out, "truncated");
  append_bool(out, listed < indexes.size());
  out += ',';
  append_key(out, "addresses");
  out += '[';
  if (listed > 0) {
    // One grow for the whole list: each entry is a quoted address and a
    // comma, less the last comma.
    char* p = grow(out, listed * kListedAddressBytes - 1);
    for (std::size_t i = 0; i < listed; ++i) {
      if (i > 0) *p++ = ',';
      p = write_hex_string(p, snap.rows[indexes[i]].address.bytes);
    }
  }
  out += ']';
}

bool row_has_vuln(const core::VerdictRow& row, VulnClass c) {
  switch (c) {
    case VulnClass::kFunctionCollision: return row.function_collision;
    case VulnClass::kStorageCollision: return row.storage_collision;
    case VulnClass::kStorageCollisionExploitable:
      return row.storage_collision_exploitable;
    case VulnClass::kFamilyCollision: return row.family_collision;
  }
  return false;
}

void insert_sorted(std::vector<std::uint32_t>& list, std::uint32_t index) {
  list.insert(std::lower_bound(list.begin(), list.end(), index), index);
}

void erase_sorted(std::vector<std::uint32_t>& list, std::uint32_t index) {
  list.erase(std::lower_bound(list.begin(), list.end(), index));
}

}  // namespace

void append_key(std::string& out, std::string_view key) {
  out += '"';
  out += key;
  out += "\":";
}

void append_u64(std::string& out, std::uint64_t v) {
  char digits[20];  // 2^64 - 1 has 20
  out.append(digits, std::to_chars(digits, digits + sizeof digits, v).ptr);
}

void append_address(std::string& out, const evm::Address& a) {
  append_hex_string(out, a.bytes);
}

void append_hash(std::string& out, const crypto::Hash256& h) {
  append_hex_string(out, h);
}

void append_u256(std::string& out, const evm::U256& v) {
  const std::array<std::uint8_t, 32> be = v.to_be_bytes();
  std::size_t first = 0;
  while (first < be.size() && be[first] == 0) ++first;
  if (first == be.size()) {
    out += "\"0x0\"";
    return;
  }
  // Minimal form: a leading byte below 0x10 contributes one digit.
  const bool short_lead = be[first] < 0x10;
  char* p = grow(out, 2 * (be.size() - first) - (short_lead ? 1 : 0) + 4);
  *p++ = '"';
  *p++ = '0';
  *p++ = 'x';
  if (short_lead) *p++ = kHexPairs[2 * be[first++] + 1];
  for (; first < be.size(); ++first) {
    std::memcpy(p, &kHexPairs[2 * be[first]], 2);
    p += 2;
  }
  *p = '"';
}

std::string_view to_string(VulnClass c) noexcept {
  switch (c) {
    case VulnClass::kFunctionCollision: return "function_collision";
    case VulnClass::kStorageCollision: return "storage_collision";
    case VulnClass::kStorageCollisionExploitable:
      return "storage_collision_exploitable";
    case VulnClass::kFamilyCollision: return "family_collision";
  }
  return "?";
}

std::optional<VulnClass> vuln_class_from_name(std::string_view name) noexcept {
  for (std::size_t i = 0; i < kVulnClassCount; ++i) {
    const auto c = static_cast<VulnClass>(i);
    if (name == to_string(c)) return c;
  }
  return std::nullopt;
}

QueryService::QueryService(QueryServiceConfig config)
    : config_(config) {
  // Readers must never observe a null snapshot — an empty version-0 one
  // answers "nothing known yet" until the first publish.
  published_.store(std::make_shared<const Snapshot>(),
                   std::memory_order_release);
}

void QueryService::apply_records(
    std::span<const store::ContractRecord> records) {
  pending_.reserve(pending_.size() + records.size());
  for (const store::ContractRecord& rec : records) {
    pending_.push_back(core::extract_verdict(rec.analysis, rec.code_hash));
  }
}

std::shared_ptr<const Snapshot> QueryService::publish(
    std::uint64_t head_block) {
  // The previous snapshot is the base. Holding it until the swap keeps
  // every chunk and shard it owns shared, so the first write to one copies.
  const std::shared_ptr<const Snapshot> base = snapshot();
  auto snap = std::make_shared<Snapshot>(*base);
  snap->head_block = head_block;
  snap->version = base->version + 1;
  for (const core::VerdictRow& row : pending_) upsert_row(*snap, row);
  pending_.clear();
  std::shared_ptr<const Snapshot> frozen = std::move(snap);
  published_.store(frozen, std::memory_order_release);
  return frozen;
}

void QueryService::upsert_row(Snapshot& snap, const core::VerdictRow& row) {
  const auto found = snap.by_address.find(row.address);
  if (found == snap.by_address.end()) {
    // A new address appends: its index is the largest, so every index list
    // stays ascending with a push_back.
    const auto index = static_cast<std::uint32_t>(snap.rows.size());
    snap.by_address.upsert(row.address) = index;
    snap.by_code_hash.upsert(row.code_hash).push_back(index);
    for (std::size_t c = 0; c < kVulnClassCount; ++c) {
      if (row_has_vuln(row, static_cast<VulnClass>(c))) {
        snap.by_vuln[c].push_back(index);
      }
    }
    if (row.verdict == core::ProxyVerdict::kProxy) ++snap.proxies;
    if (row.quarantined) ++snap.quarantined;
    stats_.row_chunks_copied += snap.rows.push_back(row);
    ++stats_.rows_changed;
    return;
  }
  const std::uint32_t index = found->second;
  const core::VerdictRow old = snap.rows[index];
  if (old == row) return;
  if (old.code_hash != row.code_hash) {
    std::vector<std::uint32_t>& family =
        snap.by_code_hash.upsert(old.code_hash);
    erase_sorted(family, index);
    if (family.empty()) snap.by_code_hash.erase(old.code_hash);
    insert_sorted(snap.by_code_hash.upsert(row.code_hash), index);
  }
  for (std::size_t c = 0; c < kVulnClassCount; ++c) {
    const bool had = row_has_vuln(old, static_cast<VulnClass>(c));
    if (had == row_has_vuln(row, static_cast<VulnClass>(c))) continue;
    if (had) {
      erase_sorted(snap.by_vuln[c], index);
    } else {
      insert_sorted(snap.by_vuln[c], index);
    }
  }
  snap.proxies += (row.verdict == core::ProxyVerdict::kProxy ? 1 : 0);
  snap.proxies -= (old.verdict == core::ProxyVerdict::kProxy ? 1 : 0);
  snap.quarantined += (row.quarantined ? 1 : 0);
  snap.quarantined -= (old.quarantined ? 1 : 0);
  stats_.row_chunks_copied += snap.rows.set(index, row);
  ++stats_.rows_changed;
}

obs::HttpResponse QueryService::contract_endpoint(
    const std::string& rest) const {
  const std::optional<evm::Address> addr = parse_address(rest);
  if (!addr) {
    return error_response(400, "bad_address",
                          "expected /v1/contract/0x + 40 hex digits");
  }
  const std::shared_ptr<const Snapshot> snap = snapshot();
  const auto it = snap->by_address.find(*addr);
  if (it == snap->by_address.end()) {
    return error_response(404, "not_found",
                          "address not in the current snapshot");
  }
  const core::VerdictRow& row = snap->rows[it->second];
  std::string out;
  out.reserve(kContractBodyBytes);
  out += '{';
  append_stamp(out, *snap);
  out += ',';
  append_key(out, "address");
  append_address(out, row.address);
  out += ',';
  append_key(out, "code_hash");
  append_hash(out, row.code_hash);
  out += ',';
  append_key(out, "year");
  append_u64(out, static_cast<std::uint64_t>(row.year));
  out += ',';
  append_key(out, "verdict");
  append_str(out, core::to_string(row.verdict));
  out += ',';
  append_key(out, "standard");
  append_str(out, core::to_string(row.standard));
  out += ',';
  append_key(out, "hidden");
  append_bool(out, row.hidden);
  out += ',';
  append_key(out, "has_source");
  append_bool(out, row.has_source);
  out += ',';
  append_key(out, "has_tx");
  append_bool(out, row.has_tx);
  out += ',';
  append_key(out, "deduplicated");
  append_bool(out, row.deduplicated);
  out += ',';
  append_key(out, "quarantined");
  append_bool(out, row.quarantined);
  out += ',';
  append_key(out, "error_kind");
  if (row.quarantined) {
    append_str(out, core::to_string(row.error_kind));
  } else {
    out += "null";
  }
  out += ',';
  append_key(out, "logic");
  out += '{';
  append_key(out, "source");
  append_str(out, core::to_string(row.logic_source));
  out += ',';
  append_key(out, "logic_address");
  if (row.logic_source == core::LogicSource::kNone) {
    out += "null";
  } else {
    append_address(out, row.logic_address);
  }
  out += ',';
  append_key(out, "slot");
  if (row.logic_source == core::LogicSource::kStorageSlot) {
    append_u256(out, row.logic_slot);
  } else {
    out += "null";
  }
  out += ',';
  append_key(out, "upgrade_events");
  append_u64(out, row.upgrade_events);
  out += "},";
  append_key(out, "vulns");
  out += '{';
  append_key(out, "function_collision");
  append_bool(out, row.function_collision);
  out += ',';
  append_key(out, "storage_collision");
  append_bool(out, row.storage_collision);
  out += ',';
  append_key(out, "storage_collision_exploitable");
  append_bool(out, row.storage_collision_exploitable);
  out += ',';
  append_key(out, "family_collision");
  append_bool(out, row.family_collision);
  out += "}}\n";
  return json_response(200, std::move(out));
}

obs::HttpResponse QueryService::codehash_endpoint(
    const std::string& rest) const {
  const std::optional<crypto::Hash256> hash = parse_hash(rest);
  if (!hash) {
    return error_response(400, "bad_hash",
                          "expected /v1/codehash/0x + 64 hex digits");
  }
  const std::shared_ptr<const Snapshot> snap = snapshot();
  const auto it = snap->by_code_hash.find(*hash);
  if (it == snap->by_code_hash.end()) {
    return error_response(404, "not_found",
                          "code hash not in the current snapshot");
  }
  std::string out;
  out.reserve(list_body_bytes(it->second.size(), config_.max_results));
  out += '{';
  append_stamp(out, *snap);
  out += ',';
  append_key(out, "code_hash");
  append_hash(out, *hash);
  out += ',';
  append_address_list(out, *snap, it->second, config_.max_results);
  out += "}\n";
  return json_response(200, std::move(out));
}

obs::HttpResponse QueryService::vulns_endpoint(const std::string& query) const {
  // The only recognized parameter is class=<name>; a raw scan suffices.
  std::string_view value;
  std::string_view q = query;
  while (!q.empty()) {
    const std::size_t amp = q.find('&');
    const std::string_view pair = q.substr(0, amp);
    q = amp == std::string_view::npos ? std::string_view{} : q.substr(amp + 1);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == "class") {
      value = pair.substr(eq + 1);
    }
  }
  if (value.empty()) {
    return error_response(400, "missing_class",
                          "expected /v1/vulns?class=<vulnerability class>");
  }
  const std::optional<VulnClass> vuln = vuln_class_from_name(value);
  if (!vuln) {
    std::string detail = "unknown class; one of:";
    for (std::size_t i = 0; i < kVulnClassCount; ++i) {
      detail += ' ';
      detail += to_string(static_cast<VulnClass>(i));
    }
    return error_response(400, "unknown_class", detail);
  }
  const std::shared_ptr<const Snapshot> snap = snapshot();
  const std::vector<std::uint32_t>& indexes =
      snap->by_vuln[static_cast<std::size_t>(*vuln)];
  std::string out;
  out.reserve(list_body_bytes(indexes.size(), config_.max_results));
  out += '{';
  append_stamp(out, *snap);
  out += ',';
  append_key(out, "class");
  append_str(out, to_string(*vuln));
  out += ',';
  append_address_list(out, *snap, indexes, config_.max_results);
  out += "}\n";
  return json_response(200, std::move(out));
}

void QueryService::register_endpoints(obs::HttpServer& server) {
  server.handle_prefix(
      "/v1/contract/",
      [this](const std::string& rest, const std::string&) {
        return contract_endpoint(rest);
      });
  server.handle_prefix(
      "/v1/codehash/",
      [this](const std::string& rest, const std::string&) {
        return codehash_endpoint(rest);
      });
  server.handle("/v1/vulns", [this](const std::string& query) {
    return vulns_endpoint(query);
  });
}

}  // namespace proxion::serve
