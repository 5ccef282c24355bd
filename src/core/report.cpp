#include "core/report.h"

#include <sstream>

namespace proxion::core {

namespace {

double pct(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : 100.0 * static_cast<double>(num) /
                              static_cast<double>(den);
}

/// Nanoseconds with an adaptive unit (ns/us/ms/s), one decimal.
std::string fmt_ns(double ns) {
  std::ostringstream o;
  o.setf(std::ios::fixed);
  o.precision(1);
  if (ns >= 1e9) {
    o << ns / 1e9 << "s";
  } else if (ns >= 1e6) {
    o << ns / 1e6 << "ms";
  } else if (ns >= 1e3) {
    o << ns / 1e3 << "us";
  } else {
    o << ns << "ns";
  }
  return o.str();
}

void latency_line(std::ostringstream& out, const char* label,
                  const obs::HistogramSummary& s) {
  out << "  " << label << " p50=" << fmt_ns(s.p50) << " p90=" << fmt_ns(s.p90)
      << " p99=" << fmt_ns(s.p99) << " max=" << fmt_ns(static_cast<double>(s.max))
      << " (" << s.count << " samples)\n";
}

}  // namespace

VerdictRow extract_verdict(const ContractAnalysis& a,
                           const crypto::Hash256& code_hash) {
  VerdictRow row;
  row.address = a.address;
  row.code_hash = code_hash;
  row.year = a.year;
  row.verdict = a.proxy.verdict;
  row.standard = a.proxy.standard;
  row.logic_source = a.proxy.logic_source;
  row.logic_address = a.proxy.logic_address;
  row.logic_slot = a.proxy.logic_slot;
  row.upgrade_events = a.logic_history.upgrade_events;
  row.has_source = a.has_source;
  row.has_tx = a.has_tx;
  row.hidden = a.proxy.is_proxy() && !a.has_source && !a.has_tx;
  row.deduplicated = a.deduplicated;
  row.function_collision = a.function_collision;
  row.storage_collision = a.storage_collision;
  row.storage_collision_exploitable = a.storage_collision_exploitable;
  row.family_collision = a.family_collision;
  row.quarantined = a.error.has_value();
  if (a.error) row.error_kind = a.error->kind;
  return row;
}

void LandscapeAccumulator::add(const ContractAnalysis& a) {
  LandscapeStats& stats = stats_;
  ++stats.total_contracts;
  if (a.error) {
    // Quarantined: partial analysis, excluded from landscape aggregates
    // until a resume pass clears it.
    ++stats.quarantined;
    ++stats.errors_by_kind[a.error->kind];
    return;
  }
  if (a.proxy.verdict == ProxyVerdict::kEmulationError) {
    ++stats.emulation_errors;
    if (a.proxy.halt == evm::HaltReason::kStepLimit) {
      // Adversarial bytecode that ran into the emulator's step fuse —
      // distinct in the taxonomy from blobs that merely fault.
      ++stats.errors_by_kind[ErrorKind::kEmulationLimit];
    }
  }
  if (a.diamond.is_diamond) ++stats.diamonds_recovered;
  if (!a.deduplicated) {
    // Static-tier triage per unique blob: clones share their
    // representative's triage, so counting them again would overstate the
    // emulation work the tier saved.
    switch (a.proxy.static_triage) {
      case StaticTriage::kSkippedNoDelegatecall:
        ++stats.static_skipped_absent;
        break;
      case StaticTriage::kSkippedDeadDelegatecall:
        ++stats.static_skipped_dead;
        break;
      case StaticTriage::kSkippedMinimalProxy:
        ++stats.static_skipped_minimal;
        break;
      case StaticTriage::kEmulated:
        ++stats.static_emulated;
        break;
      case StaticTriage::kNotRun:
        break;
    }
    if (a.proxy.static_mismatch != 0) {
      ++stats.static_mismatches;
      for (const std::uint8_t bit :
           {kMismatchReachability, kMismatchSlot, kMismatchTarget,
            kMismatchLayoutSlot, kMismatchLayoutWidth}) {
        if ((a.proxy.static_mismatch & bit) != 0) {
          ++stats.static_mismatch_bits[bit];
        }
      }
    }
    if (a.proxy.layout_inferred) ++stats.layout_inferred;
    if (a.proxy.layout_reliable) ++stats.layout_reliable;
  }
  stats.collision_pairs_family_checked += a.collision_pairs_family_checked;
  stats.collision_pairs_source_free += a.collision_pairs_source_free;
  if (a.family_collision) ++stats.family_collisions;
  if (!a.proxy.is_proxy()) return;
  ++stats.proxies;
  if (!a.has_source && !a.has_tx) ++stats.hidden_proxies;
  if (!a.deduplicated) ++stats.unique_proxy_codehashes;
  ++stats.by_standard[a.proxy.standard];
  ++stats.proxies_by_year[a.year];
  if (!a.logic_history.logic_addresses.empty()) {
    ++stats.pairs_by_source[{a.has_source, a.logic_has_source}];
  }
  if (a.function_collision) {
    ++stats.function_collisions;
    ++stats.function_collisions_by_year[a.year];
  }
  if (a.storage_collision) {
    ++stats.storage_collisions;
    ++stats.storage_collisions_by_year[a.year];
  }
  if (a.storage_collision_exploitable) {
    ++stats.exploitable_storage_collisions;
  }
  ++stats.upgrade_histogram[a.logic_history.upgrade_events];
  stats.total_upgrade_events += a.logic_history.upgrade_events;
}

LandscapeStats LandscapeAccumulator::take() {
  stats_.analyzed_contracts = stats_.total_contracts - stats_.quarantined;
  return std::move(stats_);
}

std::string render_landscape_text(const LandscapeStats& stats) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(1);
  out << "contracts analyzed:  " << stats.total_contracts << "\n";
  out << "proxy contracts:     " << stats.proxies << " ("
      << pct(stats.proxies, stats.total_contracts) << "%)\n";
  out << "hidden proxies:      " << stats.hidden_proxies
      << " (no source, no transactions)\n";
  out << "emulation errors:    " << stats.emulation_errors << " ("
      << pct(stats.emulation_errors, stats.total_contracts) << "%)\n";
  if (stats.quarantined > 0) {
    out << "quarantined:         " << stats.quarantined << " ("
        << pct(stats.quarantined, stats.total_contracts)
        << "% — partial coverage, resume to retry)\n";
    out << "error taxonomy:";
    for (const auto& [kind, count] : stats.errors_by_kind) {
      out << "  " << to_string(kind) << "=" << count;
    }
    out << "\n";
  }
  if (stats.sweep_shards > 0) {
    out << "durable sweep:       " << stats.sweep_shards << " shards, "
        << stats.journal_replayed << " replayed from journal";
    if (stats.selfheal_shards > 0) {
      out << ", " << stats.selfheal_shards
          << " corrupt region(s) self-healed";
    }
    out << "\n";
    if (stats.sweep_degraded != 0) {
      out << "DEGRADED:            disk gave out mid-sweep; verdicts are "
             "complete but checkpointing stopped at the last good commit\n";
    }
  }
  if (stats.rpc_retries > 0 || stats.rpc_giveups > 0) {
    out << "rpc faults absorbed: " << stats.rpc_retries << " retried, "
        << stats.rpc_giveups << " gave up, " << stats.breaker_trips
        << " breaker trips\n";
  }
  out << "unique proxy codebases: " << stats.unique_proxy_codehashes << "\n";
  const std::uint64_t static_triaged =
      stats.static_skipped_absent + stats.static_skipped_dead +
      stats.static_skipped_minimal + stats.static_emulated;
  if (static_triaged > 0) {
    const std::uint64_t skips = static_triaged - stats.static_emulated;
    out << "static tier:         " << skips << "/" << static_triaged
        << " blobs skipped emulation (" << pct(skips, static_triaged)
        << "%): absent=" << stats.static_skipped_absent
        << " dead=" << stats.static_skipped_dead
        << " eip1167=" << stats.static_skipped_minimal << "\n";
    if (stats.static_mismatches > 0) {
      out << "static mismatches:   " << stats.static_mismatches
          << " (static vs emulation disagreement —";
      for (const auto& [bit, count] : stats.static_mismatch_bits) {
        out << ' '
            << (bit == kMismatchReachability  ? "reachability"
                : bit == kMismatchSlot        ? "slot"
                : bit == kMismatchTarget      ? "target"
                : bit == kMismatchLayoutSlot  ? "layout-slot"
                : bit == kMismatchLayoutWidth ? "layout-width"
                                              : "unknown")
            << "=" << count;
      }
      out << ")\n";
    }
  }
  if (stats.layout_inferred > 0) {
    out << "layout inference:    " << stats.layout_inferred
        << " blobs inferred (" << stats.layout_reliable << " reliable); "
        << stats.collision_pairs_source_free << "/"
        << stats.collision_pairs_family_checked
        << " pairs checked source-free; family collisions="
        << stats.family_collisions << "\n";
  }
  if (stats.diamonds_recovered > 0) {
    out << "diamonds recovered (tx-hint probing): "
        << stats.diamonds_recovered << "\n";
  }
  out << "function collisions: " << stats.function_collisions << "\n";
  out << "storage collisions:  " << stats.storage_collisions << " ("
      << stats.exploitable_storage_collisions << " with verified exploit)\n";
  out << "upgrade events:      " << stats.total_upgrade_events << "\n";
  if (stats.contract_latency_ns.count > 0 || stats.rpc_latency_ns.count > 0) {
    out << "latency (telemetry):\n";
    if (stats.contract_latency_ns.count > 0) {
      latency_line(out, "per contract:", stats.contract_latency_ns);
    }
    if (stats.rpc_latency_ns.count > 0) {
      latency_line(out, "per rpc:     ", stats.rpc_latency_ns);
    }
    if (stats.emulation_steps.count > 0) {
      const auto& e = stats.emulation_steps;
      out << "  steps/probe:  p50=" << static_cast<std::uint64_t>(e.p50)
          << " p90=" << static_cast<std::uint64_t>(e.p90)
          << " p99=" << static_cast<std::uint64_t>(e.p99) << " max=" << e.max
          << " (" << e.count << " probes)\n";
    }
  }
  out << "standards:";
  for (const auto& [standard, count] : stats.by_standard) {
    out << "  " << to_string(standard) << "=" << count;
  }
  out << "\n";
  return out.str();
}

std::string render_collisions_csv(const LandscapeStats& stats) {
  std::ostringstream out;
  out << "year,function_collisions,storage_collisions\n";
  for (int year = 2015; year <= 2023; ++year) {
    const auto fn = stats.function_collisions_by_year.find(year);
    const auto st = stats.storage_collisions_by_year.find(year);
    out << year << ','
        << (fn == stats.function_collisions_by_year.end() ? 0 : fn->second)
        << ','
        << (st == stats.storage_collisions_by_year.end() ? 0 : st->second)
        << '\n';
  }
  return out.str();
}

std::string render_standards_csv(const LandscapeStats& stats) {
  std::ostringstream out;
  out << "standard,count,ratio_pct\n";
  out.setf(std::ios::fixed);
  out.precision(2);
  for (const auto& [standard, count] : stats.by_standard) {
    out << to_string(standard) << ',' << count << ','
        << pct(count, stats.proxies) << '\n';
  }
  return out.str();
}

std::string render_upgrades_csv(const LandscapeStats& stats) {
  std::ostringstream out;
  out << "upgrades,proxies\n";
  for (const auto& [upgrades, count] : stats.upgrade_histogram) {
    out << upgrades << ',' << count << '\n';
  }
  return out.str();
}

std::string render_contracts_csv(
    const std::vector<ContractAnalysis>& reports) {
  std::ostringstream out;
  out << "address,year,verdict,standard,logic,function_collision,"
         "storage_collision\n";
  for (const ContractAnalysis& a : reports) {
    out << a.address.to_hex() << ',' << a.year << ','
        << to_string(a.proxy.verdict) << ',' << to_string(a.proxy.standard)
        << ','
        << (a.proxy.is_proxy() ? a.proxy.logic_address.to_hex() : "")
        << ',' << (a.function_collision ? 1 : 0) << ','
        << (a.storage_collision ? 1 : 0) << '\n';
  }
  return out.str();
}

}  // namespace proxion::core
