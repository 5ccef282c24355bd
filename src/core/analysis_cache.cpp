#include "core/analysis_cache.h"

#include "core/selector_extractor.h"

namespace proxion::core {

AnalysisCache::AnalysisCache(unsigned shards) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (unsigned i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::shared_ptr<AnalysisCache::Entry> AnalysisCache::entry_for(
    const crypto::Hash256& code_hash) {
  Shard& s = *shards_[crypto::Hash256Hasher{}(code_hash) % shards_.size()];
  std::lock_guard<std::mutex> lk(s.mu);
  auto [it, inserted] = s.map.try_emplace(code_hash);
  if (inserted) {
    it->second = std::make_shared<Entry>();
    entries_.add(1);
  }
  return it->second;
}

const std::shared_ptr<const evm::Disassembly>& AnalysisCache::ensure_disassembly(
    Entry& entry, evm::BytesView code) {
  if (entry.dis) {
    disassembly_hits_.add(1);
  } else {
    disassembly_misses_.add(1);
    entry.dis = std::make_shared<const evm::Disassembly>(code);
  }
  return entry.dis;
}

std::shared_ptr<const evm::Disassembly> AnalysisCache::disassembly(
    const crypto::Hash256& code_hash, evm::BytesView code) {
  const std::shared_ptr<Entry> entry = entry_for(code_hash);
  std::lock_guard<std::mutex> lk(entry->mu);
  return ensure_disassembly(*entry, code);
}

std::shared_ptr<const std::vector<std::uint32_t>> AnalysisCache::selectors(
    const crypto::Hash256& code_hash, evm::BytesView code) {
  const std::shared_ptr<Entry> entry = entry_for(code_hash);
  std::lock_guard<std::mutex> lk(entry->mu);
  if (entry->selectors) {
    selector_hits_.add(1);
  } else {
    selector_misses_.add(1);
    entry->selectors = std::make_shared<const std::vector<std::uint32_t>>(
        extract_selectors(*ensure_disassembly(*entry, code)));
  }
  return entry->selectors;
}

std::shared_ptr<const StorageProfile> AnalysisCache::storage_profile(
    const crypto::Hash256& code_hash, evm::BytesView code) {
  const std::shared_ptr<Entry> entry = entry_for(code_hash);
  std::lock_guard<std::mutex> lk(entry->mu);
  if (entry->profile) {
    profile_hits_.add(1);
  } else {
    profile_misses_.add(1);
    entry->profile = std::make_shared<const StorageProfile>(
        profile_storage(*ensure_disassembly(*entry, code)));
  }
  return entry->profile;
}

const std::shared_ptr<const static_analysis::StaticReport>&
AnalysisCache::ensure_static_report(Entry& entry, evm::BytesView code) {
  // No hit/miss accounting here: static_{hits,misses} mean "triage
  // requests", and layout() reaching for the CFG as an ingredient must not
  // inflate them (its own layout_{hits,misses} pair tells that story).
  if (!entry.static_report) {
    entry.static_report = std::make_shared<const static_analysis::StaticReport>(
        static_analysis::analyze(*ensure_disassembly(entry, code)));
  }
  return entry.static_report;
}

std::shared_ptr<const static_analysis::StaticReport>
AnalysisCache::static_report(const crypto::Hash256& code_hash,
                             evm::BytesView code) {
  const std::shared_ptr<Entry> entry = entry_for(code_hash);
  std::lock_guard<std::mutex> lk(entry->mu);
  if (entry->static_report) {
    static_hits_.add(1);
  } else {
    static_misses_.add(1);
  }
  return ensure_static_report(*entry, code);
}

std::shared_ptr<const static_analysis::StorageLayout> AnalysisCache::layout(
    const crypto::Hash256& code_hash, evm::BytesView code) {
  const std::shared_ptr<Entry> entry = entry_for(code_hash);
  std::lock_guard<std::mutex> lk(entry->mu);
  if (entry->layout) {
    layout_hits_.add(1);
  } else {
    layout_misses_.add(1);
    entry->layout = std::make_shared<const static_analysis::StorageLayout>(
        static_analysis::infer_layout(
            *ensure_disassembly(*entry, code),
            ensure_static_report(*entry, code)->cfg));
  }
  return entry->layout;
}

void AnalysisCache::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->mu);
    shard->map.clear();
  }
}

AnalysisCacheStats AnalysisCache::stats() const {
  AnalysisCacheStats s;
  s.disassembly_hits = disassembly_hits_.value();
  s.disassembly_misses = disassembly_misses_.value();
  s.selector_hits = selector_hits_.value();
  s.selector_misses = selector_misses_.value();
  s.profile_hits = profile_hits_.value();
  s.profile_misses = profile_misses_.value();
  s.static_hits = static_hits_.value();
  s.static_misses = static_misses_.value();
  s.layout_hits = layout_hits_.value();
  s.layout_misses = layout_misses_.value();
  s.entries = entries_.value();
  return s;
}

}  // namespace proxion::core
