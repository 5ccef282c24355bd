#include "store/durable_sweep.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <variant>

#include "core/report.h"

namespace proxion::store {

namespace {

using core::ContractAnalysis;
using core::SweepInput;
using evm::Address;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Whether the pipeline got as far as handing `a` its group's verdict. A
/// contract quarantined by its own code fetch or by its representative's
/// Phase A carries no dedup flag in a cold sweep.
bool has_verdict(const ContractAnalysis& a) {
  return !a.error || a.error->phase == "pairs";
}

/// One code-hash group to run: member input indices in input order.
struct Group {
  crypto::Hash256 hash{};
  std::vector<std::size_t> members;
  /// The group's representative stands and is not among `members`: they
  /// journal as dedup clones of it.
  bool clones = false;
  /// A later chunk of a split group: the first member is the group's
  /// representative, run again for its clones' sake; its report is dropped.
  bool lead_repeated = false;
  /// The Phase-A verdict the owning shard's run() reuses: the
  /// representative's report for the first member, with the slot head
  /// re-read at that address.
  core::VerdictSeeds seeds;
};

/// What planning needs of a contract's last record: its fingerprint (code
/// hash, implementation-slot head), the flags that decide reuse, its
/// Phase-A verdict (a representative's seeds its clones), and what else its
/// analysis read.
struct Fingerprint {
  crypto::Hash256 code_hash{};
  bool quarantined = false;
  bool deduplicated = false;
  core::ProxyReport proxy;
  Dependencies dependencies;
};

Fingerprint fingerprint_of(const ContractRecord& rec) {
  return Fingerprint{rec.code_hash, rec.analysis.error.has_value(),
                     rec.analysis.deduplicated, rec.analysis.proxy,
                     rec.dependencies};
}

/// The §7.1 donor map of verified contracts listed in input order: the
/// first address per code hash.
core::SourceDonors donor_map_of(
    const std::vector<std::pair<crypto::Hash256, Address>>& verified) {
  core::SourceDonors map;
  for (const auto& [hash, address] : verified) map.emplace(hash, address);
  return map;
}

/// The donor of `hash` in `donors`; zero when there is none.
Address donor_in(const core::SourceDonors& donors, const crypto::Hash256& hash) {
  const auto it = donors.find(hash);
  return it == donors.end() ? Address{} : it->second;
}

/// `d`, recorded for code `code_hash`, with each logic's code hash and
/// every donor read as the chain and `donors` stand now.
Dependencies at_head(Dependencies d, const crypto::Hash256& code_hash,
                     const core::SourceDonors& donors,
                     const chain::Blockchain& chain) {
  d.donor = donor_in(donors, code_hash);
  for (LogicDependency& l : d.logic) {
    l.code_hash = chain.code_hash(l.address);
    l.donor = donor_in(donors, l.code_hash);
  }
  return d;
}

/// What a sweep call decided to do with each contract it examined.
struct Plan {
  /// Members whose last record stands (input indices).
  std::vector<std::size_t> reused;
  /// Groups with members to recompute (only those members).
  std::vector<Group> rerun_groups;
  std::uint64_t upgraded = 0;
};

/// A dependency as the reverse index keys it: a logic's address (its code
/// can move) or a logic's code hash (its §7.1 donor can move).
using DependencyKey = std::variant<Address, crypto::Hash256>;

struct DependencyKeyHasher {
  std::size_t operator()(const DependencyKey& key) const noexcept {
    if (const Address* a = std::get_if<Address>(&key)) {
      return evm::AddressHasher{}(*a);
    }
    return crypto::Hash256Hasher{}(std::get<crypto::Hash256>(key));
  }
};

}  // namespace

/// The in-memory state incremental() keeps between calls: the last
/// record's fingerprint for every input it covers, the code-hash groups,
/// the readers of each dependency, the quarantined set, the §7.1 donor
/// candidates, and the open journal writer.
struct DurableSweep::LiveIndex {
  struct Entry {
    std::size_t input = 0;  // index into the inputs list
    Fingerprint last;
  };
  /// Inputs covered: a prefix of every later call's inputs.
  std::size_t covered = 0;
  std::unordered_map<Address, Entry, evm::AddressHasher> by_address;
  /// Code hash -> member input indices, ascending; the front is the
  /// group's global dedup representative. The members are also the
  /// readers of that hash's §7.1 donor.
  std::unordered_map<crypto::Hash256, std::vector<std::size_t>,
                     crypto::Hash256Hasher>
      groups;
  /// Each logic address and logic code hash a last record depends on ->
  /// the covered inputs whose record names it, ascending: what a lap
  /// examines when that logic's code or that hash's donor moves.
  std::unordered_map<DependencyKey, std::vector<std::size_t>,
                     DependencyKeyHasher>
      readers;
  /// Covered inputs whose last record is quarantined: retried every lap.
  std::unordered_set<Address, evm::AddressHasher> quarantined;
  /// Verified inputs as (code hash, address) in input order; grows by
  /// appends. The first per code hash is its donor in `donor_map`.
  std::vector<std::pair<crypto::Hash256, Address>> donors;
  core::SourceDonors donor_map;
  /// Empty after a disk failure; the next lap reopens it.
  std::optional<JournalWriter> writer;
  std::uint64_t shards_committed = 0;

  const Fingerprint* find(const Address& a) const {
    const auto it = by_address.find(a);
    return it == by_address.end() ? nullptr : &it->second.last;
  }

  void put(std::size_t input, const ContractRecord& rec) {
    const Address& a = rec.analysis.address;
    if (rec.analysis.error) {
      quarantined.insert(a);
    } else {
      quarantined.erase(a);
    }
    Entry& entry = by_address[a];
    // An upgrade appends to the history, so the two records share a prefix
    // whose keys stay linked. Keys unlinked past it may include a code hash
    // the prefix names too: then the whole new list links again.
    const std::vector<LogicDependency>& before = entry.last.dependencies.logic;
    const std::vector<LogicDependency>& after = rec.dependencies.logic;
    std::size_t kept = static_cast<std::size_t>(
        std::mismatch(before.begin(), before.end(), after.begin(), after.end())
            .first -
        before.begin());
    if (kept < before.size()) {
      link(std::span(before).subspan(kept), input, /*add=*/false);
      kept = 0;
    }
    link(std::span(after).subspan(kept), input, /*add=*/true);
    entry = Entry{input, fingerprint_of(rec)};
  }

  /// Adds `input` to, or removes it from, the readers of every dependency
  /// in `logic`.
  void link(std::span<const LogicDependency> logic, std::size_t input,
            bool add) {
    for (const LogicDependency& l : logic) {
      for (const DependencyKey& key :
           {DependencyKey{l.address}, DependencyKey{l.code_hash}}) {
        std::vector<std::size_t>& inputs = readers[key];
        const auto at = std::lower_bound(inputs.begin(), inputs.end(), input);
        const bool linked = at != inputs.end() && *at == input;
        if (add && !linked) inputs.insert(at, input);
        if (!add && linked) inputs.erase(at);
        if (inputs.empty()) readers.erase(key);
      }
    }
  }

  /// The reuse rule, the only one boot and lap apply: decides which of
  /// `examine` (ascending input indices of the group `hash`) reuse their
  /// last record and which re-run. A record is reused only where a cold
  /// sweep of the current chain would write the same one:
  ///   - it is healthy, has the group's code hash and the same
  ///     implementation-slot head, its dedup flag matches its position
  ///     (clone unless it is the group's front), and every dependency it
  ///     names (each logic's code hash, the §7.1 donors of its own and its
  ///     logics' code hashes) equals the chain and the donor map at head;
  ///   - re-run members are seeded with the representative's own verdict
  ///     (slot head re-read), since the crafted probe selector is seeded
  ///     from the representative's address and clones carry it; the seed
  ///     goes to the first re-run member, run()'s representative;
  ///   - when the representative's last record is not its own healthy
  ///     verdict of this code with current dependencies, the group's
  ///     clones hold a verdict a cold sweep would not compute, so the
  ///     whole group re-runs unseeded; so does it when the representative
  ///     was upgraded and its probe, which runs the new logic's code, no
  ///     longer returns its verdict (emulation_steps counted the old
  ///     logic's code, and the clones carry the verdict).
  void plan_group(const crypto::Hash256& hash,
                  const std::vector<std::size_t>& examine,
                  const std::vector<SweepInput>& inputs, bool dedup,
                  const core::ProxyDetectorConfig& detector,
                  chain::Blockchain& chain, Plan& plan) const {
    const std::vector<std::size_t>& members = groups.at(hash);
    const std::size_t front = members.front();
    auto healthy = [&](const Fingerprint* fp) {
      return fp != nullptr && !fp->quarantined && fp->code_hash == hash;
    };
    auto reads_current = [&](const Fingerprint& fp) {
      return at_head(fp.dependencies, hash, donor_map, chain) ==
             fp.dependencies;
    };
    Group group{hash, {}};
    std::vector<std::size_t> keep;
    bool front_upgraded = false;
    // Whether the front was examined and a dependency of its record moved.
    // A front not examined still reads what its record names: every record
    // naming something that moved is examined.
    bool front_moved = false;
    for (const std::size_t i : examine) {
      const Fingerprint* fp = find(inputs[i].address);
      // Same code, moved implementation slot: the journaled logic_address
      // IS the head at analysis time.
      const bool upgraded =
          healthy(fp) &&
          fp->proxy.logic_source == core::LogicSource::kStorageSlot &&
          Address::from_word(chain.get_storage(inputs[i].address,
                                               fp->proxy.logic_slot)) !=
              fp->proxy.logic_address;
      // An upgraded clone re-runs whatever it read; the front's reads also
      // decide its seed.
      const bool moved = healthy(fp) && (!upgraded || i == front) &&
                         !reads_current(*fp);
      front_upgraded = front_upgraded || (upgraded && i == front);
      front_moved = front_moved || (moved && i == front);
      plan.upgraded += upgraded ? 1 : 0;
      const bool reusable = healthy(fp) && !upgraded && !moved &&
                            fp->deduplicated == (dedup && i != front);
      (reusable ? keep : group.members).push_back(i);
    }
    if (dedup && !group.members.empty()) {
      const Address& rep = inputs[front].address;
      const Fingerprint* fp = find(rep);
      auto probe_returns = [&](const core::ProxyReport& verdict) {
        core::ProxyReport now =
            core::ProxyDetector(chain, detector).analyze(rep);
        now.logic_address = verdict.logic_address;
        return now == verdict;
      };
      if (!healthy(fp) || fp->deduplicated || front_moved ||
          (front_upgraded && !probe_returns(fp->proxy))) {
        group.members = members;
        plan.rerun_groups.push_back(std::move(group));
        return;
      }
      // run() fetches code per hash, so its Phase A representative is the
      // sub-run's first member whichever address served the code: that
      // member's seed is the only one it reads.
      group.clones = group.members.front() != front;
      const Address& first = inputs[group.members.front()].address;
      core::ProxyReport report = fp->proxy;
      if (report.logic_source == core::LogicSource::kStorageSlot) {
        report.logic_address =
            Address::from_word(chain.get_storage(first, report.logic_slot));
      }
      group.seeds.emplace(first, core::VerdictSeed{hash, std::move(report)});
    }
    plan.reused.insert(plan.reused.end(), keep.begin(), keep.end());
    if (!group.members.empty()) plan.rerun_groups.push_back(std::move(group));
  }
};

DurableSweep::DurableSweep(core::AnalysisPipeline& pipeline,
                           chain::Blockchain& chain,
                           const sourcemeta::SourceRepository* sources,
                           DurableSweepConfig config)
    : pipeline_(pipeline),
      chain_(chain),
      sources_(sources),
      config_(std::move(config)),
      metrics_(config_.registry != nullptr ? *config_.registry
                                           : obs::Registry::global()) {}

DurableSweep::~DurableSweep() = default;

DurableSweepResult DurableSweep::run(const std::vector<SweepInput>& inputs) {
  live_.reset();
  return sweep(inputs, /*fresh=*/true, {});
}

DurableSweepResult DurableSweep::incremental(
    const std::vector<SweepInput>& inputs, const AddressSet& touched) {
  if (live_ && inputs.size() < live_->covered) live_.reset();
  return sweep(inputs, /*fresh=*/false, touched);
}

DurableSweepResult DurableSweep::sweep(const std::vector<SweepInput>& inputs,
                                       bool fresh, const AddressSet& touched) {
  DurableSweepResult result;
  util::Vfs& vfs = config_.vfs != nullptr ? *config_.vfs : util::Vfs::real();
  // Per-sweep gauges start clean (a prior degraded sweep on the same
  // registry must not leak into this one's report).
  metrics_.gauge("sweep.degraded").set(0);
  metrics_.gauge("sweep.selfheal_shards").set(0);
  if (config_.status != nullptr) {
    config_.status->degraded.store(false, std::memory_order_relaxed);
  }

  // A lap plans against the index the previous incremental() call left;
  // every other call fingerprints the whole population. Only incremental()
  // builds an index: run() retains nothing.
  const bool lap = live_ != nullptr;
  std::unique_ptr<LiveIndex> booted;
  if (!lap && !fresh) booted = std::make_unique<LiveIndex>();
  LiveIndex* index = lap ? live_.get() : booted.get();
  std::optional<JournalWriter> boot_writer;
  std::optional<JournalWriter>& writer = lap ? live_->writer : boot_writer;
  // Every error return below drops the index: the next call boots again.
  auto fail = [&](std::string error) {
    result.error = std::move(error);
    live_.reset();
    return result;
  };

  std::uint64_t prior_shards = 0;
  std::uint64_t heal_gaps = 0;
  std::vector<crypto::Hash256> hashes;  // boot: the fingerprint per input
  std::unordered_map<Address, ContractRecord, evm::AddressHasher> records;
  std::optional<JournalReplay> replay;
  // The global §7.1 donor map: built over the WHOLE population so every
  // shard resolves the same donors a monolithic run would (first verified
  // address per code hash wins), and before any plan, whose rule compares
  // each record's donors with it.
  core::SourceDonors run_donors;
  core::SourceDonors& donors = index != nullptr ? index->donor_map : run_donors;
  // A lap's contracts to plan, ascending input indices; every other call
  // plans every input.
  std::vector<std::size_t> examine;

  if (lap) {
    // ---- lap: the dirty set ----------------------------------------------
    prior_shards = index->shards_committed;
    // Addresses whose code may have moved: a touched address outside the
    // covered inputs, which the lap cannot fingerprint, and (below) every
    // new input and every dirty input whose code hash moved.
    std::vector<Address> code_moved;
    for (std::size_t i = index->covered; i < inputs.size(); ++i) {
      examine.push_back(i);
    }
    for (const Address& a : touched) {
      if (const auto it = index->by_address.find(a);
          it != index->by_address.end()) {
        examine.push_back(it->second.input);
      } else {
        code_moved.push_back(a);
      }
    }
    for (const Address& a : index->quarantined) {
      examine.push_back(index->by_address.at(a).input);
    }
    std::sort(examine.begin(), examine.end());
    examine.erase(std::unique(examine.begin(), examine.end()), examine.end());

    // ---- fingerprint it; move code-changed members between groups -------
    // As at boot, each fingerprint is the code hash the chain stored when it
    // wrote the code, and the lap's run() takes it: a lap hashes no blob. A
    // group whose representative changes re-examines the old and the new
    // one: the dedup flag follows the representative.
    std::vector<std::size_t> also;  // more inputs to examine
    // Code hashes a verified contract left or joined: their donor may move.
    std::vector<crypto::Hash256> donor_hashes;
    for (const std::size_t i : examine) {
      const Address& a = inputs[i].address;
      const crypto::Hash256 hash = chain_.code_hash(a);
      const Fingerprint* rec = index->find(a);
      if (rec != nullptr && rec->code_hash == hash) continue;
      code_moved.push_back(a);
      const bool verified = sources_ != nullptr && sources_->has_source(a);
      if (rec != nullptr) {
        std::vector<std::size_t>& from = index->groups.at(rec->code_hash);
        const bool was_front = from.front() == i;
        from.erase(std::lower_bound(from.begin(), from.end(), i));
        if (from.empty()) {
          index->groups.erase(rec->code_hash);
        } else if (was_front) {
          also.push_back(from.front());
        }
        if (verified) {
          for (auto& [donor_hash, donor] : index->donors) {
            if (donor == a) donor_hash = hash;
          }
          donor_hashes.push_back(rec->code_hash);
          donor_hashes.push_back(hash);
        }
      } else if (verified) {
        index->donors.emplace_back(hash, a);
        donor_hashes.push_back(hash);
      }
      std::vector<std::size_t>& to = index->groups[hash];
      const auto at = std::lower_bound(to.begin(), to.end(), i);
      if (at == to.begin() && !to.empty()) also.push_back(to.front());
      to.insert(at, i);
    }
    // ---- §7.1: rebuild the donor map; examine the readers of what moved --
    // The rule decides whether each of them stands: the records that name
    // a logic whose code moved, and those that read the donor of a code
    // hash whose donor moved (its members, and the proxies of logics with
    // that code hash).
    auto add_readers = [&](const DependencyKey& key) {
      if (const auto it = index->readers.find(key); it != index->readers.end()) {
        also.insert(also.end(), it->second.begin(), it->second.end());
      }
    };
    for (const Address& a : code_moved) add_readers(a);
    if (!donor_hashes.empty()) {
      const core::SourceDonors before =
          std::exchange(donors, donor_map_of(index->donors));
      for (const crypto::Hash256& hash : donor_hashes) {
        if (donor_in(before, hash) == donor_in(donors, hash)) continue;
        if (const auto g = index->groups.find(hash); g != index->groups.end()) {
          also.insert(also.end(), g->second.begin(), g->second.end());
        }
        add_readers(hash);
      }
    }
    examine.insert(examine.end(), also.begin(), also.end());
    std::sort(examine.begin(), examine.end());
    examine.erase(std::unique(examine.begin(), examine.end()), examine.end());
  } else {
    // ---- fingerprint the population --------------------------------------
    // Each input's fingerprint is the code hash its account stores (hashed
    // once, when the chain wrote the code), read without touching the code.
    // This phase holds 32 bytes per contract: population *metadata* may be
    // O(N), it is the per-contract artifacts that must stay O(shard). Each
    // shard's run() takes its members' fingerprints (its groups' hashes)
    // instead of hashing the code it fetches, and they are what its records
    // journal, so a sweep hashes no input blob. The verified inputs are the
    // §7.1 donor candidates.
    hashes.resize(inputs.size());
    std::vector<std::pair<crypto::Hash256, Address>> verified;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      hashes[i] = chain_.code_hash(inputs[i].address);
      if (sources_ != nullptr && sources_->has_source(inputs[i].address)) {
        verified.emplace_back(hashes[i], inputs[i].address);
      }
    }
    donors = donor_map_of(verified);
    if (index != nullptr) index->donors = std::move(verified);

    // ---- boot: replay the journal, once -----------------------------------
    // Last-wins per address: a record appended by a later pass supersedes
    // the original. Salvage replay: a bit-rotted region mid-journal loses
    // only the records it physically destroyed — valid frames past it still
    // count, and the plan below recomputes exactly what they leave missing.
    if (index != nullptr) {
      replay = read_journal(config_.journal_path, vfs,
                            ReplayOptions{.salvage = true});
    }
    if (replay) {
      heal_gaps = replay->corrupt_gaps;
      metrics_.counter("store.journal.frames_replayed").add(replay->frames.size());
      metrics_.counter("store.journal.crc_failures").add(replay->crc_failures);
      metrics_.counter("store.journal.corrupt_gaps").add(replay->corrupt_gaps);
      if (replay->tail_dropped) {
        metrics_.counter("store.journal.truncated_tails").add(1);
      }
      if (config_.event_log != nullptr) {
        if (replay->corrupt_gaps > 0) {
          config_.event_log->emit(
              obs::Severity::kWarn, "sweep",
              "journal self-heal: salvaged around " +
                  std::to_string(replay->corrupt_gaps) +
                  " corrupt region(s); damaged groups will recompute");
        }
        if (replay->tail_dropped) {
          config_.event_log->emit(
              obs::Severity::kWarn, "sweep",
              "journal torn tail dropped (power-cut mid-append); "
              "uncommitted records will recompute");
        }
      }
      for (const JournalFrame& frame : replay->frames) {
        switch (frame.type) {
          case RecordType::kContract:
            if (std::optional<ContractRecord> rec =
                    decode_contract_record(frame.payload)) {
              records[rec->analysis.address] = std::move(*rec);
            }
            break;
          case RecordType::kShardCommit:
            if (decode_shard_commit(frame.payload)) ++prior_shards;
            break;
          case RecordType::kSweepBegin:
          case RecordType::kSweepEnd:
            break;
        }
      }
      // Only the scan's extent is needed from here on (to open the writer).
      replay->frames = {};
    }
    // The index a lap would hold: every input's group, and the fingerprint
    // of every input the journal has a record for.
    if (index != nullptr) {
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        index->groups[hashes[i]].push_back(i);
        if (const auto it = records.find(inputs[i].address);
            it != records.end()) {
          index->put(i, it->second);
        }
      }
    }
  }
  result.examined = lap ? examine.size() : inputs.size();

  // ---- plan the examined contracts, group by group -----------------------
  // Groups in first-occurrence order; run() re-runs every group whole.
  Plan plan;
  {
    std::unordered_map<crypto::Hash256, std::size_t, crypto::Hash256Hasher>
        slot_of;
    auto add = [&](std::size_t i, const crypto::Hash256& hash) {
      const auto [it, inserted] =
          slot_of.try_emplace(hash, plan.rerun_groups.size());
      if (inserted) plan.rerun_groups.push_back(Group{hash, {}});
      plan.rerun_groups[it->second].members.push_back(i);
    };
    if (lap) {
      // A clean input's code is the one its record names.
      for (const std::size_t i : examine) {
        add(i, chain_.code_hash(inputs[i].address));
      }
    } else {
      for (std::size_t i = 0; i < inputs.size(); ++i) add(i, hashes[i]);
    }
  }
  if (index != nullptr) {
    const bool dedup = pipeline_.config().dedup_by_code_hash;
    const core::ProxyDetectorConfig detector = pipeline_.detector_config();
    std::vector<Group> candidates = std::move(plan.rerun_groups);
    plan.rerun_groups.clear();
    for (const Group& c : candidates) {
      index->plan_group(c.hash, c.members, inputs, dedup, detector, chain_,
                        plan);
    }
  }
  metrics_.counter("store.sweep.contracts_upgraded").add(plan.upgraded);

  // ---- open the journal -------------------------------------------------
  // On any disk failure from here on, `degrade` either flips the sweep
  // into in-memory degraded mode (drop the writer, keep analyzing, report
  // the cause) or — with degradation disabled — asks the caller to abort.
  auto degrade = [&](const IoResult& why) -> bool /*keep going*/ {
    if (!result.disk_error) {
      result.disk_error = core::ErrorRecord{core::ErrorKind::kDiskIo,
                                            "journal", why.message()};
    }
    if (!config_.degrade_on_disk_failure) return false;
    if (!result.degraded) {
      result.degraded = true;
      metrics_.gauge("sweep.degraded").set(1);
      if (config_.status != nullptr) {
        config_.status->degraded.store(true, std::memory_order_relaxed);
      }
      if (config_.event_log != nullptr) {
        config_.event_log->emit(
            obs::Severity::kError, "sweep",
            "degraded to in-memory mode: " + why.message());
      } else {
        // No structured sink wired: this line is operationally load-bearing
        // (checkpointing just silently stopped), so stderr keeps it.
        std::fprintf(stderr,
                     "proxion: durable sweep degraded to in-memory mode: %s\n",
                     why.message().c_str());
      }
    }
    return true;
  };
  // run(), and a boot that finds no journal, start a new one. A lap keeps
  // the writer the previous call left open and scans the journal again
  // only to reopen it after a disk failure — and only when it has
  // something to write.
  const bool new_journal = !lap && !replay;
  if (!writer && (!lap || !plan.rerun_groups.empty())) {
    IoResult open_why;
    if (new_journal) {
      // A manifest of an earlier journal at this path would over-claim the
      // new one until this call stores its own; creation's directory fsync
      // makes the removal durable too.
      (void)vfs.remove(manifest_path_for(config_.journal_path));
      writer = JournalWriter::create(config_.journal_path, vfs, &open_why);
    } else if (replay) {
      writer =
          JournalWriter::open_append(config_.journal_path, vfs, *replay, &open_why);
    } else {
      writer = JournalWriter::open_append(config_.journal_path, vfs, &open_why);
    }
    if (!writer && !degrade(open_why)) {
      return fail("cannot open checkpoint journal: " + config_.journal_path +
                  " (" + open_why.message() + ")");
    }
  }
  if (writer && new_journal) {
    const std::vector<std::uint8_t> begin = encode_sweep_begin(
        {inputs.size(), static_cast<std::uint64_t>(config_.shard_size)});
    if (IoResult r = writer->append(RecordType::kSweepBegin, begin); !r) {
      if (!degrade(r)) return fail("journal append failed: " + r.message());
      writer.reset();
    }
  }

  // The groups carry their hashes from here on: the per-input copy would
  // only add 32 bytes per contract to every shard's peak.
  hashes = {};

  // ---- pack rerun groups into shards ------------------------------------
  // A group that fits stays whole. A larger one runs in shard-sized chunks,
  // so a shard holds O(shard_size) contracts however large a clone family
  // grows. With dedup, every chunk after the first leads with the group's
  // representative: its repeated report lends the chunk's clones their
  // verdict, as in a whole-group run, and is then dropped, so each member
  // journals the record a whole-group run writes. Seeded clone groups (a
  // lap's or boot's, the representative standing) stay whole.
  const std::size_t cap = config_.shard_size;
  const bool dedup = pipeline_.config().dedup_by_code_hash;
  std::deque<Group> chunks;
  std::vector<std::vector<Group*>> shards;
  std::size_t current = 0;  // members in the open shard
  auto pack = [&](Group& group) {
    if (shards.empty() || (cap > 0 && current >= cap)) {
      shards.emplace_back();
      current = 0;
    }
    shards.back().push_back(&group);
    current += group.members.size();
  };
  for (Group& group : plan.rerun_groups) {
    if (cap == 0 || group.members.size() <= cap || group.clones ||
        !group.seeds.empty()) {
      pack(group);
      continue;
    }
    const std::vector<std::size_t> rest(group.members.begin() + cap,
                                        group.members.end());
    group.members.resize(cap);
    pack(group);
    for (std::size_t b = 0; b < rest.size(); b += cap) {
      Group& chunk = chunks.emplace_back(Group{group.hash, {}});
      chunk.lead_repeated = dedup;
      if (dedup) chunk.members.push_back(group.members.front());
      chunk.members.insert(chunk.members.end(), rest.begin() + b,
                           rest.begin() + std::min(rest.size(), b + cap));
      pack(chunk);
    }
  }

  // ---- shard-progress exposition ----------------------------------------
  // Totals are known the moment the plan exists; the committed gauge then
  // climbs per shard, so a /metrics scrape mid-sweep reads live progress.
  const std::uint64_t shards_total = prior_shards + shards.size();
  metrics_.gauge("sweep.shards_total")
      .set(static_cast<std::int64_t>(shards_total));
  metrics_.gauge("sweep.shards_committed")
      .set(static_cast<std::int64_t>(prior_shards));
  if (config_.status != nullptr) {
    config_.status->shards_total.store(shards_total,
                                       std::memory_order_relaxed);
    config_.status->shards_committed.store(prior_shards,
                                           std::memory_order_relaxed);
    config_.status->journal_bytes.store(writer ? writer->size_bytes() : 0,
                                        std::memory_order_relaxed);
  }

  // ---- replayed reports feed the aggregates directly --------------------
  // (Boot only: a lap's reused records are already in the index and in
  // whatever the record sink fed.)
  core::LandscapeAccumulator acc;
  if (!lap) {
    std::vector<ContractRecord> replayed;
    replayed.reserve(plan.reused.size());
    for (const std::size_t i : plan.reused) {
      const auto it = records.find(inputs[i].address);
      acc.add(it->second.analysis);
      replayed.push_back(std::move(it->second));
    }
    records.clear();
    result.replayed = replayed.size();
    metrics_.counter("store.sweep.contracts_replayed").add(result.replayed);
    if (config_.record_sink && !replayed.empty()) {
      config_.record_sink(replayed);
    }
  }

  // ---- per-shard streaming loop -----------------------------------------
  obs::HistogramSnapshot sum_contract_ns, sum_rpc_ns, sum_steps;
  double sum_fetch_ms = 0, sum_proxy_ms = 0, sum_pairs_ms = 0;
  core::MemoCounts sum_pair_memo;
  obs::Histogram& h_flush = metrics_.histogram("store.journal.flush_ns");
  std::uint64_t shard_index = prior_shards;
  bool stopped = false;

  for (const std::vector<Group*>& shard : shards) {
    if (config_.max_shards != 0 && result.shards_run >= config_.max_shards) {
      stopped = true;
      break;
    }
    std::vector<SweepInput> shard_inputs;
    std::vector<crypto::Hash256> shard_hashes;
    std::vector<std::size_t> shard_globals;
    std::vector<const Group*> shard_groups;
    core::VerdictSeeds seeds;
    std::vector<std::size_t> repeated;  // positions of repeated leads
    for (Group* group : shard) {
      seeds.merge(group->seeds);
      if (group->lead_repeated) repeated.push_back(shard_inputs.size());
      for (const std::size_t i : group->members) {
        shard_inputs.push_back(inputs[i]);
        shard_hashes.push_back(group->hash);
        shard_globals.push_back(i);
        shard_groups.push_back(group);
      }
    }

    std::vector<ContractAnalysis> reports =
        pipeline_.run(shard_inputs, seeds, &donors, shard_hashes);
    if (!repeated.empty()) {
      // A repeated lead's record was journaled with its group's first chunk.
      std::size_t kept = 0;
      for (std::size_t j = 0, r = 0; j < reports.size(); ++j) {
        if (r < repeated.size() && repeated[r] == j) {
          ++r;
          continue;
        }
        if (kept != j) {
          reports[kept] = std::move(reports[j]);
          shard_globals[kept] = shard_globals[j];
          shard_groups[kept] = shard_groups[j];
        }
        ++kept;
      }
      reports.resize(kept);
      shard_globals.resize(kept);
      shard_groups.resize(kept);
    }

    // Per-run perf accounting, summed across shards (the pipeline resets
    // its run-scoped histograms/timers at every run entry).
    core::LandscapeStats shard_annot;
    pipeline_.annotate_run_stats(shard_annot);
    sum_fetch_ms += shard_annot.phase_fetch_ms;
    sum_proxy_ms += shard_annot.phase_proxy_ms;
    sum_pairs_ms += shard_annot.phase_pairs_ms;
    sum_pair_memo += shard_annot.cache;
    const obs::Registry& preg = pipeline_.registry();
    if (const obs::Histogram* h = preg.find_histogram("sweep.contract_latency_ns")) {
      sum_contract_ns.merge(h->snapshot());
    }
    if (const obs::Histogram* h = preg.find_histogram("sweep.rpc_latency_ns")) {
      sum_rpc_ns.merge(h->snapshot());
    }
    if (const obs::Histogram* h = preg.find_histogram("sweep.emulation_steps")) {
      sum_steps.merge(h->snapshot());
    }

    // Aggregate the shard's reports unconditionally (verdicts are valid
    // even when the disk is not), then flush: contract records, the commit
    // frame, one fsync — the commit frame's presence in the valid prefix
    // implies its records'. That fsync is the whole commit: boot counts
    // commits from kShardCommit frames, so no manifest is written here.
    const std::uint64_t bytes_before = writer ? writer->size_bytes() : 0;
    IoResult io;
    // Records outlive the loop only when a sink or the index takes them.
    const bool keep_records = config_.record_sink || index != nullptr;
    std::vector<ContractRecord> shard_records;
    if (keep_records) shard_records.reserve(reports.size());
    for (std::size_t j = 0; j < reports.size(); ++j) {
      ContractAnalysis& report = reports[j];
      if (shard_groups[j]->clones && has_verdict(report)) {
        report.deduplicated = true;
      }
      acc.add(report);
      ContractRecord rec{std::move(report), shard_groups[j]->hash};
      const std::vector<Address>& logic =
          rec.analysis.logic_history.logic_addresses;
      rec.dependencies.logic.reserve(logic.size());
      for (const Address& l : logic) rec.dependencies.logic.push_back({l});
      rec.dependencies =
          at_head(std::move(rec.dependencies), rec.code_hash, donors, chain_);
      if (writer && io.ok) {
        io = writer->append(RecordType::kContract, encode_contract_record(rec));
      }
      if (keep_records) shard_records.push_back(std::move(rec));
    }
    if (writer && io.ok) {
      io = writer->append(RecordType::kShardCommit,
                          encode_shard_commit({shard_index, reports.size()}));
    }
    if (writer && io.ok) {
      const std::uint64_t t0 = now_ns();
      io = writer->sync();
      h_flush.record(now_ns() - t0);
    }
    if (index != nullptr) {
      for (std::size_t j = 0; j < shard_records.size(); ++j) {
        index->put(shard_globals[j], shard_records[j]);
      }
    }
    if (writer && io.ok) {
      metrics_.counter("store.journal.frames_written").add(reports.size() + 1);
      metrics_.counter("store.journal.bytes_written")
          .add(writer->size_bytes() - bytes_before);
      metrics_.counter("store.sweep.shards_committed").add(1);
      metrics_.gauge("sweep.shards_committed")
          .set(static_cast<std::int64_t>(shard_index + 1));
      if (config_.status != nullptr) {
        config_.status->shards_committed.store(shard_index + 1,
                                               std::memory_order_relaxed);
        config_.status->journal_bytes.store(writer->size_bytes(),
                                            std::memory_order_relaxed);
      }
      if (config_.event_log != nullptr) {
        config_.event_log->emit(
            obs::Severity::kDebug, "sweep",
            "shard committed (" + std::to_string(reports.size()) +
                " contracts, " + std::to_string(writer->size_bytes()) +
                " journal bytes)",
            "shard:" + std::to_string(shard_index));
      }
    }
    if (writer && !io.ok) {
      // The shard's verdicts are in the aggregates; only its durability is
      // lost. fsyncgate: the writer is already dead for fsync failures —
      // either way it is never touched again.
      if (!degrade(io)) {
        return fail("journal commit failed for shard " +
                    std::to_string(shard_index) + ": " + io.message());
      }
      writer.reset();
    }
    // Publish after the commit attempt: the shard's verdicts are final
    // either way (degraded mode only loses durability, never answers).
    if (config_.record_sink && !shard_records.empty()) {
      config_.record_sink(shard_records);
    }
    metrics_.counter("store.sweep.contracts_recomputed").add(reports.size());
    result.recomputed += reports.size();
    ++result.shards_run;
    ++shard_index;
  }

  // ---- finish -----------------------------------------------------------
  // Degraded mode: the population IS fully covered in memory, so the sweep
  // is complete — there is just no kSweepEnd to journal (the checkpoint
  // honestly stops at the last good commit, and the next boot picks up
  // there).
  // A lap that recomputed nothing leaves the journal as it was. Only run()
  // and boot store the manifest: a lap's frames land past its
  // committed_bytes, which §5.2 of the format allows.
  result.complete = !stopped;
  if (result.complete && writer && (!lap || result.shards_run > 0)) {
    IoResult io = writer->append(RecordType::kSweepEnd,
                                 encode_sweep_end({inputs.size()}));
    if (io.ok) io = writer->sync();
    if (io.ok && !lap) {
      // A live writer committed every shard this call ran.
      Manifest manifest;
      manifest.committed_bytes = writer->size_bytes();
      manifest.shards_committed = shard_index;
      manifest.contracts_committed = result.replayed + result.recomputed;
      manifest.complete = true;
      io = store_manifest(manifest_path_for(config_.journal_path), manifest,
                          vfs);
    }
    if (!io.ok) {
      if (!degrade(io)) {
        return fail("journal finalization failed: " + io.message());
      }
      writer.reset();
    }
  }

  // ---- keep the index for the next lap ----------------------------------
  if (index != nullptr) {
    if (stopped) {
      live_.reset();
    } else {
      if (!lap) {
        index->writer = std::move(boot_writer);
        live_ = std::move(booted);
      }
      index->covered = inputs.size();
      index->shards_committed = shard_index;
    }
  }

  core::LandscapeStats stats = acc.take();
  pipeline_.annotate_run_stats(stats);
  stats.phase_fetch_ms = sum_fetch_ms;
  stats.phase_proxy_ms = sum_proxy_ms;
  stats.phase_pairs_ms = sum_pairs_ms;
  stats.cache = sum_pair_memo;
  stats.contract_latency_ns = sum_contract_ns.summary();
  stats.rpc_latency_ns = sum_rpc_ns.summary();
  stats.emulation_steps = sum_steps.summary();
  stats.ms_per_contract =
      result.recomputed > 0
          ? (sum_fetch_ms + sum_proxy_ms + sum_pairs_ms) /
                static_cast<double>(result.recomputed)
          : 0.0;
  stats.sweep_shards = prior_shards + result.shards_run;
  stats.journal_replayed = result.replayed;
  stats.sweep_degraded = result.degraded ? 1 : 0;
  stats.selfheal_shards = heal_gaps;
  metrics_.gauge("sweep.selfheal_shards").set(
      static_cast<std::int64_t>(heal_gaps));
  result.stats = std::move(stats);
  return result;
}

}  // namespace proxion::store
