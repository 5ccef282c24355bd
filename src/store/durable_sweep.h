// The durable sharded sweep driver: converts AnalysisPipeline's batch
// run() into a restartable streaming system. It partitions the population
// into code-hash-affine shards, runs each through one pipeline run() (which
// keeps nothing keyed by address or code hash past its return, so peak
// memory is O(shard), not O(population)), and flushes the per-contract
// results to the checkpoint journal (journal.h). Two entry points:
//
//   run()         — fresh sweep into a new journal
//   incremental() — keep the verdict set current, across restarts and on a
//                   mutating chain. The first call on an instance boots: it
//                   reads the journal once (a missing journal degrades to
//                   run()), checks every input's last record against the
//                   chain (the code hash each account stores; no blob is
//                   hashed), recomputes what a cold sweep would write
//                   differently — which finishes a sweep cut short by a
//                   crash — and keeps an in-memory index of the last record
//                   per contract plus the open journal writer. Each later
//                   call (a lap) checks only the caller's dirty set, newly
//                   appended inputs, quarantined contracts and the records
//                   that name what moved, so a lap costs what changed, not
//                   the population. Upgraded proxies skip Phase A emulation
//                   via a verdict seed passed to run() and re-run the pair
//                   phase only.
//
// Bit-identity with a monolithic pipeline.run() over the same inputs rests
// on four invariants this driver maintains:
//   1. shards are code-hash-affine with hash groups in first-occurrence
//      order, so a group's dedup representative is the same global-first
//      contract a monolithic run picks; a group larger than a shard runs
//      in shard-sized chunks, each later chunk led by that representative
//      again (its repeated report is dropped), so memory stays O(shard)
//      however large a clone family grows;
//   2. the §7.1 source-donor map is computed over the WHOLE population and
//      passed to every shard's run(), so a shard resolves the same donors a
//      monolithic run would even when a logic blob's donor lives in another
//      shard;
//   3. boot and lap decide each hash group with one rule: a record is
//      reused only when it is healthy, of the same code and slot head, its
//      dedup flag matches its position in the group, and every dependency
//      it names (each logic's code hash, the donors of its own and its
//      logics' code hashes) equals the chain and the donor map at head. A
//      lap finds the records that name what moved through a reverse index,
//      so it checks O(changed) records, not the population;
//   4. a verdict is not address-free (the crafted probe selector is seeded
//      from the representative's address), so re-run clones are seeded with
//      the representative's own verdict, and a group whose representative
//      has no such record re-runs whole.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "chain/blockchain.h"
#include "core/pipeline.h"
#include "obs/eventlog.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "sourcemeta/source.h"
#include "store/journal.h"
#include "store/records.h"

namespace proxion::store {

/// Addresses whose code or storage changed since the previous
/// incremental() call: a chain follower's per-block deployment and
/// storage-writer feeds.
using AddressSet = std::unordered_set<evm::Address, evm::AddressHasher>;

struct DurableSweepConfig {
  /// Checkpoint journal path; a torn tail's copy lives at `<path>.torn`.
  std::string journal_path = "sweep.journal";
  /// Target contracts per shard. A hash group that fits stays whole, so a
  /// shard can exceed this by one group's size minus one; a larger group
  /// runs in chunks of this size (plus its repeated representative), so no
  /// shard reaches twice the target. 0 = one shard for everything
  /// (degenerates to a monolithic run + one commit).
  std::size_t shard_size = 1024;
  /// Stop (journal committed, sweep incomplete) after this many shards;
  /// 0 = no limit. This is the deterministic stand-in for `kill -9` in the
  /// resume tests and benches — the on-disk state is the same one a crash
  /// after the Nth commit leaves behind.
  std::size_t max_shards = 0;
  /// Metrics sink for the store.journal.* / store.sweep.* counters and the
  /// flush-latency histogram. Null = obs::Registry::global().
  obs::Registry* registry = nullptr;
  /// Filesystem behind the journal. Null = the real filesystem;
  /// the chaos harness injects a util::FaultInjectingVfs here.
  util::Vfs* vfs = nullptr;
  /// When the disk gives out mid-sweep (ENOSPC, persistent write failure,
  /// failed fsync), keep sweeping IN MEMORY instead of aborting: verdicts
  /// stay complete and correct, checkpointing stops at the last good shard
  /// commit, and the result reports degraded=true + the first disk error.
  /// Off restores the old abort-with-error behavior.
  bool degrade_on_disk_failure = true;
  /// Structured event sink (borrowed). When set, operational lines —
  /// degraded-mode entry, journal self-heal, torn-tail drop, shard commits —
  /// are emitted here INSTEAD of the ad-hoc stderr fprintf. Null keeps the
  /// stderr fallback for degraded-mode entry (that line is operationally
  /// load-bearing and must go somewhere).
  obs::EventLog* event_log = nullptr;
  /// Live progress block for /healthz (borrowed): shards committed vs
  /// total, journal bytes, degraded flag. Null = no publishing.
  obs::SweepStatus* status = nullptr;
  /// Commit→publish hook for the serving plane: invoked on the sweeping
  /// thread with each batch of final records — once with the journal-
  /// replayed set before any shard runs, then once per shard as it commits
  /// (in degraded mode, as it completes in memory; verdicts stay valid when
  /// the disk does not). An incremental() lap after boot replays nothing,
  /// so it passes only the records it recomputed. The span is borrowed for
  /// the duration of the call.
  /// Null = no publishing. The query plane's QueryService::apply_records is
  /// the intended consumer.
  std::function<void(std::span<const ContractRecord>)> record_sink;
};

struct DurableSweepResult {
  core::LandscapeStats stats;
  /// Shards executed by THIS call (not counting journal-replayed shards).
  std::uint64_t shards_run = 0;
  /// Contracts whose reports came from the journal, zero pipeline work.
  std::uint64_t replayed = 0;
  /// Contracts run through the pipeline by this call.
  std::uint64_t recomputed = 0;
  /// Contracts this call checked against the chain: every input, except on
  /// an incremental() lap, where it is the planned dirty set.
  std::uint64_t examined = 0;
  /// True when this call ran every shard it planned: the population is
  /// covered, by journal commits or, under degraded mode, in memory.
  /// False after a max_shards stop — call incremental() to finish.
  bool complete = false;
  /// The disk failed mid-sweep and degrade_on_disk_failure carried the
  /// sweep to completion in memory: stats/verdicts are valid, but work
  /// after the last good shard commit is not checkpointed (the next boot
  /// recomputes it).
  bool degraded = false;
  /// First disk failure (kind kDiskIo, errno detail in the text) — set
  /// whenever `degraded` is true or `error` names a journal failure.
  std::optional<core::ErrorRecord> disk_error;
  /// Non-empty on journal I/O failure with degradation disabled; stats are
  /// then meaningless.
  std::string error;
};

class DurableSweep {
 public:
  /// `pipeline` and `chain` must outlive the driver; `sources` may be null
  /// (it feeds the global §7.1 donor map and must be the same
  /// repository the pipeline was built with). The driver is the journal's
  /// single writer; one sweep call runs at a time.
  DurableSweep(core::AnalysisPipeline& pipeline, chain::Blockchain& chain,
               const sourcemeta::SourceRepository* sources,
               DurableSweepConfig config);
  ~DurableSweep();

  /// Fresh sweep: creates/truncates the journal and sweeps `inputs`.
  DurableSweepResult run(const std::vector<core::SweepInput>& inputs);

  /// Incremental sweep (see the file comment): a restart, a resume after a
  /// crash or a max_shards stop, and a lap on a mutating chain are all this
  /// call, and one rule decides reuse in all of them. A contract's last
  /// record is reused iff it is healthy, its code hash matches the chain's
  /// current code, its implementation-slot head (storage-slot proxies) is
  /// unchanged, its dedup flag still matches its position in its hash
  /// group, and the dependencies it names still hold: each logic in its
  /// history has the code hash it had, and the §7.1 donors of its own and
  /// its logics' code hashes are the ones it read. Re-run members are
  /// seeded with their representative's own Phase A verdict; a group whose
  /// representative's record fails the rule (an upgrade whose probe still
  /// returns the verdict excepted) re-runs whole and unseeded.
  ///
  /// A call boots when the instance has no index yet (first call, after
  /// run(), after a failed or max_shards-stopped call, or when `inputs`
  /// shrank): it reads the journal once, checks every input and ignores
  /// `touched`; a missing journal, or one of another format version,
  /// degrades to run(). A later call checks only `touched`, inputs appended
  /// since the previous call, quarantined contracts, and the records that
  /// name a logic whose code moved or a code hash whose donor moved. So
  /// `inputs` must extend the previous call's list, and `touched` must name
  /// every known input whose code or storage changed since that call and
  /// every other address whose code changed (a logic outside the inputs);
  /// extra addresses cost one fingerprint or one reader lookup each.
  /// Such a lap replays nothing: `replayed` is 0, and `stats` and the
  /// record sink cover only the recomputed contracts. A lap that recomputes
  /// nothing writes nothing to the journal.
  DurableSweepResult incremental(const std::vector<core::SweepInput>& inputs,
                                 const AddressSet& touched);

 private:
  /// What incremental() keeps between calls (defined in the .cpp).
  struct LiveIndex;

  /// `fresh` = run(): new journal, every group re-run, no index kept.
  DurableSweepResult sweep(const std::vector<core::SweepInput>& inputs,
                           bool fresh, const AddressSet& touched);

  core::AnalysisPipeline& pipeline_;
  chain::Blockchain& chain_;
  const sourcemeta::SourceRepository* sources_;
  DurableSweepConfig config_;
  obs::Registry& metrics_;
  /// Null until an incremental() call boots; dropped by run() and any
  /// call that fails or stops early.
  std::unique_ptr<LiveIndex> live_;
};

}  // namespace proxion::store
