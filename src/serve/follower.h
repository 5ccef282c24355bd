// The chain follower: turns the batch durable sweep into an always-on
// daemon. It subscribes to Blockchain head advances, collects each new
// block's deployment and storage-writer feeds into a dirty set, and when
// anything was touched drives store::DurableSweep::incremental() over that
// set so the journal-backed verdict store tracks the head at a cost
// proportional to what changed; blocks that touched nothing fast-forward
// the query snapshot without a lap. The sweep's record sink streams every
// commit into the QueryService, so readers see shard-granular freshness
// while a lap is still running.
//
// Threading model: block production, poll laps, and the HTTP plane are
// three different threads.
//   - The chain stays single-writer. The head callback does nothing but
//     flag the poll thread (plus one relaxed head store for staleness
//     rendering); the poll thread only reads the chain between blocks —
//     callers that mutate the chain concurrently with a running follower
//     must fence mutations with wait_synced() (the example's workload loop
//     and the tests do exactly that).
//   - All QueryService writer calls happen on the poll thread (or whoever
//     calls poll() when the background thread is not running) — the query
//     plane's single-writer contract.
//   - /v1/status renders from FollowerStats' relaxed atomics only; it never
//     touches the chain, so a scrape cannot race block production.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "chain/blockchain.h"
#include "core/pipeline.h"
#include "obs/eventlog.h"
#include "obs/export.h"
#include "obs/http.h"
#include "obs/metrics.h"
#include "serve/query_service.h"
#include "sourcemeta/source.h"
#include "store/durable_sweep.h"

namespace proxion::serve {

/// Live follower progress for /v1/status and the sweep.follower.* gauges.
/// All relaxed atomics, same independent-facts contract as obs::SweepStatus.
struct FollowerStats {
  std::atomic<bool> following{false};
  /// Latest chain height seen (head callback updates this immediately, so
  /// staleness = chain_head - snapshot_head is honest between laps).
  std::atomic<std::uint64_t> chain_head{0};
  /// Height the published snapshot is complete through.
  std::atomic<std::uint64_t> snapshot_head{0};
  std::atomic<std::uint64_t> laps{0};            // incremental sweeps run
  std::atomic<std::uint64_t> fast_forwards{0};   // empty-range publishes
  std::atomic<std::uint64_t> blocks_processed{0};
  std::atomic<std::uint64_t> contracts_discovered{0};
  std::atomic<std::uint64_t> last_lap_us{0};
  /// Contracts the last lap checked against the chain (its dirty set, plus
  /// quarantined retries) and re-analyzed: lap cost tracks these.
  std::atomic<std::uint64_t> last_lap_touched{0};
  std::atomic<std::uint64_t> last_lap_recomputed{0};
  std::atomic<std::uint64_t> snapshot_entries{0};
  std::atomic<std::uint64_t> snapshot_version{0};
};

struct ChainFollowerConfig {
  /// Maps a deployment block to the SweepInput presentation year for newly
  /// discovered contracts. Null = year 0.
  std::function<int(std::uint64_t block)> year_of_block;
  /// Metrics sink for the sweep.follower.* gauges. Null = Registry::global().
  obs::Registry* registry = nullptr;
  /// Structured event sink for lap/discovery lines (borrowed). Null = none.
  obs::EventLog* event_log = nullptr;
  /// Shared /healthz progress block (borrowed): the follower parks the
  /// phase at kFollowing between laps so the health endpoint never claims a
  /// sweep is mid-phase while it is merely waiting for blocks. Null = none.
  obs::SweepStatus* status = nullptr;
};

class ChainFollower {
 public:
  /// `pipeline`, `chain`, `sources`, and `query` must outlive the follower.
  /// `sweep_config.record_sink` is overwritten — the follower owns the
  /// commit→publish wiring. `initial_inputs` is the population known at
  /// start; contracts deployed later are discovered from the chain's
  /// per-block feeds.
  ChainFollower(core::AnalysisPipeline& pipeline, chain::Blockchain& chain,
                const sourcemeta::SourceRepository* sources,
                store::DurableSweepConfig sweep_config, QueryService& query,
                std::vector<core::SweepInput> initial_inputs,
                ChainFollowerConfig config = {});
  ~ChainFollower();  // stop()s

  ChainFollower(const ChainFollower&) = delete;
  ChainFollower& operator=(const ChainFollower&) = delete;

  /// Synchronous catch-up to the current head: absorb new blocks, lap or
  /// fast-forward, publish. The first call seeds from the journal (a
  /// missing journal degrades to a fresh full sweep). Usable stand-alone
  /// without start() — the tests drive it deterministically this way.
  /// Returns the number of chain blocks absorbed by this call.
  std::uint64_t poll();

  /// Launches the background poll thread and subscribes to head advances.
  void start();
  /// Unsubscribes, stops, and joins the poll thread (idempotent).
  void stop();

  /// Blocks until the published snapshot is complete through `height` AND
  /// the background poll thread is quiescent (parked, nothing pending), or
  /// the timeout expires — returns false. Quiescence is what makes this a
  /// real fence: a caller that mutates the chain after wait_synced() returns
  /// cannot race a poll that is still reading it (including the catch-up
  /// poll start() schedules). The fence mutating workloads use between
  /// blocks — and immediately after start(), before their first mutation.
  bool wait_synced(std::uint64_t height, std::int64_t timeout_ms = 60'000);

  const FollowerStats& stats() const noexcept { return stats_; }
  /// The current population (initial inputs + discovered contracts).
  std::vector<core::SweepInput> inputs() const;
  /// Last lap's sweep error ("" when healthy).
  std::string last_error() const;

  /// /v1/status JSON (schema in docs/QUERY_API.md).
  obs::HttpResponse status_endpoint() const;
  /// Registers /v1/status on `server`; call before server.start().
  void register_status_endpoint(obs::HttpServer& server);

 private:
  void run_loop();
  /// The poll body; requires lap_mu_.
  std::uint64_t poll_locked();

  core::AnalysisPipeline& pipeline_;
  chain::Blockchain& chain_;
  const sourcemeta::SourceRepository* sources_;
  QueryService& query_;
  ChainFollowerConfig config_;
  obs::Registry& metrics_;
  std::unique_ptr<store::DurableSweep> sweep_;

  /// Serializes laps with inputs() snapshots; everything below it is
  /// poll-thread state.
  mutable std::mutex lap_mu_;
  std::vector<core::SweepInput> inputs_;
  std::unordered_set<evm::Address, evm::AddressHasher> known_;
  bool primed_ = false;
  std::uint64_t last_head_ = 0;       // last height fully absorbed
  std::uint64_t published_head_ = 0;  // head the snapshot is complete through

  FollowerStats stats_;
  mutable std::mutex err_mu_;
  std::string last_error_;

  // ---- background thread plumbing ----------------------------------------
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool pending_ = false;
  bool stop_requested_ = false;
  /// True while the poll thread is parked in run_loop's wait (or not
  /// running at all). wait_synced() requires it so the fence also covers a
  /// poll that is mid-flight when the caller checks.
  bool idle_ = true;
  std::uint64_t synced_head_ = 0;  // published under wake_mu_ for wait_synced
  std::thread thread_;
  bool started_ = false;
  std::uint64_t head_token_ = 0;
};

}  // namespace proxion::serve
