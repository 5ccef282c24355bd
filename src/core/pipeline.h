// The end-to-end sweep Proxion runs over the whole chain (§6.1, §7):
// per-contract proxy detection (with bytecode-hash deduplication so
// identical clones are analyzed once), logic-history recovery via
// Algorithm 1, per-pair collision checks, and aggregation into the
// landscape statistics behind every figure and table of §7.
//
// Fault tolerance: the pipeline talks to its archive backend through the
// IArchiveNode seam, wrapped (by default) in a ResilientArchiveNode that
// retries transient RpcErrors with backoff behind a circuit breaker. Every
// per-contract unit of work runs under a try/catch plus a wall-clock
// watchdog: a failing contract becomes a quarantined ErrorRecord on its
// ContractAnalysis instead of aborting the sweep; the durable driver
// (store/durable_sweep.h) retries quarantined contracts on its next pass.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chain/archive_node.h"
#include "chain/blockchain.h"
#include "chain/resilient_node.h"
#include "chain/tracing_node.h"
#include "core/diamond_probe.h"
#include "core/function_collision.h"
#include "core/logic_finder.h"
#include "core/proxy_detector.h"
#include "core/storage_collision.h"
#include "obs/eventlog.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sourcemeta/source.h"
#include "util/resilience.h"
#include "util/thread_pool.h"

namespace proxion::core {

/// One contract handed to the sweep. `year` is presentation metadata used to
/// bucket the landscape statistics (the chain itself orders by block).
struct SweepInput {
  Address address;
  int year = 0;
  bool has_source = false;
  bool has_tx = false;
};

/// Why a contract's analysis could not complete (quarantine taxonomy).
enum class ErrorKind : std::uint8_t {
  kRpcTransient,    // a retriable RPC error surfaced with retries disabled
  kRpcExhausted,    // retry budget spent / circuit open; backend gave nothing
  kEmulationLimit,  // step or wall-clock watchdog budget exceeded
  kInternal,        // unexpected exception inside the analysis itself
  kDiskIo,          // checkpoint-store I/O failure (errno detail in text)
};

std::string_view to_string(ErrorKind kind) noexcept;

/// Per-contract failure record. A report carrying one is "quarantined":
/// its analysis is partial (whatever phases completed before the failure)
/// and the durable driver's next pass retries it.
struct ErrorRecord {
  ErrorKind kind = ErrorKind::kInternal;
  std::string phase;   // "fetch" | "proxy" | "pairs"
  std::string detail;  // human-readable cause (exception text)

  friend bool operator==(const ErrorRecord&, const ErrorRecord&) = default;
};

struct ContractAnalysis {
  Address address;
  int year = 0;
  bool has_source = false;
  bool has_tx = false;

  ProxyReport proxy;
  LogicHistory logic_history;
  bool deduplicated = false;  // verdict reused from an identical code blob
  /// §8.2 extension result (only populated when config.probe_diamonds and
  /// the base detector said "not a proxy" despite a DELEGATECALL opcode).
  DiamondReport diamond;

  bool function_collision = false;
  bool storage_collision = false;
  bool storage_collision_exploitable = false;
  bool logic_has_source = false;
  /// Any proxy/logic pair collided on a keccak-derived slot family
  /// (mapping/dynamic array) — declared or inferred layouts.
  bool family_collision = false;
  /// Pairs whose slot families were compared at all, and the subset that
  /// had to use bytecode-inferred layouts (no sourcemeta for the pair).
  std::uint32_t collision_pairs_family_checked = 0;
  std::uint32_t collision_pairs_source_free = 0;

  /// Set iff this contract's analysis failed; see ErrorRecord. A fault that
  /// retries absorbed leaves no trace here — the report is bit-identical to
  /// a fault-free run's.
  std::optional<ErrorRecord> error;

  bool quarantined() const noexcept { return error.has_value(); }

  /// Field-for-field equality — the threads=1 vs N and repeat-run
  /// bit-identity tests compare entire reports with this.
  friend bool operator==(const ContractAnalysis&,
                         const ContractAnalysis&) = default;
};

/// Telemetry knobs for one pipeline. Latency histograms are on by default —
/// their hot-path cost is a few relaxed atomic ops per contract/RPC and the
/// default landscape report prints the percentile section from them. Span
/// tracing only activates when an export path is set: rings cost memory per
/// recording thread, and a trace nobody writes out observes nothing.
struct TelemetryConfig {
  /// Master switch. Off, every instrumentation point in the pipeline reduces
  /// to a null-pointer branch (measured by bench_telemetry_overhead); the
  /// landscape latency section is omitted.
  bool enabled = true;
  /// Chrome trace_event JSON output (Perfetto / chrome://tracing loadable).
  /// Non-empty = record spans during run() and write the file at run exit.
  std::string trace_path;
  /// NDJSON span log (one JSON object per line), same gating as trace_path.
  std::string events_path;
  /// Monotonic nanosecond clock for spans and latency stopwatches; empty =
  /// std::chrono::steady_clock. Tests inject a fake for deterministic
  /// traces (the PR-2 testable-time convention).
  obs::TraceClock clock;
  /// Keep the span tracer alive without any file export, so a live /spans
  /// endpoint can drain the rings mid-run (the introspection plane's use).
  bool live_spans = false;
  /// Span timestamps from a TLS-cached coarse clock: one real clock read
  /// amortized over ~32 spans instead of two per span. The cheap-tracing
  /// mode for always-on serving; timestamps stay monotonic per thread but
  /// gain up to ~32-span granularity. Only affects the default steady
  /// clock; an injected `clock` stays exact.
  bool coarse_clock = false;
  /// Structured event sink (borrowed; must outlive the pipeline). When set,
  /// operational events — run start/end, quarantines, breaker transitions —
  /// are emitted here instead of being invisible. Null = no events.
  obs::EventLog* event_log = nullptr;
  /// Live progress block for /healthz (borrowed; must outlive the
  /// pipeline). When set, the pipeline publishes phase transitions and
  /// contract progress into it as the sweep runs. Null = no publishing.
  obs::SweepStatus* status = nullptr;
};

struct PipelineConfig {
  unsigned threads = 0;             // pool size; 0 = hardware_concurrency
  bool dedup_by_code_hash = true;   // §6.1's re-analysis avoidance
  bool detect_collisions = true;
  bool find_logic_history = true;
  /// Re-probe DELEGATECALL-bearing non-proxies with tx-harvested selectors
  /// to catch EIP-2535 diamonds (§8.2 future work, implemented).
  bool probe_diamonds = false;

  // ---- fault tolerance --------------------------------------------------
  /// External archive backend (a FaultInjectingArchiveNode in tests, a real
  /// RPC client in production). Null = the in-process facade over `chain`.
  /// The pointee must outlive the pipeline; it is wrapped in the retry /
  /// circuit-breaker layer below unless enable_retries is false.
  chain::IArchiveNode* archive_node = nullptr;
  /// Wrap the backend in ResilientArchiveNode (retry + breaker). Off, every
  /// RpcError immediately quarantines its contract (kRpcTransient).
  bool enable_retries = true;
  /// Backoff shape for retried archive RPCs.
  util::RetryPolicy retry{};
  /// Per-backend circuit breaker (trips on consecutive failures, half-opens
  /// on a probe after its cooldown). Reset at each run() entry.
  util::CircuitBreakerConfig breaker{};
  /// Wall-clock budget per unit of Phase B work; 0 = unlimited. It bounds a
  /// contract's resolve, checked before it takes its logic history, and
  /// each distinct proxy/logic pair, checked between the function and the
  /// storage check. Expiry quarantines as kEmulationLimit the contract, or
  /// every contract that looks the pair up. The run-wide logic-history
  /// search is outside every budget.
  double contract_wall_budget_ms = 0.0;
  /// Interpreter step fuse for proxy-detection emulation (adversarial
  /// bytecode — infinite loops, unbounded recursion — halts here).
  std::uint64_t emulation_step_limit = 200'000;

  // ---- static triage tier -----------------------------------------------
  /// CFG recovery + DELEGATECALL provenance before phase-2 emulation:
  /// statically-dead DELEGATECALL and byte-exact EIP-1167 blobs skip
  /// emulation (only on a proof of equivalence — verdicts are bit-identical
  /// either way, tested), and with cross_check every emulated contract's
  /// verdict is audited against the static claims (mismatches surface in
  /// LandscapeStats / the text report). Both default on.
  /// infer_layout additionally recovers per-contract storage layouts from
  /// bytecode (static slots, mapping/array slot families, packed members):
  /// the collision phase then compares slot families even for pairs with no
  /// verified source (the source-free mode), and reliable layouts arm the
  /// kMismatchLayout* cross-check bits.
  static_analysis::StaticTierConfig static_tier{
      .enabled = true, .cross_check = true, .infer_layout = true};

  // ---- observability ----------------------------------------------------
  TelemetryConfig telemetry{};
};

/// Pair reuse of one run's Phase B plan: misses are the distinct
/// proxy/logic pairs computed, hits the plan's other pair lookups, each of
/// which reuses a computed pair.
class MemoCounts {
 public:
  MemoCounts() = default;
  MemoCounts(std::uint64_t hits, std::uint64_t misses) noexcept
      : hits_(hits), misses_(misses) {}

  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }

  MemoCounts& operator+=(const MemoCounts& o) noexcept {
    hits_ += o.hits_;
    misses_ += o.misses_;
    return *this;
  }

 private:
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

struct LandscapeStats {
  std::uint64_t total_contracts = 0;
  std::uint64_t proxies = 0;
  std::uint64_t emulation_errors = 0;
  std::uint64_t hidden_proxies = 0;  // no source AND no tx (the novel set)
  std::uint64_t unique_proxy_codehashes = 0;
  std::uint64_t function_collisions = 0;
  std::uint64_t storage_collisions = 0;
  std::uint64_t exploitable_storage_collisions = 0;

  std::uint64_t diamonds_recovered = 0;  // via the §8.2 extension

  std::map<ProxyStandard, std::uint64_t> by_standard;          // Table 4
  std::map<int, std::uint64_t> proxies_by_year;                // Fig 4 feed
  std::map<int, std::uint64_t> function_collisions_by_year;    // Table 3
  std::map<int, std::uint64_t> storage_collisions_by_year;     // Table 3
  /// Pair counts keyed by (proxy_has_source, logic_has_source) — Figure 4.
  std::map<std::pair<bool, bool>, std::uint64_t> pairs_by_source;
  /// Upgrade-count histogram (upgrades -> proxies) — Figure 6.
  std::map<std::uint64_t, std::uint64_t> upgrade_histogram;
  std::uint64_t total_upgrade_events = 0;

  std::uint64_t get_storage_at_calls = 0;
  double ms_per_contract = 0.0;

  // ---- durable sharded sweep accounting (zero for monolithic run()) -----
  /// Shards the durable driver ran (or replayed) to produce these stats.
  std::uint64_t sweep_shards = 0;
  /// Contracts whose reports were replayed from the checkpoint journal
  /// instead of being recomputed (an incremental() boot).
  std::uint64_t journal_replayed = 0;
  /// 1 when the durable driver lost its disk mid-sweep (ENOSPC/persistent
  /// write or fsync failure) and finished in in-memory degraded mode:
  /// verdicts are complete and correct, but nothing past the last good
  /// shard commit is checkpointed.
  std::uint64_t sweep_degraded = 0;
  /// Corrupt journal regions (bit rot) detected during replay and healed
  /// by recomputing exactly the records they destroyed.
  std::uint64_t selfheal_shards = 0;

  // ---- fault / coverage accounting --------------------------------------
  /// Contracts whose reports carry an ErrorRecord (excluded from the
  /// aggregates above: the sweep's coverage is partial until a later
  /// pass clears them).
  std::uint64_t quarantined = 0;
  /// total_contracts - quarantined.
  std::uint64_t analyzed_contracts = 0;
  /// Failure taxonomy over quarantine records PLUS deterministic emulation
  /// step-limit halts (kEmulationLimit counts both).
  std::map<ErrorKind, std::uint64_t> errors_by_kind;
  /// Resilience-layer counters for the pipeline's backend (zero when
  /// enable_retries is false).
  std::uint64_t rpc_retries = 0;
  std::uint64_t rpc_faults = 0;
  std::uint64_t rpc_giveups = 0;
  std::uint64_t breaker_trips = 0;

  // ---- perf accounting for the last run ---------------------------------
  /// Wall-clock per phase: code fetch + hashing, proxy detection (Phase A),
  /// and Phase B: the run-wide logic-history search followed by the
  /// planned pair collision checks.
  double phase_fetch_ms = 0.0;
  double phase_proxy_ms = 0.0;
  double phase_pairs_ms = 0.0;
  /// Proxy/logic pair reuse over the last run (summed over a durable
  /// sweep's shards).
  MemoCounts cache;

  // ---- static triage tier (all-zero when static_tier.enabled is false) --
  /// Unique blobs triaged per outcome. *_skipped_* blobs ran no emulation
  /// steps; static_emulated went through the full probe.
  std::uint64_t static_skipped_absent = 0;   // no DELEGATECALL opcode
  std::uint64_t static_skipped_dead = 0;     // provably-dead DELEGATECALL
  std::uint64_t static_skipped_minimal = 0;  // byte-exact EIP-1167
  /// Provably loops until the step fuse: the report records the fuse's
  /// halt and step count, but no steps were run.
  std::uint64_t static_skipped_fuse = 0;
  std::uint64_t static_emulated = 0;
  /// Emulated blobs whose static claims the emulation contradicted
  /// (cross_check only; an always-zero invariant on sound corpora).
  std::uint64_t static_mismatches = 0;
  /// Mismatch taxonomy keyed by the kMismatch* bit value.
  std::map<std::uint8_t, std::uint64_t> static_mismatch_bits;

  // ---- storage-layout inference (zero when infer_layout is false) -------
  /// Unique blobs for which a bytecode storage layout was inferred, and the
  /// subset whose layout was reliable() (complete CFG, every access
  /// resolved) and therefore armed the kMismatchLayout* oracle.
  std::uint64_t layout_inferred = 0;
  std::uint64_t layout_reliable = 0;
  /// Proxy/logic pairs whose slot families were compared, and the subset
  /// that ran source-free (bytecode-inferred layouts, no sourcemeta).
  std::uint64_t collision_pairs_family_checked = 0;
  std::uint64_t collision_pairs_source_free = 0;
  /// Contracts with at least one slot-family collision.
  std::uint64_t family_collisions = 0;

  // ---- latency distributions (telemetry; all-zero when disabled) --------
  /// Phase-B wall time per contract, nanoseconds (count = contracts that
  /// went through the pair phase this run); the run-wide logic-history
  /// search is not part of any contract's sample.
  obs::HistogramSummary contract_latency_ns;
  /// Per-RPC-attempt latency, nanoseconds — each retry is its own sample,
  /// matching §6.1's call-level accounting.
  obs::HistogramSummary rpc_latency_ns;
  /// Interpreter steps per phase-2 probe emulation (one sample per
  /// DELEGATECALL-bearing unique blob).
  obs::HistogramSummary emulation_steps;
  /// Span tracer accounting for the last run (zero unless an export path
  /// was configured).
  std::uint64_t trace_spans_recorded = 0;
  std::uint64_t trace_spans_dropped = 0;
};

/// A known-good Phase A verdict for one address: Phase A reuses it instead
/// of emulating when that address represents its code blob in a run and its
/// code still hashes to `code_hash`. store::DurableSweep seeds re-run members
/// of a clone family with the representative's journaled verdict (slot-read
/// fields patched to the current head), because the crafted probe selector
/// is seeded from the representative's address.
struct VerdictSeed {
  crypto::Hash256 code_hash{};
  ProxyReport report;
};
using VerdictSeeds =
    std::unordered_map<Address, VerdictSeed, evm::AddressHasher>;

/// §7.1 source donors: code hash -> the verified address whose source every
/// contract with that bytecode is analyzed with.
using SourceDonors =
    std::unordered_map<crypto::Hash256, Address, crypto::Hash256Hasher>;

class AnalysisPipeline {
 public:
  AnalysisPipeline(chain::Blockchain& chain,
                   const sourcemeta::SourceRepository* sources,
                   PipelineConfig config = {});
  ~AnalysisPipeline();

  /// Analyzes every input contract; returns per-contract reports in input
  /// order. The result depends only on the chain, the config and the
  /// arguments: every table keyed by address or code hash lives for one call,
  /// so a run after a chain mutation sees the mutated chain. Only the worker
  /// pool, the archive decorators (the breaker is reset at every entry) and
  /// lifetime counters persist across calls.
  ///
  /// `seeds` supplies Phase A verdicts to reuse (see VerdictSeed). `donors`
  /// is the §7.1 donor map to resolve source lookups with; null builds it
  /// from the inputs (the first verified input per code hash). A sharded
  /// sweep passes the whole population's map, so a shard resolves the same
  /// donors a monolithic run would.
  ///
  /// `code_hashes` is empty or parallel to `inputs` (std::invalid_argument
  /// otherwise). Empty, run() fetches each distinct input address once
  /// through the archive seam and keccaks its blob. Given, code is
  /// content-addressed: run() fetches each distinct hash once, from its
  /// first input, every input with that hash shares the blob, and
  /// `code_hashes[i]` is taken as its hash instead of hashing it again.
  /// Precondition: `code_hashes[i]` is the keccak of the code the archive
  /// serves for `inputs[i]`; it is trusted, not checked, and it keys the
  /// fetch, the code-hash dedup and the pair plan. A durable sweep passes
  /// the fingerprints it journals, which are the code hashes the chain
  /// stored when it wrote each account's code (chain::Blockchain::code_hash),
  /// so a sweep hashes no input blob and pays one round trip per bytecode.
  ///
  /// Fault containment: a contract whose analysis fails (RPC exhausted,
  /// watchdog, internal error) is returned with `error` set rather than
  /// aborting the run. The fetch's failure domain is its key: when the
  /// first fetch of a hash fails, each of the hash's other distinct
  /// addresses is asked once, every input with the hash shares the first
  /// blob that arrived in input order, and an input is quarantined (phase
  /// "fetch", with its own error) only when no address with its hash
  /// returned code. So Phase A's representative of a hash is always the
  /// hash's first input. In Phase B each distinct logic address no input
  /// serves is fetched once, and each distinct proxy/logic pair is checked
  /// once; every contract that reads a failed fetch or pair shares its
  /// error.
  ///
  /// Concurrency contract: the parallelism lives *inside* a run (the pool
  /// reads the chain concurrently, which must therefore be read-safe). Each
  /// pass writes per-slot results (one slot per input, logic address or
  /// pair) and reads tables built before it started. run() and summarize()
  /// must be EXTERNALLY SERIALIZED per pipeline instance — concurrent calls
  /// on one AnalysisPipeline race on the last run's pair counts, the
  /// run-scoped histograms, and the timing fields. Debug builds enforce
  /// this with a re-entrancy guard (assert); release builds do not check.
  /// Distinct AnalysisPipeline instances are independent and may run
  /// concurrently over a read-safe chain.
  std::vector<ContractAnalysis> run(
      const std::vector<SweepInput>& inputs, const VerdictSeeds& seeds = {},
      const SourceDonors* donors = nullptr,
      std::span<const crypto::Hash256> code_hashes = {});

  /// Aggregates reports into the landscape statistics. Quarantined reports
  /// count toward `quarantined` / `errors_by_kind` only. Same external-
  /// serialization contract as run() — it reads the run-scoped counters.
  LandscapeStats summarize(const std::vector<ContractAnalysis>& reports) const;

  /// Copies the pipeline-scoped perf/coverage fields of the LAST run into
  /// `stats`: phase wall times, pair counts, resilience
  /// totals, RPC call counts, latency histogram summaries, and tracer
  /// accounting. summarize() = LandscapeAccumulator over the reports + this.
  /// Exposed for the durable sharded driver, which aggregates reports
  /// incrementally across shards and only needs the annotation step.
  void annotate_run_stats(LandscapeStats& stats) const;

  const PipelineConfig& config() const noexcept { return config_; }

  /// The proxy detector's configuration in Phase A: the config's step fuse
  /// and static tier.
  ProxyDetectorConfig detector_config() const {
    ProxyDetectorConfig detector;
    detector.step_limit = config_.emulation_step_limit;
    detector.static_tier = config_.static_tier;
    return detector;
  }

  /// The resilience wrapper around the backend (null when enable_retries is
  /// false). Exposed for tests/benches inspecting retry accounting.
  const chain::ResilientArchiveNode* resilient_node() const noexcept {
    return resilient_.get();
  }

  /// This pipeline's metric registry (per-instance, distinct from
  /// obs::Registry::global()): the sweep histograms, the `sweep.contracts`
  /// counter and end-of-run gauge snapshots of the resilience totals.
  /// Per-run counts live in LandscapeStats only. Exposed for benches that
  /// dump a full snapshot into BENCH_results.json.
  const obs::Registry& registry() const noexcept { return registry_; }

  /// The span tracer (null unless telemetry.enabled and an export path was
  /// configured). Exposed for tests asserting on recorded spans directly.
  const obs::Tracer* tracer() const noexcept { return tracer_.get(); }

 private:
  util::ThreadPool& pool();
  /// The backend every archive RPC goes through. Decorator stack, outermost
  /// first: resilient (retry/breaker) -> tracing (per-attempt latency/spans)
  /// -> raw backend; each layer is present only when configured.
  const chain::IArchiveNode& rpc() const noexcept {
    if (resilient_) return *resilient_;
    if (tracing_node_) return *tracing_node_;
    return *backend_;
  }

  chain::Blockchain& chain_;
  chain::ArchiveNode node_;
  chain::IArchiveNode* backend_ = nullptr;  // config override or &node_
  std::unique_ptr<chain::TracingArchiveNode> tracing_node_;
  std::unique_ptr<chain::ResilientArchiveNode> resilient_;
  const sourcemeta::SourceRepository* sources_;
  PipelineConfig config_;

  // ---- telemetry --------------------------------------------------------
  /// Resolved span/stopwatch clock (config override or steady_clock).
  obs::TraceClock clock_;
  /// Per-pipeline registry; the sweep histograms live here so concurrent
  /// pipelines don't interleave samples (process-wide counters stay in
  /// obs::Registry::global()).
  obs::Registry registry_;
  /// Borrowed from registry_ at construction; null when telemetry is
  /// disabled — every record site branches on that (the disabled-overhead
  /// contract).
  obs::Histogram* h_contract_ = nullptr;
  obs::Histogram* h_rpc_ = nullptr;
  obs::Histogram* h_steps_ = nullptr;
  /// Contracts completed, cumulative across runs — the exporter derives the
  /// headline `contracts_per_s` rate from this counter's deltas.
  obs::Counter* c_contracts_ = nullptr;
  /// Non-null when an export path is configured or live_spans is on.
  std::unique_ptr<obs::Tracer> tracer_;

  std::unique_ptr<util::ThreadPool> pool_;  // created lazily on first run
  /// The last run's pair counts, for annotate_run_stats().
  MemoCounts pair_counts_;

  /// Debug-only re-entrancy guard for the external-serialization contract
  /// (run/summarize must not overlap on one instance). mutable so
  /// the const summarize() can participate.
  mutable std::atomic<bool> busy_{false};

  double last_run_ms_ = 0.0;
  double last_fetch_ms_ = 0.0;
  double last_proxy_ms_ = 0.0;
  double last_pairs_ms_ = 0.0;
};

}  // namespace proxion::core
