#include "core/pipeline.h"

#include <cassert>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "core/report.h"
#include "crypto/keccak.h"

namespace proxion::core {

namespace {

/// Debug-mode enforcement of the external-serialization contract: entering
/// run()/summarize() while another is in flight on the same
/// pipeline trips the assert. Release builds compile this to nothing.
class ReentrancyGuard {
 public:
  explicit ReentrancyGuard(std::atomic<bool>& busy) : busy_(busy) {
#ifndef NDEBUG
    const bool was_busy = busy_.exchange(true, std::memory_order_acquire);
    assert(!was_busy &&
           "AnalysisPipeline::run/summarize must be externally "
           "serialized per instance");
#endif
  }
  ~ReentrancyGuard() {
#ifndef NDEBUG
    busy_.store(false, std::memory_order_release);
#endif
  }

  ReentrancyGuard(const ReentrancyGuard&) = delete;
  ReentrancyGuard& operator=(const ReentrancyGuard&) = delete;

 private:
  [[maybe_unused]] std::atomic<bool>& busy_;
};

unsigned thread_count(unsigned configured) {
  if (configured != 0) return configured;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : hw;
}

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

ErrorKind classify_rpc(const chain::RpcError& e) noexcept {
  switch (e.kind()) {
    case chain::RpcErrorKind::kExhausted:
    case chain::RpcErrorKind::kCircuitOpen:
      return ErrorKind::kRpcExhausted;
    default:
      return ErrorKind::kRpcTransient;
  }
}

ErrorRecord record_of(const chain::RpcError& e, const char* phase) {
  return ErrorRecord{classify_rpc(e), phase, e.what()};
}

/// Runs `fn` as one failure domain: what it throws becomes the returned
/// ErrorRecord of `phase`.
template <typename Fn>
std::optional<ErrorRecord> contain(const char* phase, Fn&& fn) {
  try {
    fn();
    return std::nullopt;
  } catch (const chain::RpcError& e) {
    return record_of(e, phase);
  } catch (const util::WatchdogExpired& e) {
    return ErrorRecord{ErrorKind::kEmulationLimit, phase, e.what()};
  } catch (const std::exception& e) {
    return ErrorRecord{ErrorKind::kInternal, phase, e.what()};
  }
}

/// One account's code blob, fetched once per code hash in a run (once per
/// address when run() is not given the hashes) and hashed at most once
/// (not at all when run() was handed its hash).
struct CodeBlob {
  evm::Bytes code;
  crypto::Hash256 hash{};
};

/// A logic address some history names: the blob serving it, or the error
/// of its one fetch.
struct LogicBlob {
  Address address;
  std::shared_ptr<const CodeBlob> blob;
  std::optional<ErrorRecord> error;
};

/// One step of a contract's logic history: its entry in the run's logic
/// blobs and, once the pairs are planned, its pair.
struct Step {
  std::uint32_t logic = 0;
  std::uint32_t pair = 0;
};

/// One distinct proxy/logic pair: its representative, the first input and
/// logic entry that reach it, and the outcome of its collision checks.
struct Pair {
  std::size_t input = 0;
  std::uint32_t logic = 0;
  bool function_collision = false;
  bool storage_collision = false;
  bool storage_exploitable = false;
  bool family_collision = false;
  bool family_checked = false;
  bool family_source_free = false;
  std::optional<ErrorRecord> error;
};

/// A pair's identity: the proxy's and the logic contract's code hash.
struct PairKey {
  crypto::Hash256 proxy{};
  crypto::Hash256 logic{};
  bool operator==(const PairKey&) const = default;
};
struct PairKeyHasher {
  std::size_t operator()(const PairKey& k) const noexcept {
    const crypto::Hash256Hasher h;
    return h(k.proxy) ^ (h(k.logic) * 0x9e3779b97f4a7c15ull);
  }
};

}  // namespace

std::string_view to_string(ErrorKind kind) noexcept {
  switch (kind) {
    case ErrorKind::kRpcTransient: return "rpc_transient";
    case ErrorKind::kRpcExhausted: return "rpc_exhausted";
    case ErrorKind::kEmulationLimit: return "emulation_limit";
    case ErrorKind::kInternal: return "internal";
    case ErrorKind::kDiskIo: return "disk_io";
  }
  return "unknown";
}

AnalysisPipeline::AnalysisPipeline(chain::Blockchain& chain,
                                   const sourcemeta::SourceRepository* sources,
                                   PipelineConfig config)
    : chain_(chain), node_(chain), sources_(sources), config_(config) {
  backend_ = config_.archive_node != nullptr ? config_.archive_node : &node_;

  clock_ = config_.telemetry.clock
               ? config_.telemetry.clock
               : obs::TraceClock(&obs::steady_now_ns);
  if (config_.telemetry.enabled) {
    h_contract_ = &registry_.histogram("sweep.contract_latency_ns");
    h_rpc_ = &registry_.histogram("sweep.rpc_latency_ns");
    h_steps_ = &registry_.histogram("sweep.emulation_steps");
    c_contracts_ = &registry_.counter("sweep.contracts");
    if (!config_.telemetry.trace_path.empty() ||
        !config_.telemetry.events_path.empty() ||
        config_.telemetry.live_spans) {
      tracer_ = std::make_unique<obs::Tracer>(clock_);
      tracer_->set_coarse_clock(config_.telemetry.coarse_clock);
    }
  }

  // Archive decorator stack, innermost out: backend -> tracing -> resilient.
  // Tracing sits under the retry layer so every *attempt* (including the
  // ones a retry absorbs) is a latency sample and a span.
  const chain::IArchiveNode* wire = backend_;
  if (h_rpc_ != nullptr || tracer_ != nullptr) {
    tracing_node_ = std::make_unique<chain::TracingArchiveNode>(
        *backend_, h_rpc_, tracer_.get(), clock_);
    wire = tracing_node_.get();
  }
  if (config_.enable_retries) {
    resilient_ = std::make_unique<chain::ResilientArchiveNode>(
        *wire, config_.retry, config_.breaker);
    wire = resilient_.get();
    // Publish breaker flips to the introspection plane. The listener fires
    // outside the breaker's lock (see CircuitBreaker::set_state_listener),
    // so emitting an event from it cannot deadlock against RPC traffic.
    obs::EventLog* log = config_.telemetry.event_log;
    obs::SweepStatus* status = config_.telemetry.status;
    if (log != nullptr || status != nullptr) {
      if (status != nullptr) {
        status->breaker_state.store(
            static_cast<std::uint8_t>(resilient_->breaker().state()),
            std::memory_order_relaxed);
      }
      resilient_->breaker().set_state_listener(
          [log, status](util::CircuitBreaker::State s) {
            if (status != nullptr) {
              status->breaker_state.store(static_cast<std::uint8_t>(s),
                                          std::memory_order_relaxed);
            }
            if (log != nullptr) {
              using State = util::CircuitBreaker::State;
              const char* name = s == State::kOpen       ? "open"
                                 : s == State::kHalfOpen ? "half-open"
                                                         : "closed";
              log->emit(s == State::kOpen ? obs::Severity::kWarn
                                          : obs::Severity::kInfo,
                        "chain.breaker",
                        std::string("circuit breaker ") + name);
            }
          });
    }
  }
}

AnalysisPipeline::~AnalysisPipeline() = default;

util::ThreadPool& AnalysisPipeline::pool() {
  if (!pool_) {
    pool_ = std::make_unique<util::ThreadPool>(thread_count(config_.threads));
  }
  return *pool_;
}

std::vector<ContractAnalysis> AnalysisPipeline::run(
    const std::vector<SweepInput>& inputs, const VerdictSeeds& seeds,
    const SourceDonors* donors, std::span<const crypto::Hash256> code_hashes) {
  if (!code_hashes.empty() && code_hashes.size() != inputs.size()) {
    throw std::invalid_argument(
        "AnalysisPipeline::run: code_hashes must be empty or parallel to "
        "inputs");
  }
  ReentrancyGuard guard(busy_);
  const auto t_start = std::chrono::steady_clock::now();
  util::ThreadPool& workers = pool();

  // Live-introspection publishing: phase and progress land in the shared
  // status block as they happen; operational events go to the event log.
  // Both are optional and borrowed — null means no publishing.
  obs::EventLog* const event_log = config_.telemetry.event_log;
  obs::SweepStatus* const status = config_.telemetry.status;
  if (status != nullptr) {
    status->sweeps_started.fetch_add(1, std::memory_order_relaxed);
    status->contracts_total.store(inputs.size(), std::memory_order_relaxed);
    status->contracts_done.store(0, std::memory_order_relaxed);
    status->set_phase(obs::SweepPhase::kFetch);
  }
  if (event_log != nullptr) {
    event_log->emit(obs::Severity::kInfo, "pipeline",
                    "sweep started over " + std::to_string(inputs.size()) +
                        " contracts");
  }

  // Each run entry asserts the backend is worth talking to again; a breaker
  // left open by a previous run's outage must not fast-fail a retry.
  if (resilient_) resilient_->breaker().reset();

  // Telemetry scope is one run: the histograms behind the LandscapeStats
  // summaries and the trace rings restart here (the workers are parked
  // between runs, so this reset happens at quiescence).
  if (h_contract_ != nullptr) {
    h_contract_->reset();
    h_rpc_->reset();
    h_steps_->reset();
  }
  if (tracer_) tracer_->clear();

  std::vector<ContractAnalysis> out(inputs.size());

  // ---- fetch code and hash it ------------------------------------------
  // Code is content-addressed. The fetch key is the input's code hash when
  // the caller supplied it (a durable sweep's fingerprint), else its
  // address: the first input with each key fetches (through the
  // fault-tolerant archive seam) into its own `blobs` slot without a lock,
  // and every other input with that key shares the blob, so a clone family
  // costs one round trip and a supplied hash is never recomputed.
  // The failure domain is the key. A key whose first fetch failed asks each
  // of its other distinct addresses once more, and every input with the key
  // shares the first blob that arrived, in input order. An input is
  // quarantined, with its own error, only when no address of its key
  // returned code (an address-keyed run has no other address to ask).
  auto fetch_blob = [&](const Address& address,
                        const crypto::Hash256* known_hash) {
    auto b = std::make_shared<CodeBlob>();
    b->code = rpc().get_code(address);
    b->hash = known_hash != nullptr ? *known_hash : evm::code_hash(b->code);
    return std::shared_ptr<const CodeBlob>(std::move(b));
  };

  // Address -> first input index, and fetch key -> first input index, both
  // built before any fetch and read-only afterwards (Phase B's logic
  // lookups consult the first without a lock).
  std::unordered_map<Address, std::size_t, evm::AddressHasher> input_index;
  input_index.reserve(inputs.size());
  std::unordered_map<crypto::Hash256, std::size_t, crypto::Hash256Hasher>
      hash_index;
  std::vector<std::size_t> first_of(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::size_t by_address =
        input_index.try_emplace(inputs[i].address, i).first->second;
    first_of[i] = code_hashes.empty()
                      ? by_address
                      : hash_index.try_emplace(code_hashes[i], i).first->second;
  }

  std::vector<std::shared_ptr<const CodeBlob>> blobs(inputs.size());
  {
    obs::Span phase_span(tracer_.get(), "phase:fetch");
    auto fetch_input = [&](std::size_t i) {
      out[i].error = contain("fetch", [&] {
        blobs[i] = fetch_blob(inputs[i].address,
                              code_hashes.empty() ? nullptr : &code_hashes[i]);
      });
    };
    workers.parallel_for(inputs.size(), [&](std::size_t i) {
      if (first_of[i] == i) fetch_input(i);
    });
    // The other distinct addresses (first occurrences) of each key whose
    // first fetch failed.
    std::vector<std::size_t> fallback;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (first_of[i] != i && !blobs[first_of[i]] &&
          input_index.at(inputs[i].address) == i) {
        fallback.push_back(i);
      }
    }
    workers.parallel_for(fallback.size(),
                         [&](std::size_t f) { fetch_input(fallback[f]); });
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      std::shared_ptr<const CodeBlob>& shared = blobs[first_of[i]];
      if (!shared) shared = blobs[i];
    }
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if ((blobs[i] = blobs[first_of[i]])) {
        out[i].error.reset();
      } else if (!out[i].error) {
        out[i].error = out[input_index.at(inputs[i].address)].error;
      }
    }
  }
  auto key_of = [&](std::size_t i) -> const crypto::Hash256& {
    return blobs[i]->hash;
  };
  const auto t_fetch = std::chrono::steady_clock::now();

  // ---- §7.1 source propagation: first verified address per code hash ----
  // A caller's map (sharded sweeps) replaces the run-local construction: a
  // shard sees only its member contracts, but the donor for a code hash is
  // defined over the whole population.
  SourceDonors run_local_donors;
  if (donors == nullptr && sources_ != nullptr) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (!blobs[i]) continue;
      if (sources_->has_source(inputs[i].address)) {
        run_local_donors.emplace(blobs[i]->hash, inputs[i].address);
      }
    }
  }
  const SourceDonors& source_donor =
      donors != nullptr ? *donors : run_local_donors;
  auto with_source_donor = [&](const crypto::Hash256& hash,
                               const Address& original) {
    if (sources_ != nullptr && sources_->has_source(original)) {
      return original;
    }
    const auto it = source_donor.find(hash);
    return it == source_donor.end() ? original : it->second;
  };

  // ---- pick one representative per unique code blob ---------------------
  std::unordered_map<crypto::Hash256, std::size_t, crypto::Hash256Hasher>
      representative;
  std::vector<std::size_t> unique_indices;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (!blobs[i]) continue;  // fetch failed; quarantined above
    if (!config_.dedup_by_code_hash) {
      unique_indices.push_back(i);
      continue;
    }
    if (representative.emplace(key_of(i), i).second) {
      unique_indices.push_back(i);
    }
  }

  // ---- Phase A: proxy detection per unique blob (parallel) ---------------
  // Detection emulates against in-process state (no archive RPCs) and its
  // step fuse turns adversarial bytecode into a kEmulationError verdict, so
  // failures here are internal bugs — contained per blob all the same.
  std::vector<ProxyReport> unique_reports(unique_indices.size());
  std::vector<std::optional<ErrorRecord>> unique_errors(unique_indices.size());
  if (status != nullptr) status->set_phase(obs::SweepPhase::kProxy);
  {
    obs::Span phase_span(tracer_.get(), "phase:proxy");
    workers.parallel_for(unique_indices.size(), [&](std::size_t u) {
      const std::size_t i = unique_indices[u];
      obs::Span contract_span(tracer_.get(), "contract");
      contract_span.arg("index", static_cast<std::int64_t>(i));
      unique_errors[u] = contain("proxy", [&] {
        const auto seed = seeds.find(inputs[i].address);
        if (seed != seeds.end() && seed->second.code_hash == blobs[i]->hash) {
          // A seeded verdict is reused without emulating, so it rightly
          // shows no proxy-detect span.
          unique_reports[u] = seed->second.report;
        } else {
          obs::Span detect_span(tracer_.get(), "proxy-detect");
          ProxyDetector detector(chain_, detector_config());
          unique_reports[u] =
              detector.analyze_code(inputs[i].address, blobs[i]->code);
        }
        if (h_steps_ != nullptr &&
            unique_reports[u].has_delegatecall_opcode) {
          // Deterministic per (address, code), so seeded verdicts replay
          // the same sample the original emulation produced.
          h_steps_->record(unique_reports[u].emulation_steps);
        }
      });
    });
  }
  std::unordered_map<crypto::Hash256, const ProxyReport*,
                     crypto::Hash256Hasher>
      verdicts;
  std::unordered_map<crypto::Hash256, ErrorRecord, crypto::Hash256Hasher>
      failed_keys;
  verdicts.reserve(unique_indices.size());
  for (std::size_t u = 0; u < unique_indices.size(); ++u) {
    const std::size_t i = unique_indices[u];
    if (unique_errors[u]) {
      out[i].error = *unique_errors[u];
      failed_keys.emplace(key_of(i), *unique_errors[u]);
    } else {
      verdicts.emplace(key_of(i), &unique_reports[u]);
    }
  }
  const auto t_proxy = std::chrono::steady_clock::now();

  // ---- Phase B: logic histories and collision pairs (planned) ------------
  // Algorithm 1 runs first, for every proxy of the run in lockstep on this
  // thread: each search depth across all proxies is one archive batch.
  // (Per-worker chunks cost the same CPU but each worker's malloc arena
  // kept the search's frontier, raising peak RSS.) Four passes follow:
  //   1. resolve: each contract's verdict, diamond probe and history;
  //   2. logic blobs: one fetch per distinct logic address no input serves;
  //   3. pairs: one collision check per distinct (proxy, logic) hash pair;
  //   4. fan out: each contract takes its pairs' outcomes in history order.
  // Every contract, logic fetch and pair is its own failure domain: its
  // error quarantines the contracts that read it.
  if (status != nullptr) status->set_phase(obs::SweepPhase::kPairs);
  {
    obs::Span phase_span(tracer_.get(), "phase:pairs");
    // searches[search_of[i]] answers input i, a proxy whose verdict stands.
    std::vector<LogicSearch> searches;
    std::vector<std::uint32_t> search_of;
    std::optional<ErrorRecord> search_error;
    if (config_.find_logic_history) {
      std::vector<LogicTarget> targets;
      search_of.resize(inputs.size());
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (out[i].error) continue;
        const auto vit = verdicts.find(key_of(i));
        if (vit == verdicts.end() || !vit->second->is_proxy()) continue;
        search_of[i] = static_cast<std::uint32_t>(targets.size());
        targets.push_back({inputs[i].address, vit->second});
      }
      obs::Span logic_span(tracer_.get(), "logic-search");
      try {
        searches = LogicFinder(rpc()).find(targets);
      } catch (const std::exception& e) {
        // Archive failures stay per target inside the finder; anything else
        // is a bug, charged to every contract the search was for.
        search_error = ErrorRecord{ErrorKind::kInternal, "pairs", e.what()};
      }
    }

    // ---- pass 1: resolve each contract ----
    // The contract's wall time here, added to its fan-out's in pass 4.
    std::vector<std::uint64_t> resolve_ns(
        h_contract_ != nullptr ? inputs.size() : 0);
    workers.parallel_for(inputs.size(), [&](std::size_t i) {
      ContractAnalysis& a = out[i];
      const std::uint64_t t0 = h_contract_ != nullptr ? clock_() : 0;
      obs::Span contract_span(tracer_.get(), "contract");
      contract_span.arg("index", static_cast<std::int64_t>(i));
      a.address = inputs[i].address;
      a.year = inputs[i].year;
      a.has_source = inputs[i].has_source;
      a.has_tx = inputs[i].has_tx;
      if (a.error) return;  // fetch or Phase A already quarantined it
      auto resolve = [&] {
        const auto vit = verdicts.find(key_of(i));
        if (vit == verdicts.end()) {
          // Our representative's Phase A failed; inherit its record.
          a.error = failed_keys.at(key_of(i));
          return;
        }
        a.proxy = *vit->second;
        a.deduplicated = config_.dedup_by_code_hash &&
                         representative.at(key_of(i)) != i;
        util::Watchdog watchdog(config_.contract_wall_budget_ms);
        if (!a.proxy.is_proxy()) {
          if (config_.probe_diamonds && a.proxy.has_delegatecall_opcode &&
              a.proxy.verdict == ProxyVerdict::kNotProxy) {
            a.diamond = DiamondProber(chain_).probe(a.address, a.proxy);
          }
          return;
        }
        // A deduplicated slot-proxy verdict carries the representative's
        // logic address; re-read this contract's slot for its own logic
        // target.
        if (a.deduplicated &&
            a.proxy.logic_source == LogicSource::kStorageSlot) {
          a.proxy.logic_address = Address::from_word(
              chain_.get_storage(a.address, a.proxy.logic_slot));
        }
        watchdog.check("logic-history");
        if (!config_.find_logic_history) {
          if (!a.proxy.logic_address.is_zero()) {
            a.logic_history.logic_addresses.push_back(a.proxy.logic_address);
          }
        } else if (search_error) {
          a.error = *search_error;
        } else if (LogicSearch& found = searches[search_of[i]]; found.error) {
          a.error = record_of(*found.error, "pairs");
        } else {
          a.logic_history = std::move(found.history);
        }
      };
      if (auto thrown = contain("pairs", resolve)) a.error = std::move(thrown);
      if (h_contract_ != nullptr) resolve_ns[i] = clock_() - t0;
    });

    // ---- pass 2: logic blobs ----
    // Each history step names an entry of `logic` (first-seen order): the
    // blob of the input at that address, or else one fetch per run, shared
    // by every proxy delegating to it (an input whose fetch failed is asked
    // once more here).
    std::vector<LogicBlob> logic;
    std::vector<std::uint32_t> to_fetch;  // entries no input blob serves
    // Input i's history is steps[step_begin[i] .. step_begin[i + 1]).
    std::vector<Step> steps;
    std::vector<std::size_t> step_begin(inputs.size() + 1, 0);
    {
      std::unordered_map<Address, std::uint32_t, evm::AddressHasher> logic_of;
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (!out[i].error && config_.detect_collisions) {
          for (const Address& l : out[i].logic_history.logic_addresses) {
            const auto [it, inserted] = logic_of.try_emplace(
                l, static_cast<std::uint32_t>(logic.size()));
            if (inserted) {
              const auto in = input_index.find(l);
              logic.push_back(
                  {l, in == input_index.end() ? nullptr : blobs[in->second]});
              if (!logic.back().blob) to_fetch.push_back(it->second);
            }
            steps.push_back({it->second});
          }
        }
        step_begin[i + 1] = steps.size();
      }
    }
    workers.parallel_for(to_fetch.size(), [&](std::size_t f) {
      LogicBlob& l = logic[to_fetch[f]];
      l.error =
          contain("pairs", [&] { l.blob = fetch_blob(l.address, nullptr); });
    });

    // ---- pass 3: one collision check per distinct pair ----
    // Histories are walked in input order, then history order, up to a
    // contract's first failed logic fetch. The first (input, logic) with
    // each key represents the pair: it supplies the addresses, the §7.1
    // donor lookups and the live storage the checks read.
    std::vector<Pair> pairs;
    std::uint64_t lookups = 0;  // pair steps of the plan
    {
      std::unordered_map<PairKey, std::uint32_t, PairKeyHasher> pair_of;
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        for (std::size_t s = step_begin[i]; s < step_begin[i + 1]; ++s) {
          const LogicBlob& l = logic[steps[s].logic];
          if (l.error) break;
          if (l.blob->code.empty()) continue;
          ++lookups;
          const auto [it, inserted] =
              pair_of.try_emplace(PairKey{key_of(i), l.blob->hash},
                                  static_cast<std::uint32_t>(pairs.size()));
          if (inserted) pairs.push_back({i, steps[s].logic});
          steps[s].pair = it->second;
        }
      }
    }
    workers.parallel_for(pairs.size(), [&](std::size_t p) {
      obs::Span pair_span(tracer_.get(), "collision-check");
      Pair& o = pairs[p];
      const std::size_t i = o.input;
      const Address& proxy = inputs[i].address;
      const LogicBlob& l = logic[o.logic];
      o.error = contain("pairs", [&] {
        // The budget bounds one pair, whichever contracts look it up.
        util::Watchdog watchdog(config_.contract_wall_budget_ms);
        // Source-mode lookups go through same-bytecode donors (§7.1): a
        // clone of a verified contract is analyzed as if verified itself.
        const Address proxy_lookup = with_source_donor(key_of(i), proxy);
        const Address logic_lookup = with_source_donor(l.blob->hash, l.address);
        o.function_collision =
            FunctionCollisionDetector(sources_)
                .detect(proxy_lookup, blobs[i]->code, logic_lookup,
                        l.blob->code)
                .has_collision();
        watchdog.check("pair-collisions");
        StorageCollisionConfig st_config;
        st_config.compare_families = config_.static_tier.infer_layout;
        const StorageCollisionResult st =
            StorageCollisionDetector(chain_, st_config, sources_)
                .detect(proxy, blobs[i]->code, l.address, l.blob->code,
                        &proxy_lookup, &logic_lookup);
        o.storage_collision = st.has_collision();
        o.storage_exploitable = st.has_verified_exploit();
        o.family_collision = st.has_family_collision();
        o.family_checked = st.family_checked;
        o.family_source_free = st.family_source_free;
      });
    });

    // ---- pass 4: fan the outcomes out to contracts ----
    // A contract's first failure on its history ends its walk; the flags
    // set before it stay.
    workers.parallel_for(inputs.size(), [&](std::size_t i) {
      ContractAnalysis& a = out[i];
      const std::uint64_t t0 = h_contract_ != nullptr ? clock_() : 0;
      for (std::size_t s = step_begin[i]; s < step_begin[i + 1]; ++s) {
        const LogicBlob& l = logic[steps[s].logic];
        if (l.error) {
          a.error = l.error;
          break;
        }
        if (l.blob->code.empty()) continue;
        a.logic_has_source =
            a.logic_has_source ||
            (sources_ != nullptr && sources_->has_source(l.address));
        const Pair& o = pairs[steps[s].pair];
        if (o.error) {
          a.error = o.error;
          break;
        }
        a.function_collision |= o.function_collision;
        a.storage_collision |= o.storage_collision;
        a.storage_collision_exploitable |= o.storage_exploitable;
        a.family_collision |= o.family_collision;
        a.collision_pairs_family_checked += o.family_checked;
        a.collision_pairs_source_free += o.family_source_free;
      }
      if (h_contract_ != nullptr) {
        h_contract_->record(resolve_ns[i] + (clock_() - t0));
      }
      if (c_contracts_ != nullptr) c_contracts_->add();
      if (status != nullptr) {
        status->contracts_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
    pair_counts_ = MemoCounts(lookups - pairs.size(), pairs.size());
  }

  const auto t_end = std::chrono::steady_clock::now();
  last_run_ms_ = ms_between(t_start, t_end);
  last_fetch_ms_ = ms_between(t_start, t_fetch);
  last_proxy_ms_ = ms_between(t_fetch, t_proxy);
  last_pairs_ms_ = ms_between(t_proxy, t_end);

  if (config_.telemetry.enabled) {
    // Gauge snapshots of the (monotonic, lifetime) resilience counters:
    // set(), not add(), so repeat runs don't double-count in the registry
    // snapshot. Per-run counts live in LandscapeStats only.
    if (resilient_) {
      registry_.gauge("sweep.rpc.retries")
          .set(static_cast<std::int64_t>(resilient_->retries()));
      registry_.gauge("sweep.rpc.faults")
          .set(static_cast<std::int64_t>(resilient_->faults_seen()));
      registry_.gauge("sweep.rpc.giveups")
          .set(static_cast<std::int64_t>(resilient_->giveups()));
      registry_.gauge("sweep.rpc.breaker_trips")
          .set(static_cast<std::int64_t>(resilient_->breaker().trips()));
    }
  }
  // Trace files are written after t_end so export cost never pollutes the
  // phase timings; the parallel_for joins above provide the quiescence the
  // tracer's bulk read requires.
  if (tracer_) {
    if (!config_.telemetry.trace_path.empty()) {
      tracer_->write_chrome_trace(config_.telemetry.trace_path);
    }
    if (!config_.telemetry.events_path.empty()) {
      tracer_->write_ndjson(config_.telemetry.events_path);
    }
  }

  // Quarantine accounting + run-completion event. One event per quarantined
  // contract (correlated by address), which is rare by construction — the
  // happy path emits exactly one completion event per run.
  std::uint64_t quarantined_now = 0;
  for (const ContractAnalysis& a : out) {
    if (!a.error) continue;
    ++quarantined_now;
    if (event_log != nullptr) {
      event_log->emit(obs::Severity::kWarn, "pipeline",
                      std::string("quarantined in ") + a.error->phase + ": " +
                          std::string(to_string(a.error->kind)),
                      a.address.to_hex());
    }
  }
  if (status != nullptr) {
    status->quarantined.fetch_add(quarantined_now, std::memory_order_relaxed);
    status->sweeps_completed.fetch_add(1, std::memory_order_relaxed);
    status->set_phase(obs::SweepPhase::kDone);
  }
  if (event_log != nullptr) {
    event_log->emit(obs::Severity::kInfo, "pipeline",
                    "sweep completed: " + std::to_string(out.size()) +
                        " contracts, " + std::to_string(quarantined_now) +
                        " quarantined");
  }
  return out;
}

LandscapeStats AnalysisPipeline::summarize(
    const std::vector<ContractAnalysis>& reports) const {
  ReentrancyGuard guard(busy_);
  LandscapeAccumulator acc;
  for (const ContractAnalysis& a : reports) acc.add(a);
  LandscapeStats stats = acc.take();
  annotate_run_stats(stats);
  return stats;
}

void AnalysisPipeline::annotate_run_stats(LandscapeStats& stats) const {
  stats.get_storage_at_calls = rpc().get_storage_at_calls();
  if (resilient_) {
    stats.rpc_retries = resilient_->retries();
    stats.rpc_faults = resilient_->faults_seen();
    stats.rpc_giveups = resilient_->giveups();
    stats.breaker_trips = resilient_->breaker().trips();
  }
  if (stats.total_contracts > 0) {
    stats.ms_per_contract =
        last_run_ms_ / static_cast<double>(stats.total_contracts);
  }
  stats.phase_fetch_ms = last_fetch_ms_;
  stats.phase_proxy_ms = last_proxy_ms_;
  stats.phase_pairs_ms = last_pairs_ms_;
  stats.cache = pair_counts_;
  if (h_contract_ != nullptr) {
    stats.contract_latency_ns = h_contract_->summary();
    stats.rpc_latency_ns = h_rpc_->summary();
    stats.emulation_steps = h_steps_->summary();
  }
  if (tracer_) {
    stats.trace_spans_recorded = tracer_->recorded();
    stats.trace_spans_dropped = tracer_->dropped();
  }
}

}  // namespace proxion::core
