#include "serve/follower.h"

#include <chrono>
#include <cstdio>
#include <utility>

namespace proxion::serve {

namespace {

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Room for a status body whose counters all have 20 digits and whose
/// last_error is short, so rendering one allocates once.
constexpr std::size_t kStatusBodyBytes = 640;

/// JSON string escaping for the status document: error text can carry
/// paths and errno messages, so quotes, backslashes and every control
/// character are escaped (everything else rendered here is hex or enum
/// names).
void append_escaped(std::string& out, std::string_view value) {
  out += '"';
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

ChainFollower::ChainFollower(core::AnalysisPipeline& pipeline,
                             chain::Blockchain& chain,
                             const sourcemeta::SourceRepository* sources,
                             store::DurableSweepConfig sweep_config,
                             QueryService& query,
                             std::vector<core::SweepInput> initial_inputs,
                             ChainFollowerConfig config)
    : pipeline_(pipeline),
      chain_(chain),
      sources_(sources),
      query_(query),
      config_(std::move(config)),
      metrics_(config_.registry != nullptr ? *config_.registry
                                           : obs::Registry::global()),
      inputs_(std::move(initial_inputs)) {
  known_.reserve(inputs_.size());
  for (const core::SweepInput& input : inputs_) known_.insert(input.address);
  // Commit→publish wiring: each record batch the sweep finalizes (replayed
  // set, then every shard) lands in the query plane immediately, published
  // at the PREVIOUS complete head — mid-lap rows are bonus freshness, the
  // head_block stamp only advances when the lap covers it.
  sweep_config.record_sink =
      [this](std::span<const store::ContractRecord> records) {
        query_.apply_records(records);
        const std::shared_ptr<const Snapshot> snap =
            query_.publish(published_head_);
        stats_.snapshot_entries.store(snap->rows.size(),
                                      std::memory_order_relaxed);
        stats_.snapshot_version.store(snap->version,
                                      std::memory_order_relaxed);
      };
  sweep_ = std::make_unique<store::DurableSweep>(pipeline_, chain_, sources_,
                                                 std::move(sweep_config));
}

ChainFollower::~ChainFollower() { stop(); }

std::uint64_t ChainFollower::poll() {
  std::uint64_t absorbed = 0;
  std::uint64_t head = 0;
  {
    std::lock_guard<std::mutex> lap_lock(lap_mu_);
    absorbed = poll_locked();
    head = last_head_;
  }
  {
    std::lock_guard<std::mutex> wake_lock(wake_mu_);
    synced_head_ = head;
  }
  wake_cv_.notify_all();
  return absorbed;
}

std::uint64_t ChainFollower::poll_locked() {
  const std::uint64_t head = chain_.height();
  if (primed_ && head == last_head_) return 0;
  const std::uint64_t scan_from = primed_ ? last_head_ : 0;
  std::uint64_t discovered = 0;
  // The lap's dirty set: every address that received code — a deployment,
  // or set_code on a known contract — or had storage written. Inclusive
  // rescan of the previously-absorbed head block: writes land in the OPEN
  // block, so block H can gain writes after a poll that ran at height H.
  // Re-detecting them only costs a no-change check of those addresses —
  // never a missed upgrade.
  store::AddressSet touched;
  for (std::uint64_t b = scan_from; b <= head; ++b) {
    for (const evm::Address& addr : chain_.deployments_in(b)) {
      touched.insert(addr);
      if (!known_.insert(addr).second) continue;
      core::SweepInput input;
      input.address = addr;
      input.year = config_.year_of_block ? config_.year_of_block(b) : 0;
      input.has_source = sources_ != nullptr && sources_->has_source(addr);
      if (const std::optional<chain::ContractMeta> meta =
              chain_.contract_meta(addr)) {
        input.has_tx = meta->has_incoming_tx;
      }
      inputs_.push_back(input);
      ++discovered;
    }
    for (const evm::Address& addr : chain_.storage_writers_in(b)) {
      touched.insert(addr);
    }
  }
  const bool dirty = !primed_ || !touched.empty();
  if (discovered > 0) {
    stats_.contracts_discovered.fetch_add(discovered,
                                          std::memory_order_relaxed);
    if (config_.event_log != nullptr) {
      config_.event_log->emit(obs::Severity::kDebug, "follower",
                              "discovered " + std::to_string(discovered) +
                                  " new contract(s) up to block " +
                                  std::to_string(head));
    }
  }

  const std::uint64_t absorbed = head - scan_from + (primed_ ? 0 : 1);
  if (dirty) {
    const std::uint64_t t0 = now_us();
    const store::DurableSweepResult result =
        sweep_->incremental(inputs_, touched);
    stats_.last_lap_us.store(now_us() - t0, std::memory_order_relaxed);
    stats_.last_lap_touched.store(result.examined, std::memory_order_relaxed);
    stats_.last_lap_recomputed.store(result.recomputed,
                                     std::memory_order_relaxed);
    if (!result.error.empty()) {
      // Journal failure with degradation disabled: the lap produced no
      // trustworthy verdicts, so the snapshot stays at its old head and
      // staleness grows — which is exactly what an operator should see.
      {
        std::lock_guard<std::mutex> err_lock(err_mu_);
        last_error_ = result.error;
      }
      if (config_.event_log != nullptr) {
        config_.event_log->emit(obs::Severity::kError, "follower",
                                "incremental lap failed: " + result.error);
      }
    } else {
      {
        std::lock_guard<std::mutex> err_lock(err_mu_);
        last_error_.clear();
      }
      published_head_ = head;
      const std::shared_ptr<const Snapshot> snap = query_.publish(head);
      stats_.snapshot_entries.store(snap->rows.size(),
                                    std::memory_order_relaxed);
      stats_.snapshot_version.store(snap->version, std::memory_order_relaxed);
      stats_.snapshot_head.store(head, std::memory_order_relaxed);
      stats_.laps.fetch_add(1, std::memory_order_relaxed);
      if (config_.event_log != nullptr) {
        config_.event_log->emit(
            obs::Severity::kInfo, "follower",
            "lap complete at block " + std::to_string(head) + ": " +
                std::to_string(result.recomputed) + " recomputed, " +
                std::to_string(result.replayed) + " replayed");
      }
    }
  } else {
    // Nothing analysis-relevant in the new blocks: the verdict set is
    // already complete through `head` — publish the advanced stamp without
    // paying for a lap.
    published_head_ = head;
    const std::shared_ptr<const Snapshot> snap = query_.publish(head);
    stats_.snapshot_entries.store(snap->rows.size(),
                                  std::memory_order_relaxed);
    stats_.snapshot_version.store(snap->version, std::memory_order_relaxed);
    stats_.snapshot_head.store(head, std::memory_order_relaxed);
    stats_.fast_forwards.fetch_add(1, std::memory_order_relaxed);
  }
  primed_ = true;
  last_head_ = head;
  stats_.blocks_processed.fetch_add(absorbed, std::memory_order_relaxed);
  // chain_head may already be ahead (the head callback advances it on the
  // mining thread); never move it backwards from here.
  std::uint64_t seen = stats_.chain_head.load(std::memory_order_relaxed);
  while (seen < head && !stats_.chain_head.compare_exchange_weak(
                            seen, head, std::memory_order_relaxed)) {
  }

  const std::uint64_t chain_head =
      stats_.chain_head.load(std::memory_order_relaxed);
  const std::uint64_t snapshot_head =
      stats_.snapshot_head.load(std::memory_order_relaxed);
  metrics_.gauge("sweep.follower.head")
      .set(static_cast<std::int64_t>(chain_head));
  metrics_.gauge("sweep.follower.staleness_blocks")
      .set(static_cast<std::int64_t>(
          chain_head > snapshot_head ? chain_head - snapshot_head : 0));
  metrics_.gauge("sweep.follower.laps")
      .set(static_cast<std::int64_t>(
          stats_.laps.load(std::memory_order_relaxed)));
  metrics_.gauge("sweep.follower.fast_forwards")
      .set(static_cast<std::int64_t>(
          stats_.fast_forwards.load(std::memory_order_relaxed)));
  metrics_.gauge("sweep.follower.blocks_processed")
      .set(static_cast<std::int64_t>(
          stats_.blocks_processed.load(std::memory_order_relaxed)));
  metrics_.gauge("sweep.follower.snapshot_entries")
      .set(static_cast<std::int64_t>(
          stats_.snapshot_entries.load(std::memory_order_relaxed)));
  metrics_.gauge("sweep.follower.snapshot_version")
      .set(static_cast<std::int64_t>(
          stats_.snapshot_version.load(std::memory_order_relaxed)));
  metrics_.gauge("sweep.follower.last_lap_touched")
      .set(static_cast<std::int64_t>(
          stats_.last_lap_touched.load(std::memory_order_relaxed)));
  metrics_.gauge("sweep.follower.last_lap_recomputed")
      .set(static_cast<std::int64_t>(
          stats_.last_lap_recomputed.load(std::memory_order_relaxed)));
  // Between laps the process is healthy and waiting, not mid-sweep: park
  // the /healthz phase at `following` (the pipeline will flip it to its
  // own phases the moment the next lap enters).
  if (config_.status != nullptr) {
    config_.status->set_phase(obs::SweepPhase::kFollowing);
  }
  return absorbed;
}

void ChainFollower::start() {
  if (started_) return;
  {
    std::lock_guard<std::mutex> wake_lock(wake_mu_);
    stop_requested_ = false;
    pending_ = true;  // catch anything mined before the subscription landed
  }
  stats_.following.store(true, std::memory_order_relaxed);
  if (config_.status != nullptr) {
    config_.status->set_phase(obs::SweepPhase::kFollowing);
  }
  thread_ = std::thread([this] { run_loop(); });
  head_token_ = chain_.subscribe_head([this](std::uint64_t new_height) {
    stats_.chain_head.store(new_height, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> wake_lock(wake_mu_);
      pending_ = true;
    }
    wake_cv_.notify_all();
  });
  started_ = true;
}

void ChainFollower::stop() {
  if (!started_) return;
  chain_.unsubscribe_head(head_token_);
  {
    std::lock_guard<std::mutex> wake_lock(wake_mu_);
    stop_requested_ = true;
  }
  wake_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  {
    // A head flagged after the final poll would otherwise leave pending_
    // stuck true with no thread to drain it, wedging later wait_synced()
    // fences in manual-poll mode. Under the lock, with a notify: a
    // wait_synced() may be waiting on exactly these flags.
    std::lock_guard<std::mutex> wake_lock(wake_mu_);
    pending_ = false;
    idle_ = true;
  }
  wake_cv_.notify_all();
  started_ = false;
  stats_.following.store(false, std::memory_order_relaxed);
  if (config_.status != nullptr) {
    config_.status->set_phase(obs::SweepPhase::kIdle);
  }
}

void ChainFollower::run_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> wake_lock(wake_mu_);
      // Park: tell wait_synced() fencers the thread is quiescent before
      // sleeping, so "synced AND idle" can become true between laps.
      idle_ = true;
      wake_cv_.notify_all();
      wake_cv_.wait(wake_lock,
                    [this] { return pending_ || stop_requested_; });
      if (stop_requested_) return;
      pending_ = false;
      idle_ = false;
    }
    poll();
  }
}

bool ChainFollower::wait_synced(std::uint64_t height,
                                std::int64_t timeout_ms) {
  // Quiescence, not just coverage: `synced_head_ >= height` alone is not a
  // fence — the catch-up poll start() schedules runs with synced_head_
  // already at the head, and a caller that mutated the chain the moment the
  // stamp caught up would race that poll's chain reads. Requiring the poll
  // thread parked with nothing pending closes the window.
  std::unique_lock<std::mutex> wake_lock(wake_mu_);
  return wake_cv_.wait_for(wake_lock, std::chrono::milliseconds(timeout_ms),
                           [this, height] {
                             return synced_head_ >= height && !pending_ &&
                                    idle_;
                           });
}

std::vector<core::SweepInput> ChainFollower::inputs() const {
  std::lock_guard<std::mutex> lap_lock(lap_mu_);
  return inputs_;
}

std::string ChainFollower::last_error() const {
  std::lock_guard<std::mutex> err_lock(err_mu_);
  return last_error_;
}

obs::HttpResponse ChainFollower::status_endpoint() const {
  const std::uint64_t chain_head =
      stats_.chain_head.load(std::memory_order_relaxed);
  const std::uint64_t snapshot_head =
      stats_.snapshot_head.load(std::memory_order_relaxed);
  std::string out;
  out.reserve(kStatusBodyBytes);
  out += '{';
  append_key(out, "following");
  out += stats_.following.load(std::memory_order_relaxed) ? "true" : "false";
  out += ',';
  append_key(out, "chain_head");
  append_u64(out, chain_head);
  out += ',';
  append_key(out, "snapshot_head");
  append_u64(out, snapshot_head);
  out += ',';
  append_key(out, "staleness_blocks");
  append_u64(out, chain_head > snapshot_head ? chain_head - snapshot_head : 0);
  out += ',';
  append_key(out, "snapshot_version");
  append_u64(out, stats_.snapshot_version.load(std::memory_order_relaxed));
  out += ',';
  append_key(out, "snapshot_entries");
  append_u64(out, stats_.snapshot_entries.load(std::memory_order_relaxed));
  out += ',';
  append_key(out, "laps");
  append_u64(out, stats_.laps.load(std::memory_order_relaxed));
  out += ',';
  append_key(out, "fast_forwards");
  append_u64(out, stats_.fast_forwards.load(std::memory_order_relaxed));
  out += ',';
  append_key(out, "blocks_processed");
  append_u64(out, stats_.blocks_processed.load(std::memory_order_relaxed));
  out += ',';
  append_key(out, "contracts_discovered");
  append_u64(out, stats_.contracts_discovered.load(std::memory_order_relaxed));
  out += ',';
  append_key(out, "last_lap_us");
  append_u64(out, stats_.last_lap_us.load(std::memory_order_relaxed));
  out += ',';
  append_key(out, "last_lap_touched");
  append_u64(out, stats_.last_lap_touched.load(std::memory_order_relaxed));
  out += ',';
  append_key(out, "last_lap_recomputed");
  append_u64(out, stats_.last_lap_recomputed.load(std::memory_order_relaxed));
  out += ',';
  append_key(out, "degraded");
  const bool degraded =
      config_.status != nullptr &&
      config_.status->degraded.load(std::memory_order_relaxed);
  out += degraded ? "true" : "false";
  out += ',';
  append_key(out, "last_error");
  append_escaped(out, last_error());
  out += "}\n";
  obs::HttpResponse resp;
  resp.content_type = "application/json";
  resp.body = std::move(out);
  return resp;
}

void ChainFollower::register_status_endpoint(obs::HttpServer& server) {
  server.handle("/v1/status", [this](const std::string&) {
    return status_endpoint();
  });
}

}  // namespace proxion::serve
