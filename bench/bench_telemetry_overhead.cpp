// The telemetry overhead contract, measured. Microbenches pin the per-op
// cost of the primitives (counter add, histogram record, disabled span = one
// null-pointer branch), and the macro section sweeps the bench population
// three ways — telemetry off, histograms on (the default), and full span
// tracing with export — reporting the relative overhead and dumping the
// registry snapshot of the traced sweep into BENCH_results.json.
// The introspection-plane leg measures the serving-mode configuration —
// background exporter + structured event log + live span ring — against the
// default, gating the "observability is nearly free" claim (<= 2% wall).
// The coarse-clock leg re-measures full tracing after the tracing-tax shave
// (interned span names, TLS-cached coarse clock) against its <= 15% budget.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "bench_results.h"
#include "core/pipeline.h"
#include "obs/eventlog.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using namespace proxion;

void BM_CounterAdd(benchmark::State& state) {
  obs::Counter c;
  for (auto _ : state) {
    c.add();
  }
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_CounterAdd);

void BM_GaugeAdd(benchmark::State& state) {
  obs::Gauge g;
  for (auto _ : state) {
    g.add(1);
  }
  benchmark::DoNotOptimize(g.value());
}
BENCHMARK(BM_GaugeAdd);

void BM_HistogramRecord(benchmark::State& state) {
  obs::Histogram h;
  std::uint64_t v = 1;
  for (auto _ : state) {
    h.record(v);
    v = v * 2862933555777941757ull + 3037000493ull;  // cheap LCG spread
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramRecord);

void BM_DisabledSpan(benchmark::State& state) {
  // The telemetry-off hot path: constructing and destroying a span against
  // a null tracer must reduce to a branch, nothing more.
  for (auto _ : state) {
    obs::Span span(nullptr, "noop");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_DisabledSpan);

void BM_EnabledSpan(benchmark::State& state) {
  obs::Tracer tracer;  // steady_clock; ring default capacity
  for (auto _ : state) {
    obs::Span span(&tracer, "work");
  }
  benchmark::DoNotOptimize(tracer.recorded());
}
BENCHMARK(BM_EnabledSpan);

void BM_EnabledSpanCoarse(benchmark::State& state) {
  // The shaved hot path: interned name lookup hits the TLS cache and the
  // coarse clock amortizes the steady_clock read over kCoarseRefresh spans.
  obs::Tracer tracer;
  tracer.set_coarse_clock(true);
  for (auto _ : state) {
    obs::Span span(&tracer, "work");
  }
  benchmark::DoNotOptimize(tracer.recorded());
}
BENCHMARK(BM_EnabledSpanCoarse);

void BM_ExporterTickAndRender(benchmark::State& state) {
  // One scrape's worth of work against a realistically-populated registry.
  obs::Registry reg;
  for (int i = 0; i < 16; ++i) {
    reg.counter("bench.counter_" + std::to_string(i)).add(1000 + i);
    reg.gauge("bench.gauge_" + std::to_string(i)).set(i);
  }
  auto& h = reg.histogram("bench.latency_ns");
  for (std::uint64_t v = 1; v < 1'000'000; v *= 3) h.record(v);
  obs::ExporterConfig config;
  config.interval_ms = 0;  // manual ticks
  obs::Exporter exporter({&reg}, config);
  for (auto _ : state) {
    exporter.tick();
    benchmark::DoNotOptimize(exporter.render_prometheus());
  }
}
BENCHMARK(BM_ExporterTickAndRender);

double timed_sweep(const core::PipelineConfig& config,
                   core::LandscapeStats* stats_out = nullptr) {
  auto& pop = bench::population();
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  const auto t0 = std::chrono::steady_clock::now();
  const auto reports = pipeline.run(pop.sweep_inputs());
  const auto t1 = std::chrono::steady_clock::now();
  if (stats_out != nullptr) *stats_out = pipeline.summarize(reports);
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// Serving-mode sweep, one rep: same pipeline run with the whole
// introspection plane live — background exporter scraping every 250 ms,
// structured event log, SweepStatus publishing, and the live span ring (no
// trace-file export).
double timed_sweep_with_plane() {
  auto& pop = bench::population();
  obs::EventLog event_log;
  obs::SweepStatus status;
  core::PipelineConfig config;
  config.telemetry.live_spans = true;
  config.telemetry.coarse_clock = true;
  config.telemetry.event_log = &event_log;
  config.telemetry.status = &status;
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  obs::ExporterConfig exp_config;
  exp_config.interval_ms = 250;
  obs::Exporter exporter({&obs::Registry::global(), &pipeline.registry()},
                         exp_config);
  exporter.start();
  const auto t0 = std::chrono::steady_clock::now();
  const auto reports = pipeline.run(pop.sweep_inputs());
  const auto t1 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(reports.size());
  exporter.stop();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

void macro_section() {
  using namespace proxion::bench;
  BenchResults results("bench_telemetry_overhead");

  core::PipelineConfig off;
  off.telemetry.enabled = false;

  core::PipelineConfig traced;
  traced.telemetry.trace_path = BenchResults::path() + ".trace.json";

  // Full tracing after the tracing-tax shave: interned span names, the
  // TLS-cached coarse clock, and the live span ring (drained over /spans)
  // instead of a post-run trace file. Every span is still recorded — only
  // the per-span bookkeeping cost and the one-off file serialization
  // differ. This is the serving-mode configuration and the <= 15% budget
  // leg; the `traced` leg keeps file export for continuity with the seed
  // measurement.
  core::PipelineConfig coarse;
  coarse.telemetry.live_spans = true;
  coarse.telemetry.coarse_clock = true;

  // Three reps, legs INTERLEAVED round-robin and a per-leg minimum:
  // overhead ratios in the low-single-digit-percent range drown in
  // machine-load drift if each leg's reps run back to back (the drift then
  // lands on whole legs instead of averaging out), and the minimum is the
  // least-noisy estimator of true cost on a shared machine.
  core::LandscapeStats on_stats, traced_stats;
  double off_ms = 0, on_ms = 0, traced_ms = 0, coarse_ms = 0, plane_ms = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const bool first = rep == 0;
    auto keep = [first](double& best, double ms) {
      best = first ? ms : std::min(best, ms);
    };
    keep(off_ms, timed_sweep(off));
    keep(on_ms, timed_sweep(core::PipelineConfig{},
                            first ? &on_stats : nullptr));
    keep(traced_ms, timed_sweep(traced, first ? &traced_stats : nullptr));
    keep(coarse_ms, timed_sweep(coarse));
    // The live introspection plane (exporter + event log + status
    // publishing) added on top of the identical live-ring tracing config —
    // the delta against the coarse leg isolates exactly what serving costs.
    keep(plane_ms, timed_sweep_with_plane());
  }

  const double on_overhead = 100.0 * (on_ms - off_ms) / off_ms;
  const double traced_overhead = 100.0 * (traced_ms - off_ms) / off_ms;
  const double coarse_overhead = 100.0 * (coarse_ms - off_ms) / off_ms;
  const double plane_overhead = 100.0 * (plane_ms - coarse_ms) / coarse_ms;

  heading("sweep overhead: telemetry off vs histograms vs full tracing");
  row("telemetry OFF", fmt(off_ms, " ms"));
  row("histograms ON (default)", fmt(on_ms, " ms"));
  row("  overhead vs OFF", fmt(on_overhead, "%"));
  row("span tracing + export", fmt(traced_ms, " ms"));
  row("  overhead vs OFF", fmt(traced_overhead, "%"));
  row("span tracing, coarse clock, live ring", fmt(coarse_ms, " ms"));
  row("  overhead vs OFF (<=15% budget)", fmt(coarse_overhead, "%"));
  row("introspection plane live", fmt(plane_ms, " ms"));
  row("  overhead vs live-ring leg (<=2% budget)", fmt(plane_overhead, "%"));
  row("spans recorded (traced sweep)",
      std::to_string(traced_stats.trace_spans_recorded) + " (" +
          std::to_string(traced_stats.trace_spans_dropped) + " dropped)");
  row("per-contract p50/p99",
      fmt(on_stats.contract_latency_ns.p50 / 1e6) + " / " +
          fmt(on_stats.contract_latency_ns.p99 / 1e6, " ms"));
  row("per-rpc p50/p99",
      fmt(on_stats.rpc_latency_ns.p50 / 1e3) + " / " +
          fmt(on_stats.rpc_latency_ns.p99 / 1e3, " us"));

  results.set("sweep_off_ms", off_ms);
  results.set("sweep_histograms_ms", on_ms);
  results.set("sweep_tracing_ms", traced_ms);
  results.set("histogram_overhead_pct", on_overhead);
  results.set("tracing_overhead_pct", traced_overhead);
  results.set("sweep_tracing_coarse_ms", coarse_ms);
  results.set("tracing_coarse_overhead_pct", coarse_overhead);
  results.set("sweep_plane_ms", plane_ms);
  results.set("plane_overhead_pct", plane_overhead);
  results.set("trace_spans_recorded",
              static_cast<double>(traced_stats.trace_spans_recorded));
  results.set("trace_spans_dropped",
              static_cast<double>(traced_stats.trace_spans_dropped));
  results.set("contract_latency_p50_ns", on_stats.contract_latency_ns.p50);
  results.set("contract_latency_p99_ns", on_stats.contract_latency_ns.p99);
  results.set("rpc_latency_p50_ns", on_stats.rpc_latency_ns.p50);
  results.set("rpc_latency_p99_ns", on_stats.rpc_latency_ns.p99);
  results.set("emulation_steps_p50", on_stats.emulation_steps.p50);
  results.set("emulation_steps_p99", on_stats.emulation_steps.p99);
  results.write();
}

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  macro_section();
  return 0;
}
