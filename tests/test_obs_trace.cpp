// The span tracer and its exports: deterministic Chrome trace_event JSON
// under an injected clock, NDJSON well-formedness, ring-wrap accounting, and
// the pipeline integration — phase spans, per-contract spans, sub-analysis
// spans, and proper nesting by time containment.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/report.h"
#include "datagen/population.h"
#include "obs/trace.h"

namespace {

using namespace proxion;
using core::AnalysisPipeline;
using core::LandscapeStats;
using core::PipelineConfig;
using datagen::Population;
using datagen::PopulationGenerator;
using datagen::PopulationSpec;
using obs::Span;
using obs::SpanRecord;
using obs::Tracer;

/// Deterministic clock: every call advances time by 1us.
obs::TraceClock fake_clock() {
  auto t = std::make_shared<std::atomic<std::uint64_t>>(0);
  return [t] { return t->fetch_add(1'000, std::memory_order_relaxed); };
}

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

bool contains_span(const std::vector<SpanRecord>& spans, const char* name) {
  for (const SpanRecord& s : spans) {
    if (std::string_view(s.name) == name) return true;
  }
  return false;
}

/// Interval containment: does `outer` fully cover `inner`?
bool covers(const SpanRecord& outer, const SpanRecord& inner) {
  return outer.start_ns <= inner.start_ns &&
         inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns;
}

TEST(TracerTest, RecordsSpansWithInjectedClock) {
  Tracer tracer(fake_clock());
  {
    Span outer(&tracer, "outer");
    Span inner(&tracer, "inner");
    inner.arg("k", 7);
  }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  // Sorted parents-first: outer starts at t=0, inner at t=1us.
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_STREQ(spans[1].name, "inner");
  EXPECT_TRUE(covers(spans[0], spans[1]));
  EXPECT_EQ(spans[1].arg, 7);
  EXPECT_EQ(tracer.recorded(), 2u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(TracerTest, NullTracerSpanIsANoOp) {
  Span s(nullptr, "nothing");
  s.arg("k", 1);
  // Destructor must not touch anything; reaching here is the test.
}

TEST(TracerTest, RingWrapOverwritesOldestAndCountsDrops) {
  Tracer tracer(fake_clock(), /*ring_capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    Span s(&tracer, "s");
  }
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  // The retained window is the most recent spans (the last 4 of 10).
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GT(spans[i].start_ns, spans[0].start_ns);
  }
}

TEST(TracerTest, ClearEmptiesRingsButKeepsThreadRegistration) {
  Tracer tracer(fake_clock());
  { Span s(&tracer, "a"); }
  tracer.clear();
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_TRUE(tracer.spans().empty());
  { Span s(&tracer, "b"); }
  EXPECT_EQ(tracer.spans().size(), 1u);
}

TEST(TracerTest, ChromeJsonIsSchemaShapedAndDeterministic) {
  auto make = [] {
    Tracer tracer(fake_clock());
    {
      Span outer(&tracer, "phase:demo");
      Span inner(&tracer, "work");
      inner.arg("index", 3);
    }
    return tracer.chrome_trace_json();
  };
  const std::string json = make();
  // Object form with a traceEvents array of complete events.
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"phase:demo\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"index\":3}"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 4), "\n]}\n");
  // Byte-identical across fresh tracer + fresh fake clock.
  EXPECT_EQ(json, make());
}

TEST(TracerTest, NdjsonIsOneWellFormedObjectPerLine) {
  Tracer tracer(fake_clock());
  {
    Span a(&tracer, "a");
    Span b(&tracer, "b");
    b.arg("ok", 1);
  }
  std::istringstream lines(tracer.ndjson());
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    ++n;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"name\":\""), std::string::npos);
    EXPECT_NE(line.find("\"ts_ns\":"), std::string::npos);
    EXPECT_NE(line.find("\"dur_ns\":"), std::string::npos);
  }
  EXPECT_EQ(n, 2);
}

class PipelineTraceTest : public ::testing::Test {
 protected:
  static Population make_population(std::uint32_t n) {
    PopulationSpec spec;
    spec.total_contracts = n;
    return PopulationGenerator().generate(spec);
  }

  /// Single-threaded pipeline with a fake clock and trace export — fully
  /// deterministic spans and files.
  static PipelineConfig traced_config(const std::string& trace_path,
                                      const std::string& events_path) {
    PipelineConfig config;
    config.threads = 1;
    config.telemetry.trace_path = trace_path;
    config.telemetry.events_path = events_path;
    config.telemetry.clock = fake_clock();
    return config;
  }
};

TEST_F(PipelineTraceTest, SweepEmitsAllPhaseAndSubAnalysisSpans) {
  Population pop = make_population(150);
  const std::string trace_path = ::testing::TempDir() + "proxion_trace.json";
  const std::string events_path = ::testing::TempDir() + "proxion_events.ndjson";
  AnalysisPipeline pipeline(*pop.chain, &pop.sources,
                            traced_config(trace_path, events_path));
  const auto reports = pipeline.run(pop.sweep_inputs());
  ASSERT_NE(pipeline.tracer(), nullptr);
  const auto spans = pipeline.tracer()->spans();

  // All three phases, the per-contract spans, and every sub-analysis kind
  // this population exercises.
  EXPECT_TRUE(contains_span(spans, "phase:fetch"));
  EXPECT_TRUE(contains_span(spans, "phase:proxy"));
  EXPECT_TRUE(contains_span(spans, "phase:pairs"));
  EXPECT_TRUE(contains_span(spans, "contract"));
  EXPECT_TRUE(contains_span(spans, "proxy-detect"));
  EXPECT_TRUE(contains_span(spans, "logic-search"));
  EXPECT_TRUE(contains_span(spans, "collision-check"));
  EXPECT_TRUE(contains_span(spans, "rpc:get_code"));
  // LogicFinder batches each depth's probe frontier across every proxy of
  // the run, so the RPC span the tracing decorator emits is the batch
  // variant.
  EXPECT_TRUE(contains_span(spans, "rpc:get_storage_at_many"));

  // The exports exist and carry the phase spans.
  const std::string json = slurp(trace_path);
  EXPECT_NE(json.find("\"name\":\"phase:pairs\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"proxy-detect\""), std::string::npos);
  const std::string ndjson = slurp(events_path);
  EXPECT_NE(ndjson.find("\"name\":\"contract\""), std::string::npos);

  // Telemetry summaries surface through the landscape stats + report text.
  const LandscapeStats stats = pipeline.summarize(reports);
  EXPECT_GT(stats.trace_spans_recorded, 0u);
  EXPECT_GT(stats.contract_latency_ns.count, 0u);
  EXPECT_GT(stats.rpc_latency_ns.count, 0u);
  EXPECT_GT(stats.emulation_steps.count, 0u);
  const std::string text = core::render_landscape_text(stats);
  EXPECT_NE(text.find("latency (telemetry):"), std::string::npos);
  EXPECT_NE(text.find("p99="), std::string::npos);
}

TEST_F(PipelineTraceTest, SpansNestByTimeContainment) {
  Population pop = make_population(120);
  const std::string trace_path = ::testing::TempDir() + "proxion_nest.json";
  AnalysisPipeline pipeline(*pop.chain, &pop.sources,
                            traced_config(trace_path, ""));
  pipeline.run(pop.sweep_inputs());
  const auto spans = pipeline.tracer()->spans();

  std::vector<SpanRecord> phases, contracts, pairs_phase, logic_searches;
  for (const SpanRecord& s : spans) {
    const std::string_view name(s.name);
    if (name.substr(0, 6) == "phase:") phases.push_back(s);
    if (name == "phase:pairs") pairs_phase.push_back(s);
    if (name == "contract") contracts.push_back(s);
    if (name == "logic-search") logic_searches.push_back(s);
  }
  ASSERT_EQ(phases.size(), 3u);
  ASSERT_FALSE(contracts.empty());
  // Algorithm 1 runs once per run, for every proxy in lockstep, inside the
  // pairs phase and before its per-contract work.
  ASSERT_EQ(pairs_phase.size(), 1u);
  ASSERT_EQ(logic_searches.size(), 1u);
  EXPECT_TRUE(covers(pairs_phase.front(), logic_searches.front()));

  auto covered_by_any = [](const std::vector<SpanRecord>& outers,
                           const SpanRecord& inner) {
    for (const SpanRecord& o : outers) {
      if (covers(o, inner)) return true;
    }
    return false;
  };
  // Every contract span sits inside a phase span; proxy detection sits
  // inside a contract span (proxy-detect ⊂ contract ⊂ phase). Each distinct
  // proxy/logic pair is checked once for every contract that shares it, so
  // collision-check sits in the pairs phase, outside any contract.
  for (const SpanRecord& c : contracts) {
    EXPECT_TRUE(covered_by_any(phases, c));
  }
  for (const SpanRecord& s : spans) {
    const std::string_view name(s.name);
    if (name == "proxy-detect") {
      EXPECT_TRUE(covered_by_any(contracts, s)) << name;
    }
    if (name == "collision-check") {
      EXPECT_TRUE(covered_by_any(pairs_phase, s)) << name;
    }
  }
}

TEST_F(PipelineTraceTest, TraceFilesAreByteIdenticalAcrossRuns) {
  const std::string p1 = ::testing::TempDir() + "proxion_det1.json";
  const std::string p2 = ::testing::TempDir() + "proxion_det2.json";
  auto run_once = [&](const std::string& path) {
    Population pop = make_population(100);
    AnalysisPipeline pipeline(*pop.chain, &pop.sources,
                              traced_config(path, path + ".ndjson"));
    pipeline.run(pop.sweep_inputs());
  };
  run_once(p1);
  run_once(p2);
  const std::string j1 = slurp(p1), j2 = slurp(p2);
  ASSERT_FALSE(j1.empty());
  EXPECT_EQ(j1, j2);
  EXPECT_EQ(slurp(p1 + ".ndjson"), slurp(p2 + ".ndjson"));
}

TEST_F(PipelineTraceTest, DisabledTelemetryReportsNothing) {
  Population pop = make_population(100);
  PipelineConfig config;
  config.threads = 1;
  config.telemetry.enabled = false;
  config.telemetry.trace_path = ::testing::TempDir() + "proxion_off.json";
  AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  const auto reports = pipeline.run(pop.sweep_inputs());
  EXPECT_EQ(pipeline.tracer(), nullptr);  // master switch wins over paths
  const LandscapeStats stats = pipeline.summarize(reports);
  EXPECT_EQ(stats.contract_latency_ns.count, 0u);
  EXPECT_EQ(stats.trace_spans_recorded, 0u);
  const std::string text = core::render_landscape_text(stats);
  EXPECT_EQ(text.find("latency (telemetry):"), std::string::npos);
}

TEST_F(PipelineTraceTest, DefaultConfigStillReportsLatencyPercentiles) {
  // The acceptance criterion: a default-config sweep (no trace paths, no
  // injected clock) reports per-contract and per-RPC percentiles.
  Population pop = make_population(150);
  AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  const auto reports = pipeline.run(pop.sweep_inputs());
  const LandscapeStats stats = pipeline.summarize(reports);
  EXPECT_EQ(stats.contract_latency_ns.count, reports.size());
  EXPECT_GT(stats.rpc_latency_ns.count, 0u);
  EXPECT_LE(stats.contract_latency_ns.p50, stats.contract_latency_ns.p99);
  const std::string text = core::render_landscape_text(stats);
  EXPECT_NE(text.find("per contract:"), std::string::npos);
  EXPECT_NE(text.find("per rpc:"), std::string::npos);
}

}  // namespace
