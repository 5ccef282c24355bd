// The live introspection plane: exporter snapshot/ring/rate math against a
// fake clock, a Prometheus exposition round-trip that parses every line
// back, /healthz JSON schema, metric-name registration hygiene, the
// structured event log, the HTTP server over a real loopback socket (with
// a seeded request-line fuzz corpus and the whole-request deadline), and
// scrape-during-record concurrency (a TSan target via
// tools/sanitize_smoke.sh).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "datagen/population.h"
#include "obs/eventlog.h"
#include "obs/export.h"
#include "obs/http.h"
#include "obs/metrics.h"

namespace {

using proxion::obs::Event;
using proxion::obs::EventLog;
using proxion::obs::EventLogConfig;
using proxion::obs::Exporter;
using proxion::obs::ExporterConfig;
using proxion::obs::Histogram;
using proxion::obs::HttpResponse;
using proxion::obs::HttpServer;
using proxion::obs::Registry;
using proxion::obs::Severity;
using proxion::obs::SweepPhase;
using proxion::obs::SweepStatus;
using proxion::obs::TimedSnapshot;

// ---------------------------------------------------------------------------
// Metric-name hygiene (charset enforced at registration).

TEST(MetricNameTest, ValidatorAcceptsPrometheusPlusDotCharset) {
  EXPECT_TRUE(proxion::obs::valid_metric_name("rpc.get_storage_at"));
  EXPECT_TRUE(proxion::obs::valid_metric_name("sweep:shards_9"));
  EXPECT_TRUE(proxion::obs::valid_metric_name("_leading_underscore"));
  EXPECT_FALSE(proxion::obs::valid_metric_name(""));
  EXPECT_FALSE(proxion::obs::valid_metric_name("9starts_with_digit"));
  EXPECT_FALSE(proxion::obs::valid_metric_name("has space"));
  EXPECT_FALSE(proxion::obs::valid_metric_name("has-dash"));
  EXPECT_FALSE(proxion::obs::valid_metric_name("unicode\xc3\xa9"));
}

TEST(MetricNameTest, RegistryRejectsInvalidNamesAtEveryEntryPoint) {
  Registry reg;
  EXPECT_THROW(reg.counter("bad name"), std::invalid_argument);
  EXPECT_THROW(reg.gauge("bad-name"), std::invalid_argument);
  EXPECT_THROW(reg.histogram(""), std::invalid_argument);
  // Valid names still register fine after the throws.
  reg.counter("fine.name").add(1);
  EXPECT_EQ(reg.snapshot().counters.at("fine.name"), 1u);
}

TEST(MetricNameTest, SanitizerMapsDotsToUnderscores) {
  EXPECT_EQ(Exporter::sanitize_prometheus_name("rpc.get_storage_at"),
            "rpc_get_storage_at");
  EXPECT_EQ(Exporter::sanitize_prometheus_name("plain_name"), "plain_name");
}

// ---------------------------------------------------------------------------
// Exporter: snapshot ring, delta/rate math, contracts_per_s alias.

TEST(ExporterTest, RatesMatchHandComputedDeltasAcrossThreeSnapshots) {
  Registry reg;
  auto& contracts = reg.counter("sweep.contracts");
  auto& rpc = reg.counter("rpc.get_storage_at");

  std::uint64_t fake_ns = 0;
  ExporterConfig config;
  config.interval_ms = 0;  // manual ticks only
  config.clock = [&fake_ns] { return fake_ns; };
  Exporter exporter({&reg}, config);

  // t=1s: contracts=0, rpc=0. No rates yet (one snapshot).
  fake_ns = 1'000'000'000ull;
  exporter.tick();
  EXPECT_TRUE(exporter.rates().empty());

  // t=3s (dt=2s): contracts +100 -> 50/s, rpc +7 -> 3.5/s.
  contracts.add(100);
  rpc.add(7);
  fake_ns = 3'000'000'000ull;
  exporter.tick();
  auto rates = exporter.rates();
  EXPECT_DOUBLE_EQ(rates.at("sweep.contracts"), 50.0);
  EXPECT_DOUBLE_EQ(rates.at("contracts_per_s"), 50.0);  // spec'd alias
  EXPECT_DOUBLE_EQ(rates.at("rpc.get_storage_at"), 3.5);

  // t=4s (dt=1s): contracts +30 -> 30/s; rpc unchanged -> 0/s.
  contracts.add(30);
  fake_ns = 4'000'000'000ull;
  exporter.tick();
  rates = exporter.rates();
  EXPECT_DOUBLE_EQ(rates.at("sweep.contracts"), 30.0);
  EXPECT_DOUBLE_EQ(rates.at("contracts_per_s"), 30.0);
  EXPECT_DOUBLE_EQ(rates.at("rpc.get_storage_at"), 0.0);
}

TEST(ExporterTest, CounterResetYieldsPostResetSlopeNotNegativeRate) {
  Registry reg;
  auto& c = reg.counter("sweep.contracts");
  std::uint64_t fake_ns = 0;
  ExporterConfig config;
  config.interval_ms = 0;
  config.clock = [&fake_ns] { return fake_ns; };
  Exporter exporter({&reg}, config);

  c.add(1000);
  fake_ns = 1'000'000'000ull;
  exporter.tick();
  c.reset();  // serving-mode shed between sweeps
  c.add(40);
  fake_ns = 2'000'000'000ull;
  exporter.tick();
  EXPECT_DOUBLE_EQ(exporter.rates().at("sweep.contracts"), 40.0);
}

TEST(ExporterTest, RingEvictsOldestAtCapacity) {
  Registry reg;
  std::uint64_t fake_ns = 0;
  ExporterConfig config;
  config.interval_ms = 0;
  config.ring_capacity = 3;
  config.clock = [&fake_ns] { return fake_ns; };
  Exporter exporter({&reg}, config);

  for (int i = 0; i < 7; ++i) {
    fake_ns += 1'000'000'000ull;
    exporter.tick();
  }
  EXPECT_EQ(exporter.ticks(), 7u);
  const std::vector<TimedSnapshot> series = exporter.series();
  ASSERT_EQ(series.size(), 3u);
  // Oldest first, strictly increasing seq, newest survives.
  EXPECT_EQ(series[0].seq, 4u);
  EXPECT_EQ(series[1].seq, 5u);
  EXPECT_EQ(series[2].seq, 6u);
  EXPECT_EQ(series[2].mono_ns, 7'000'000'000ull);
}

TEST(ExporterTest, RingCapacityClampedToTwoSoRatesAlwaysHaveABaseline) {
  Registry reg;
  reg.counter("c").add(1);
  std::uint64_t fake_ns = 0;
  ExporterConfig config;
  config.interval_ms = 0;
  config.ring_capacity = 0;  // silly value; clamped to 2
  config.clock = [&fake_ns] { return fake_ns; };
  Exporter exporter({&reg}, config);
  for (int i = 0; i < 4; ++i) {
    fake_ns += 1'000'000'000ull;
    exporter.tick();
  }
  EXPECT_EQ(exporter.series().size(), 2u);
  EXPECT_EQ(exporter.rates().count("c"), 1u);
}

TEST(ExporterTest, MergesRegistriesCountersSumGaugesLaterWins) {
  Registry a, b;
  a.counter("shared").add(10);
  b.counter("shared").add(5);
  a.gauge("g").set(1);
  b.gauge("g").set(99);
  Exporter exporter({&a, &b}, [] {
    ExporterConfig c;
    c.interval_ms = 0;
    c.clock = [] { return std::uint64_t{1}; };
    return c;
  }());
  exporter.tick();
  const auto series = exporter.series();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].merged.counters.at("shared"), 15u);
  EXPECT_EQ(series[0].merged.gauges.at("g"), 99);
}

// ---------------------------------------------------------------------------
// Prometheus exposition round-trip: every line must parse back.

// Parses one exposition body; fails the test on any malformed line.
// Returns sample name -> value (histogram buckets keyed name{le=...}).
std::map<std::string, double> parse_prometheus(const std::string& body) {
  std::map<std::string, double> samples;
  std::set<std::string> typed;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t eol = body.find('\n', pos);
    EXPECT_NE(eol, std::string::npos) << "body must end with a newline";
    if (eol == std::string::npos) break;
    const std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::size_t sp = line.find(' ', 7);
      EXPECT_NE(sp, std::string::npos) << line;
      const std::string name = line.substr(7, sp - 7);
      const std::string kind = line.substr(sp + 1);
      EXPECT_TRUE(kind == "counter" || kind == "gauge" || kind == "histogram")
          << line;
      typed.insert(name);
      continue;
    }
    EXPECT_NE(line.front(), '#') << "unexpected comment: " << line;
    // `name value` or `name{le="..."} value`.
    const std::size_t sp = line.rfind(' ');
    EXPECT_NE(sp, std::string::npos) << line;
    if (sp == std::string::npos) continue;
    std::string name = line.substr(0, sp);
    const std::string value = line.substr(sp + 1);
    std::string bare = name;
    const std::size_t brace = name.find('{');
    if (brace != std::string::npos) {
      bare = name.substr(0, brace);
      EXPECT_EQ(name.back(), '}') << line;
      EXPECT_EQ(name.compare(brace, 5, "{le=\""), 0) << line;
    }
    // Sample-name charset: sanitized, no dots.
    for (const char ch : bare) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(ch)) || ch == '_' ||
                  ch == ':')
          << "bad char in " << bare;
    }
    EXPECT_EQ(bare.rfind("proxion_", 0), 0) << bare;
    // Every sample's family must have been announced by a TYPE line.
    bool announced = false;
    for (const char* suffix : {"", "_total", "_bucket", "_sum", "_count"}) {
      std::string family = bare;
      const std::string s = suffix;
      if (!s.empty() && family.size() > s.size() &&
          family.compare(family.size() - s.size(), s.size(), s) == 0) {
        family.resize(family.size() - s.size());
      } else if (!s.empty()) {
        continue;
      }
      if (typed.count(family) != 0 || typed.count(family + "_total") != 0) {
        announced = true;
        break;
      }
    }
    EXPECT_TRUE(announced) << "sample without TYPE line: " << bare;
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    EXPECT_EQ(*end, '\0') << "unparseable value in: " << line;
    samples[name] = v;
  }
  return samples;
}

TEST(PrometheusRenderTest, RoundTripParsesEveryLine) {
  Registry reg;
  reg.counter("sweep.contracts").add(123);
  reg.counter("rpc.get_storage_at").add(7);
  reg.gauge("sweep.shards_total").set(5);
  reg.gauge("negative.gauge").set(-42);
  auto& h = reg.histogram("contract.latency_ns");
  h.record(100);
  h.record(100);
  h.record(50'000);

  std::uint64_t fake_ns = 1'000'000'000ull;
  ExporterConfig config;
  config.interval_ms = 0;
  config.clock = [&fake_ns] { return fake_ns; };
  Exporter exporter({&reg}, config);
  exporter.tick();
  fake_ns = 2'000'000'000ull;
  reg.counter("sweep.contracts").add(10);
  exporter.tick();

  const std::string body = exporter.render_prometheus();
  const auto samples = parse_prometheus(body);

  EXPECT_DOUBLE_EQ(samples.at("proxion_sweep_contracts_total"), 133.0);
  EXPECT_DOUBLE_EQ(samples.at("proxion_rpc_get_storage_at_total"), 7.0);
  EXPECT_DOUBLE_EQ(samples.at("proxion_sweep_shards_total"), 5.0);
  EXPECT_DOUBLE_EQ(samples.at("proxion_negative_gauge"), -42.0);
  // Rate gauges from the last two snapshots (dt=1s, +10 contracts).
  EXPECT_DOUBLE_EQ(samples.at("proxion_contracts_per_s"), 10.0);
  EXPECT_DOUBLE_EQ(samples.at("proxion_sweep_contracts_per_s"), 10.0);
  EXPECT_DOUBLE_EQ(samples.at("proxion_rpc_get_storage_at_per_s"), 0.0);
  // Histogram: +Inf bucket == count, sum exact, buckets cumulative.
  EXPECT_DOUBLE_EQ(samples.at("proxion_contract_latency_ns_count"), 3.0);
  EXPECT_DOUBLE_EQ(samples.at("proxion_contract_latency_ns_sum"), 50'200.0);
  EXPECT_DOUBLE_EQ(
      samples.at("proxion_contract_latency_ns_bucket{le=\"+Inf\"}"), 3.0);
  // Finite buckets, sorted by NUMERIC le (map iteration is lexicographic),
  // must be cumulative and bounded by the +Inf count.
  std::map<double, double> finite_buckets;
  const std::string bucket_prefix = "proxion_contract_latency_ns_bucket{le=\"";
  for (const auto& [name, v] : samples) {
    if (name.rfind(bucket_prefix, 0) != 0) continue;
    const std::string le =
        name.substr(bucket_prefix.size(),
                    name.size() - bucket_prefix.size() - 2);  // strip "}
    if (le == "+Inf") continue;
    finite_buckets[std::strtod(le.c_str(), nullptr)] = v;
  }
  ASSERT_GE(finite_buckets.size(), 2u);  // two occupied boundaries
  double last_cumulative = 0.0;
  for (const auto& [le, v] : finite_buckets) {
    EXPECT_GE(v, last_cumulative) << "buckets must be cumulative at le=" << le;
    EXPECT_LE(v, 3.0);
    last_cumulative = v;
  }
  EXPECT_DOUBLE_EQ(last_cumulative, 3.0);  // all 3 records in finite buckets
}

TEST(PrometheusRenderTest, SelfPrimesWhenRingIsEmpty) {
  Registry reg;
  reg.counter("c").add(9);
  ExporterConfig config;
  config.interval_ms = 0;
  config.clock = [] { return std::uint64_t{1}; };
  Exporter exporter({&reg}, config);
  const std::string body = exporter.render_prometheus();  // no tick() yet
  EXPECT_NE(body.find("proxion_c_total 9\n"), std::string::npos);
  EXPECT_EQ(exporter.ticks(), 1u);
}

// ---------------------------------------------------------------------------
// /healthz JSON schema.

// Minimal structural check: every expected key present, braces balanced,
// no raw control characters.
void expect_healthz_shape(const std::string& json) {
  for (const char* key :
       {"\"status\":", "\"phase\":", "\"sweeps\":", "\"started\":",
        "\"completed\":", "\"contracts\":", "\"total\":", "\"done\":",
        "\"shards\":", "\"committed\":", "\"quarantined\":",
        "\"journal_bytes\":", "\"degraded\":", "\"breaker\":",
        "\"snapshots\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  int depth = 0;
  for (const char ch : json) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    EXPECT_GE(depth, 0);
    EXPECT_GE(ch, 0x20) << "raw control character in healthz JSON";
  }
  EXPECT_EQ(depth, 0) << "unbalanced braces";
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(HealthzTest, ReportsStatusFieldsAndDegradedTransitions) {
  Registry reg;
  ExporterConfig config;
  config.interval_ms = 0;
  config.clock = [] { return std::uint64_t{1}; };
  Exporter exporter({&reg}, config);

  SweepStatus status;
  status.set_phase(SweepPhase::kProxy);
  status.sweeps_started.store(2);
  status.sweeps_completed.store(1);
  status.contracts_total.store(4000);
  status.contracts_done.store(1234);
  status.quarantined.store(3);
  status.shards_total.store(4);
  status.shards_committed.store(2);
  status.journal_bytes.store(65536);
  status.breaker_state.store(0);

  std::string json = exporter.render_healthz(&status);
  expect_healthz_shape(json);
  EXPECT_NE(json.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\":\"proxy\""), std::string::npos);
  EXPECT_NE(json.find("\"total\":4000"), std::string::npos);
  EXPECT_NE(json.find("\"done\":1234"), std::string::npos);
  EXPECT_NE(json.find("\"committed\":2"), std::string::npos);
  EXPECT_NE(json.find("\"quarantined\":3"), std::string::npos);
  EXPECT_NE(json.find("\"journal_bytes\":65536"), std::string::npos);
  EXPECT_NE(json.find("\"breaker\":\"closed\""), std::string::npos);

  // Degraded flag flips the headline status.
  status.degraded.store(true);
  json = exporter.render_healthz(&status);
  EXPECT_NE(json.find("\"status\":\"degraded\""), std::string::npos);
  EXPECT_NE(json.find("\"degraded\":true"), std::string::npos);

  // An open breaker alone is degraded too.
  status.degraded.store(false);
  status.breaker_state.store(1);
  json = exporter.render_healthz(&status);
  EXPECT_NE(json.find("\"status\":\"degraded\""), std::string::npos);
  EXPECT_NE(json.find("\"breaker\":\"open\""), std::string::npos);
}

TEST(HealthzTest, NullStatusRendersIdleDefaults) {
  Registry reg;
  ExporterConfig config;
  config.interval_ms = 0;
  config.clock = [] { return std::uint64_t{1}; };
  Exporter exporter({&reg}, config);
  const std::string json = exporter.render_healthz(nullptr);
  expect_healthz_shape(json);
  EXPECT_NE(json.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\":\"idle\""), std::string::npos);
  EXPECT_NE(json.find("\"breaker\":\"none\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Structured event log.

TEST(EventLogTest, DeterministicNdjsonWithInjectedClocks) {
  std::uint64_t mono = 0;
  EventLogConfig config;
  config.clock = [&mono] { return mono += 1000; };
  config.wall_clock = [] { return std::int64_t{1700000000000}; };
  EventLog log(config);
  log.emit(Severity::kInfo, "pipeline", "sweep started over 10 contracts");
  log.emit(Severity::kWarn, "sweep", "quarantined in fetch: disk_io",
           "0x00000000000000000000000000000000000000aa");
  const std::vector<Event> events = log.recent();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq + 1, events[1].seq);
  EXPECT_EQ(events[0].mono_ns, 1000u);
  EXPECT_EQ(events[1].mono_ns, 2000u);
  const std::string ndjson = log.ndjson();
  // One line per event; every line is an object with the schema keys.
  std::size_t lines = 0, pos = 0, eol;
  while ((eol = ndjson.find('\n', pos)) != std::string::npos) {
    const std::string line = ndjson.substr(pos, eol - pos);
    pos = eol + 1;
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    for (const char* key : {"\"severity\"", "\"mono_ns\"", "\"wall_ms\"",
                            "\"seq\"", "\"component\"", "\"message\""}) {
      EXPECT_NE(line.find(key), std::string::npos) << key << " in " << line;
    }
  }
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(ndjson.find("\"wall_ms\":1700000000000"), std::string::npos);
  EXPECT_NE(ndjson.find("0x00000000000000000000000000000000000000aa"),
            std::string::npos);
}

TEST(EventLogTest, MinSeverityIsSuppressedAndCounted) {
  EventLogConfig config;
  config.min_severity = Severity::kWarn;
  EventLog log(config);
  log.emit(Severity::kDebug, "x", "dropped");
  log.emit(Severity::kInfo, "x", "dropped too");
  log.emit(Severity::kError, "x", "kept");
  EXPECT_EQ(log.emitted(), 1u);
  EXPECT_EQ(log.suppressed(), 2u);
  ASSERT_EQ(log.recent().size(), 1u);
  EXPECT_EQ(log.recent()[0].message, "kept");
}

TEST(EventLogTest, RingOverwritesOldestAtCapacity) {
  EventLogConfig config;
  config.ring_capacity = 3;
  EventLog log(config);
  for (int i = 0; i < 8; ++i) {
    log.emit(Severity::kInfo, "x", "event " + std::to_string(i));
  }
  EXPECT_EQ(log.emitted(), 8u);
  EXPECT_EQ(log.overwritten(), 5u);
  const std::vector<Event> events = log.recent();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].message, "event 5");  // oldest retained
  EXPECT_EQ(events[2].message, "event 7");  // newest
}

TEST(EventLogTest, JsonEscapesQuotesBackslashesAndControlChars) {
  Event e;
  e.component = "x";
  e.message = "quote \" backslash \\ newline \n tab \t";
  const std::string line = EventLog::render_ndjson_line(e);
  EXPECT_NE(line.find("\\\""), std::string::npos);
  EXPECT_NE(line.find("\\\\"), std::string::npos);
  EXPECT_NE(line.find("\\n"), std::string::npos);
  EXPECT_NE(line.find("\\t"), std::string::npos);
  for (const char ch : line) EXPECT_GE(ch, 0x20);
}

// ---------------------------------------------------------------------------
// HTTP server over a real loopback socket.

// Blocking one-shot GET against 127.0.0.1:port; returns the full response
// (status line + headers + body) or "" on connect failure.
std::string http_get(std::uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req =
      "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  std::size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(HttpServerTest, ServesRegisteredPathsOnEphemeralPort) {
  HttpServer server;
  server.handle("/metrics", [](const std::string&) {
    HttpResponse r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = "proxion_up 1\n";
    return r;
  });
  server.handle("/healthz", [](const std::string&) {
    HttpResponse r;
    r.content_type = "application/json";
    r.body = "{\"status\":\"ok\"}";
    return r;
  });
  ASSERT_TRUE(server.start(0));  // ephemeral
  ASSERT_NE(server.port(), 0);

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(metrics.find("Connection: close"), std::string::npos);
  EXPECT_NE(metrics.find("proxion_up 1\n"), std::string::npos);

  const std::string health = http_get(server.port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(health.find("{\"status\":\"ok\"}"), std::string::npos);

  const std::string missing = http_get(server.port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);

  EXPECT_EQ(server.requests_served(), 3u);
  server.stop();
  EXPECT_FALSE(server.running());
  // Stopped server refuses connections (or resets immediately — either way,
  // no 200).
  EXPECT_EQ(http_get(server.port(), "/metrics").find("200"),
            std::string::npos);
}

TEST(HttpServerTest, QueryStringIsSplitOffAndPassedToHandler) {
  HttpServer server;
  std::string seen_query;
  server.handle("/spans", [&seen_query](const std::string& query) {
    seen_query = query;
    HttpResponse r;
    r.body = "ok";
    return r;
  });
  ASSERT_TRUE(server.start(0));
  const std::string resp = http_get(server.port(), "/spans?max=32");
  EXPECT_NE(resp.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_EQ(seen_query, "max=32");
  server.stop();
}

TEST(HttpServerTest, StartFailsOnPortAlreadyInUse) {
  HttpServer a;
  a.handle("/x", [](const std::string&) { return HttpResponse{}; });
  ASSERT_TRUE(a.start(0));
  HttpServer b;
  b.handle("/x", [](const std::string&) { return HttpResponse{}; });
  EXPECT_FALSE(b.start(a.port()));
  a.stop();
}

// ---------------------------------------------------------------------------
// Request-line robustness: seeded fuzz, the whole-request deadline, and the
// socket-option inheritance the server relies on.

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends `raw` verbatim, half-closes, and returns everything the server
/// answers before it closes, or what came within 5 s.
std::string exchange_raw(std::uint16_t port, const std::string& raw) {
  const int fd = connect_loopback(port);
  if (fd < 0) return "";
  const timeval limit{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof limit);
  std::size_t sent = 0;
  while (sent < raw.size()) {
    const ssize_t n =
        ::send(fd, raw.data() + sent, raw.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

/// What the server must answer to `raw`, from the request-line grammar
/// "METHOD SP target SP version CRLF" over its first 8 KiB, with /healthz
/// registered exactly and /v1/ as a prefix; both echo what they receive.
struct Expected {
  int status;
  std::string body;  // empty: not checked (the server's own text)
};

Expected expected_for(const std::string& raw) {
  const std::string request = raw.substr(0, 8192);
  const std::size_t line_end = request.find("\r\n");
  if (line_end == std::string::npos) return {400, ""};
  const std::string line = request.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp1 == sp2) return {400, ""};
  if (line.substr(0, sp1) != "GET") return {405, ""};
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  std::string query;
  const std::size_t q = target.find('?');
  if (q != std::string::npos) {
    query = target.substr(q + 1);
    target.resize(q);
  }
  if (target == "/healthz") return {200, "healthz|" + query};
  if (target.starts_with("/v1/")) return {200, target.substr(4) + "|" + query};
  return {404, ""};
}

/// The fuzz corpus: every shape the request-line parser must survive, from
/// a fixed seed so a failure reproduces.
std::vector<std::string> request_line_corpus() {
  std::mt19937_64 rng(0x5eedf00d);
  const auto pick = [&rng](std::string_view from) {
    return from[rng() % from.size()];
  };
  std::vector<std::string> corpus = {
      "GET /healthz HTTP/1.1\r\n\r\n",
      "GET /healthz HTTP/1.1",           // no CRLF at all
      "GET /healthz HTTP/1.1\n\n",       // bare LFs
      "GET/healthz HTTP/1.1\r\n\r\n",    // a missing space
      "GET /healthzHTTP/1.1\r\n\r\n",    // the other missing space
      "GET\r\n\r\n",
      " \r\n\r\n",
      "\r\n\r\n",
      "GET  /healthz  HTTP/1.1\r\n\r\n",  // doubled spaces
      "GET /v1/a b HTTP/1.1\r\n\r\n",     // a space inside the target
      "GET /healthz HTTP/1.1\r\nHost: x\r\n",  // headers never ended
  };
  for (const std::string& method :
       {std::string("POST"), std::string("PUT"), std::string("HEAD"),
        std::string("get"), std::string("GETS"), std::string(),
        std::string("G\0T", 3)}) {
    corpus.push_back(method + " /healthz HTTP/1.1\r\n\r\n");
  }
  // Embedded NULs, in the method, the target, the query and the version.
  const std::string base = "GET /v1/contract/0xab?class=x HTTP/1.1\r\n\r\n";
  for (std::size_t at = 0; at < base.size() - 4; at += 3) {
    std::string r = base;
    r[at] = '\0';
    corpus.push_back(r);
  }
  // '?' at every position of the request line.
  const std::string plain = "GET /v1/contract/0xab HTTP/1.1";
  for (std::size_t at = 0; at <= plain.size(); ++at) {
    corpus.push_back(plain.substr(0, at) + "?" + plain.substr(at) +
                     "\r\n\r\n");
  }
  // A target that fills the 8 KiB limit exactly, and lines the limit cuts
  // before their CRLF.
  const std::string head = "GET /v1/";
  const std::string tail = " HTTP/1.1\r\n\r\n";
  corpus.push_back(head + std::string(8192 - head.size() - tail.size(), 'a') +
                   tail);
  corpus.push_back(head + std::string(8192 - head.size() - 5, 'b') + " HTTP");
  corpus.push_back(std::string(8192, 'G'));
  // Random lines over the characters the parser splits on.
  for (int i = 0; i < 200; ++i) {
    std::string r;
    const std::size_t len = 1 + rng() % 64;
    for (std::size_t k = 0; k < len; ++k) {
      r += pick(std::string_view("GET /v1?h\r\n\0 az", 15));
    }
    if (rng() % 2 == 0) r = "GET " + r;
    if (rng() % 2 == 0) r += "\r\n\r\n";
    corpus.push_back(r);
  }
  return corpus;
}

TEST(HttpServerTest, FuzzedRequestLinesGetWellFormedAnswers) {
  HttpServer server;
  server.handle("/healthz", [](const std::string& query) {
    HttpResponse r;
    r.body = "healthz|" + query;
    return r;
  });
  server.handle_prefix("/v1/", [](const std::string& rest,
                                   const std::string& query) {
    HttpResponse r;
    r.body = rest + "|" + query;
    return r;
  });
  ASSERT_TRUE(server.start(0));
  const std::vector<std::string> corpus = request_line_corpus();
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const std::string& raw = corpus[i];
    const std::string reply = exchange_raw(server.port(), raw);
    const Expected want = expected_for(raw);
    SCOPED_TRACE("corpus[" + std::to_string(i) + "] (" +
                 std::to_string(raw.size()) + " bytes)");
    ASSERT_GE(reply.size(), 13u);
    EXPECT_EQ(reply.substr(0, 9), "HTTP/1.1 ");
    EXPECT_EQ(std::stoi(reply.substr(9, 3)), want.status);
    EXPECT_EQ(reply[12], ' ');
    const std::size_t line_end = reply.find("\r\n");
    const std::size_t head_end = reply.find("\r\n\r\n");
    ASSERT_NE(head_end, std::string::npos);
    EXPECT_GT(line_end, 13u);  // a reason phrase follows the code
    const std::string body = reply.substr(head_end + 4);
    EXPECT_NE(reply.find("\r\nContent-Length: " + std::to_string(body.size()) +
                         "\r\n"),
              std::string::npos);
    if (!want.body.empty()) {
      EXPECT_EQ(body, want.body);
    }
  }
  EXPECT_EQ(server.requests_served(), corpus.size());
  // Still serving.
  EXPECT_NE(http_get(server.port(), "/healthz").find("HTTP/1.1 200"),
            std::string::npos);
  server.stop();
}

TEST(HttpServerTest, DripClientIsClosedAtTheWholeRequestDeadline) {
  HttpServer server;
  server.handle("/healthz", [](const std::string&) {
    HttpResponse r;
    r.body = "ok";
    return r;
  });
  ASSERT_TRUE(server.start(0));
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  // One byte of a valid request every 0.8 s: each recv is answered well
  // inside a per-recv timeout, so only a whole-request deadline ends it.
  // Eight drips hold a server without one for 6.4 s.
  Clock::time_point drip_closed{};
  std::thread drip([&] {
    const int fd = connect_loopback(server.port());
    if (fd < 0) return;
    const std::string request = "GET /healthz HTTP/1.1\r\n\r\n";
    for (std::size_t i = 0; i < 8; ++i) {
      if (::send(fd, &request[i], 1, MSG_NOSIGNAL) != 1) break;
      pollfd p{fd, POLLIN, 0};
      if (::poll(&p, 1, 800) > 0) {  // an answer or a close
        drip_closed = Clock::now();
        break;
      }
    }
    ::close(fd);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::string health = http_get(server.port(), "/healthz");
  const Clock::time_point health_done = Clock::now();
  drip.join();
  ASSERT_NE(drip_closed, Clock::time_point{}) << "the drip was never closed";
  const auto secs = [](Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  };
  EXPECT_LT(secs(drip_closed - t0), 3.0);
  EXPECT_NE(health.find("HTTP/1.1 200"), std::string::npos);
  // The queued /healthz is answered right after the drip lets go.
  EXPECT_LT(secs(health_done - t0), 3.0);
  EXPECT_LT(secs(health_done - drip_closed), 0.5);
  server.stop();
}

TEST(HttpServerTest, IdleListenerKeepsServingPastTheDeadline) {
  // The listener carries the 2 s receive timeout for its accepted sockets,
  // which also makes an idle accept() return EAGAIN: the server must wait on.
  HttpServer server;
  server.handle("/healthz", [](const std::string&) {
    HttpResponse r;
    r.body = "ok";
    return r;
  });
  ASSERT_TRUE(server.start(0));
  std::this_thread::sleep_for(std::chrono::milliseconds(2300));
  EXPECT_TRUE(server.running());
  EXPECT_EQ(exchange_raw(server.port(), "GET /healthz HTTP/1.1\r\n\r\n")
                .substr(0, 12),
            "HTTP/1.1 200");
  server.stop();
}

TEST(HttpServerTest, AcceptedSocketsInheritTheListenersTimeouts) {
  // HttpServer sets its receive and send timeouts once, on the listener.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  const timeval rcv{3, 0};
  const timeval snd{1, 0};
  ASSERT_EQ(::setsockopt(listener, SOL_SOCKET, SO_RCVTIMEO, &rcv, sizeof rcv),
            0);
  ASSERT_EQ(::setsockopt(listener, SOL_SOCKET, SO_SNDTIMEO, &snd, sizeof snd),
            0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const int client = connect_loopback(ntohs(addr.sin_port));
  ASSERT_GE(client, 0);
  const int accepted = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(accepted, 0);
  for (const int opt : {SO_RCVTIMEO, SO_SNDTIMEO}) {
    timeval on_listener{};
    timeval on_accepted{};
    socklen_t n = sizeof on_listener;
    ASSERT_EQ(::getsockopt(listener, SOL_SOCKET, opt, &on_listener, &n), 0);
    n = sizeof on_accepted;
    ASSERT_EQ(::getsockopt(accepted, SOL_SOCKET, opt, &on_accepted, &n), 0);
    EXPECT_EQ(on_accepted.tv_sec, opt == SO_RCVTIMEO ? rcv.tv_sec : snd.tv_sec);
    EXPECT_EQ(on_accepted.tv_sec, on_listener.tv_sec);
    EXPECT_EQ(on_accepted.tv_usec, on_listener.tv_usec);
  }
  ::close(accepted);
  ::close(client);
  ::close(listener);
}

// ---------------------------------------------------------------------------
// Scrape-during-record concurrency (TSan target).

TEST(ExporterTest, ServedSweepExposesLayoutCounters) {
  // A served sweep's /metrics body must carry the layout counters (global
  // registry: per-inference bumps).
  proxion::datagen::PopulationSpec spec;
  spec.total_contracts = 150;
  proxion::datagen::Population pop =
      proxion::datagen::PopulationGenerator().generate(spec);

  proxion::core::PipelineConfig config;
  config.telemetry.enabled = true;
  proxion::core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  (void)pipeline.run(pop.sweep_inputs());

  ExporterConfig econfig;
  econfig.interval_ms = 0;
  Exporter exporter({&pipeline.registry(), &Registry::global()}, econfig);
  exporter.tick();
  const std::string body = exporter.render_prometheus();
  EXPECT_NE(body.find("proxion_layout_inferred_total"), std::string::npos);

  const auto series = exporter.series();
  ASSERT_FALSE(series.empty());
  EXPECT_GT(series.back().merged.counters.at("layout.inferred"), 0u);
}

TEST(ExporterConcurrencyTest, ScrapesWhileRecordingAreRaceFree) {
  Registry reg;
  auto& c = reg.counter("sweep.contracts");
  auto& g = reg.gauge("sweep.shards_committed");
  auto& h = reg.histogram("contract.latency_ns");

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      std::uint64_t v = static_cast<std::uint64_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        c.add();
        g.set(static_cast<std::int64_t>(v & 0xff));
        h.record(v % 100'000);
        ++v;
      }
    });
  }

  ExporterConfig config;
  config.interval_ms = 0;
  config.ring_capacity = 4;
  Exporter exporter({&reg, &Registry::global()}, config);
  SweepStatus status;
  std::uint64_t last_contracts = 0;
  for (int i = 0; i < 200; ++i) {
    exporter.tick();
    const std::string metrics = exporter.render_prometheus();
    EXPECT_NE(metrics.find("proxion_sweep_contracts_total"),
              std::string::npos);
    expect_healthz_shape(exporter.render_healthz(&status));
    const auto series = exporter.series();
    ASSERT_FALSE(series.empty());
    const std::uint64_t now =
        series.back().merged.counters.at("sweep.contracts");
    EXPECT_GE(now, last_contracts) << "counter went backwards";
    last_contracts = now;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();
}

TEST(ExporterConcurrencyTest, BackgroundThreadTicksAndStopsCleanly) {
  Registry reg;
  reg.counter("c").add(1);
  ExporterConfig config;
  config.interval_ms = 1;
  Exporter exporter({&reg}, config);
  exporter.start();
  exporter.start();  // idempotent
  // Wait for at least three ticks (first is immediate).
  for (int i = 0; i < 2000 && exporter.ticks() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(exporter.ticks(), 3u);
  exporter.stop();
  exporter.stop();  // idempotent
  const std::uint64_t after = exporter.ticks();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(exporter.ticks(), after) << "thread kept ticking after stop";
}

}  // namespace
