// Tests of the observability layer (src/obs/): the flight recorder —
// concurrent emitters render to valid Chrome trace_event JSON (parsed
// by an in-test JSON parser), ring overflow drops the oldest events
// and ticks dropped_events, a disabled tracer records nothing — the
// tracing bit-identity contract (InProcess / spawn-host / loopback results
// are bitwise equal with tracing on vs off), fleet-sweep trace
// coverage (a deal/steal/retry/speculate instant covers every cell and
// a settle instant names every index), the MetricsRegistry Prometheus
// exposition (counter families with labels, gauges, histogram
// buckets), HistogramMetric quantiles on the phonocd latency layout,
// the phonocd broker's stats lines and Prometheus exposition rendering
// from its one registry, and the loopback --prom-port HTTP scrape
// server, every scrape counted in stats_requests.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/batch_engine.hpp"
#include "exec/sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/prom_http.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"
#include "service/broker.hpp"
#include "util/strings.hpp"
#include "workloads/generator.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define PHONOC_TEST_SOCKETS 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#else
#define PHONOC_TEST_SOCKETS 0
#endif

#ifndef PHONOC_WORKER_PATH
#define PHONOC_WORKER_PATH "phonoc_workerd"
#endif

namespace phonoc {
namespace {

// --- a minimal JSON DOM + recursive-descent parser --------------------------
// Just enough JSON to load a Chrome trace: objects, arrays, strings,
// numbers, true/false/null. Throws std::runtime_error on malformed
// input, which is exactly what the validity tests assert never happens.

struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : members)
      if (k == key) return &v;
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing bytes after the document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("JSON error at byte " + std::to_string(pos_) +
                             ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string();
      case 't': return parse_literal("true", {.type = JsonValue::Type::Bool,
                                              .boolean = true});
      case 'f': return parse_literal("false", {.type = JsonValue::Type::Bool,
                                               .boolean = false});
      case 'n': return parse_literal("null", {});
      default: return parse_number();
    }
  }

  JsonValue parse_literal(std::string_view word, JsonValue value) {
    if (text_.substr(pos_, word.size()) != word)
      fail("bad literal, expected " + std::string(word));
    pos_ += word.size();
    return value;
  }

  JsonValue parse_string() {
    expect('"');
    JsonValue value;
    value.type = JsonValue::Type::String;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return value;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("raw control character inside a string");
      if (c != '\\') {
        value.text += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': value.text += '"'; break;
        case '\\': value.text += '\\'; break;
        case '/': value.text += '/'; break;
        case 'b': value.text += '\b'; break;
        case 'f': value.text += '\f'; break;
        case 'n': value.text += '\n'; break;
        case 'r': value.text += '\r'; break;
        case 't': value.text += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // The traces under test only escape control bytes; a basic
          // one-byte decode keeps the parser honest without a full
          // UTF-16 surrogate dance.
          value.text += static_cast<char>(code & 0xFF);
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    JsonValue value;
    value.type = JsonValue::Type::Number;
    try {
      value.number = std::stod(std::string(text_.substr(start, pos_ - start)));
    } catch (const std::exception&) {
      fail("unparseable number");
    }
    return value;
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue value;
    value.type = JsonValue::Type::Array;
    if (consume(']')) return value;
    while (true) {
      value.items.push_back(parse_value());
      if (consume(']')) return value;
      expect(',');
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue value;
    value.type = JsonValue::Type::Object;
    if (consume('}')) return value;
    while (true) {
      JsonValue key = parse_string();
      expect(':');
      value.members.emplace_back(std::move(key.text), parse_value());
      if (consume('}')) return value;
      expect(',');
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Render the recorder's current contents and parse them back.
JsonValue parsed_trace() {
  std::ostringstream out;
  obs::write_chrome_trace(out);
  return JsonParser(out.str()).parse();
}

/// The "traceEvents" array of a parsed trace (asserts it exists).
const std::vector<JsonValue>& events_of(const JsonValue& trace) {
  const JsonValue* events = trace.find("traceEvents");
  EXPECT_NE(events, nullptr);
  EXPECT_EQ(events->type, JsonValue::Type::Array);
  return events->items;
}

std::string str_field(const JsonValue& event, const char* key) {
  const JsonValue* field = event.find(key);
  return field && field->type == JsonValue::Type::String ? field->text : "";
}

double arg_number(const JsonValue& event, const char* key) {
  const JsonValue* args = event.find("args");
  if (!args) return -1.0;
  const JsonValue* field = args->find(key);
  return field && field->type == JsonValue::Type::Number ? field->number
                                                         : -1.0;
}

/// Leaves the recorder disabled, empty and back at the default ring
/// capacity whatever a test did to it.
struct TracerReset {
  ~TracerReset() {
    obs::set_trace_buffer_capacity(65536);
    obs::start_tracing();  // discards the rings
    obs::stop_tracing();
  }
};

// --- tracer -----------------------------------------------------------------

TEST(Trace, DisabledTracerRecordsNothing) {
  TracerReset reset;
  obs::start_tracing();
  obs::stop_tracing();  // rings now empty, recorder off
  ASSERT_FALSE(obs::trace_enabled());
  obs::trace_instant("test", "ghost");
  {
    obs::TraceSpan span("test", "ghost_span");
    span.arg({"i", std::uint64_t{7}});
  }
  EXPECT_EQ(obs::trace_event_count(), 0u);
  EXPECT_EQ(obs::trace_dropped_events(), 0u);
  const auto trace = parsed_trace();  // still a valid, empty document
  EXPECT_TRUE(events_of(trace).empty());
}

TEST(Trace, ConcurrentEmittersRenderValidJson) {
  TracerReset reset;
  obs::start_tracing();
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 500;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        obs::trace_instant("test", "tick", {"thread", std::uint64_t(t)},
                           {"i", std::uint64_t(i)},
                           {"label", std::string_view("a \"quoted\"\nvalue")});
        obs::TraceSpan span("test", "work");
        span.arg({"thread", std::uint64_t(t)});
        obs::trace_instant("test", "progress", {"value", double(i)});
      }
    });
  for (auto& thread : threads) thread.join();
  obs::stop_tracing();

  // 3 events per iteration, no ring anywhere near its 64k capacity.
  EXPECT_EQ(obs::trace_event_count(), kThreads * kPerThread * 3);
  EXPECT_EQ(obs::trace_dropped_events(), 0u);

  const auto trace = parsed_trace();
  const auto& events = events_of(trace);
  ASSERT_EQ(events.size(), kThreads * kPerThread * 3);
  std::size_t ticks = 0, spans = 0, counters = 0;
  std::set<double> tids;
  for (const auto& event : events) {
    const std::string ph = str_field(event, "ph");
    ASSERT_TRUE(ph == "i" || ph == "X") << ph;
    EXPECT_EQ(str_field(event, "cat"), "test");
    ASSERT_NE(event.find("ts"), nullptr);
    ASSERT_NE(event.find("pid"), nullptr);
    ASSERT_NE(event.find("tid"), nullptr);
    tids.insert(event.find("tid")->number);
    const std::string name = str_field(event, "name");
    if (name == "tick") {
      ++ticks;
      EXPECT_EQ(str_field(*event.find("args"), "label"),
                "a \"quoted\"\nvalue");
    } else if (name == "work") {
      ++spans;
      ASSERT_NE(event.find("dur"), nullptr);  // complete events carry dur
    } else if (name == "progress") {
      ++counters;
    }
  }
  EXPECT_EQ(ticks, kThreads * kPerThread);
  EXPECT_EQ(spans, kThreads * kPerThread);
  EXPECT_EQ(counters, kThreads * kPerThread);
  EXPECT_EQ(tids.size(), kThreads);  // one ring (and tid) per thread
}

TEST(Trace, RingOverflowDropsOldestAndCounts) {
  TracerReset reset;
  constexpr std::size_t kCapacity = 128;
  constexpr std::size_t kEmitted = 1000;
  obs::set_trace_buffer_capacity(kCapacity);
  obs::start_tracing();
  // One fresh thread = one fresh ring of exactly kCapacity events.
  std::thread([] {
    for (std::size_t i = 0; i < kEmitted; ++i)
      obs::trace_instant("test", "tick", {"i", std::uint64_t(i)});
  }).join();
  obs::stop_tracing();

  EXPECT_EQ(obs::trace_event_count(), kCapacity);
  EXPECT_EQ(obs::trace_dropped_events(), kEmitted - kCapacity);

  // The survivors are exactly the newest kCapacity events, oldest
  // first, and the drop count is surfaced in the document itself.
  const auto trace = parsed_trace();
  const auto& events = events_of(trace);
  ASSERT_EQ(events.size(), kCapacity);
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(arg_number(events[i], "i"),
              double(kEmitted - kCapacity + i));
  const JsonValue* other = trace.find("otherData");
  ASSERT_NE(other, nullptr);
  const JsonValue* dropped = other->find("dropped_events");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->number, double(kEmitted - kCapacity));
}

// --- bit-identity: tracing is read-only -------------------------------------

/// 1 x 1 x 1 x 2 optimizers x 1 x 3 seeds = 6 cells; small enough for
/// three execution paths x two runs each, big enough to cross every
/// instrumented seam.
SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.add_workload("p5", pipeline_cg(5))
      .add_topology(TopologyKind::Mesh)
      .add_goal(OptimizationGoal::Snr)
      .add_optimizers({"rs", "rpbla"})
      .add_budget(30)
      .add_seed_range(1, 3);
  return spec;
}

void expect_bit_identical(const std::vector<CellResult>& traced,
                          const std::vector<CellResult>& untraced) {
  ASSERT_EQ(traced.size(), untraced.size());
  for (std::size_t i = 0; i < traced.size(); ++i) {
    ASSERT_EQ(traced[i].status, CellStatus::Ok) << traced[i].error;
    ASSERT_EQ(untraced[i].status, CellStatus::Ok) << untraced[i].error;
    const auto& g = traced[i].run;
    const auto& w = untraced[i].run;
    EXPECT_EQ(g.algorithm, w.algorithm);
    EXPECT_TRUE(g.search.best == w.search.best);
    EXPECT_EQ(g.search.best_fitness, w.search.best_fitness);  // bitwise
    EXPECT_EQ(g.search.evaluations, w.search.evaluations);
    EXPECT_EQ(g.search.iterations, w.search.iterations);
    EXPECT_EQ(g.best_evaluation.worst_loss_db,
              w.best_evaluation.worst_loss_db);
    EXPECT_EQ(g.best_evaluation.worst_snr_db, w.best_evaluation.worst_snr_db);
  }
}

/// The grid on `hosts` through the Scheduler.
std::vector<CellResult> run_fleet(const SweepSpec& spec,
                                  std::vector<std::string> hosts) {
  SchedulerOptions options;
  options.hosts = std::move(hosts);
  return Scheduler(std::move(options)).run(spec).results;
}

TEST(Trace, BitIdentityInProcessTracingOnVsOff) {
  TracerReset reset;
  const auto spec = tiny_spec();
  const BatchEngine engine({.workers = 2});
  obs::stop_tracing();
  const auto untraced = engine.run(spec);
  obs::start_tracing();
  const auto traced = engine.run(spec);
  obs::stop_tracing();
  EXPECT_GT(obs::trace_event_count(), 0u);  // the traced run did record
  expect_bit_identical(traced, untraced);
}

TEST(Trace, BitIdentitySpawnHostsTracingOnVsOff) {
  TracerReset reset;
  const auto spec = tiny_spec();
  const std::vector<std::string> hosts(
      2, std::string("spawn:") + PHONOC_WORKER_PATH);
  obs::stop_tracing();
  const auto untraced = run_fleet(spec, hosts);
  obs::start_tracing();
  const auto traced = run_fleet(spec, hosts);
  obs::stop_tracing();
  EXPECT_GT(obs::trace_event_count(), 0u);
  expect_bit_identical(traced, untraced);
}

TEST(Trace, BitIdentityRemoteLoopbackTracingOnVsOff) {
  TracerReset reset;
  const auto spec = tiny_spec();
  obs::stop_tracing();
  const auto untraced = run_fleet(spec, {"loopback", "loopback"});
  obs::start_tracing();
  const auto traced = run_fleet(spec, {"loopback", "loopback"});
  obs::stop_tracing();
  EXPECT_GT(obs::trace_event_count(), 0u);
  expect_bit_identical(traced, untraced);
}

// --- fleet-sweep trace coverage ---------------------------------------------

TEST(Trace, LoopbackFleetSweepCoversEveryCell) {
  TracerReset reset;
  const auto spec = tiny_spec();
  const std::size_t cells = cell_count(spec);
  obs::start_tracing();
  SchedulerOptions options;
  options.hosts = {"loopback", "loopback"};
  options.cells_per_shard = 2;
  const auto outcome = Scheduler(std::move(options)).run(spec);
  obs::stop_tracing();
  ASSERT_EQ(outcome.results.size(), cells);

  const auto trace = parsed_trace();
  std::vector<bool> dealt(cells, false);
  std::set<std::size_t> settled;
  std::size_t sweep_spans = 0, unit_spans = 0, shard_spans = 0;
  for (const auto& event : events_of(trace)) {
    const std::string name = str_field(event, "name");
    if (name == "deal" || name == "retry" || name == "steal" ||
        name == "speculate") {
      const auto begin = static_cast<std::size_t>(arg_number(event, "begin"));
      const auto end = static_cast<std::size_t>(arg_number(event, "end"));
      ASSERT_LE(end, cells);
      for (std::size_t i = begin; i < end; ++i) dealt[i] = true;
    } else if (name == "settle") {
      settled.insert(static_cast<std::size_t>(arg_number(event, "index")));
    } else if (name == "sweep") {
      ++sweep_spans;
    } else if (name == "unit") {
      ++unit_spans;
    } else if (name == "serve_shard") {
      ++shard_spans;
    }
  }
  // Every cell was dealt through some acquire path and settled exactly
  // once; the scheduler and the worker side both left their spans.
  for (std::size_t i = 0; i < cells; ++i)
    EXPECT_TRUE(dealt[i]) << "cell " << i << " never dealt";
  ASSERT_EQ(settled.size(), cells);
  EXPECT_EQ(*settled.begin(), 0u);
  EXPECT_EQ(*settled.rbegin(), cells - 1);
  EXPECT_EQ(sweep_spans, 1u);
  EXPECT_GT(unit_spans, 0u);
  EXPECT_GT(shard_spans, 0u);
}

// --- MetricsRegistry --------------------------------------------------------

TEST(Metrics, RegistryRendersPrometheusExposition) {
  obs::MetricsRegistry registry;  // local: independent of the global one
  auto& plain = registry.counter("phonoc_test_ops_total", "Ops so far.");
  auto& own = registry.counter("phonoc_test_units_total", "Units by path.",
                               {{"path", "own"}});
  auto& steal = registry.counter("phonoc_test_units_total", "Units by path.",
                                 {{"path", "steal"}});
  auto& depth = registry.gauge("phonoc_test_depth", "Queue depth.");
  auto& wall = registry.histogram("phonoc_test_wall_seconds",
                                  "Wall time per op.", {0.1, 1.0, 10.0});
  plain.inc();
  plain.inc(41);
  own.inc(7);
  steal.inc(2);
  depth.set(3.5);
  wall.observe(0.05);
  wall.observe(0.5);
  wall.observe(0.5);
  wall.observe(99.0);

  // Re-registering the same name + labels returns the same instance.
  EXPECT_EQ(&own, &registry.counter("phonoc_test_units_total", "ignored",
                                    {{"path", "own"}}));
  EXPECT_EQ(plain.value(), 42u);
  EXPECT_EQ(wall.count(), 4u);
  EXPECT_EQ(wall.cumulative(0), 1u);  // <= 0.1
  EXPECT_EQ(wall.cumulative(1), 3u);  // <= 1.0
  EXPECT_EQ(wall.cumulative(2), 3u);  // <= 10.0
  EXPECT_EQ(wall.cumulative(3), 4u);  // +Inf

  const std::string text = registry.render_prometheus();
  EXPECT_NE(text.find("# HELP phonoc_test_ops_total Ops so far.\n"
                      "# TYPE phonoc_test_ops_total counter\n"
                      "phonoc_test_ops_total 42\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("phonoc_test_units_total{path=\"own\"} 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("phonoc_test_units_total{path=\"steal\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE phonoc_test_depth gauge\n"
                      "phonoc_test_depth 3.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("phonoc_test_wall_seconds_bucket{le=\"0.1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("phonoc_test_wall_seconds_bucket{le=\"1\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("phonoc_test_wall_seconds_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("phonoc_test_wall_seconds_count 4\n"),
            std::string::npos);
  // One family header even with two labelled instances.
  std::size_t unit_headers = 0, from = 0;
  while ((from = text.find("# TYPE phonoc_test_units_total counter",
                           from)) != std::string::npos) {
    ++unit_headers;
    ++from;
  }
  EXPECT_EQ(unit_headers, 1u);
  // Label values escape per the exposition format.
  (void)registry.counter("phonoc_test_weird_total", "Escaping.",
                         {{"value", "a\"b\\c\nd"}});
  EXPECT_NE(registry.render_prometheus().find(
                "phonoc_test_weird_total{value=\"a\\\"b\\\\c\\nd\"} 0\n"),
            std::string::npos);
}

// --- HistogramMetric quantiles ----------------------------------------------

/// Index of the bucket holding `value` (bounds.size() is the +Inf one).
std::size_t bucket_of(const std::vector<double>& bounds, double value) {
  return static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), value) - bounds.begin());
}

TEST(Metrics, HistogramQuantilesResolveMillisecondsAndStayUnderTheMax) {
  // phonocd's latency layout must resolve what the service serves: 100
  // requests spread evenly over 3-5 ms. A quantile may be off by one
  // bucket, never above the slowest observation.
  const auto bounds = latency_buckets();
  ASSERT_EQ(bounds.front(), 1e-4);
  ASSERT_EQ(bounds.back(), 100.0);
  ASSERT_GE(bounds.size(), 6u * 4u + 1u);  // >= 4 per decade
  obs::HistogramMetric wall(bounds);
  EXPECT_EQ(wall.quantile(0.99), 0.0);  // empty
  for (int i = 0; i < 100; ++i) wall.observe(3e-3 + 2e-3 * i / 99.0);
  EXPECT_DOUBLE_EQ(wall.max(), 5e-3);
  EXPECT_NEAR(wall.mean(), 4e-3, 1e-9);

  const double p50 = wall.quantile(0.5);
  const double p99 = wall.quantile(0.99);
  const auto buckets_apart = [&](double got, double want) {
    const std::size_t a = bucket_of(bounds, got);
    const std::size_t b = bucket_of(bounds, want);
    return a > b ? a - b : b - a;
  };
  EXPECT_LE(buckets_apart(p50, 4e-3), 1u) << p50;
  EXPECT_LE(buckets_apart(p99, 5e-3), 1u) << p99;
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, wall.max());
}

TEST(Metrics, HistogramStaysConsistentUnderConcurrentObservers) {
  // Broker workers observe while a scrape reads: every observation
  // lands, the max is exact, and a quantile never exceeds the max read
  // after it.
  obs::HistogramMetric wall(latency_buckets());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::atomic<bool> done{false};
  bool ordered = true;
  std::thread reader([&] {
    while (!done.load()) {
      const double p99 = wall.quantile(0.99);
      if (p99 > wall.max()) ordered = false;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([&wall, t] {
      for (int i = 0; i < kPerThread; ++i)
        wall.observe(1e-4 * (1 + (i + t) % 1000));
    });
  for (auto& writer : writers) writer.join();
  done.store(true);
  reader.join();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(wall.count(), std::uint64_t{kThreads * kPerThread});
  EXPECT_EQ(wall.cumulative(wall.bounds().size()), wall.count());
  EXPECT_EQ(wall.max(), 1e-4 * 1000);
}

// --- the phonocd broker renders from one registry ---------------------------

TEST(Metrics, BrokerStatsAndPrometheusRenderFromOneRegistry) {
  BrokerOptions options;
  options.workers = 1;
  RequestBroker broker(options);

  // The `stats` / --stats-csv lines that CI greps and perfbench parses:
  // these 39 names, in this order.
  const std::vector<std::string> catalog{
      "queue_depth", "queue_depth_interactive", "queue_depth_bulk",
      "in_flight_cells", "in_flight_requests", "uptime_seconds",
      "connections", "requests_accepted", "requests_completed",
      "requests_failed", "requests_canceled", "shed_overloaded",
      "shed_budget", "shed_deadline", "shed_shutdown", "shed_per_client",
      "requests_interactive", "requests_bulk", "interactive_overtakes",
      "requests_malformed", "stats_requests", "single_evaluations",
      "cells_ok", "cells_failed", "evaluator_cache_hits",
      "evaluator_cache_misses", "evaluator_cache_evictions",
      "problem_cache_hits", "problem_cache_misses",
      "problem_cache_evictions", "wall_p50_seconds", "wall_p90_seconds",
      "wall_p99_seconds", "wall_max_seconds", "wall_mean_seconds",
      "wait_interactive_p50_seconds", "wait_interactive_p99_seconds",
      "wait_bulk_p50_seconds", "wait_bulk_p99_seconds"};
  ASSERT_EQ(catalog.size(), 39u);
  std::vector<std::string> names;
  for (const auto& [name, value] : broker.stats()) names.push_back(name);
  EXPECT_EQ(names, catalog);

  // The framed `stats` body: the same lines as `name value`; the scrape
  // counts itself.
  std::vector<std::string> text_names;
  for (const auto& line : split(broker.scrape(StatsFormat::Text), '\n')) {
    if (trim(line).empty()) continue;
    const auto space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << line;
    text_names.push_back(line.substr(0, space));
    if (text_names.back() == "stats_requests") {
      EXPECT_EQ(line.substr(space + 1), "1");
    }
  }
  EXPECT_EQ(text_names, catalog);

  // Prometheus: every counter and gauge as phonocd_<name>, and the
  // latency distributions as histogram families, not quantile gauges.
  const std::string prom = broker.scrape(StatsFormat::Prometheus);
  EXPECT_NE(prom.find("# TYPE phonocd_requests_accepted counter\n"
                      "phonocd_requests_accepted 0\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# TYPE phonocd_queue_depth gauge\n"),
            std::string::npos);
  EXPECT_NE(prom.find("\nphonocd_stats_requests 2\n"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE phonocd_wall_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(prom.find("phonocd_wall_seconds_bucket{le=\"0.0001\"} 0\n"),
            std::string::npos);
  EXPECT_NE(prom.find("phonocd_wait_seconds_bucket{lane=\"interactive\","
                      "le=\"+Inf\"} 0\n"),
            std::string::npos);
  EXPECT_NE(prom.find("phonocd_wait_seconds_count{lane=\"bulk\"} 0\n"),
            std::string::npos);
  EXPECT_EQ(prom.find("_p99_seconds"), std::string::npos);
  EXPECT_EQ(prom.find("phonocd_wall_max_seconds"), std::string::npos);
}

// --- the --prom-port HTTP scrape server -------------------------------------

#if PHONOC_TEST_SOCKETS

std::string http_get(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(PromHttp, ServesTheRenderOverLoopback) {
  std::string body = "# HELP t_up Up.\n# TYPE t_up gauge\nt_up 1\n";
  obs::PromHttpServer server(0, [&body] { return body; });
  ASSERT_NE(server.port(), 0);

  const std::string response = http_get(
      server.port(), "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  const auto split_at = response.find("\r\n\r\n");
  ASSERT_NE(split_at, std::string::npos);
  EXPECT_EQ(response.substr(split_at + 4), body);
  EXPECT_NE(response.find("Content-Length: " +
                          std::to_string(body.size()) + "\r\n"),
            std::string::npos);

  // A second scrape sees fresh state (the render runs per request).
  body = "t_up 2\n";
  const std::string again =
      http_get(server.port(), "GET / HTTP/1.0\r\n\r\n");
  EXPECT_NE(again.find("t_up 2\n"), std::string::npos);
}

TEST(PromHttp, EveryHttpScrapeCountsInStatsRequests) {
  // The --prom-port listener renders through the broker's scrape path,
  // so HTTP scrapes count in stats_requests like framed ones.
  BrokerOptions options;
  options.workers = 1;
  RequestBroker broker(options);
  obs::PromHttpServer server(
      0, [&broker] { return broker.scrape(StatsFormat::Prometheus); });
  const std::string get = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  const std::string first = http_get(server.port(), get);
  const std::string second = http_get(server.port(), get);
  EXPECT_NE(first.find("\nphonocd_stats_requests 1\n"), std::string::npos);
  EXPECT_NE(second.find("\nphonocd_stats_requests 2\n"), std::string::npos);
  EXPECT_EQ(broker.stat("stats_requests"), 2);
}

#endif  // PHONOC_TEST_SOCKETS

}  // namespace
}  // namespace phonoc
