#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "util/log.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace phonoc::obs {
namespace {

constexpr std::size_t kDefaultRingCapacity = 1 << 16;

/// One recorded event. Fixed size so the ring never allocates while
/// recording; `args` copies short strings, everything else is POD.
struct Event {
  enum class Kind : std::uint8_t { Complete, Instant };
  Kind kind = Kind::Instant;
  std::uint8_t arg_count = 0;
  const char* category = nullptr;
  const char* name = nullptr;
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;  ///< Complete spans only
  TraceArg args[kMaxTraceArgs];
};

/// One thread's bounded ring. The owning thread appends under `mutex`;
/// contention only ever comes from a flush, so the lock is effectively
/// private (uncontended) while recording.
struct ThreadRing {
  explicit ThreadRing(std::size_t capacity, std::uint64_t tid)
      : events(capacity), tid(tid) {}

  std::mutex mutex;
  std::vector<Event> events;  ///< sized once; never reallocates
  std::size_t next = 0;       ///< ring cursor
  std::size_t count = 0;      ///< live events (<= events.size())
  std::uint64_t dropped = 0;  ///< overwritten because the ring was full
  std::uint64_t tid = 0;      ///< registration-order thread id

  void push(const Event& event) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (count == events.size()) ++dropped;  // overwrite the oldest
    else ++count;
    events[next] = event;
    next = (next + 1) % events.size();
  }
};

struct Recorder {
  std::atomic<bool> enabled{false};
  std::atomic<std::int64_t> epoch_ns{0};  ///< steady_clock origin
  std::atomic<std::uint64_t> generation{0};
  std::atomic<std::size_t> ring_capacity{kDefaultRingCapacity};

  /// Rings of every thread that emitted since the last start_tracing(),
  /// kept alive (shared_ptr) past thread exit so a flush at the end of
  /// main() still sees them.
  std::mutex registry_mutex;
  std::vector<std::shared_ptr<ThreadRing>> rings;
  std::uint64_t next_tid = 1;
};

Recorder& recorder() {
  static Recorder instance;
  return instance;
}

std::uint64_t now_ns() noexcept {
  const auto now =
      std::chrono::steady_clock::now().time_since_epoch();
  const std::int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
  const std::int64_t epoch =
      recorder().epoch_ns.load(std::memory_order_relaxed);
  return ns > epoch ? static_cast<std::uint64_t>(ns - epoch) : 0;
}

/// The calling thread's ring for the current recording generation,
/// registered on first use (and re-registered after start_tracing()
/// bumped the generation).
ThreadRing& local_ring() {
  thread_local std::shared_ptr<ThreadRing> ring;
  thread_local std::uint64_t ring_generation = ~std::uint64_t{0};
  Recorder& rec = recorder();
  const std::uint64_t generation =
      rec.generation.load(std::memory_order_acquire);
  if (!ring || ring_generation != generation) {
    const std::lock_guard<std::mutex> lock(rec.registry_mutex);
    ring = std::make_shared<ThreadRing>(
        rec.ring_capacity.load(std::memory_order_relaxed), rec.next_tid++);
    rec.rings.push_back(ring);
    ring_generation = generation;
  }
  return *ring;
}

void emit(Event event) {
  event.ts_ns = event.ts_ns != 0 ? event.ts_ns : now_ns();
  local_ring().push(event);
}

void append_json_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
}

/// A JSON number that is always finite and parseable: Chrome's trace
/// format has no Inf/NaN, so those render as null.
void append_json_number(std::string& out, double value) {
  if (!(value == value) || value > 1.7e308 || value < -1.7e308) {
    out += "null";
    return;
  }
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  out += buffer;
}

void append_args(std::string& out, const Event& event) {
  out += "\"args\":{";
  for (std::uint8_t i = 0; i < event.arg_count; ++i) {
    const TraceArg& arg = event.args[i];
    if (i > 0) out += ',';
    out += '"';
    append_json_escaped(out, arg.key ? arg.key : "arg");
    out += "\":";
    char buffer[32];
    switch (arg.type) {
      case TraceArg::Type::Int:
        std::snprintf(buffer, sizeof buffer, "%" PRId64, arg.i);
        out += buffer;
        break;
      case TraceArg::Type::Uint:
        std::snprintf(buffer, sizeof buffer, "%" PRIu64, arg.u);
        out += buffer;
        break;
      case TraceArg::Type::Float:
        append_json_number(out, arg.f);
        break;
      case TraceArg::Type::Text:
        out += '"';
        append_json_escaped(out, arg.text);
        out += '"';
        break;
      case TraceArg::Type::None:
        out += "null";
        break;
    }
  }
  out += '}';
}

void append_event(std::string& out, const Event& event, long pid,
                  std::uint64_t tid) {
  char buffer[96];
  out += "{\"ph\":\"";
  switch (event.kind) {
    case Event::Kind::Complete: out += 'X'; break;
    case Event::Kind::Instant: out += 'i'; break;
  }
  out += "\",\"cat\":\"";
  append_json_escaped(out, event.category ? event.category : "phonoc");
  out += "\",\"name\":\"";
  append_json_escaped(out, event.name ? event.name : "?");
  // Chrome expects microseconds; keep nanosecond resolution as decimals.
  std::snprintf(buffer, sizeof buffer,
                "\",\"pid\":%ld,\"tid\":%" PRIu64 ",\"ts\":%.3f", pid, tid,
                static_cast<double>(event.ts_ns) / 1e3);
  out += buffer;
  if (event.kind == Event::Kind::Complete) {
    std::snprintf(buffer, sizeof buffer, ",\"dur\":%.3f",
                  static_cast<double>(event.dur_ns) / 1e3);
    out += buffer;
  }
  if (event.kind == Event::Kind::Instant) out += ",\"s\":\"t\"";
  out += ',';
  append_args(out, event);
  out += '}';
}

}  // namespace

bool trace_enabled() noexcept {
  return recorder().enabled.load(std::memory_order_relaxed);
}

void start_tracing() {
  Recorder& rec = recorder();
  {
    const std::lock_guard<std::mutex> lock(rec.registry_mutex);
    rec.rings.clear();
    rec.next_tid = 1;
  }
  rec.epoch_ns.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now().time_since_epoch())
                         .count(),
                     std::memory_order_relaxed);
  // The generation bump makes every thread re-register its ring lazily;
  // release pairs with the acquire in local_ring().
  rec.generation.fetch_add(1, std::memory_order_release);
  rec.enabled.store(true, std::memory_order_relaxed);
}

void stop_tracing() {
  recorder().enabled.store(false, std::memory_order_relaxed);
}

std::uint64_t trace_dropped_events() {
  Recorder& rec = recorder();
  const std::lock_guard<std::mutex> lock(rec.registry_mutex);
  std::uint64_t dropped = 0;
  for (const auto& ring : rec.rings) {
    const std::lock_guard<std::mutex> ring_lock(ring->mutex);
    dropped += ring->dropped;
  }
  return dropped;
}

std::uint64_t trace_event_count() {
  Recorder& rec = recorder();
  const std::lock_guard<std::mutex> lock(rec.registry_mutex);
  std::uint64_t count = 0;
  for (const auto& ring : rec.rings) {
    const std::lock_guard<std::mutex> ring_lock(ring->mutex);
    count += ring->count;
  }
  return count;
}

void set_trace_buffer_capacity(std::size_t events) {
  recorder().ring_capacity.store(events > 0 ? events : 1,
                                 std::memory_order_relaxed);
}

void write_chrome_trace(std::ostream& out) {
  Recorder& rec = recorder();
  long pid = 1;
#if defined(__unix__) || defined(__APPLE__)
  pid = static_cast<long>(::getpid());
#endif
  // Snapshot the ring list, then drain each ring under its own lock;
  // threads still emitting append behind the snapshot point, which is
  // the best any flush of a live system can promise.
  std::vector<std::shared_ptr<ThreadRing>> rings;
  {
    const std::lock_guard<std::mutex> lock(rec.registry_mutex);
    rings = rec.rings;
  }
  std::string json;
  json += "{\"traceEvents\":[";
  bool first = true;
  std::uint64_t dropped = 0;
  for (const auto& ring : rings) {
    const std::lock_guard<std::mutex> ring_lock(ring->mutex);
    dropped += ring->dropped;
    // Oldest first: a full ring's oldest record sits at the cursor.
    const std::size_t capacity = ring->events.size();
    const std::size_t start =
        ring->count == capacity ? ring->next : (ring->next - ring->count);
    for (std::size_t i = 0; i < ring->count; ++i) {
      if (!first) json += ",\n";
      first = false;
      append_event(json, ring->events[(start + i) % capacity], pid,
                   ring->tid);
    }
  }
  char buffer[96];
  std::snprintf(buffer, sizeof buffer,
                "],\"displayTimeUnit\":\"ms\",\"otherData\":{"
                "\"dropped_events\":%" PRIu64 "}}",
                dropped);
  json += buffer;
  out << json;
}

bool write_chrome_trace_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    log_error("obs") << "cannot open trace file '" << path << "' for writing";
    return false;
  }
  write_chrome_trace(out);
  out.flush();
  if (!out) {
    log_error("obs") << "writing trace file '" << path << "' failed";
    return false;
  }
  return true;
}

void trace_instant(const char* category, const char* name) {
  if (!trace_enabled()) return;
  Event event;
  event.kind = Event::Kind::Instant;
  event.category = category;
  event.name = name;
  emit(event);
}

void trace_instant(const char* category, const char* name, TraceArg a0) {
  if (!trace_enabled()) return;
  Event event;
  event.kind = Event::Kind::Instant;
  event.category = category;
  event.name = name;
  event.arg_count = 1;
  event.args[0] = a0;
  emit(event);
}

void trace_instant(const char* category, const char* name, TraceArg a0,
                   TraceArg a1) {
  if (!trace_enabled()) return;
  Event event;
  event.kind = Event::Kind::Instant;
  event.category = category;
  event.name = name;
  event.arg_count = 2;
  event.args[0] = a0;
  event.args[1] = a1;
  emit(event);
}

void trace_instant(const char* category, const char* name, TraceArg a0,
                   TraceArg a1, TraceArg a2) {
  if (!trace_enabled()) return;
  Event event;
  event.kind = Event::Kind::Instant;
  event.category = category;
  event.name = name;
  event.arg_count = 3;
  event.args[0] = a0;
  event.args[1] = a1;
  event.args[2] = a2;
  emit(event);
}

TraceSpan::TraceSpan(const char* category, const char* name) noexcept
    : armed_(trace_enabled()), category_(category), name_(name) {
  if (armed_) begin_ns_ = now_ns();
}

void TraceSpan::arg(TraceArg value) noexcept {
  if (!armed_ || arg_count_ >= kMaxTraceArgs) return;
  args_[arg_count_++] = value;
}

TraceSpan::~TraceSpan() {
  if (!armed_) return;
  Event event;
  event.kind = Event::Kind::Complete;
  event.category = category_;
  event.name = name_;
  event.ts_ns = begin_ns_;
  const std::uint64_t end = now_ns();
  event.dur_ns = end > begin_ns_ ? end - begin_ns_ : 0;
  event.arg_count = arg_count_;
  for (std::uint8_t i = 0; i < arg_count_; ++i) event.args[i] = args_[i];
  emit(event);
}

}  // namespace phonoc::obs
