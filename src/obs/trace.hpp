#pragma once
/// \file trace.hpp
/// \brief The flight recorder: lock-light structured tracing shared by
/// every layer (exec, sched, service).
///
/// Each thread that emits events owns a bounded ring buffer of
/// fixed-size records; emitting is a relaxed atomic check plus a write
/// into thread-local storage (no allocation, no blocking, no
/// cross-thread contention on the hot path). When the ring is full the
/// oldest event is overwritten and a `dropped_events` counter ticks —
/// tracing never stalls the traced system. A flush walks every ring
/// (including rings of threads that have already exited) and renders
/// Chrome `trace_event` JSON that chrome://tracing and Perfetto load
/// directly; `parallel_sweep`, `phonoc_workerd` and `phonocd` expose it
/// as `--trace=FILE`.
///
/// Event model (see src/obs/README.md):
///  - span: a named duration on one thread (TraceSpan RAII emits one
///    "X" complete event on destruction);
///  - instant: a point event ("i").
/// Category and name must be string literals (their pointers are stored,
/// not their bytes). Args are a small typed list — integers, doubles,
/// or short strings truncated to fit the record — so a span can carry
/// the cell index or request id that stitches one cell's journey across
/// threads and processes.
///
/// Overhead contract: with tracing disabled (the default) every emit
/// path is one relaxed atomic load and a branch; nothing is written,
/// timestamped or locked. Tracing is strictly read-only with respect to
/// results: it never touches RNGs, evaluation state, the wire format or
/// the journal, so traced runs stay bit-identical to untraced ones.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string>
#include <string_view>

namespace phonoc::obs {

/// Is the flight recorder on? Relaxed load; safe from any thread.
[[nodiscard]] bool trace_enabled() noexcept;

/// Arm the recorder: reset the epoch, clear old rings and start
/// recording. Idempotent (a second call just resets the clock).
void start_tracing();

/// Stop recording. Events already in the rings stay flushable.
void stop_tracing();

/// Events overwritten because a ring was full, summed over all threads
/// (including exited ones).
[[nodiscard]] std::uint64_t trace_dropped_events();

/// Events currently held in the rings, summed over all threads.
[[nodiscard]] std::uint64_t trace_event_count();

/// Per-thread ring capacity in events. Takes effect for rings created
/// after the call (start_tracing() discards existing rings, so set this
/// before arming). The default is 64k events per thread.
void set_trace_buffer_capacity(std::size_t events);

/// Render everything recorded so far as Chrome trace_event JSON
/// (object format: {"traceEvents": [...], ...}). Always valid JSON,
/// whatever mix of threads emitted concurrently before the flush.
void write_chrome_trace(std::ostream& out);

/// write_chrome_trace into `path`; false (with a log line) when the
/// file cannot be written. The one-liner behind every --trace=FILE.
bool write_chrome_trace_file(const std::string& path);

/// One typed argument of an event. Keys must be string literals;
/// string values are copied (and truncated) into the record.
struct TraceArg {
  enum class Type : std::uint8_t { None, Int, Uint, Float, Text };
  static constexpr std::size_t kTextCapacity = 23;

  const char* key = nullptr;
  Type type = Type::None;
  union {
    std::int64_t i;
    std::uint64_t u;
    double f;
  };
  char text[kTextCapacity + 1] = {};

  TraceArg() : i(0) {}
  TraceArg(const char* k, std::int64_t value) : key(k), type(Type::Int), i(value) {}
  TraceArg(const char* k, std::uint64_t value) : key(k), type(Type::Uint), u(value) {}
  TraceArg(const char* k, double value) : key(k), type(Type::Float), f(value) {}
  TraceArg(const char* k, std::string_view value) : key(k), type(Type::Text), i(0) {
    const std::size_t n = value.size() < kTextCapacity ? value.size() : kTextCapacity;
    std::memcpy(text, value.data(), n);
    text[n] = '\0';
  }
};

inline constexpr std::size_t kMaxTraceArgs = 3;

/// Emit one point event. No-op when tracing is off.
void trace_instant(const char* category, const char* name);
void trace_instant(const char* category, const char* name, TraceArg a0);
void trace_instant(const char* category, const char* name, TraceArg a0,
                   TraceArg a1);
void trace_instant(const char* category, const char* name, TraceArg a0,
                   TraceArg a1, TraceArg a2);

/// RAII span: construction stamps the begin time, destruction emits one
/// complete ("X") event covering the scope. When tracing is off the
/// constructor is a relaxed load and a branch, and nothing else runs.
class TraceSpan {
 public:
  TraceSpan(const char* category, const char* name) noexcept;
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attach an argument (at most kMaxTraceArgs; extras are dropped).
  /// Cheap no-op on a disarmed span.
  void arg(TraceArg value) noexcept;

 private:
  bool armed_;
  std::uint8_t arg_count_ = 0;
  const char* category_;
  const char* name_;
  std::uint64_t begin_ns_ = 0;
  TraceArg args_[kMaxTraceArgs];
};

}  // namespace phonoc::obs
