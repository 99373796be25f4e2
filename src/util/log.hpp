#pragma once
/// \file log.hpp
/// \brief Warning and error lines on stderr.
///
/// The library is silent in normal operation: it logs only what an
/// operator must see, a warning (a host died, a late joiner was refused)
/// or an error. Call sites may name their subsystem —
/// `log_warning("sched") << ...` — and every sched and service line
/// does, so a daemon's interleaved stderr can be filtered by layer. One
/// line per message: `[phonoc WARN  sched] message`, or
/// `[phonoc WARN ] message` untagged.

#include <sstream>
#include <string>

namespace phonoc {

enum class LogLevel { Warning, Error };

/// Emit a single log line. `subsystem` is a short static tag ("exec",
/// "sched", "service", ...); empty means untagged.
void log_message(LogLevel level, const char* subsystem,
                 const std::string& message);

namespace detail {
class LogStream {
 public:
  explicit LogStream(LogLevel level, const char* subsystem = "") noexcept
      : level_(level), subsystem_(subsystem) {}
  ~LogStream() { log_message(level_, subsystem_, stream_.str()); }
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;

  template <typename T>
  LogStream& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  const char* subsystem_;
  std::ostringstream stream_;
};
}  // namespace detail

[[nodiscard]] inline detail::LogStream log_warning(
    const char* subsystem = "") {
  return detail::LogStream(LogLevel::Warning, subsystem);
}
[[nodiscard]] inline detail::LogStream log_error(const char* subsystem = "") {
  return detail::LogStream(LogLevel::Error, subsystem);
}

}  // namespace phonoc
