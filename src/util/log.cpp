#include "util/log.hpp"

#include <iostream>

namespace phonoc {

void log_message(LogLevel level, const char* subsystem,
                 const std::string& message) {
  std::string line = "[phonoc ";
  line += level == LogLevel::Warning ? "WARN " : "ERROR";
  if (subsystem != nullptr && subsystem[0] != '\0') {
    line += ' ';
    line += subsystem;
  }
  line += "] " + message + '\n';
  // One insertion per line so concurrent worker-thread logs cannot
  // interleave mid-line.
  std::cerr << line;
}

}  // namespace phonoc
