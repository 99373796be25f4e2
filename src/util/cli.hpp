#pragma once
/// \file cli.hpp
/// \brief Tiny command-line / environment option reader used by the
/// examples and benchmark harnesses (no external dependency).
///
/// Options use `--name=value` or `--name value` syntax; `--flag` alone is
/// a boolean true. Environment fallbacks allow the bench suite to be
/// scaled globally (e.g. PHONOC_FULL=1) without editing command lines.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace phonoc {

class CliOptions {
 public:
  CliOptions(int argc, const char* const* argv);

  /// Positional (non-option) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  [[nodiscard]] bool has(const std::string& name) const noexcept;
  [[nodiscard]] std::optional<std::string> get(const std::string& name) const;
  [[nodiscard]] std::string get_or(const std::string& name,
                                   const std::string& fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;
  /// `--name` as a TCP port (`fallback` when absent). Throws
  /// InvalidArgument for a value outside 0-65535, which a narrowing
  /// cast would silently wrap onto another port.
  [[nodiscard]] std::uint16_t get_port(const std::string& name,
                                       std::uint16_t fallback) const;

 private:
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

/// Read an environment variable as integer with fallback.
[[nodiscard]] std::int64_t env_int(const char* name, std::int64_t fallback);

/// True when PHONOC_FULL is set to a non-zero / non-empty value; the bench
/// harness uses this to switch to paper-scale sample counts.
[[nodiscard]] bool full_scale_requested();

}  // namespace phonoc
