#pragma once
/// \file cli.hpp
/// \brief Tiny command-line / environment option reader used by the
/// examples and benchmark harnesses (no external dependency).
///
/// Options use `--name=value` or `--name value` syntax; `--flag` alone is
/// a boolean true. Environment fallbacks allow the bench suite to be
/// scaled globally (e.g. PHONOC_FULL=1) without editing command lines.

#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/strings.hpp"

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
  /// `--name` as a signed integer; unsigned counts read `get_uint`.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  /// `--name` as an unsigned `T` (`fallback` when absent). Throws
  /// InvalidArgument naming the flag for a negative value or one `T`
  /// cannot hold, which a cast from `get_int` would silently wrap.
  template <typename T>
  [[nodiscard]] T get_uint(const std::string& name, T fallback) const {
    const auto value = get(name);
    if (!value) return fallback;
    try {
      return parse_uint<T>(*value);
    } catch (const ParseError& e) {
      throw InvalidArgument("--" + name + ": " + e.what());
    }
  }
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

/// The environment variable `name` as an unsigned `T` (`fallback` when
/// unset or empty). Throws InvalidArgument naming the variable for a
/// negative, garbled or out-of-range value, which a signed read and a
/// cast would wrap into a near-2^64 budget.
template <typename T>
[[nodiscard]] T env_uint(const char* name, T fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  try {
    return parse_uint<T>(raw);
  } catch (const ParseError& e) {
    throw InvalidArgument(std::string(name) + ": " + e.what());
  }
}

/// True when PHONOC_FULL is set to a non-zero count; the bench harness
/// uses this to switch to paper-scale sample counts.
[[nodiscard]] bool full_scale_requested();

}  // namespace phonoc
