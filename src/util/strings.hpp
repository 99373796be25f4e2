#pragma once
/// \file strings.hpp
/// \brief Small string helpers shared by the IO and reporting layers.

#include <charconv>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "util/error.hpp"

namespace phonoc {

/// Strip leading/trailing whitespace.
[[nodiscard]] std::string_view trim(std::string_view text) noexcept;

/// Split on a delimiter; empty fields are preserved.
[[nodiscard]] std::vector<std::string> split(std::string_view text, char delim);

/// Split on arbitrary whitespace runs; empty fields are dropped.
[[nodiscard]] std::vector<std::string> split_ws(std::string_view text);

/// True when `text` begins with `prefix`.
[[nodiscard]] bool starts_with(std::string_view text,
                               std::string_view prefix) noexcept;

/// Lower-case ASCII copy.
[[nodiscard]] std::string to_lower(std::string_view text);

/// Parse helpers that throw phonoc::ParseError on malformed input.
[[nodiscard]] double parse_double(std::string_view text, int line = -1);
[[nodiscard]] long parse_long(std::string_view text, int line = -1);

/// The one parser of unsigned wire and file integers: decimal digits
/// only, read straight into `T`, so a sign, a stray character or a value
/// `T` cannot hold throws ParseError instead of wrapping or narrowing.
template <typename T>
[[nodiscard]] T parse_uint(std::string_view text, int line = -1) {
  static_assert(std::is_unsigned_v<T>, "parse_uint: T must be unsigned");
  text = trim(text);
  T value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec == std::errc::result_out_of_range)
    throw ParseError("'" + std::string(text) + "' exceeds the maximum " +
                         std::to_string(std::numeric_limits<T>::max()),
                     line);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    throw ParseError(
        "expected an unsigned integer, got '" + std::string(text) + "'", line);
  return value;
}

/// Format a double with fixed precision (reporting convenience).
[[nodiscard]] std::string format_fixed(double value, int digits);

/// Round-trippable double formatting (max_digits10) for CSV output.
[[nodiscard]] std::string format_double(double value);

}  // namespace phonoc
