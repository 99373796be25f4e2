#include "util/strings.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>

#include "util/error.hpp"

namespace phonoc {

std::string_view trim(std::string_view text) noexcept {
  const auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
  while (!text.empty() && is_space(static_cast<unsigned char>(text.front())))
    text.remove_prefix(1);
  while (!text.empty() && is_space(static_cast<unsigned char>(text.back())))
    text.remove_suffix(1);
  return text;
}

std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const auto pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> split_ws(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  const auto is_space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  while (i < text.size()) {
    while (i < text.size() && is_space(text[i])) ++i;
    std::size_t start = i;
    while (i < text.size() && !is_space(text[i])) ++i;
    if (i > start) out.emplace_back(text.substr(start, i - start));
  }
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) noexcept {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

double parse_double(std::string_view text, int line) {
  text = trim(text);
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    throw ParseError("expected a real number, got '" + std::string(text) + "'",
                     line);
  return value;
}

long parse_long(std::string_view text, int line) {
  text = trim(text);
  long value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    throw ParseError("expected an integer, got '" + std::string(text) + "'",
                     line);
  return value;
}

std::string format_fixed(double value, int digits) {
  std::ostringstream out;
  out.precision(digits);
  out << std::fixed << value;
  return out.str();
}

std::string format_double(double value) {
  // Non-finite spellings vary across standard libraries (MSVC prints
  // "nan(ind)"); emit the canonical from_chars tokens so every value —
  // including NaN/±Inf metrics — round-trips through parse_double.
  if (std::isnan(value)) return std::signbit(value) ? "-nan" : "nan";
  if (std::isinf(value)) return std::signbit(value) ? "-inf" : "inf";
  // `general` at max_digits10 is printf's %.17g: the same bytes the
  // ostream rendering produced, without building a stream per value.
  char buffer[32];
  const auto [end, ec] =
      std::to_chars(buffer, buffer + sizeof buffer, value,
                    std::chars_format::general,
                    std::numeric_limits<double>::max_digits10);
  (void)ec;  // 32 bytes hold any %.17g rendering (at most 24)
  return std::string(buffer, end);
}

}  // namespace phonoc
