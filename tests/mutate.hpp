#pragma once
// Seeded byte-level mutation of real wire and journal text, for the
// tests asserting that every parser either accepts an input or throws
// a phonoc::Error.

#include <cstddef>
#include <random>
#include <string>

namespace phonoc {

/// 1-4 seeded edits of `text`: overwrite a byte with anything or with a
/// digit, insert a run of digits (so counts grow huge), delete a span,
/// or truncate.
inline std::string mutate(std::string text, std::mt19937_64& rng) {
  const auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  const auto digit = [&] { return static_cast<char>('0' + pick(10)); };
  for (std::size_t edits = 1 + pick(4); edits > 0 && !text.empty(); --edits) {
    const std::size_t at = pick(text.size());
    switch (pick(5)) {
      case 0: text[at] = static_cast<char>(pick(256)); break;
      case 1: text[at] = digit(); break;
      case 2:
        for (std::size_t n = 1 + pick(12); n > 0; --n)
          text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), digit());
        break;
      case 3: text.erase(at, 1 + pick(8)); break;
      default: text.resize(at); break;
    }
  }
  return text;
}

}  // namespace phonoc
