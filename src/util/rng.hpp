#pragma once
/// \file rng.hpp
/// \brief Deterministic, seedable random number generation.
///
/// All stochastic components of PhoNoCMap (random search, GA, R-PBLA
/// restarts, workload generators) draw from this engine so that every
/// experiment is reproducible from a single 64-bit seed. The engine is
/// xoshiro256** (public domain, Blackman & Vigna), seeded via SplitMix64.

#include <array>
#include <cstdint>
#include <vector>

namespace phonoc {

/// SplitMix64 step; used for seeding and for hashing seeds into streams.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** engine. Satisfies UniformRandomBitGenerator so it can be
/// plugged into <random> distributions when needed, but the common paths
/// (uniform ints/doubles, shuffles) are provided as members to keep
/// behaviour identical across standard libraries.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seed with a single 64-bit value (expanded via SplitMix64).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  /// Next raw 64-bit value.
  result_type operator()() noexcept;

  /// Uniform integer in [0, bound). `bound` must be > 0.
  [[nodiscard]] std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double next_double() noexcept;

  /// Bernoulli trial with success probability `p`.
  [[nodiscard]] bool next_bool(double p) noexcept;

  /// Fisher-Yates shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& values) noexcept {
    for (std::size_t i = values.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  /// Derive an independent child stream (e.g. one per optimizer restart).
  [[nodiscard]] Rng fork() noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace phonoc
