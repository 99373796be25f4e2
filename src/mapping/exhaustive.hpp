#pragma once
/// \file exhaustive.hpp
/// \brief Exhaustive enumeration of injective mappings (ground truth on
/// tiny instances; used by the integration tests to certify the
/// heuristics).

#include "mapping/optimizer.hpp"

namespace phonoc {

class ExhaustiveSearch final : public MappingOptimizer {
 public:
  [[nodiscard]] std::string name() const override { return "exhaustive"; }
  /// Enumerates all P(tiles, tasks) assignments in lexicographic order;
  /// stops early when the budget runs out (partial enumeration). The
  /// number of complete assignments visited is reported in
  /// OptimizerResult::iterations.
  [[nodiscard]] OptimizerResult optimize(FitnessFunction& fitness,
                                         std::size_t task_count,
                                         std::size_t tile_count,
                                         const OptimizerBudget& budget,
                                         std::uint64_t seed) const override;
};

}  // namespace phonoc
