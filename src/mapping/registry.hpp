#pragma once
/// \file registry.hpp
/// \brief Name-based optimizer factory — the "mapping optimization
/// strategies" extension point (paper Fig. 1, block 4).

#include <memory>
#include <string>

#include "mapping/optimizer.hpp"

namespace phonoc {

/// Instantiate by name; built-ins: "rs", "ga", "rpbla", "sa", "tabu",
/// "exhaustive". ("greedy" needs CG + topology context and is built by
/// the core Engine instead.)
[[nodiscard]] std::unique_ptr<MappingOptimizer> make_optimizer(
    const std::string& name);

}  // namespace phonoc
