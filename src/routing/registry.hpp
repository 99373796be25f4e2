#pragma once
/// \file registry.hpp
/// \brief Name-based routing-algorithm factory.

#include <memory>
#include <string>

#include "routing/route.hpp"

namespace phonoc {

/// Instantiate by name; built-ins: "xy", "yx", "torus_dor".
[[nodiscard]] std::unique_ptr<RoutingAlgorithm> make_routing(
    const std::string& name);

}  // namespace phonoc
