#pragma once
/// \file registry.hpp
/// \brief Name-based router factory, the tool's extension point for new
/// optical router microarchitectures (paper Fig. 1: the architecture
/// description names a router; users can register their own).

#include <functional>
#include <string>

#include "router/netlist.hpp"

namespace phonoc {

using RouterFactory = std::function<RouterNetlist()>;

/// Register a router under `name` (case-insensitive); replaces any
/// previous registration with the same name.
void register_router(const std::string& name, RouterFactory factory);

/// Instantiate a registered router; throws InvalidArgument for unknown
/// names (message lists the registered ones). Built-ins: "crux",
/// "crossbar", "xy_crossbar", "parallel".
[[nodiscard]] RouterNetlist make_router_netlist(const std::string& name);

}  // namespace phonoc
