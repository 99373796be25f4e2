#pragma once
/// \file registry.hpp
/// \brief Name-based topology factory (the architecture-description
/// extension point for new topologies).

#include <functional>
#include <string>

#include "topology/topology.hpp"

namespace phonoc {

/// Factory signature: rows/cols/pitch are passed through from the
/// architecture description (a factory may ignore what it doesn't need,
/// e.g. the ring uses rows*cols tiles).
using TopologyFactory = std::function<Topology(const GridOptions&)>;

void register_topology(const std::string& name, TopologyFactory factory);

/// Instantiate by name; built-ins: "mesh", "torus", "ring".
[[nodiscard]] Topology make_topology(const std::string& name,
                                     const GridOptions& options);

}  // namespace phonoc
