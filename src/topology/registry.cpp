#include "topology/registry.hpp"

#include <map>

#include "topology/mesh.hpp"
#include "topology/ring.hpp"
#include "topology/torus.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace phonoc {

namespace {

std::map<std::string, TopologyFactory>& registry() {
  static std::map<std::string, TopologyFactory> instance = [] {
    std::map<std::string, TopologyFactory> m;
    m["mesh"] = [](const GridOptions& o) { return build_mesh(o); };
    m["torus"] = [](const GridOptions& o) {
      TorusOptions to;
      to.rows = o.rows;
      to.cols = o.cols;
      to.tile_pitch_mm = o.tile_pitch_mm;
      return build_torus(to);
    };
    m["ring"] = [](const GridOptions& o) {
      RingOptions ro;
      ro.tiles = o.rows * o.cols;
      ro.tile_pitch_mm = o.tile_pitch_mm;
      return build_ring(ro);
    };
    return m;
  }();
  return instance;
}

}  // namespace

void register_topology(const std::string& name, TopologyFactory factory) {
  require(!name.empty(), "register_topology: empty name");
  require(factory != nullptr, "register_topology: null factory");
  registry()[to_lower(name)] = std::move(factory);
}

Topology make_topology(const std::string& name, const GridOptions& options) {
  const auto it = registry().find(to_lower(name));
  if (it == registry().end()) {
    std::string known;
    for (const auto& [key, unused] : registry()) {
      if (!known.empty()) known += ", ";
      known += key;
    }
    throw InvalidArgument("unknown topology '" + name + "' (registered: " +
                          known + ")");
  }
  return it->second(options);
}

}  // namespace phonoc
