#include "routing/registry.hpp"

#include <functional>
#include <map>

#include "routing/torus_dor.hpp"
#include "routing/xy.hpp"
#include "routing/yx.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace phonoc {

namespace {

using RoutingFactory = std::function<std::unique_ptr<RoutingAlgorithm>()>;

const std::map<std::string, RoutingFactory>& registry() {
  static const std::map<std::string, RoutingFactory> instance = [] {
    std::map<std::string, RoutingFactory> m;
    m["xy"] = [] { return std::make_unique<XyRouting>(); };
    m["yx"] = [] { return std::make_unique<YxRouting>(); };
    m["torus_dor"] = [] { return std::make_unique<TorusDorRouting>(); };
    return m;
  }();
  return instance;
}

}  // namespace

std::unique_ptr<RoutingAlgorithm> make_routing(const std::string& name) {
  const auto it = registry().find(to_lower(name));
  if (it == registry().end()) {
    std::string known;
    for (const auto& [key, unused] : registry()) {
      if (!known.empty()) known += ", ";
      known += key;
    }
    throw InvalidArgument("unknown routing '" + name + "' (registered: " +
                          known + ")");
  }
  return it->second();
}

}  // namespace phonoc
