#include "router/registry.hpp"

#include <map>

#include "router/crossbar.hpp"
#include "router/crux.hpp"
#include "router/parallel_router.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace phonoc {

namespace {

std::map<std::string, RouterFactory>& registry() {
  static std::map<std::string, RouterFactory> instance = [] {
    std::map<std::string, RouterFactory> m;
    m["crux"] = [] { return build_crux(); };
    m["crossbar"] = [] { return build_crossbar(); };
    m["xy_crossbar"] = [] {
      CrossbarOptions options;
      options.xy_legal_only = true;
      return build_crossbar(options);
    };
    m["parallel"] = [] { return build_parallel_router(); };
    return m;
  }();
  return instance;
}

}  // namespace

void register_router(const std::string& name, RouterFactory factory) {
  require(!name.empty(), "register_router: empty name");
  require(factory != nullptr, "register_router: null factory");
  registry()[to_lower(name)] = std::move(factory);
}

RouterNetlist make_router_netlist(const std::string& name) {
  const auto it = registry().find(to_lower(name));
  if (it == registry().end()) {
    std::string known;
    for (const auto& [key, unused] : registry()) {
      if (!known.empty()) known += ", ";
      known += key;
    }
    throw InvalidArgument("unknown router '" + name + "' (registered: " +
                          known + ")");
  }
  return it->second();
}

}  // namespace phonoc
