#include "mapping/registry.hpp"

#include <functional>
#include <map>

#include "mapping/annealing.hpp"
#include "mapping/exhaustive.hpp"
#include "mapping/genetic.hpp"
#include "mapping/random_search.hpp"
#include "mapping/rpbla.hpp"
#include "mapping/tabu.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace phonoc {

namespace {

using OptimizerFactory = std::function<std::unique_ptr<MappingOptimizer>()>;

const std::map<std::string, OptimizerFactory>& registry() {
  static const std::map<std::string, OptimizerFactory> instance = [] {
    std::map<std::string, OptimizerFactory> m;
    m["rs"] = [] { return std::make_unique<RandomSearch>(); };
    m["ga"] = [] { return std::make_unique<GeneticAlgorithm>(); };
    m["rpbla"] = [] { return std::make_unique<Rpbla>(); };
    m["sa"] = [] { return std::make_unique<SimulatedAnnealing>(); };
    m["tabu"] = [] { return std::make_unique<TabuSearch>(); };
    m["exhaustive"] = [] { return std::make_unique<ExhaustiveSearch>(); };
    return m;
  }();
  return instance;
}

}  // namespace

std::unique_ptr<MappingOptimizer> make_optimizer(const std::string& name) {
  const auto it = registry().find(to_lower(name));
  if (it == registry().end()) {
    std::string known;
    for (const auto& [key, unused] : registry()) {
      if (!known.empty()) known += ", ";
      known += key;
    }
    throw InvalidArgument("unknown optimizer '" + name + "' (registered: " +
                          known + ")");
  }
  return it->second();
}

}  // namespace phonoc
