#include "service/cache.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <utility>

#include "exec/serialize.hpp"

namespace phonoc {

ServiceCache::ServiceCache(Options options, EvaluatorOptions evaluator,
                           obs::MetricsRegistry& registry)
    : options_(options),
      evaluator_options_(evaluator),
      hits_(registry.counter("phonocd_problem_cache_hits",
                             "Parsed-problem cache hits.")),
      misses_(registry.counter("phonocd_problem_cache_misses",
                               "Parsed-problem cache misses.")),
      evictions_(registry.counter("phonocd_problem_cache_evictions",
                                  "Parsed-problem cache evictions.")) {}

std::string ServiceCache::key_of(const SweepSpec& spec,
                                 const SweepCell& cell) {
  // A single-coordinate spec carrying exactly the fields that determine
  // the constructed problem. The swept optimizer/budget/seed dimensions
  // and the task kind are deliberately dropped: they parameterize the
  // search, not the problem.
  SweepSpec sub;
  sub.router = spec.router;
  sub.tile_pitch_mm = spec.tile_pitch_mm;
  sub.parameters = spec.parameters;
  sub.model_options = spec.model_options;
  sub.workloads = {spec.workloads[cell.workload]};
  sub.topologies = {spec.topologies[cell.topology]};
  // Pin the resolved side so an auto-sized topology ("side 0") shares
  // its slot with the equivalent explicit side.
  sub.topologies[0].side = resolved_side(spec, cell.workload, cell.topology);
  sub.goals = {spec.goals[cell.goal]};
  std::ostringstream out;
  write_spec(out, sub);
  return out.str();
}

void ServiceCache::touch(Slot& slot) const {
  lru_.splice(lru_.begin(), lru_, slot.lru_it);
}

std::shared_ptr<const MappingProblem> ServiceCache::problem(
    const SweepSpec& spec, const SweepCell& cell, const std::string& key) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = slots_.find(key); it != slots_.end()) {
      hits_.inc();
      touch(it->second);
      return it->second.problem;
    }
    misses_.inc();
  }
  // Build outside the lock: construction is the expensive part, and
  // holding the mutex through it would stall every concurrent broker
  // worker behind one large network build — even workers after cached
  // problems of *other* keys.
  auto problem = std::make_shared<const MappingProblem>(
      make_problem(spec, cell, make_cell_network(spec, cell.workload,
                                                 cell.topology)));
  const std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = slots_.find(key); it != slots_.end()) {
    // A concurrent builder of the same key won the insert race. Adopt
    // its copy and drop ours — construction is deterministic (same
    // spec coordinate, same problem), so the copies are equivalent.
    touch(it->second);
    return it->second.problem;
  }
  lru_.push_front(key);
  slots_.emplace(key, Slot{problem, {}, lru_.begin()});
  while (slots_.size() > options_.max_problems && !lru_.empty()) {
    slots_.erase(lru_.back());
    lru_.pop_back();
    evictions_.inc();
  }
  return problem;
}

ServiceCache::Lease ServiceCache::checkout(const std::string& key,
                                           ServiceLane lane,
                                           const MappingProblem& problem,
                                           std::uint64_t affinity) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = slots_.find(key);
    if (it != slots_.end() && it->second.problem.get() == &problem &&
        !it->second.idle_in(lane).empty()) {
      auto& idle = it->second.idle_in(lane);
      auto pick = std::prev(idle.end());
      for (auto i = idle.begin(); i != idle.end(); ++i)
        if (std::find(i->searches.begin(), i->searches.end(), affinity) !=
            i->searches.end())
          pick = i;
      Lease lease = std::move(*pick);
      idle.erase(pick);
      return lease;
    }
  }
  return Lease{std::make_unique<Evaluator>(problem, evaluator_options_), {}};
}

void ServiceCache::checkin(const std::string& key, ServiceLane lane,
                           Lease lease, std::uint64_t affinity) {
  auto& searches = lease.searches;
  std::erase(searches, affinity);
  searches.push_back(affinity);
  if (searches.size() > kRecentSearches) searches.erase(searches.begin());
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = slots_.find(key);
  if (it == slots_.end() ||
      it->second.problem.get() != &lease.evaluator->problem())
    return;  // the slot's problem is gone: so is this Evaluator
  it->second.idle_in(lane).push_back(std::move(lease));
}

}  // namespace phonoc
