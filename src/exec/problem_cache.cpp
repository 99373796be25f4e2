#include "exec/problem_cache.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <utility>

#include "exec/serialize.hpp"

namespace phonoc {
namespace {

/// A single-coordinate spec carrying the fields that determine the
/// coordinate's network: the architecture knobs and its topology, with
/// the resolved side pinned so an auto-sized topology ("side 0") shares
/// with the equivalent explicit side.
SweepSpec architecture_of(const SweepSpec& spec, const SweepCell& cell) {
  SweepSpec sub;
  sub.router = spec.router;
  sub.tile_pitch_mm = spec.tile_pitch_mm;
  sub.parameters = spec.parameters;
  sub.model_options = spec.model_options;
  sub.topologies = {spec.topologies[cell.topology]};
  sub.topologies[0].side = resolved_side(spec, cell.workload, cell.topology);
  return sub;
}

std::string serialized(const SweepSpec& spec) {
  std::ostringstream out;
  write_spec(out, spec);
  return out.str();
}

void count(obs::Counter* counter) {
  if (counter) counter->inc();
}

}  // namespace

ProblemCache::ProblemCache() = default;

ProblemCache::ProblemCache(Options options, EvaluatorOptions evaluator,
                           obs::MetricsRegistry& registry)
    : options_(options),
      evaluator_options_(evaluator),
      hits_(&registry.counter("phonocd_problem_cache_hits",
                              "Parsed-problem cache hits.")),
      misses_(&registry.counter("phonocd_problem_cache_misses",
                                "Parsed-problem cache misses.")),
      evictions_(&registry.counter("phonocd_problem_cache_evictions",
                                   "Parsed-problem cache evictions.")) {}

std::string ProblemCache::key_of(const SweepSpec& spec,
                                 const SweepCell& cell) {
  // The architecture plus the workload and goal. The swept
  // optimizer/budget/seed dimensions and the task kind are deliberately
  // dropped: they parameterize the search, not the problem.
  SweepSpec sub = architecture_of(spec, cell);
  sub.workloads = {spec.workloads[cell.workload]};
  sub.goals = {spec.goals[cell.goal]};
  return serialized(sub);
}

void ProblemCache::touch(Slot& slot) const {
  lru_.splice(lru_.begin(), lru_, slot.lru_it);
}

std::shared_ptr<const MappingProblem> ProblemCache::problem(
    const SweepSpec& spec, const SweepCell& cell, const std::string& key) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = slots_.find(key); it != slots_.end()) {
      count(hits_);
      touch(it->second);
      return it->second.problem;
    }
    count(misses_);
  }
  // Build outside the lock: construction is the expensive part, and
  // holding the mutex through it would stall every concurrent broker
  // worker behind one large network build — even workers after cached
  // problems of *other* keys.
  const std::string architecture = serialized(architecture_of(spec, cell));
  std::shared_ptr<const NetworkModel> network;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = networks_.find(architecture); it != networks_.end())
      network = it->second.lock();
  }
  if (!network) network = make_cell_network(spec, cell.workload, cell.topology);
  auto problem =
      std::make_shared<const MappingProblem>(make_problem(spec, cell, network));
  const std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = slots_.find(key); it != slots_.end()) {
    // A concurrent builder of the same key won the insert race. Adopt
    // its copy and drop ours — construction is deterministic (same
    // spec coordinate, same problem), so the copies are equivalent.
    touch(it->second);
    return it->second.problem;
  }
  std::erase_if(networks_,
                [](const auto& entry) { return entry.second.expired(); });
  if (auto& shared = networks_[architecture]; shared.expired())
    shared = network;
  lru_.push_front(key);
  slots_.emplace(key, Slot{problem, {}, lru_.begin()});
  while (slots_.size() > options_.max_problems && !lru_.empty()) {
    slots_.erase(lru_.back());
    lru_.pop_back();
    count(evictions_);
  }
  return problem;
}

std::map<SweepProblemKey, ProblemCache::Entry> ProblemCache::problems(
    const SweepSpec& spec, std::span<const SweepCell> cells) {
  std::map<SweepProblemKey, Entry> entries;
  for (const auto& cell : cells) {
    const SweepProblemKey coordinate{cell.workload, cell.topology, cell.goal};
    if (entries.count(coordinate)) continue;
    auto key = key_of(spec, cell);
    auto shared = problem(spec, cell, key);
    entries.emplace(coordinate, Entry{std::move(key), std::move(shared)});
  }
  return entries;
}

ProblemCache::Lease ProblemCache::checkout(const std::string& key,
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

void ProblemCache::checkin(const std::string& key, ServiceLane lane,
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
