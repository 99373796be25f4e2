#include "service/cache.hpp"

#include <sstream>
#include <unordered_set>
#include <utility>

#include "exec/serialize.hpp"
#include "mapping/mapping.hpp"

namespace phonoc {

ServiceCache::ServiceCache(Options options, obs::MetricsRegistry& registry)
    : options_(options),
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
  slots_.emplace(key, Slot{problem, EvaluatorMemo{}, lru_.begin()});
  while (slots_.size() > options_.max_problems && !lru_.empty()) {
    slots_.erase(lru_.back());
    lru_.pop_back();
    evictions_.inc();
  }
  return problem;
}

void ServiceCache::seed_memo(const std::string& key,
                             Evaluator& evaluator) const {
  if (options_.memo_capacity == 0) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = slots_.find(key);
  if (it == slots_.end() || it->second.memo.entries.empty()) return;
  evaluator.preload_memo(it->second.memo);
}

void ServiceCache::harvest_memo(const std::string& key,
                                const Evaluator& evaluator) {
  if (options_.memo_capacity == 0) return;
  auto fresh = evaluator.export_memo();
  if (fresh.entries.empty()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = slots_.find(key);
  if (it == slots_.end()) return;  // evicted meanwhile; drop the snapshot
  EvaluatorMemo& bank = it->second.memo;
  // Fresh entries first (they are the most recent activity), then the
  // surviving old ones. Dedup by assignment hash — a collision merely
  // drops one redundant snapshot entry, never a wrong fitness, since
  // preload_memo re-checks full keys on insert.
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(fresh.entries.size() + bank.entries.size());
  EvaluatorMemo merged;
  merged.entries.reserve(
      std::min(options_.memo_capacity,
               fresh.entries.size() + bank.entries.size()));
  const auto adopt = [&](EvaluatorMemo::Entry& entry) {
    if (merged.entries.size() >= options_.memo_capacity) return;
    if (!seen.insert(assignment_hash(entry.assignment)).second) return;
    merged.entries.push_back(std::move(entry));
  };
  for (auto& entry : fresh.entries) adopt(entry);
  for (auto& entry : bank.entries) adopt(entry);
  bank = std::move(merged);
}

}  // namespace phonoc
