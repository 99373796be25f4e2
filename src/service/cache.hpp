#pragma once
/// \file cache.hpp
/// \brief Cross-request reuse state of the phonocd service.
///
/// Two things survive between requests, both keyed by the canonical
/// problem identity {resolved side, topology, workload, goal, shared
/// architecture knobs}:
///  * the constructed MappingProblem (network construction dominates a
///    small request's cost), LRU-capped at `max_problems`;
///  * an EvaluatorMemo snapshot bank: after each Optimize cell runs,
///    its evaluator memo is harvested and merged into the key's bank;
///    the next cell of the same problem preloads it. Memo entries are
///    exact {assignment, fitness} pairs, so preloading shifts physical
///    cost only — fitness values and logical evaluation counts (and
///    therefore the bit-identity contract against an in-process
///    BatchEngine run) are untouched.
///
/// The canonical key is the write_spec serialization of a
/// single-coordinate sub-spec with the resolved side pinned explicitly,
/// so "side 0" (auto-sized) can never alias a different explicit side,
/// and two requests that spell the same problem differently still share
/// one slot.

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/evaluator.hpp"
#include "core/problem.hpp"
#include "exec/sweep.hpp"
#include "obs/metrics.hpp"

namespace phonoc {

class ServiceCache {
 public:
  struct Options {
    /// Distinct problems kept alive (LRU beyond that). Evicting a
    /// problem drops its memo bank with it.
    std::size_t max_problems = 64;
    /// Memo snapshot entries kept per problem; 0 disables the bank.
    std::size_t memo_capacity = 4096;
  };

  /// Registers the problem_cache_{hits,misses,evictions} counters in
  /// `registry` (the owning broker's), which must outlive the cache.
  ServiceCache(Options options, obs::MetricsRegistry& registry);

  /// Canonical problem identity of one grid coordinate (see file
  /// comment). Kind-independent: Optimize and Sample grids over the
  /// same workload/topology/goal share a slot.
  [[nodiscard]] static std::string key_of(const SweepSpec& spec,
                                          const SweepCell& cell);

  /// The problem of `cell`, built on a miss and shared on a hit. The
  /// construction happens under the cache lock (callers build problems
  /// serially per request anyway); the returned pointer stays valid
  /// after eviction for as long as the caller holds it.
  [[nodiscard]] std::shared_ptr<const MappingProblem> problem(
      const SweepSpec& spec, const SweepCell& cell, const std::string& key);

  /// Preload `evaluator` with the key's memo bank (no-op for unknown
  /// keys or a disabled bank).
  void seed_memo(const std::string& key, Evaluator& evaluator) const;

  /// Merge the evaluator's memo into the key's bank: fresh entries
  /// first, then surviving old ones, deduplicated and truncated to
  /// `memo_capacity`. No-op for unknown (evicted) keys.
  void harvest_memo(const std::string& key, const Evaluator& evaluator);

 private:
  struct Slot {
    std::shared_ptr<const MappingProblem> problem;
    EvaluatorMemo memo;
    std::list<std::string>::iterator lru_it;
  };

  void touch(Slot& slot) const;

  Options options_;
  mutable std::mutex mutex_;
  mutable std::list<std::string> lru_;  ///< most-recent first
  std::map<std::string, Slot> slots_;
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& evictions_;
};

}  // namespace phonoc
