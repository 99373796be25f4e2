#pragma once
/// \file problem_cache.hpp
/// \brief The one problem cache of every sweep-cell executor.
///
/// One slot per canonical problem identity {resolved side, topology,
/// workload, goal, shared architecture knobs}, LRU-capped at
/// `max_problems`. Whatever lives longest owns one: BatchEngine::run
/// (through build_sweep_problems) per run, the workerd loop per
/// scheduler connection, the phonocd broker for its lifetime.
///
/// Networks are shared one level further: every problem built over the
/// same {resolved side, topology kind, architecture knobs} references
/// one NetworkModel, so the SNR and loss goals, and workloads of the
/// same side, build it once. A network never depends on the workload
/// beyond its resolved side (tests/test_exec.cpp,
/// NetworkCacheIsWorkloadIndependent), so sharing is bit-identical. The
/// cache holds a network only through the problems that use it: once
/// the last of them is evicted and released, the network is freed, so
/// the LRU bound still bounds memory.
///
/// A slot also keeps its problem's idle warm Evaluators, which only the
/// broker leases. A cell checks one out, runs on it and checks it back
/// in, so the memo and the batch plan carry from cell to cell with
/// nothing copied. A checkout prefers an Evaluator that recently ran
/// the same search (the broker's affinity: optimizer, budget, seed),
/// whose memo holds that search's whole-mapping evaluations (moves
/// bypass it), so a repeated request hits even when its cells run
/// concurrently. Each service lane keeps its own idle Evaluators: a
/// bulk grid's long searches fill a memo with their own mappings, and
/// lent an interactive Evaluator they would flush the ones small
/// repeated requests hit. Reuse is invisible in results: memo entries
/// are exact, moves are scored whole and keep no state, and optimizers
/// count their budgets in SearchState, never in the Evaluator (see
/// core/evaluator.hpp). A slot holds at most as many Evaluators per
/// lane as cells of its problem ever ran at once in that lane.
///
/// The canonical key is the write_spec serialization of a
/// single-coordinate sub-spec with the resolved side pinned explicitly,
/// so "side 0" (auto-sized) can never alias a different explicit side,
/// and two requests that spell the same problem differently still share
/// one slot.

#include <array>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/evaluator.hpp"
#include "core/problem.hpp"
#include "exec/sweep.hpp"
#include "obs/metrics.hpp"

namespace phonoc {

/// Priority lane of a phonocd request (see lane routing in
/// service/broker.hpp); the cache keeps idle Evaluators per lane.
enum class ServiceLane { Interactive, Bulk };

/// A grid coordinate that determines a cell's problem: (workload,
/// topology, goal) indices into one spec.
using SweepProblemKey = std::tuple<std::size_t, std::size_t, std::size_t>;

class ProblemCache {
 public:
  struct Options {
    /// Distinct problems kept alive (LRU beyond that). Evicting a
    /// problem drops its idle Evaluators with it.
    std::size_t max_problems = 64;
  };

  /// A cache that counts nothing (BatchEngine and the workerd loop).
  ProblemCache();

  /// Every Evaluator the cache builds uses `evaluator` (its memo
  /// capacity; 0 turns the memo off). Registers the
  /// problem_cache_{hits,misses,evictions} counters in `registry` (the
  /// owning broker's), which must outlive the cache.
  ProblemCache(Options options, EvaluatorOptions evaluator,
               obs::MetricsRegistry& registry);

  /// Canonical problem identity of one grid coordinate (see file
  /// comment). Kind-independent: Optimize and Sample grids over the
  /// same workload/topology/goal share a slot.
  [[nodiscard]] static std::string key_of(const SweepSpec& spec,
                                          const SweepCell& cell);

  /// The problem of `cell`, built on a miss and shared on a hit. The
  /// returned pointer stays valid after eviction for as long as the
  /// caller holds it.
  [[nodiscard]] std::shared_ptr<const MappingProblem> problem(
      const SweepSpec& spec, const SweepCell& cell, const std::string& key);

  /// One coordinate's canonical key and problem.
  struct Entry {
    std::string key;
    std::shared_ptr<const MappingProblem> problem;
  };
  /// The problem of every coordinate `cells` touch: one key_of and one
  /// problem() per coordinate, never per cell.
  [[nodiscard]] std::map<SweepProblemKey, Entry> problems(
      const SweepSpec& spec, std::span<const SweepCell> cells);

  /// An Evaluator lent out by checkout() and due back via checkin().
  struct Lease {
    std::unique_ptr<Evaluator> evaluator;
    /// Affinities of the last searches it ran, newest last (at most
    /// kRecentSearches): its memo most likely holds their mappings.
    std::vector<std::uint64_t> searches;
  };
  static constexpr std::size_t kRecentSearches = 16;

  /// An Evaluator of `problem` for the caller's exclusive use: an idle
  /// one of the key's slot in `lane` when the slot still holds this
  /// problem — preferably the most recently returned one that ran the
  /// search `affinity` names, else the most recently returned — or a
  /// fresh one.
  [[nodiscard]] Lease checkout(const std::string& key, ServiceLane lane,
                               const MappingProblem& problem,
                               std::uint64_t affinity);

  /// Hand a lease back to `lane` after it ran the search `affinity`
  /// names. It is dropped when the key's slot was evicted, or rebuilt
  /// around another problem object than the one its Evaluator
  /// references.
  void checkin(const std::string& key, ServiceLane lane, Lease lease,
               std::uint64_t affinity);

 private:
  struct Slot {
    std::shared_ptr<const MappingProblem> problem;
    /// Idle Evaluators per ServiceLane. Declared after `problem`, so
    /// destroyed before the problem every one of them references.
    std::array<std::vector<Lease>, 2> idle;
    std::list<std::string>::iterator lru_it;

    std::vector<Lease>& idle_in(ServiceLane lane) {
      return idle[static_cast<std::size_t>(lane)];
    }
  };

  void touch(Slot& slot) const;

  Options options_;
  EvaluatorOptions evaluator_options_;
  mutable std::mutex mutex_;
  mutable std::list<std::string> lru_;  ///< most-recent first
  std::map<std::string, Slot> slots_;
  /// Networks by architecture key, alive while a problem holds them.
  std::map<std::string, std::weak_ptr<const NetworkModel>> networks_;
  obs::Counter* hits_ = nullptr;  ///< null: the cache counts nothing
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;
};

}  // namespace phonoc
