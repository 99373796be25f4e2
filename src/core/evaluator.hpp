#pragma once
/// \file evaluator.hpp
/// \brief The Mapping Evaluator (paper Fig. 1, block 4): bridges the
/// physical-layer evaluation and the optimizer's fitness interface.
///
/// The Evaluator scores every mapping through one evaluation kernel,
/// its `BatchEvaluator` over the network's path store
/// (model/batch_eval.hpp), one validated mapping per kernel call:
///  * fitness (`evaluate`) runs behind an assignment-keyed LRU memo: RS
///    and GA re-sample duplicate mappings at small problem sizes, and a
///    cache hit skips the physical evaluation entirely;
///  * the move path (`propose_swap`), which SA, tabu and R-PBLA use for
///    their two-tile swaps, scores the swapped mapping whole and
///    neither reads nor fills the memo. It holds no state, so
///    `commit_move`, `revert_move` and `apply_move` keep the
///    `FitnessFunction` no-op defaults;
///  * the reporting entry points (`evaluate_detailed`, `evaluate_raw`,
///    `evaluate_raw_batch`) score every call and always score noise.
///
/// Fitness scores only what the objective reads. When
/// `Objective::needs_noise()` is false (worst-case insertion loss),
/// `evaluate` and `propose_swap` run the kernel's loss-only pass,
/// O(|E|). Fitness stays bitwise what a full scoring gives, since the
/// skipped fields are ones it never reads.
///
/// Counting contract: `evaluation_count` counts *logical* evaluations —
/// one per `evaluate` or `propose_swap` call, whether it was served by
/// the cache or a kernel pass. Budgets, traces and the exec subsystem's
/// bit-identical determinism protocol observe logical counts only, so
/// the memo cannot change any optimizer's trajectory.
/// `physical_evaluation_count` reports how many `evaluate` scorings the
/// memo did not absorb; moves count in neither it nor the memo
/// counters.
///
/// Reuse contract: one Evaluator may serve any number of optimizer runs
/// on its problem, back to back, with results bit-identical to a fresh
/// Evaluator per run. Memo entries are exact, the move path keeps no
/// state, and optimizers count their budgets in SearchState, not here.
/// Every counter is cumulative across runs.

#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/problem.hpp"
#include "mapping/optimizer.hpp"
#include "model/batch_eval.hpp"

namespace phonoc {

/// Copy of the whole-mapping fitness memo, most-recent first: exact
/// {assignment, fitness} entries (`export_memo`, which tests use to
/// observe the memo's contents and recency order).
struct EvaluatorMemo {
  struct Entry {
    std::vector<TileId> assignment;
    double fitness = 0.0;
  };
  std::vector<Entry> entries;
};

struct EvaluatorOptions {
  /// Capacity (entries) of the whole-mapping fitness memo; 0 disables
  /// it. Keyed by the full assignment (hash-bucketed, equality-checked),
  /// so a hit is always exact.
  std::size_t cache_capacity = 1024;
};

class Evaluator final : public FitnessFunction {
 public:
  explicit Evaluator(const MappingProblem& problem,
                     EvaluatorOptions options = {});

  /// Fitness (higher = better) of a mapping under the problem objective.
  [[nodiscard]] double evaluate(const Mapping& mapping) override;

  [[nodiscard]] bool supports_moves() const override { return true; }
  /// Fitness of `after` (the previous mapping with the (a, b) swap
  /// applied), scored whole: one logical evaluation, no memo traffic.
  [[nodiscard]] double propose_swap(const Mapping& after, TileId a,
                                    TileId b) override;

  /// Full evaluation with per-edge detail (reporting; not counted
  /// against the fitness statistics).
  [[nodiscard]] EvaluationResult evaluate_detailed(
      const Mapping& mapping) const;

  /// Both worst-case metrics of a mapping (convenience for sampling
  /// experiments that record loss and SNR simultaneously, like Fig. 3).
  /// Always scores noise; no per-edge detail.
  [[nodiscard]] EvaluationResult evaluate_raw(const Mapping& mapping) const;

  /// `evaluate_raw`'s worst-case pair for each of `mappings`, in order:
  /// `out[i]` is bitwise `evaluate_raw(mappings[i])`'s. A loop of one
  /// kernel call per mapping, kept for perfbench's layer probe;
  /// uncounted, like `evaluate_raw`.
  void evaluate_raw_batch(std::span<const Mapping> mappings,
                          std::span<BatchPoint> out) const;

  /// Logical evaluations: one per evaluate/propose_swap call.
  [[nodiscard]] std::uint64_t evaluation_count() const noexcept {
    return count_;
  }
  /// Whole-mapping kernel scorings performed by `evaluate` (cache
  /// misses).
  [[nodiscard]] std::uint64_t physical_evaluation_count() const noexcept {
    return physical_count_;
  }
  [[nodiscard]] std::uint64_t cache_hit_count() const noexcept {
    return cache_hits_;
  }
  /// `evaluate` calls the enabled memo failed to answer. The counting
  /// contract (asserted by tests/test_incremental.cpp): with the memo
  /// enabled, every `evaluate` call is exactly one hit or one miss
  /// (hits + misses == evaluate calls) and every miss is exactly one
  /// physical evaluation (misses == physical_evaluation_count()). With
  /// the memo disabled neither counter moves.
  [[nodiscard]] std::uint64_t cache_miss_count() const noexcept {
    return cache_misses_;
  }
  /// Entries dropped from the memo's LRU tail to make room.
  [[nodiscard]] std::uint64_t cache_eviction_count() const noexcept {
    return cache_evictions_;
  }

  /// Copy the memo's current contents, most-recent first. Counters are
  /// untouched; the snapshot is independent of this instance.
  [[nodiscard]] EvaluatorMemo export_memo() const;

  /// Always 0: no scoring kernel is rebuilt. It stays for perfbench's
  /// `model.kernel_rebuilds` until the benchmark's next change.
  [[nodiscard]] std::uint64_t kernel_rebuild_count() const noexcept {
    return 0;
  }
  void reset_count() noexcept { count_ = 0; }

  [[nodiscard]] const MappingProblem& problem() const noexcept {
    return problem_;
  }
  [[nodiscard]] const EvaluatorOptions& options() const noexcept {
    return options_;
  }

 private:
  /// The one whole-mapping scorer behind every entry point: one
  /// validated kernel call, with per-edge detail in `edge_scratch_`
  /// when `detailed` and crosstalk when `noise` (the view stays valid
  /// until the next scoring).
  [[nodiscard]] EvaluationView score(const Mapping& mapping, bool detailed,
                                     bool noise) const;
  [[nodiscard]] const double* cache_lookup(const Mapping& mapping,
                                           std::uint64_t hash);
  void cache_insert(std::vector<TileId> assignment, std::uint64_t hash,
                    double fitness);

  const MappingProblem& problem_;
  EvaluatorOptions options_;
  bool needs_noise_;
  std::uint64_t count_ = 0;
  std::uint64_t physical_count_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t cache_evictions_ = 0;

  // --- whole-mapping LRU memo ------------------------------------------------
  /// Each assignment key is stored exactly once (in its list node); the
  /// index buckets list iterators by `assignment_hash`, and a hit is
  /// confirmed with a full-key comparison, so collisions can never
  /// return a wrong fitness.
  struct CacheNode {
    std::uint64_t hash;
    std::vector<TileId> key;
    double fitness;
  };
  /// Most-recent-first recency list.
  std::list<CacheNode> cache_order_;
  std::unordered_map<std::uint64_t,
                     std::vector<decltype(cache_order_)::iterator>>
      cache_index_;

  // --- whole-mapping kernel --------------------------------------------------
  /// Mutable: the kernel is pure scoring plus reusable scratch, so the
  /// const entry points may use it. Built with the Evaluator: its plan
  /// is O(|E|) over the network's path store.
  mutable BatchEvaluator kernel_;
  mutable std::vector<EdgeMetrics> edge_scratch_;
};

}  // namespace phonoc
