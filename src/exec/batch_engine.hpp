#pragma once
/// \file batch_engine.hpp
/// \brief Parallel executor for sweep grids.
///
/// Determinism contract: for a spec whose budgets are evaluation counts
/// (no wall-clock caps), the results are bit-identical to a sequential
/// run regardless of worker count, scheduling order and backend (the
/// in-process pool and the scheduler's worker processes run the same
/// per-cell code; the wire format round-trips doubles bit-exactly).
/// Each cell owns its Evaluator and RNG (seeded from the spec's seed
/// list alone), the shared problems are immutable after construction,
/// and every cell writes only its own pre-allocated result slot. Only
/// the timing fields (`seconds`, OptimizerResult::seconds) vary between
/// runs. The contract covers both task kinds: Sample cells draw their
/// random mappings from a per-cell Rng seeded by the cell's seed value,
/// so a sampling grid's merged distributions are bit-identical across
/// worker counts and backends too.
///
/// BatchEngine runs the cells in this process; sched::Scheduler
/// (sched/scheduler.hpp) runs them on a fleet of worker processes.
///
/// Failure contract, the same on every backend: a cell that throws
/// comes back CellStatus::Failed with the exception's message, and
/// every other cell still runs (run_cells below is where the in-process
/// executors catch it; a fleet worker does the same before it answers).

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "exec/problem_cache.hpp"
#include "exec/sweep.hpp"
#include "util/stats.hpp"

namespace phonoc {

struct BatchOptions {
  /// Worker threads; 0 = ThreadPool::default_worker_count(). 1 runs
  /// inline on the calling thread (no pool).
  std::size_t workers = 0;
  /// Cap the resolved worker count at the hardware thread count so at
  /// most one cell is in flight per hardware thread. With `max_seconds`
  /// budgets an oversubscribed pool distorts the paper's equal-time
  /// protocol (every cell's wall clock stretches by the oversubscription
  /// factor); pinning keeps time budgets comparable across runs and
  /// machines. No effect on evaluation-count budgets beyond the worker
  /// cap itself.
  bool pin_one_cell_per_thread = false;
};

/// Terminal state of one grid cell.
enum class CellStatus {
  Ok,      ///< the cell ran to completion; its kind's payload is valid
  Failed,  ///< the cell threw, or its worker died (or never ran); see `error`
};

/// Distribution of one metric over a cell's random-mapping samples:
/// the binned shape plus the streaming moments/extrema. Both halves
/// merge exactly (Histogram::merge / RunningStats::merge), so
/// split-sample sub-cells recombine into the single-pass result.
struct MetricDistribution {
  std::string metric;  ///< "snr_db" or "loss_db" (single-token names)
  Histogram histogram{0.0, 1.0, 1};
  RunningStats stats;
};

/// Payload of a SweepTaskKind::Sample cell: constant-size whatever the
/// per-cell sample count, so 100k-sample cells stream over the same
/// wire as optimizer runs. Merge order does not change the counts and
/// changes the RunningStats only through float association — merging
/// in a fixed (grid) order is what keeps distributed runs bit-identical
/// to in-process ones.
struct DistributionResult {
  std::uint64_t samples = 0;  ///< random mappings folded in
  std::vector<MetricDistribution> metrics;

  /// Fold another shard of the same experiment in. Metric lists must
  /// match by position and name (InvalidArgument otherwise); histogram
  /// binning mismatches throw from Histogram::merge.
  void merge(const DistributionResult& other);

  /// The named metric, or nullptr when absent.
  [[nodiscard]] const MetricDistribution* find(const std::string& metric)
      const noexcept;
};

/// Exact equality of two distributions — the bit-identity contract's
/// comparator: counts and accumulator doubles must match bitwise, with
/// NaN defined to equal NaN of the same sign (the wire format
/// canonicalizes NaN payloads, and one ±Inf sample legitimately drives
/// a Welford accumulator to Inf/NaN).
[[nodiscard]] bool identical_distributions(const DistributionResult& a,
                                           const DistributionResult& b);

/// Outcome of one grid cell. Which payload is valid follows the spec's
/// task kind: Optimize fills `run`, Sample fills `distribution` (both
/// only when status == CellStatus::Ok).
struct CellResult {
  SweepCell cell;
  std::uint64_t seed = 0;  ///< the actual seed value (spec.seeds[cell.seed])
  RunResult run;           ///< Optimize payload
  DistributionResult distribution;  ///< Sample payload
  double seconds = 0.0;    ///< wall time of this cell (informational)
  CellStatus status = CellStatus::Ok;
  std::string error;       ///< diagnostic for Failed cells
};

/// The bit-identity contract's cell comparator, shared by every
/// `--verify`: both cells are Ok, with the same seed, every RunResult
/// field equal (the full trace and per-edge detail included; only the
/// timing fields may differ) and identical_distributions payloads.
/// Doubles compare as identical_distributions compares them.
[[nodiscard]] bool identical_results(const CellResult& a,
                                     const CellResult& b);

/// Merge the distributions of `count` consecutive grid cells starting
/// at `first` — the canonical sub-cell fold: always in grid (seed)
/// order, which is what makes merged results bit-identical across
/// worker counts and backends. All cells must be Ok (ExecError
/// otherwise: merging around a failed shard would silently change the
/// sample population).
[[nodiscard]] DistributionResult merge_cell_distributions(
    const std::vector<CellResult>& results, std::size_t first,
    std::size_t count);

/// Problems shared by cells that differ only in optimizer/budget/seed,
/// keyed by (workload, topology, goal): ProblemCache::problems on a
/// cache of its own. Built sequentially before a grid runs (network
/// construction is the expensive, allocation-heavy part); immutable
/// afterwards, so sharing across workers is safe. Every backend builds
/// its problems through a ProblemCache, so all of them construct
/// bit-identical problems.
[[nodiscard]] std::map<SweepProblemKey,
                       std::shared_ptr<const MappingProblem>>
build_sweep_problems(const SweepSpec& spec,
                     const std::vector<SweepCell>& cells);

/// Execute one cell (the shared per-cell code path of every backend),
/// dispatching on the spec's task kind: Optimize runs the cell's
/// optimizer, Sample evaluates `spec.sampling.samples_per_cell` random
/// mappings with an Rng seeded from the cell's seed value alone and
/// accumulates the Fig. 3 metric distributions. Either way the outcome
/// depends only on (spec, cell), never on worker count or backend.
/// The cell gets a fresh Evaluator with the default EvaluatorOptions.
[[nodiscard]] CellResult run_sweep_cell(const SweepSpec& spec,
                                        const SweepCell& cell,
                                        const MappingProblem& problem);

/// run_sweep_cell on a caller-owned Evaluator of the cell's problem,
/// which may have served earlier cells: the outcome is the same as on a
/// fresh one (see core/evaluator.hpp). The overload above builds a
/// fresh Evaluator and delegates here; the mapping service passes warm
/// ones from its problem cache.
[[nodiscard]] CellResult run_sweep_cell(const SweepSpec& spec,
                                        const SweepCell& cell,
                                        Evaluator& evaluator);

/// The Failed-cell constructor shared by every backend: coordinates
/// and seed survive so the failure stays attributable.
[[nodiscard]] CellResult make_failed_cell(const SweepSpec& spec,
                                          const SweepCell& cell,
                                          std::string error);

class ThreadPool;

/// What run_cells computes for one cell.
using CellBody = std::function<CellResult(const SweepCell& cell)>;
/// Where run_cells reports one settled cell; false skips the cells not
/// yet started.
using CellSink = std::function<bool(CellResult result)>;

/// The one fan-out loop of every in-process cell executor:
/// BatchEngine::run collects into slots, the workerd loop writes
/// frames, the phonocd broker fires its events.
///  * runs `body(cell)` for each of `cells` on `pool`, or inline on the
///    calling thread when `pool` is null or there is only one cell;
///  * a throwing body becomes make_failed_cell(spec, cell, what()), so
///    one bad cell fails alone on every backend;
///  * `on_cell` is called once per cell that ran, in settle order, never
///    concurrently. Once it returns false the cells not yet started are
///    skipped; cells already running still settle through it;
///  * returns only after every started cell has settled, so nothing the
///    callbacks reference is in use afterwards. An exception out of
///    `on_cell` skips the rest too and is rethrown after that drain.
void run_cells(const SweepSpec& spec, std::span<const SweepCell> cells,
               ThreadPool* pool, const CellBody& body,
               const CellSink& on_cell);

class BatchEngine {
 public:
  explicit BatchEngine(BatchOptions options = {});

  /// Execute every cell of the expanded grid; results come back in grid
  /// order (results[i].cell.index == i). A cell whose run throws (an
  /// unknown optimizer name, say) comes back Failed with the message,
  /// and the other cells still run; only a grid whose problems cannot
  /// be built throws.
  [[nodiscard]] std::vector<CellResult> run(const SweepSpec& spec) const;

  [[nodiscard]] std::size_t worker_count() const noexcept { return workers_; }

 private:
  std::size_t workers_;
};

}  // namespace phonoc
