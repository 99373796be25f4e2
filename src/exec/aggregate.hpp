#pragma once
/// \file aggregate.hpp
/// \brief Per-cell statistics over sweep results and report rendering.
///
/// The seed dimension is collapsed: every (workload, topology, goal,
/// optimizer, budget) coordinate becomes one AggregateCell whose
/// RunningStats summarize the per-seed runs (best/mean fitness,
/// worst-case metrics, evaluation counts, wall time). Output goes
/// through the existing IO layer: TableWriter for terminal tables,
/// CsvWriter for machine-readable rows.

#include <iosfwd>
#include <string>
#include <vector>

#include "exec/batch_engine.hpp"
#include "io/table_writer.hpp"
#include "util/stats.hpp"

namespace phonoc {

/// Statistics of one report cell (all seeds of one coordinate).
struct AggregateCell {
  // Coordinates into the originating spec (seed collapsed) and their
  // human-readable labels.
  std::size_t workload = 0;
  std::size_t topology = 0;
  std::size_t goal = 0;
  std::size_t optimizer = 0;
  std::size_t budget = 0;
  std::string workload_name;
  std::string topology_name;
  std::string goal_name;
  std::string optimizer_name;
  std::string budget_name;

  RunningStats best_fitness;   ///< OptimizerResult::best_fitness per seed
  RunningStats worst_loss_db;  ///< best mapping's worst-case loss per seed
  RunningStats worst_snr_db;   ///< best mapping's worst-case SNR per seed
  RunningStats evaluations;    ///< fitness evaluations consumed per seed
  RunningStats seconds;        ///< per-run wall time

  /// Fold one run into the cell (coordinates must match).
  void add(const CellResult& result);
};

/// Aggregated view of a sweep, in grid order with the seed dimension
/// collapsed.
struct SweepReport {
  std::vector<AggregateCell> cells;
  std::size_t run_count = 0;      ///< successful runs folded in
  std::size_t failed_count = 0;   ///< Failed cells (excluded from stats)
  /// Summed per-cell seconds — CPU time, not wall time: on a parallel
  /// run it exceeds the wall clock by roughly the worker count.
  double cpu_seconds = 0.0;
  /// True elapsed wall time of the batch, measured by the caller around
  /// BatchEngine::run (0 when not supplied).
  double wall_seconds = 0.0;

  /// Aggregate a batch of results against the spec that produced them.
  /// Failed cells are counted in `failed_count` and kept out of every
  /// statistic. `wall_seconds` is the caller-measured elapsed time of
  /// the batch (optional).
  [[nodiscard]] static SweepReport build(
      const SweepSpec& spec, const std::vector<CellResult>& results,
      double wall_seconds = 0.0);

  /// Render through TableWriter (one row per cell).
  [[nodiscard]] TableWriter to_table() const;
  [[nodiscard]] std::string to_ascii() const;

  /// Emit one CSV row per cell through CsvWriter (RFC-4180).
  void write_csv(std::ostream& out) const;
};

}  // namespace phonoc
