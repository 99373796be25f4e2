#include "exec/aggregate.hpp"

#include <map>
#include <ostream>
#include <tuple>

#include "io/csv.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace phonoc {
namespace {

/// The collapsed-coordinate identity (everything but the seed). Keep
/// the two overloads in sync when adding report dimensions.
using CoordinateKey =
    std::tuple<std::size_t, std::size_t, std::size_t, std::size_t,
               std::size_t>;

CoordinateKey coordinate_key(const AggregateCell& cell) {
  return {cell.workload, cell.topology, cell.goal, cell.optimizer,
          cell.budget};
}

CoordinateKey coordinate_key(const SweepCell& cell) {
  return {cell.workload, cell.topology, cell.goal, cell.optimizer,
          cell.budget};
}

}  // namespace

void AggregateCell::add(const CellResult& result) {
  require(coordinate_key(result.cell) == coordinate_key(*this),
          "AggregateCell::add: result belongs to another cell");
  best_fitness.add(result.run.search.best_fitness);
  worst_loss_db.add(result.run.best_evaluation.worst_loss_db);
  worst_snr_db.add(result.run.best_evaluation.worst_snr_db);
  evaluations.add(static_cast<double>(result.run.search.evaluations));
  seconds.add(result.seconds);
}

SweepReport SweepReport::build(const SweepSpec& spec,
                               const std::vector<CellResult>& results,
                               double wall_seconds) {
  SweepReport report;
  report.wall_seconds = wall_seconds;
  std::map<CoordinateKey, std::size_t> slots;  // coordinate -> cell index
  for (const auto& result : results) {
    const auto& cell = result.cell;
    const auto key = coordinate_key(cell);
    auto it = slots.find(key);
    if (it == slots.end()) {
      AggregateCell aggregate;
      aggregate.workload = cell.workload;
      aggregate.topology = cell.topology;
      aggregate.goal = cell.goal;
      aggregate.optimizer = cell.optimizer;
      aggregate.budget = cell.budget;
      aggregate.workload_name = spec.workloads.at(cell.workload).name;
      aggregate.topology_name =
          topology_label(spec, cell.workload, cell.topology);
      aggregate.goal_name = to_string(spec.goals.at(cell.goal));
      aggregate.optimizer_name = spec.optimizers.at(cell.optimizer);
      aggregate.budget_name = budget_label(spec.budgets.at(cell.budget));
      it = slots.emplace(key, report.cells.size()).first;
      report.cells.push_back(std::move(aggregate));
    }
    // The slot exists even when every seed of the coordinate failed, so
    // report rows stay aligned with the grid (such a row shows 0 runs);
    // failed cells carry no run and stay out of every statistic.
    if (result.status == CellStatus::Failed) {
      ++report.failed_count;
      continue;
    }
    report.cells[it->second].add(result);
    ++report.run_count;
    report.cpu_seconds += result.seconds;
  }
  return report;
}

namespace {

const std::vector<std::string> kReportHeaders{
    "application", "topology",  "objective",    "optimizer", "budget",
    "runs",        "best loss", "mean loss",    "best SNR",  "mean SNR",
    "mean evals",  "mean s"};

std::vector<std::string> report_row(const AggregateCell& cell) {
  // "Best" follows each metric's own sense: loss toward 0 dB (max),
  // SNR as large as possible (max).
  return {cell.workload_name,
          cell.topology_name,
          cell.goal_name,
          cell.optimizer_name,
          cell.budget_name,
          std::to_string(cell.best_fitness.count()),
          format_fixed(cell.worst_loss_db.max(), 2),
          format_fixed(cell.worst_loss_db.mean(), 2),
          format_fixed(cell.worst_snr_db.max(), 2),
          format_fixed(cell.worst_snr_db.mean(), 2),
          format_fixed(cell.evaluations.mean(), 0),
          format_fixed(cell.seconds.mean(), 3)};
}

}  // namespace

TableWriter SweepReport::to_table() const {
  TableWriter table(kReportHeaders);
  for (const auto& cell : cells) table.add_row(report_row(cell));
  return table;
}

std::string SweepReport::to_ascii() const { return to_table().to_ascii(); }

void SweepReport::write_csv(std::ostream& out) const {
  CsvWriter csv(out);
  csv.header({"application", "topology", "objective", "optimizer", "budget",
              "runs", "best_fitness_max", "best_fitness_mean",
              "best_fitness_stddev", "worst_loss_db_best",
              "worst_loss_db_mean", "worst_snr_db_best", "worst_snr_db_mean",
              "evaluations_mean", "seconds_mean"});
  for (const auto& cell : cells)
    csv.row({cell.workload_name, cell.topology_name, cell.goal_name,
             cell.optimizer_name, cell.budget_name,
             std::to_string(cell.best_fitness.count()),
             format_double(cell.best_fitness.max()),
             format_double(cell.best_fitness.mean()),
             format_double(cell.best_fitness.stddev()),
             format_double(cell.worst_loss_db.max()),
             format_double(cell.worst_loss_db.mean()),
             format_double(cell.worst_snr_db.max()),
             format_double(cell.worst_snr_db.mean()),
             format_double(cell.evaluations.mean()),
             format_double(cell.seconds.mean())});
}

}  // namespace phonoc
