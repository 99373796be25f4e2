#pragma once
// The golden cell set: 320 cells whose zero-timed results pin every
// result bit across commits (tests/golden/README.md). test_golden
// recomputes the set and compares it with tests/golden/; golden_regen
// rewrites those files after an intended model change.
//
// Each cell is rendered with `write_cell_result`, both `seconds`
// fields zeroed, and digested as one line:
//
//   <n> <grid> <cell> <workload> <topology> <goal> <optimizer> <seed>
//       <fnv1a64 of the block> <field>=<fnv1a32 of the field's lines>...
//
// A field is every line of the block that starts with the same keyword
// (`mapping`, `search`, `t`, `e`, `metric`, ...), so a mismatch names
// the first field that moved, not just the cell.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "exec/batch_engine.hpp"
#include "exec/serialize.hpp"
#include "mapping/objective.hpp"
#include "util/strings.hpp"

namespace phonoc::golden {

constexpr std::uint64_t kEvaluations = 2000;
constexpr std::uint64_t kSamples = 2000;

/// The 32 shared coordinates: 8 apps x mesh/torus x SNR/loss.
inline SweepSpec coordinates() {
  SweepSpec spec;
  spec.add_all_benchmarks()
      .add_topology(TopologyKind::Mesh)
      .add_topology(TopologyKind::Torus)
      .add_goal(OptimizationGoal::Snr)
      .add_goal(OptimizationGoal::InsertionLoss);
  return spec;
}

struct Grid {
  std::string name;
  SweepSpec spec;
};

/// The set, in digest order: the 192-cell fleet grid (rs/ga/rpbla,
/// seeds 1-2), the move-based and constructive optimizers on the same
/// coordinates (sa/tabu/greedy, seed 1), and a Sample grid.
inline std::vector<Grid> grids() {
  std::vector<Grid> out;
  out.push_back({"fleet", coordinates()});
  out.back()
      .spec.add_optimizers({"rs", "ga", "rpbla"})
      .add_budget(kEvaluations)
      .add_seed_range(1, 2);
  out.push_back({"moves", coordinates()});
  out.back()
      .spec.add_optimizers({"sa", "tabu", "greedy"})
      .add_budget(kEvaluations)
      .add_seed(1);
  out.push_back({"sample", coordinates()});
  out.back().spec.add_seed(1).use_sampling({.samples_per_cell = kSamples});
  return out;
}

/// One recomputed cell: its coordinates and zero-timed block.
struct Cell {
  std::string coords;  ///< "<grid> <cell> <workload> ... <seed>"
  std::string block;   ///< write_cell_result text, seconds zeroed
  double best_fitness = 0.0;
  bool optimize = false;
};

inline std::string hex(std::uint64_t value, int digits) {
  std::ostringstream out;
  out << std::hex << std::setw(digits) << std::setfill('0') << value;
  return out.str();
}

/// Run every grid in-process on `workers` threads.
inline std::vector<Cell> run_cells(std::size_t workers) {
  std::vector<Cell> cells;
  for (const auto& grid : grids()) {
    const auto& spec = grid.spec;
    const bool optimize = spec.task_kind == SweepTaskKind::Optimize;
    for (auto result : BatchEngine({.workers = workers}).run(spec)) {
      result.seconds = 0.0;
      result.run.search.seconds = 0.0;
      std::ostringstream block;
      write_cell_result(block, result);
      const auto& c = result.cell;
      Cell cell;
      cell.coords = grid.name + ' ' + std::to_string(c.index) + ' ' +
                    spec.workloads[c.workload].name + ' ' +
                    to_string(spec.topologies[c.topology].kind) + ' ' +
                    to_string(spec.goals[c.goal]) + ' ' +
                    (optimize ? spec.optimizers[c.optimizer] : "sample") +
                    ' ' + std::to_string(result.seed);
      cell.block = block.str();
      cell.best_fitness = result.run.search.best_fitness;
      cell.optimize = optimize;
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

/// The fields of a block: its lines grouped by leading keyword, in
/// first-appearance order (the magic line and `end_cell` are fixed).
inline std::vector<std::pair<std::string, std::string>> fields(
    const std::string& block) {
  std::vector<std::pair<std::string, std::string>> out;
  std::istringstream in(block);
  std::string line;
  std::getline(in, line);  // phonoc-cell v1
  while (std::getline(in, line)) {
    if (line == "end_cell") break;
    const std::string keyword = line.substr(0, line.find(' '));
    auto it = out.begin();
    while (it != out.end() && it->first != keyword) ++it;
    if (it == out.end()) it = out.insert(out.end(), {keyword, {}});
    it->second += line + '\n';
  }
  return out;
}

inline std::string digest_line(std::size_t n, const Cell& cell) {
  std::string line = std::to_string(n) + ' ' + cell.coords + ' ' +
                     hex(fnv1a64(cell.block), 16);
  for (const auto& [keyword, text] : fields(cell.block))
    line += ' ' + keyword + '=' + hex(fnv1a64(text) & 0xffffffffu, 8);
  return line;
}

/// Best fitness of every seed-1 Optimize cell: one row per coordinate,
/// one column per optimizer, four decimals — the readable companion of
/// the digest.
inline std::string best_fitness_table(const std::vector<Cell>& cells) {
  std::vector<std::string> columns;
  std::map<std::string, std::map<std::string, double>> rows;
  std::vector<std::string> row_order;
  for (const auto& cell : cells) {
    if (!cell.optimize) continue;
    const auto words = split_ws(cell.coords);
    if (words.back() != "1") continue;  // seed
    const std::string row = words[2] + ' ' + words[3] + ' ' + words[4];
    if (!rows.count(row)) row_order.push_back(row);
    const std::string& optimizer = words[5];
    if (std::find(columns.begin(), columns.end(), optimizer) == columns.end())
      columns.push_back(optimizer);
    rows[row][optimizer] = cell.best_fitness;
  }
  std::ostringstream out;
  out << "# best fitness, seed 1, " << kEvaluations << " evaluations\n";
  out << std::left << std::setw(36) << "# workload topology goal";
  for (const auto& column : columns)
    out << std::right << std::setw(10) << column;
  out << '\n';
  for (const auto& row : row_order) {
    out << std::left << std::setw(36) << row;
    for (const auto& column : columns)
      out << std::right << std::setw(10)
          << format_fixed(rows[row][column], 4);
    out << '\n';
  }
  return out.str();
}

/// Where the committed set lives, and its two files.
inline std::string directory() {
  return std::string(PHONOC_REPO_DIR) + "/tests/golden";
}
constexpr const char* kCellsFile = "cells.txt";
constexpr const char* kTableFile = "best_fitness.txt";

/// cells.txt: a header comment, then one digest line per cell.
inline std::string cells_text(const std::vector<Cell>& cells) {
  std::string text =
      "# n grid cell workload topology goal optimizer seed fnv1a64 "
      "field=fnv1a32...\n";
  for (std::size_t n = 0; n < cells.size(); ++n)
    text += digest_line(n, cells[n]) + '\n';
  return text;
}

/// The non-comment lines of a committed file (empty when missing).
inline std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);)
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  return lines;
}

/// Human-readable first difference between a recomputed digest line
/// and the committed one: the cell, then the first field that moved.
inline std::string describe_mismatch(const std::string& got,
                                     const std::string& want) {
  const auto g = split_ws(got);
  const auto w = split_ws(want);
  constexpr std::size_t kCoords = 8;  // n, grid, cell, ..., seed
  std::string cell = "cell";
  for (std::size_t i = 0; i < kCoords && i < w.size(); ++i) cell += ' ' + w[i];
  for (std::size_t i = 0; i < kCoords; ++i)
    if (i >= g.size() || i >= w.size() || g[i] != w[i])
      return cell + ": the coordinates differ (got '" + got + "')";
  for (std::size_t i = kCoords + 1; i < std::max(g.size(), w.size()); ++i) {
    const std::string got_field = i < g.size() ? g[i] : "nothing";
    const std::string want_field = i < w.size() ? w[i] : "nothing";
    if (got_field == want_field) continue;
    const std::string& named = i < w.size() ? want_field : got_field;
    return cell + ": field '" + named.substr(0, named.find('=')) +
           "' differs (got " + got_field + ", want " + want_field + ")";
  }
  return cell + ": the block hash differs (got '" + got + "')";
}

}  // namespace phonoc::golden
