/// \file mapping_probe.cpp
/// \brief The in-process layer probe of traced runs: model, core and
/// mapping unit costs on the workload's own problems.

#include <algorithm>
#include <set>

#include "core/evaluator.hpp"
#include "core/experiment.hpp"
#include "mapping/registry.hpp"
#include "model/batch_eval.hpp"
#include "model/evaluation.hpp"
#include "model/incremental.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace phonoc;

namespace {

/// FitnessFunction decorator: forwards every call to the Evaluator and
/// accumulates the time spent inside it, so optimizer wall time splits
/// into fitness time and the optimizer's own (mapping-layer) time.
class TimedFitness final : public FitnessFunction {
 public:
  explicit TimedFitness(Evaluator& inner) : inner_(inner) {}

  double evaluate(const Mapping& mapping) override {
    const double t0 = now_seconds();
    const double fitness = inner_.evaluate(mapping);
    inside_ += now_seconds() - t0;
    return fitness;
  }
  void evaluate_batch(std::span<const Mapping> mappings,
                      std::span<double> out) override {
    const double t0 = now_seconds();
    inner_.evaluate_batch(mappings, out);
    inside_ += now_seconds() - t0;
  }
  [[nodiscard]] bool supports_moves() const override {
    return inner_.supports_moves();
  }
  double propose_swap(const Mapping& after, TileId a, TileId b) override {
    const double t0 = now_seconds();
    const double fitness = inner_.propose_swap(after, a, b);
    inside_ += now_seconds() - t0;
    return fitness;
  }
  void commit_move() override {
    const double t0 = now_seconds();
    inner_.commit_move();
    inside_ += now_seconds() - t0;
  }
  void revert_move() override {
    const double t0 = now_seconds();
    inner_.revert_move();
    inside_ += now_seconds() - t0;
  }
  void apply_move(const Mapping& after, TileId a, TileId b) override {
    const double t0 = now_seconds();
    inner_.apply_move(after, a, b);
    inside_ += now_seconds() - t0;
  }

  [[nodiscard]] double inside_seconds() const noexcept { return inside_; }

 private:
  Evaluator& inner_;
  double inside_ = 0.0;
};

constexpr std::size_t kModelMappings = 64;
constexpr std::size_t kModelSwaps = 256;
constexpr int kBuildRepeats = 3;
/// Consumes the timed results so the compiler cannot drop the work.
volatile double g_sink = 0.0;

}  // namespace

void layer_probe(const std::vector<ProbeCell>& cells, Report& report) {
  // mapping + core: the workload's cells through the timing decorator.
  double wall = 0.0;
  double inside = 0.0;
  double hits = 0.0;
  double misses = 0.0;
  double physical = 0.0;
  double rebuilds = 0.0;
  for (const auto& cell : cells) {
    Evaluator evaluator(*cell.problem, EvaluatorOptions{});
    TimedFitness fitness(evaluator);
    const auto optimizer = make_optimizer(cell.optimizer);
    const double t0 = now_seconds();
    (void)optimizer->optimize(fitness, cell.problem->task_count(),
                              cell.problem->tile_count(),
                              OptimizerBudget{cell.max_evaluations, 0.0},
                              cell.seed);
    wall += now_seconds() - t0;
    inside += fitness.inside_seconds();
    hits += static_cast<double>(evaluator.cache_hit_count());
    misses += static_cast<double>(evaluator.cache_miss_count());
    physical += static_cast<double>(evaluator.physical_evaluation_count());
    rebuilds += static_cast<double>(evaluator.kernel_rebuild_count());
  }
  report.set("mapping.self_frac", wall > 0 ? (wall - inside) / wall : 0.0,
             "ratio", cells.size());
  report.set("core.memo_hit_frac",
             hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio",
             static_cast<std::size_t>(hits + misses));
  report.set("core.physical_evals", physical, "count", cells.size());
  report.set("model.kernel_rebuilds", rebuilds, "count", cells.size());

  // model: unit costs on each distinct problem of the probe.
  std::vector<const ProbeCell*> distinct;
  for (const auto& cell : cells)
    if (std::none_of(distinct.begin(), distinct.end(), [&](const ProbeCell* d) {
          return d->problem == cell.problem;
        }))
      distinct.push_back(&cell);
  std::vector<double> network_ms, plan_ms;
  double scalar_s = 0.0, batch_s = 0.0, delta_s = 0.0;
  std::size_t scalar_n = 0, batch_n = 0, delta_n = 0;
  std::set<std::pair<TopologyKind, std::uint32_t>> networks_timed;
  Rng rng(17);
  for (const ProbeCell* cell : distinct) {
    const auto& problem = *cell->problem;
    const auto& net = problem.network();
    const auto& cg = problem.cg();
    if (networks_timed.insert({cell->topology, cell->side}).second) {
      for (int r = 0; r < kBuildRepeats; ++r) {
        const double t0 = now_seconds();
        const auto built = make_network(cell->topology, cell->side, "crux");
        network_ms.push_back((now_seconds() - t0) * 1e3);
      }
    }
    for (int r = 0; r < kBuildRepeats; ++r) {
      const double t0 = now_seconds();
      const BatchEvalPlan plan(net, cg);
      plan_ms.push_back((now_seconds() - t0) * 1e3);
    }
    std::vector<Mapping> mappings;
    for (std::size_t i = 0; i < kModelMappings; ++i)
      mappings.push_back(
          Mapping::random(problem.task_count(), problem.tile_count(), rng));
    double sink = 0.0;
    double t0 = now_seconds();
    for (const auto& mapping : mappings)
      sink += evaluate_mapping(net, cg, mapping.assignment()).worst_snr_db;
    scalar_s += now_seconds() - t0;
    scalar_n += mappings.size();

    const Evaluator evaluator(problem);
    std::vector<BatchPoint> points(mappings.size());
    evaluator.evaluate_raw_batch(mappings, points);  // builds the plan
    t0 = now_seconds();
    evaluator.evaluate_raw_batch(mappings, points);
    batch_s += now_seconds() - t0;
    batch_n += mappings.size();
    sink += points.front().worst_snr_db;

    IncrementalEvaluation kernel(net, cg);
    kernel.reset(mappings.front().assignment());
    const auto tiles = problem.tile_count();
    t0 = now_seconds();
    for (std::size_t i = 0; i < kModelSwaps; ++i) {
      const auto a = static_cast<TileId>(rng.next_below(tiles));
      auto b = static_cast<TileId>(rng.next_below(tiles - 1));
      if (b >= a) ++b;
      kernel.propose_swap(a, b);
      kernel.revert();
    }
    delta_s += now_seconds() - t0;
    delta_n += kModelSwaps;
    sink += kernel.view().worst_snr_db;
    g_sink = sink;
  }
  report.set("model.network_build_ms", median(network_ms), "ms",
             network_ms.size());
  report.set("model.plan_build_ms", median(plan_ms), "ms", plan_ms.size());
  report.set("model.scalar_us", scalar_n ? scalar_s * 1e6 / scalar_n : 0.0,
             "us", scalar_n);
  report.set("model.batch_us", batch_n ? batch_s * 1e6 / batch_n : 0.0, "us",
             batch_n);
  report.set("model.delta_us", delta_n ? delta_s * 1e6 / delta_n : 0.0, "us",
             delta_n);
}

}  // namespace perfbench
