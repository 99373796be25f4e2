/// \file crosstalk_report.cpp
/// \brief Deep-dive diagnostic example: optimize a mapping, then explain
/// *why* its worst communication has the SNR it has — which attackers
/// leak onto it, at which routers, through which coefficients — and
/// decompose the worst path's insertion loss element class by class.
///
/// Usage: crosstalk_report [--benchmark vopd] [--evals 6000] [--seed 1]
///                         [--topology mesh|torus] [--top 5]

#include <algorithm>
#include <iostream>

#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "model/crosstalk_analysis.hpp"
#include "model/loss_analysis.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace phonoc;
  const CliOptions cli(argc, argv);

  ExperimentSpec spec;
  spec.benchmark = cli.get_or("benchmark", "vopd");
  spec.topology = cli.get_or("topology", "mesh") == "torus"
                      ? TopologyKind::Torus
                      : TopologyKind::Mesh;
  spec.goal = OptimizationGoal::Snr;
  const auto problem = make_experiment(spec);
  const auto top = cli.get_uint<std::size_t>("top", 5);

  OptimizerBudget budget;
  budget.max_evaluations = cli.get_uint<std::uint64_t>("evals", 6000);
  const auto run = Engine(problem).run(
      "rpbla", budget, cli.get_uint<std::uint64_t>("seed", 1));

  std::cout << "crosstalk diagnosis of the optimized mapping\n";
  std::cout << summarize_run(run) << "\n\n";
  std::cout << render_mapping(problem.network().topology(), problem.cg(),
                              run.search.best)
            << '\n';

  const auto& cg = problem.cg();
  const auto edges = cg.edges();
  const auto reports = analyze_crosstalk(problem.network(), cg,
                                         run.search.best.assignment());

  // Find the worst victim (the communication defining SNR_wc).
  const auto worst = std::min_element(
      reports.begin(), reports.end(),
      [](const VictimReport& a, const VictimReport& b) {
        return a.snr_db < b.snr_db;
      });
  const auto& victim_edge = edges[worst->victim_edge];
  std::cout << "worst communication: " << cg.task_name(victim_edge.src)
            << " -> " << cg.task_name(victim_edge.dst) << "  (SNR "
            << format_fixed(worst->snr_db, 2) << " dB, signal "
            << format_fixed(linear_to_db(worst->signal_gain), 2)
            << " dB, " << worst->events.size() << " noise events)\n\n";

  std::cout << "top noise contributors:\n";
  for (std::size_t i = 0; i < std::min(top, worst->events.size()); ++i) {
    const auto& event = worst->events[i];
    const auto& attacker = edges[event.attacker_edge];
    const auto pos = problem.network().topology().position(event.router_tile);
    std::cout << "  " << (i + 1) << ". attacker "
              << cg.task_name(attacker.src) << " -> "
              << cg.task_name(attacker.dst) << " at router (" << pos.row
              << "," << pos.col << "): coefficient "
              << format_fixed(linear_to_db(event.coefficient), 1)
              << " dB, attacker power "
              << format_fixed(linear_to_db(event.attacker_power), 2)
              << " dB, noise at detector "
              << format_fixed(linear_to_db(event.noise_at_detector), 1)
              << " dB\n";
  }

  // Loss breakdown of the worst-loss path of the same mapping.
  const auto eval = run.best_evaluation;
  const auto worst_loss_edge = std::min_element(
      eval.edges.begin(), eval.edges.end(),
      [](const EdgeMetrics& a, const EdgeMetrics& b) {
        return a.loss_db < b.loss_db;
      });
  std::cout << "\ninsertion-loss breakdown of the lossiest path ("
            << cg.task_name(edges[worst_loss_edge->edge].src) << " -> "
            << cg.task_name(edges[worst_loss_edge->edge].dst) << ", "
            << format_fixed(worst_loss_edge->loss_db, 2) << " dB):\n";
  const auto breakdown = analyze_path_loss(
      problem.network(), worst_loss_edge->src_tile,
      worst_loss_edge->dst_tile);
  for (const auto& c : breakdown.contributions) {
    const auto pos = problem.network().topology().position(c.tile);
    std::cout << "  ("
              << pos.row << "," << pos.col << ") "
              << (c.kind == LossContribution::Kind::RouterConnection
                      ? "router "
                      : "link   ")
              << c.label << ": " << format_fixed(c.loss_db, 3) << " dB\n";
  }
  std::cout << "  total: " << format_fixed(breakdown.total_db, 3) << " dB over "
            << breakdown.hop_count << " routers and "
            << format_fixed(breakdown.link_length_cm, 2)
            << " cm of waveguide\n";
  return 0;
}
