/// \file bench_eval_micro.cpp
/// \brief P1 — google-benchmark microbenchmarks of the hot paths: the
/// mapping evaluator (which the DSE calls tens of thousands of times),
/// the SoA batched kernel, router-model derivation, and network-model
/// construction.
///
/// Before the benchmarks run, main() checks the batched kernel for
/// bitwise agreement against per-mapping evaluation — the loss-only
/// pass included, on worst-case loss and every edge's loss and signal
/// gain — on a 4x4 CG, on dvopd (the costliest problem of the fleet
/// sweep grid) and on the reference CG, then reports per-mapping
/// throughput (mappings/sec) across batch sizes {1, 8, 64, 512} and CG
/// sizes.
/// --json=FILE dumps the batched section's headline numbers
/// (bench/BENCH_batch_eval.json; regenerate with
/// bench/update_snapshots.sh).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "core/evaluator.hpp"
#include "core/experiment.hpp"
#include "model/batch_eval.hpp"
#include "model/evaluation.hpp"
#include "router/registry.hpp"
#include "router/router_model.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"
#include "workloads/benchmarks.hpp"
#include "workloads/generator.hpp"

namespace {

using namespace phonoc;

/// The reference CG: a dense random CG filling an 8x8 torus (64 tasks,
/// 175 edges).
MappingProblem make_large_problem() {
  auto cg = random_cg({.tasks = 64,
                       .avg_out_degree = 3.0,
                       .min_bandwidth = 8,
                       .max_bandwidth = 256,
                       .seed = 7,
                       .acyclic = false});
  return MappingProblem(std::move(cg),
                        make_network(TopologyKind::Torus, 8, "crux"),
                        make_objective(OptimizationGoal::Snr));
}

void BM_EvaluateMapping(benchmark::State& state,
                        const std::string& benchmark_name) {
  ExperimentSpec spec;
  spec.benchmark = benchmark_name;
  const auto problem = make_experiment(spec);
  const Evaluator evaluator(problem);
  Rng rng(7);
  std::vector<Mapping> mappings;
  for (int i = 0; i < 64; ++i)
    mappings.push_back(
        Mapping::random(problem.task_count(), problem.tile_count(), rng));
  std::size_t i = 0;
  for (auto _ : state) {
    const auto result = evaluator.evaluate_raw(mappings[i++ % 64]);
    benchmark::DoNotOptimize(result.worst_snr_db);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_EvaluatePip(benchmark::State& state) {
  BM_EvaluateMapping(state, "pip");
}
void BM_EvaluateMpeg4(benchmark::State& state) {
  BM_EvaluateMapping(state, "mpeg4");
}
void BM_EvaluateVopd(benchmark::State& state) {
  BM_EvaluateMapping(state, "vopd");
}
void BM_EvaluateDvopd(benchmark::State& state) {
  BM_EvaluateMapping(state, "dvopd");
}
BENCHMARK(BM_EvaluatePip);
BENCHMARK(BM_EvaluateMpeg4);
BENCHMARK(BM_EvaluateVopd);
BENCHMARK(BM_EvaluateDvopd);

void BM_RouterModelBuild(benchmark::State& state) {
  const auto netlist = make_router_netlist("crux");
  for (auto _ : state) {
    const RouterModel model(netlist, PhysicalParameters::paper_defaults());
    benchmark::DoNotOptimize(model.connection_count());
  }
}
BENCHMARK(BM_RouterModelBuild);

void BM_NetworkModelBuild(benchmark::State& state) {
  const auto side = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    const auto net = make_network(TopologyKind::Mesh, side, "crux");
    benchmark::DoNotOptimize(net->tile_count());
  }
}
BENCHMARK(BM_NetworkModelBuild)->Arg(4)->Arg(6)->Arg(8);

void BM_PathLookup(benchmark::State& state) {
  const auto net = make_network(TopologyKind::Mesh, 6, "crux");
  Rng rng(3);
  for (auto _ : state) {
    const auto s = static_cast<TileId>(rng.next_below(36));
    auto d = static_cast<TileId>(rng.next_below(36));
    if (d == s) d = (d + 1) % 36;
    benchmark::DoNotOptimize(net->path(s, d).total_gain);
  }
}
BENCHMARK(BM_PathLookup);

void BM_NoiseContribution(benchmark::State& state) {
  const auto net = make_network(TopologyKind::Mesh, 6, "crux");
  const auto& a = net->path(0, 35);
  const auto& b = net->path(30, 5);
  for (auto _ : state)
    benchmark::DoNotOptimize(noise_contribution(*net, a, b));
}
BENCHMARK(BM_NoiseContribution);

// --- batched (SoA) vs scalar bulk evaluation --------------------------------

/// dvopd on its auto-sized 6x6 mesh (32 tasks, 44 edges): the fleet
/// sweep grid's costliest problem, so the agreement checks cover the
/// sizes where that grid spends its kernel time.
MappingProblem make_fleet_problem() {
  ExperimentSpec spec;
  spec.benchmark = "dvopd";
  return make_experiment(spec);
}

/// A smaller CG on a 4x4 mesh for the CG-size axis of the batched
/// section (the large problem above is the 8x8-torus reference).
MappingProblem make_small_problem() {
  auto cg = random_cg({.tasks = 12,
                       .avg_out_degree = 2.0,
                       .min_bandwidth = 8,
                       .max_bandwidth = 256,
                       .seed = 5,
                       .acyclic = false});
  return MappingProblem(std::move(cg),
                        make_network(TopologyKind::Mesh, 4, "crux"),
                        make_objective(OptimizationGoal::Snr));
}

void BM_BatchedEvaluate(benchmark::State& state) {
  const auto problem = make_large_problem();
  const Evaluator evaluator(problem);
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<Mapping> mappings;
  for (std::size_t i = 0; i < batch; ++i)
    mappings.push_back(
        Mapping::random(problem.task_count(), problem.tile_count(), rng));
  std::vector<BatchPoint> points(batch);
  for (auto _ : state) {
    evaluator.evaluate_raw_batch(mappings, points);
    benchmark::DoNotOptimize(points.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * batch));
}
BENCHMARK(BM_BatchedEvaluate)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

struct BatchedHeadline {
  std::size_t edges = 0;
  double scalar_mps = 0.0;  ///< scalar loop, mappings/sec
  double batched_mps[4] = {0.0, 0.0, 0.0, 0.0};  ///< B = 1, 8, 64, 512
};

constexpr std::size_t kBatchSizes[4] = {1, 8, 64, 512};

/// Assert batched/scalar agreement (bitwise) on `problem`, then time
/// the scalar per-mapping loop against the batched kernel at each
/// batch size, single-threaded. Returns the headline numbers.
BatchedHeadline report_batched_for(const char* label,
                                   const MappingProblem& problem) {
  BatchedHeadline head;
  head.edges = problem.cg().communication_count();
  const Evaluator evaluator(problem);
  std::fprintf(stderr, "# batched vs scalar, %s: %zu tasks, %zu edges\n",
               label, problem.task_count(), head.edges);

  // Agreement: one odd-sized batch, every mapping checked bitwise
  // against evaluate_mapping, through the full pass and the loss-only
  // pass (which must match on every loss field it scores).
  {
    BatchEvaluator kernel(problem.network(), problem.cg());
    Rng rng(23);
    const std::size_t n = 101;
    std::vector<Mapping> mappings;
    std::vector<TileId> flat;
    for (std::size_t i = 0; i < n; ++i) {
      mappings.push_back(
          Mapping::random(problem.task_count(), problem.tile_count(), rng));
      const auto assignment = mappings.back().assignment();
      flat.insert(flat.end(), assignment.begin(), assignment.end());
    }
    std::vector<BatchPoint> points(n);
    evaluator.evaluate_raw_batch(mappings, points);
    std::vector<BatchPoint> loss(n);
    std::vector<EdgeMetrics> loss_edges(n * head.edges);
    kernel.evaluate(flat, n, loss, loss_edges, /*noise=*/false);
    for (std::size_t i = 0; i < n; ++i) {
      const auto full = evaluate_mapping(problem.network(), problem.cg(),
                                         mappings[i].assignment(), true);
      bool loss_agrees = full.worst_loss_db == loss[i].worst_loss_db;
      for (std::size_t e = 0; e < head.edges; ++e) {
        const auto& got = loss_edges[i * head.edges + e];
        loss_agrees = loss_agrees && got.loss_db == full.edges[e].loss_db &&
                      got.signal_gain == full.edges[e].signal_gain;
      }
      if (full.worst_loss_db != points[i].worst_loss_db ||
          full.worst_snr_db != points[i].worst_snr_db || !loss_agrees) {
        std::fprintf(stderr,
                     "FATAL: %s pass and scalar evaluation disagree on %s "
                     "at mapping %zu\n",
                     loss_agrees ? "batched" : "loss-only", label, i);
        std::exit(1);
      }
    }
    std::fprintf(stderr,
                 "# agreement: %zu random mappings, batched == scalar "
                 "bitwise, loss-only pass included\n",
                 n);
  }

  // Throughput: the same total mapping count through each path.
  const std::size_t total = head.edges >= 100 ? 2048 : 8192;
  Rng rng(31);
  std::vector<Mapping> mappings;
  mappings.reserve(total);
  for (std::size_t i = 0; i < total; ++i)
    mappings.push_back(
        Mapping::random(problem.task_count(), problem.tile_count(), rng));

  // The scalar baseline is the reference loop the kernel must match.
  Timer scalar_timer;
  for (const auto& mapping : mappings) {
    const auto result = evaluate_mapping(problem.network(), problem.cg(),
                                         mapping.assignment());
    benchmark::DoNotOptimize(result.worst_snr_db);
  }
  head.scalar_mps = total / scalar_timer.elapsed_seconds();
  std::fprintf(stderr, "# scalar loop:   %12.0f mappings/sec\n",
               head.scalar_mps);

  for (std::size_t s = 0; s < 4; ++s) {
    const std::size_t batch = kBatchSizes[s];
    std::vector<BatchPoint> points(batch);
    Timer timer;
    for (std::size_t start = 0; start < total; start += batch) {
      const std::size_t n = std::min(batch, total - start);
      evaluator.evaluate_raw_batch(
          std::span<const Mapping>(mappings.data() + start, n),
          std::span<BatchPoint>(points.data(), n));
      benchmark::DoNotOptimize(points.data());
    }
    head.batched_mps[s] = total / timer.elapsed_seconds();
    std::fprintf(stderr,
                 "# batched B=%-3zu: %12.0f mappings/sec  (%.1fx)\n", batch,
                 head.batched_mps[s], head.batched_mps[s] / head.scalar_mps);
  }
  std::fprintf(stderr, "\n");
  return head;
}

void report_batched_vs_scalar(const std::optional<std::string>& json_path) {
  const auto small = make_small_problem();
  report_batched_for("small CG on 4x4 mesh", small);
  report_batched_for("dvopd on 6x6 mesh", make_fleet_problem());
  const auto large = make_large_problem();
  const auto head = report_batched_for("reference CG on 8x8 torus", large);

  const double speedup_64 = head.batched_mps[2] / head.scalar_mps;
  const double speedup_512 = head.batched_mps[3] / head.scalar_mps;
  std::fprintf(stderr, "# reference-CG speedup: B=64 %.1fx, B=512 %.1fx (%s "
               "the >=2x acceptance bar)\n\n",
               speedup_64, speedup_512,
               std::min(speedup_64, speedup_512) >= 2.0 ? "PASS" : "below");

  if (!json_path) return;
  std::ofstream out(*json_path);
  if (!out) {
    std::cerr << "error: cannot open " << *json_path << " for writing\n";
    std::exit(1);
  }
  out << "{\n"
      << "  \"benchmark\": \"batch_eval\",\n"
      << "  \"reference_edges\": " << head.edges << ",\n"
      << "  \"scalar_mappings_per_sec\": " << format_fixed(head.scalar_mps, 0)
      << ",\n";
  for (std::size_t s = 0; s < 4; ++s)
    out << "  \"batched_b" << kBatchSizes[s]
        << "_mappings_per_sec\": " << format_fixed(head.batched_mps[s], 0)
        << ",\n";
  out << "  \"speedup_b64\": " << format_fixed(speedup_64, 2) << ",\n"
      << "  \"speedup_b512\": " << format_fixed(speedup_512, 2) << "\n"
      << "}\n";
  std::cout << "# snapshot written to " << *json_path << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --json=FILE (ours) before google-benchmark sees the argv.
  std::optional<std::string> json_path;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0)
      json_path = std::string(argv[i] + 7);
    else
      argv[kept++] = argv[i];
  }
  argc = kept;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  report_batched_vs_scalar(json_path);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
