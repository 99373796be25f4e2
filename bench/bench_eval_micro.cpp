/// \file bench_eval_micro.cpp
/// \brief P1 — google-benchmark microbenchmarks of the hot paths: the
/// mapping evaluator (which the DSE calls tens of thousands of times),
/// router-model derivation, and network-model construction.
///
/// Before the benchmarks run, main() checks the evaluation kernel for
/// bitwise agreement with per-mapping `evaluate_mapping` — the full
/// pass with per-edge detail, and the loss-only pass on worst-case loss
/// and every edge's loss and signal gain — on a 4x4 CG, on dvopd (the
/// costliest problem of the fleet sweep grid) and on the reference CG,
/// then reports the kernel's and the scalar loop's mappings/sec on each
/// problem, one mapping per call.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/evaluator.hpp"
#include "core/experiment.hpp"
#include "model/batch_eval.hpp"
#include "model/evaluation.hpp"
#include "router/registry.hpp"
#include "router/router_model.hpp"
#include "util/rng.hpp"
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

// --- the kernel vs the scalar reference loop --------------------------------

/// dvopd on its auto-sized 6x6 mesh (32 tasks, 44 edges): the fleet
/// sweep grid's costliest problem, so the agreement checks cover the
/// sizes where that grid spends its kernel time.
MappingProblem make_fleet_problem() {
  ExperimentSpec spec;
  spec.benchmark = "dvopd";
  return make_experiment(spec);
}

/// A smaller CG on a 4x4 mesh for the CG-size axis of the kernel
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

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Assert kernel/scalar agreement (bitwise) on `problem`, then time the
/// scalar reference loop against the kernel, one mapping per call,
/// single-threaded. Returns the kernel's speedup over the scalar loop.
double report_kernel_for(const char* label, const MappingProblem& problem) {
  const auto& net = problem.network();
  const auto& cg = problem.cg();
  const std::size_t edges = cg.communication_count();
  BatchEvaluator kernel(net, cg);
  std::fprintf(stderr, "# kernel vs scalar, %s: %zu tasks, %zu edges\n",
               label, problem.task_count(), edges);

  // Agreement: every mapping checked bitwise against evaluate_mapping,
  // through the full pass with per-edge detail and the loss-only pass
  // (which must match on every loss field it scores).
  {
    Rng rng(23);
    const std::size_t n = 101;
    std::vector<EdgeMetrics> detail(edges);
    std::vector<EdgeMetrics> loss_detail(edges);
    for (std::size_t i = 0; i < n; ++i) {
      const auto mapping =
          Mapping::random(problem.task_count(), problem.tile_count(), rng);
      const auto full = evaluate_mapping(net, cg, mapping.assignment(), true);
      const BatchPoint point = kernel.evaluate(mapping.assignment(), detail);
      const BatchPoint loss =
          kernel.evaluate(mapping.assignment(), loss_detail, /*noise=*/false);
      bool full_agrees = same_bits(full.worst_loss_db, point.worst_loss_db) &&
                         same_bits(full.worst_snr_db, point.worst_snr_db);
      bool loss_agrees = same_bits(full.worst_loss_db, loss.worst_loss_db);
      for (std::size_t e = 0; e < edges; ++e) {
        const auto& want = full.edges[e];
        const auto& got = detail[e];
        full_agrees = full_agrees && got.src_tile == want.src_tile &&
                      got.dst_tile == want.dst_tile &&
                      same_bits(got.loss_db, want.loss_db) &&
                      same_bits(got.signal_gain, want.signal_gain) &&
                      same_bits(got.noise_gain, want.noise_gain) &&
                      same_bits(got.snr_db, want.snr_db);
        loss_agrees = loss_agrees &&
                      same_bits(loss_detail[e].loss_db, want.loss_db) &&
                      same_bits(loss_detail[e].signal_gain, want.signal_gain);
      }
      if (!full_agrees || !loss_agrees) {
        std::fprintf(stderr,
                     "FATAL: %s pass and scalar evaluation disagree on %s "
                     "at mapping %zu\n",
                     full_agrees ? "loss-only" : "full", label, i);
        std::exit(1);
      }
    }
    std::fprintf(stderr,
                 "# agreement: %zu random mappings, kernel == scalar "
                 "bitwise, per-edge detail and loss-only pass included\n",
                 n);
  }

  // Throughput: the same mappings through each path.
  const std::size_t total = edges >= 100 ? 2048 : 8192;
  Rng rng(31);
  std::vector<Mapping> mappings;
  mappings.reserve(total);
  for (std::size_t i = 0; i < total; ++i)
    mappings.push_back(
        Mapping::random(problem.task_count(), problem.tile_count(), rng));

  // The scalar baseline is the reference loop the kernel must match.
  Timer scalar_timer;
  for (const auto& mapping : mappings) {
    const auto result = evaluate_mapping(net, cg, mapping.assignment());
    benchmark::DoNotOptimize(result.worst_snr_db);
  }
  const double scalar_mps = total / scalar_timer.elapsed_seconds();

  Timer kernel_timer;
  for (const auto& mapping : mappings) {
    const BatchPoint point = kernel.evaluate(mapping.assignment());
    benchmark::DoNotOptimize(point.worst_snr_db);
  }
  const double kernel_mps = total / kernel_timer.elapsed_seconds();
  std::fprintf(stderr, "# scalar loop: %12.0f mappings/sec\n", scalar_mps);
  std::fprintf(stderr, "# kernel:      %12.0f mappings/sec  (%.1fx)\n\n",
               kernel_mps, kernel_mps / scalar_mps);
  return kernel_mps / scalar_mps;
}

void report_kernel_vs_scalar() {
  report_kernel_for("small CG on 4x4 mesh", make_small_problem());
  report_kernel_for("dvopd on 6x6 mesh", make_fleet_problem());
  const double speedup =
      report_kernel_for("reference CG on 8x8 torus", make_large_problem());
  std::fprintf(stderr,
               "# reference-CG speedup: %.1fx (%s the >=2x acceptance "
               "bar)\n\n",
               speedup, speedup >= 2.0 ? "PASS" : "below");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  report_kernel_vs_scalar();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
