/// \file bench_fig3_distributions.cpp
/// \brief Experiment E1/E2 — paper Fig. 3 (a) and (b).
///
/// For each of the eight multimedia applications, evaluate a large
/// number of random mapping solutions on the smallest fitting square
/// mesh with the Crux router (the paper uses 100 000 per application)
/// and record the probability distribution of the worst-case SNR and
/// the worst-case power loss.
///
/// The sampling runs through BatchEngine's SweepTaskKind::Sample path:
/// each application's sample budget is split into `--subcells`
/// sub-cells (one per seed, seeds `--seed` .. `--seed + subcells - 1`),
/// every sub-cell evaluates its share with a deterministic per-cell
/// RNG, and the constant-size DistributionResult payloads (Histogram +
/// RunningStats per metric) merge in grid order. The merged
/// distributions are bit-identical whatever the worker count or
/// backend — `--verify` asserts exactly that against a fresh
/// in-process run, which is what CI's fork and two-daemon TCP smokes
/// lean on. `--backend=fork` runs the sub-cells on `--workers` local
/// worker processes (spawn hosts for the `phonoc_workerd` next to this
/// executable).
///
/// Memory: no raw per-sample vectors are kept (at paper scale those
/// were 2 x 100k doubles per app); quantiles come from the merged
/// histograms (linear interpolation inside the crossing bin). Pass
/// `--exact-quantiles` on small runs to replay the sample streams
/// in-process and report exact quartiles instead.
///
/// Output: a per-application summary table (min / mean / max / stddev /
/// quartiles) followed by the histogram series in CSV form — the same
/// data the paper plots as Fig. 3.
///
/// Scale knobs: PHONOC_FIG3_SAMPLES overrides the per-app sample count;
/// PHONOC_FULL=1 selects the paper's 100 000.
///
///     bench_fig3_distributions [--samples=N] [--subcells=K] [--seed=S]
///                              [--workers=N]
///                              [--backend=thread|fork|remote]
///                              [--hosts=EP1,EP2,...]
///                              [--verify] [--exact-quantiles]

#include <iostream>
#include <vector>

#include "core/evaluator.hpp"
#include "exec/batch_engine.hpp"
#include "exec/sweep.hpp"
#include "io/csv.hpp"
#include "io/table_writer.hpp"
#include "sched/transport.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"
#include "workloads/benchmarks.hpp"

namespace {

using namespace phonoc;

/// Replay one app's sample streams in-process to collect raw metric
/// values (the opt-in exact-quantile path; costs a full re-evaluation,
/// so only sensible at small sample counts).
void replay_exact(const SweepSpec& spec, std::size_t workload,
                  std::vector<double>& snr_values,
                  std::vector<double>& loss_values) {
  const auto problem =
      make_problem(spec, SweepCell{.workload = workload});
  const Evaluator evaluator(problem);
  for (std::size_t s = 0; s < spec.seeds.size(); ++s) {
    Rng rng(spec.seeds[s]);
    for (std::uint64_t i = 0; i < spec.sampling.samples_per_cell; ++i) {
      const auto mapping =
          Mapping::random(problem.task_count(), problem.tile_count(), rng);
      const auto result = evaluator.evaluate_raw(mapping);
      snr_values.push_back(result.worst_snr_db);
      loss_values.push_back(result.worst_loss_db);
    }
  }
}

/// One app's sub-cells merged in grid (seed) order — the canonical
/// fold of the bit-identity contract (merge_cell_distributions).
DistributionResult merge_app(const std::vector<CellResult>& results,
                             std::size_t workload, std::size_t subcells) {
  return merge_cell_distributions(results, workload * subcells, subcells);
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli(argc, argv);
  const auto samples = cli.get_uint<std::uint64_t>(
      "samples", static_cast<std::uint64_t>(env_int(
                     "PHONOC_FIG3_SAMPLES",
                     full_scale_requested() ? 100000 : 20000)));
  const auto subcells =
      std::max<std::size_t>(1, cli.get_uint<std::size_t>("subcells", 8));
  const auto seed = cli.get_uint<std::uint64_t>("seed", 1);
  const auto workers = cli.get_uint<std::size_t>("workers", 0);
  const auto backend_name = cli.get_or("backend", "thread");
  if (backend_name != "thread" && backend_name != "fork" &&
      backend_name != "remote") {
    std::cerr << "error: --backend must be 'thread', 'fork' or 'remote'\n";
    return 1;
  }
  const auto per_cell =
      std::max<std::uint64_t>(1, (samples + subcells - 1) / subcells);

  SweepSpec spec;
  spec.add_all_benchmarks()
      .add_topology(TopologyKind::Mesh)
      .add_goal(OptimizationGoal::Snr)
      .add_seed_range(seed, subcells)
      .use_sampling({.samples_per_cell = per_cell});

  BatchOptions options{.workers = workers};
  if (backend_name == "fork") {
    options.backend = BatchBackend::Remote;
    options.remote_hosts = local_worker_endpoints(argv[0], workers);
  } else if (backend_name == "remote") {
    options.backend = BatchBackend::Remote;
    for (const auto& endpoint :
         split(cli.get_or("hosts", "loopback,loopback"), ','))
      if (!trim(endpoint).empty())
        options.remote_hosts.emplace_back(trim(endpoint));
  }
  const BatchEngine engine(options);

  std::cout << "# Fig. 3 reproduction: distribution of worst-case SNR and "
               "power loss over\n# "
            << per_cell * subcells << " random mappings per application ("
            << subcells << " sub-cells x " << per_cell
            << " samples, mesh + Crux router, backend " << backend_name
            << ")\n\n";

  Timer timer;
  const auto results = engine.run(spec);
  std::size_t failed = 0;
  for (const auto& result : results)
    if (result.status == CellStatus::Failed) {
      std::cerr << "error: cell " << result.cell.index << " ("
                << cell_label(spec, result.cell) << ") failed: "
                << result.error << '\n';
      ++failed;
    }
  if (failed > 0) return 1;

  TableWriter summary({"app", "tasks", "edges", "grid", "metric", "min",
                       "mean", "max", "stddev", "p25", "p50", "p75"});
  std::vector<std::string> csv_lines;
  CsvWriter csv(std::cout);

  for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
    const auto& name = spec.workloads[w].name;
    const auto merged = merge_app(results, w, subcells);

    std::vector<double> exact_snr, exact_loss;
    if (cli.has("exact-quantiles"))
      replay_exact(spec, w, exact_snr, exact_loss);

    const auto side = resolved_side(spec, w, 0);
    const auto grid = std::to_string(side) + "x" + std::to_string(side);
    const auto add_summary = [&](const char* metric,
                                 std::vector<double>& exact_values) {
      const auto* dist = merged.find(metric);
      const auto q = [&](double p) {
        return exact_values.empty() ? dist->histogram.quantile(p)
                                    : quantile(exact_values, p);
      };
      summary.add_row({name, std::to_string(spec.workloads[w].cg.task_count()),
                       std::to_string(
                           spec.workloads[w].cg.communication_count()),
                       grid, metric, format_fixed(dist->stats.min(), 2),
                       format_fixed(dist->stats.mean(), 2),
                       format_fixed(dist->stats.max(), 2),
                       format_fixed(dist->stats.stddev(), 2),
                       format_fixed(q(0.25), 2), format_fixed(q(0.50), 2),
                       format_fixed(q(0.75), 2)});
      for (std::size_t b = 0; b < dist->histogram.bins(); ++b) {
        if (dist->histogram.count(b) == 0) continue;
        csv_lines.push_back(name + std::string(",") + metric + "," +
                            format_fixed(dist->histogram.bin_low(b), 3) + "," +
                            format_fixed(dist->histogram.bin_high(b), 3) +
                            "," +
                            format_fixed(dist->histogram.probability(b), 6));
      }
    };
    add_summary("snr_db", exact_snr);
    add_summary("loss_db", exact_loss);
  }

  std::cout << summary.to_ascii() << '\n';
  std::cout << "# Fig. 3 series (probability mass per bin):\n";
  csv.header({"app", "metric", "bin_low", "bin_high", "probability"});
  for (const auto& line : csv_lines) std::cout << line << '\n';
  std::cout << "\n# total time: " << format_fixed(timer.elapsed_seconds(), 1)
            << " s for " << per_cell * subcells << " samples x "
            << spec.workloads.size() << " apps\n";

  if (cli.has("verify")) {
    std::cout << "# verifying bit-identity against the in-process backend..."
              << std::endl;
    const auto reference = BatchEngine({.workers = workers}).run(spec);
    std::size_t mismatches = 0;
    for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
      if (identical_distributions(merge_app(results, w, subcells),
                                  merge_app(reference, w, subcells)))
        continue;
      std::cerr << "error: merged distribution for app '"
                << spec.workloads[w].name
                << "' differs from the in-process backend\n";
      ++mismatches;
    }
    if (mismatches > 0) return 1;
    std::cout << "# determinism check passed: " << spec.workloads.size()
              << " merged app distributions bit-identical across backends."
              << std::endl;
  }
  return 0;
}
