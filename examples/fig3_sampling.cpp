/// \file fig3_sampling.cpp
/// \brief Example: mass-sample random mappings through BatchEngine's
/// Sample task kind and merge the distribution shards.
///
/// The Fig. 3 experiment shape — evaluate N random mappings per
/// application and look at the worst-case SNR / power-loss
/// distributions — is a sweep whose cells *sample* instead of
/// *optimize*. `SweepSpec::use_sampling` switches the grid's task kind;
/// the seed dimension then acts as the sub-cell axis: each seed owns
/// `samples_per_cell` draws from its own deterministic RNG, every
/// backend executes the cells unchanged, and the constant-size
/// `DistributionResult` payloads merge bit-identically whatever the
/// worker count or backend.
///
///     fig3_sampling [--app=NAME] [--samples=N] [--subcells=K]
///                   [--seed=S] [--workers=N]
///                   [--backend=thread|fork|remote] [--hosts=EP1,...]
///
/// `--backend=fork` runs the sub-cells on `--workers` local worker
/// processes (spawned `phonoc_workerd`s), `--backend=remote` on `--hosts`.
///
/// Prints the merged summary statistics and an ASCII histogram of the
/// worst-case SNR per app. The full Fig. 3 harness (CSV series,
/// quantiles, verification hooks) is `bench/bench_fig3_distributions`.

#include <iostream>

#include "exec/batch_engine.hpp"
#include "exec/sweep.hpp"
#include "sched/transport.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace phonoc;
  const CliOptions cli(argc, argv);
  const auto samples = cli.get_uint<std::uint64_t>("samples", 4000);
  const auto subcells =
      std::max<std::size_t>(1, cli.get_uint<std::size_t>("subcells", 4));
  const auto seed = cli.get_uint<std::uint64_t>("seed", 1);

  SweepSpec spec;
  if (const auto app = cli.get("app")) {
    spec.add_benchmark(*app);
  } else {
    spec.add_benchmark("mpeg4").add_benchmark("vopd");
  }
  spec.add_topology(TopologyKind::Mesh)
      .add_goal(OptimizationGoal::Snr)
      .add_seed_range(seed, subcells)
      .use_sampling({.samples_per_cell =
                         std::max<std::uint64_t>(1, samples / subcells)});

  BatchOptions options{.workers = cli.get_uint<std::size_t>("workers", 0)};
  const auto backend_name = cli.get_or("backend", "thread");
  if (backend_name == "fork") {
    options.backend = BatchBackend::Remote;
    options.remote_hosts = local_worker_endpoints(argv[0], options.workers);
  } else if (backend_name == "remote") {
    options.backend = BatchBackend::Remote;
    for (const auto& endpoint :
         split(cli.get_or("hosts", "loopback,loopback"), ','))
      if (!trim(endpoint).empty())
        options.remote_hosts.emplace_back(trim(endpoint));
  }

  std::cout << "Sampling " << spec.sampling.samples_per_cell * subcells
            << " random mappings per app over " << subcells
            << " sub-cells (backend " << backend_name << ")...\n";
  Timer timer;
  const auto results = BatchEngine(options).run(spec);

  for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
    // merge_cell_distributions throws if any sub-cell failed.
    const auto merged =
        merge_cell_distributions(results, w * subcells, subcells);
    std::cout << "\n== " << spec.workloads[w].name << " (" << merged.samples
              << " samples) ==\n";
    for (const auto& metric : merged.metrics)
      std::cout << "  " << metric.metric << ": min "
                << format_fixed(metric.stats.min(), 2) << ", mean "
                << format_fixed(metric.stats.mean(), 2) << ", max "
                << format_fixed(metric.stats.max(), 2) << ", stddev "
                << format_fixed(metric.stats.stddev(), 2) << ", p50 ~ "
                << format_fixed(metric.histogram.quantile(0.5), 2) << '\n';
    std::cout << '\n' << merged.find("snr_db")->histogram.ascii_chart(40);
  }
  std::cout << "\nDone in " << format_fixed(timer.elapsed_seconds(), 1)
            << " s.\n";
  return 0;
}
