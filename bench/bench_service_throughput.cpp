/// \file bench_service_throughput.cpp
/// \brief Service scheduling bench: interactive latency under a mixed
/// workload, FIFO baseline vs the weighted-fair broker at request
/// concurrency {1,2,4}.
///
/// The workload models a shared daemon: a few heavy bulk sweeps queued
/// first, then a burst of one-cell interactive requests from several
/// clients. Every pass queues the identical workload into a paused
/// RequestBroker, resumes it, and measures each request's
/// resume -> done latency, so passes differ only in scheduling policy:
///
///  * `fifo`  — the pre-pool behavior, emulated exactly: concurrency 1,
///    interactive threshold 0 (everything rides the bulk lane), one
///    shared client identity (DRR over one sub-queue is FIFO).
///    Interactive requests head-of-line-block behind every bulk sweep.
///  * `drr`   — lanes + per-client DRR at each requested concurrency.
///
/// The acceptance bar for the subsystem is interactive p99 at
/// concurrency 4 at least 2x better than the FIFO baseline. The lane
/// win does not need extra CPUs — interactive picks overtake *queued*
/// bulk work — so the bar holds even on a 1-CPU container; extra
/// workers then shorten the bulk tail. (On shared CI hardware the
/// absolute numbers are noisy; the snapshot tracks the reference
/// machine.)
///
/// --bulk-requests=N --bulk-seeds=N --bulk-evals=N  heavy sweep shape
/// --interactive-requests=N --interactive-evals=N   burst shape
/// --clients=N            interactive clients the burst is spread over
/// --concurrency=A,B,...  drr passes to run (default 1,2,4)
/// --json=FILE            snapshot for the in-repo perf trajectory
///                        (bench/BENCH_service_throughput.json;
///                        regenerate with bench/update_snapshots.sh)

#include <algorithm>
#include <condition_variable>
#include <fstream>
#include <iostream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "service/broker.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace {

using namespace phonoc;

struct PassResult {
  std::string mode;  ///< "fifo" or "drr"
  std::size_t concurrency = 1;
  double interactive_p50 = 0.0;
  double interactive_p99 = 0.0;
  double bulk_p99 = 0.0;
  double wall_seconds = 0.0;
  std::uint64_t overtakes = 0;
};

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

SweepSpec make_spec(std::uint64_t evals, std::size_t seeds) {
  SweepSpec spec;
  spec.add_benchmark("pip")
      .add_topology(TopologyKind::Mesh)
      .add_goal(OptimizationGoal::Snr)
      .add_optimizer("rs")
      .add_budget(evals)
      .add_seed_range(1, seeds);
  return spec;
}

/// Queue the mixed workload into a paused broker, resume, and collect
/// resume -> done latencies per class.
PassResult run_pass(const std::string& mode, std::size_t concurrency,
                    std::size_t interactive_threshold, bool fan_out_clients,
                    std::size_t bulk_requests, const SweepSpec& bulk_spec,
                    std::size_t interactive_requests,
                    const SweepSpec& interactive_spec, std::size_t clients) {
  BrokerOptions options;
  options.workers = 1;  // serial cells: the broker pool is the axis
  options.request_concurrency = concurrency;
  options.interactive_cell_threshold = interactive_threshold;
  options.max_queue_depth = 4096;
  options.max_outstanding_cells = 0;
  options.start_paused = true;
  RequestBroker broker(options);

  std::mutex mutex;
  std::condition_variable done_cv;
  std::size_t done = 0;
  std::vector<double> interactive_latency;
  std::vector<double> bulk_latency;
  Timer clock;  // restarted right before resume()
  const auto submit = [&](const std::string& id, const SweepSpec& spec,
                          const std::string& client, bool interactive) {
    ServiceRequest request;
    request.id = id;
    request.spec = spec;
    JobEvents events;
    events.on_done = [&, interactive](std::size_t, std::size_t) {
      const std::lock_guard<std::mutex> lock(mutex);
      (interactive ? interactive_latency : bulk_latency)
          .push_back(clock.elapsed_seconds());
      ++done;
      done_cv.notify_all();
    };
    events.on_reject = [&](RejectKind, const std::string& reason) {
      std::cerr << "bench_service_throughput: unexpected rejection: "
                << reason << "\n";
      const std::lock_guard<std::mutex> lock(mutex);
      ++done;
      done_cv.notify_all();
    };
    const auto outcome = broker.submit(request, events, client);
    if (!outcome.accepted)
      throw std::runtime_error("submission shed: " + outcome.reason);
  };

  // Bulk sweeps first — the queue state an interactive burst meets.
  for (std::size_t i = 0; i < bulk_requests; ++i)
    submit("bulk-" + std::to_string(i), bulk_spec,
           fan_out_clients ? "heavy" : "only", false);
  for (std::size_t i = 0; i < interactive_requests; ++i)
    submit("inter-" + std::to_string(i), interactive_spec,
           fan_out_clients ? "c" + std::to_string(i % clients) : "only",
           true);

  clock.restart();
  broker.resume();
  {
    std::unique_lock<std::mutex> lock(mutex);
    done_cv.wait(lock, [&] {
      return done == bulk_requests + interactive_requests;
    });
  }

  PassResult result;
  result.mode = mode;
  result.concurrency = broker.worker_count();
  result.wall_seconds = clock.elapsed_seconds();
  result.interactive_p50 = quantile(interactive_latency, 0.5);
  result.interactive_p99 = quantile(interactive_latency, 0.99);
  result.bulk_p99 = quantile(bulk_latency, 0.99);
  result.overtakes =
      static_cast<std::uint64_t>(broker.stat("interactive_overtakes"));
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli(argc, argv);
  const auto bulk_requests = cli.get_uint<std::size_t>("bulk-requests", 3);
  const auto bulk_spec = make_spec(
      cli.get_uint<std::uint64_t>(
          "bulk-evals",
          env_uint<std::uint64_t>("PHONOC_SWEEP_EVALS", 1200)),
      cli.get_uint<std::size_t>("bulk-seeds", 8));
  const auto interactive_requests =
      cli.get_uint<std::size_t>("interactive-requests", 24);
  const auto interactive_spec = make_spec(
      cli.get_uint<std::uint64_t>("interactive-evals", 150), 1);
  const auto clients =
      std::max<std::size_t>(1, cli.get_uint<std::size_t>("clients", 6));

  std::cout << "# service throughput: " << bulk_requests << " bulk x "
            << cell_count(bulk_spec) << " cells vs " << interactive_requests
            << " interactive x " << cell_count(interactive_spec)
            << " cell(s) over " << clients << " client(s)\n";

  std::vector<PassResult> passes;
  // Baseline first: the pre-pool FIFO behavior, emulated by
  // construction (see the file comment).
  passes.push_back(run_pass("fifo", 1, 0, false, bulk_requests, bulk_spec,
                            interactive_requests, interactive_spec, clients));
  for (const auto& field : split(cli.get_or("concurrency", "1,2,4"), ',')) {
    const auto text = trim(field);
    if (text.empty()) continue;
    const auto concurrency =
        static_cast<std::size_t>(std::max<long>(parse_long(text), 1));
    passes.push_back(run_pass("drr", concurrency, 4, true, bulk_requests,
                              bulk_spec, interactive_requests,
                              interactive_spec, clients));
  }

  const double fifo_p99 = passes.front().interactive_p99;
  double best_drr_p99 = 0.0;
  for (const auto& pass : passes) {
    if (pass.mode == "drr") best_drr_p99 = pass.interactive_p99;
    std::cout << "# " << pass.mode << " concurrency=" << pass.concurrency
              << ": interactive p50 " << format_fixed(pass.interactive_p50, 3)
              << "s p99 " << format_fixed(pass.interactive_p99, 3)
              << "s, bulk p99 " << format_fixed(pass.bulk_p99, 3)
              << "s, wall " << format_fixed(pass.wall_seconds, 3) << "s, "
              << pass.overtakes << " overtake(s)\n";
  }
  const double improvement =
      best_drr_p99 > 0.0 ? fifo_p99 / best_drr_p99 : 0.0;
  std::cout << "# interactive p99 improvement (fifo -> drr at highest "
               "concurrency): "
            << format_fixed(improvement, 2) << "x  ("
            << (improvement >= 2.0 ? "PASS" : "below")
            << " the >=2x acceptance bar)\n";

  if (const auto json_path = cli.get("json")) {
    std::ofstream out(*json_path);
    if (!out) {
      std::cerr << "error: cannot open " << *json_path << " for writing\n";
      return 1;
    }
    out << "{\n"
        << "  \"benchmark\": \"service_throughput\",\n"
        << "  \"bulk_requests\": " << bulk_requests << ",\n"
        << "  \"bulk_cells_per_request\": " << cell_count(bulk_spec) << ",\n"
        << "  \"interactive_requests\": " << interactive_requests << ",\n"
        << "  \"clients\": " << clients << ",\n"
        << "  \"interactive_p99_improvement\": "
        << format_fixed(improvement, 3) << ",\n"
        << "  \"passes\": [";
    for (std::size_t i = 0; i < passes.size(); ++i) {
      const auto& pass = passes[i];
      out << (i == 0 ? "\n" : ",\n") << "    {\"mode\": \"" << pass.mode
          << "\", \"concurrency\": " << pass.concurrency
          << ", \"interactive_p50_seconds\": "
          << format_fixed(pass.interactive_p50, 4)
          << ", \"interactive_p99_seconds\": "
          << format_fixed(pass.interactive_p99, 4)
          << ", \"bulk_p99_seconds\": " << format_fixed(pass.bulk_p99, 4)
          << ", \"wall_seconds\": " << format_fixed(pass.wall_seconds, 4)
          << ", \"interactive_overtakes\": " << pass.overtakes << "}";
    }
    out << "\n  ]\n}\n";
    std::cout << "# snapshot written to " << *json_path << '\n';
  }
  return 0;
}
