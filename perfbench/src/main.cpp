/// \file main.cpp
/// \brief perfbench_driver: runs one benchmark workload and writes its
/// measurements as JSON (perfbench/run.py turns them into the result
/// line).
///
///     perfbench_driver --workload=svc_interactive --seed=1 --seconds=10
///                      --trace=0 --work-dir=DIR --out=FILE
///                      [--inject-wrong-reference]
///
/// Exit codes: 0 = measured (correctness is in the JSON), 2 = bad
/// arguments or a setup failure.

#include <iostream>

#include "util/cli.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  const phonoc::CliOptions cli(argc, argv);
  RunConfig config;
  config.workload = cli.get_or("workload", "");
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  config.seconds = cli.get_double("seconds", 10.0);
  config.trace = cli.get_int("trace", 0) != 0;
  config.inject_wrong_reference = cli.has("inject-wrong-reference");
  config.work_dir = cli.get_or("work-dir", ".");
  const auto out = cli.get_or("out", "");
  if (out.empty() || config.seconds <= 0.0) {
    std::cerr << "perfbench_driver: --out and a positive --seconds are "
                 "required\n";
    return 2;
  }

  Report report;
  try {
    if (config.workload == "svc_interactive")
      run_service_workload(config, false, report);
    else if (config.workload == "svc_mixed")
      run_service_workload(config, true, report);
    else if (config.workload == "fleet_sweep")
      run_fleet_workload(config, report);
    else {
      std::cerr << "perfbench_driver: unknown --workload '" << config.workload
                << "'\n";
      return 2;
    }
    if (report.attempted == 0) throw std::runtime_error("nothing was measured");
    if (!config.trace)
      report.set("ok_frac",
                 1.0 - static_cast<double>(report.failed) /
                           static_cast<double>(report.attempted),
                 "ratio", report.attempted);
    report.write_json(out, config);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
