#include "workloads/generator.hpp"

#include <string>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace phonoc {

namespace {

CommGraph with_tasks(const std::string& name, std::size_t tasks) {
  require(tasks >= 2, "generator: at least two tasks required");
  CommGraph cg(name);
  for (std::size_t i = 0; i < tasks; ++i)
    cg.add_task("t" + std::to_string(i));
  return cg;
}

}  // namespace

CommGraph random_cg(const RandomCgOptions& options) {
  require(options.avg_out_degree > 0.0,
          "random_cg: avg_out_degree must be positive");
  require(options.max_bandwidth >= options.min_bandwidth &&
              options.min_bandwidth > 0.0,
          "random_cg: invalid bandwidth range");
  auto cg = with_tasks("random" + std::to_string(options.tasks),
                       options.tasks);
  Rng rng(options.seed);
  const auto n = options.tasks;
  // Edge probability chosen so the expected out-degree matches.
  const double candidates_per_task =
      options.acyclic ? static_cast<double>(n - 1) / 2.0
                      : static_cast<double>(n - 1);
  const double p = std::min(1.0, options.avg_out_degree / candidates_per_task);
  for (NodeId src = 0; src < n; ++src) {
    for (NodeId dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      if (options.acyclic && dst < src) continue;
      if (!rng.next_bool(p)) continue;
      const double bw = options.min_bandwidth +
                        rng.next_double() *
                            (options.max_bandwidth - options.min_bandwidth);
      cg.add_communication(src, dst, bw);
    }
  }
  // Guarantee at least one communication so the objectives are defined.
  if (cg.communication_count() == 0) cg.add_communication(0u, 1u, 64.0);
  return cg;
}

CommGraph pipeline_cg(std::size_t tasks, double bandwidth) {
  auto cg = with_tasks("pipeline" + std::to_string(tasks), tasks);
  for (NodeId i = 0; i + 1 < tasks; ++i)
    cg.add_communication(i, i + 1, bandwidth);
  return cg;
}

}  // namespace phonoc
