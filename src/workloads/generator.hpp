#pragma once
/// \file generator.hpp
/// \brief Synthetic Communication Graph generators (random and
/// pipeline), used by the scalability bench, the property tests, and as
/// TGFF-style stand-ins for applications beyond the built-ins.

#include <cstdint>

#include "graph/comm_graph.hpp"

namespace phonoc {

struct RandomCgOptions {
  std::size_t tasks = 16;
  /// Expected number of outgoing edges per task (graph stays simple:
  /// no self-loops, no duplicate (src, dst) pairs).
  double avg_out_degree = 1.5;
  double min_bandwidth = 8.0;
  double max_bandwidth = 512.0;
  std::uint64_t seed = 1;
  /// Restrict to forward edges (src id < dst id): a DAG resembling a
  /// streaming application; false allows feedback edges.
  bool acyclic = true;
};

/// Uniform random communication graph.
[[nodiscard]] CommGraph random_cg(const RandomCgOptions& options = {});

/// Linear pipeline t0 -> t1 -> ... -> t(n-1).
[[nodiscard]] CommGraph pipeline_cg(std::size_t tasks,
                                    double bandwidth = 64.0);

}  // namespace phonoc
