#pragma once
/// \file comm_graph.hpp
/// \brief Communication Graph (paper Definition 1): tasks and directed
/// communications between them, annotated with bandwidth demands.

#include <string>
#include <vector>

#include "graph/digraph.hpp"

namespace phonoc {

/// Payload of a communication edge.
struct Communication {
  /// Average bandwidth demand in MB/s. The paper's IL/SNR objectives are
  /// structure-only; bandwidth feeds the weighted-objective extension.
  double bandwidth_mbps = 0.0;
};

/// A Communication Graph CG = G(C, E): vertices are application tasks,
/// edges the communications between them (Definition 1).
class CommGraph {
 public:
  CommGraph() = default;
  explicit CommGraph(std::string name) : name_(std::move(name)) {}

  /// Add a task; names must be unique and non-empty.
  NodeId add_task(const std::string& name);

  /// Add a communication; src/dst must exist, self-loops are rejected.
  /// Duplicate (src,dst) pairs are rejected (merge bandwidths upstream).
  EdgeId add_communication(NodeId src, NodeId dst, double bandwidth_mbps);

  /// Convenience overload resolving names (throws on unknown names).
  EdgeId add_communication(const std::string& src, const std::string& dst,
                           double bandwidth_mbps);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  [[nodiscard]] std::size_t task_count() const noexcept {
    return graph_.node_count();
  }
  [[nodiscard]] std::size_t communication_count() const noexcept {
    return graph_.edge_count();
  }

  [[nodiscard]] const std::string& task_name(NodeId id) const;
  /// kInvalidNode when absent.
  [[nodiscard]] NodeId find_task(const std::string& name) const noexcept;

  [[nodiscard]] const Digraph<Communication>& graph() const noexcept {
    return graph_;
  }

  /// All edges as (src, dst, bandwidth) triples in insertion order.
  struct EdgeView {
    NodeId src;
    NodeId dst;
    double bandwidth_mbps;
  };
  [[nodiscard]] std::vector<EdgeView> edges() const;

  /// Validation used by the IO layer and the problem constructor: at
  /// least one task, no isolated-task requirement (isolated tasks are
  /// legal: they occupy a tile without communicating).
  void validate() const;

 private:
  std::string name_ = "unnamed";
  Digraph<Communication> graph_;
  std::vector<std::string> task_names_;
};

}  // namespace phonoc
