#include "graph/comm_graph.hpp"

#include <algorithm>

namespace phonoc {

NodeId CommGraph::add_task(const std::string& name) {
  require(!name.empty(), "CommGraph: task name must be non-empty");
  require(find_task(name) == kInvalidNode,
          "CommGraph: duplicate task name '" + name + "'");
  task_names_.push_back(name);
  return graph_.add_node();
}

EdgeId CommGraph::add_communication(NodeId src, NodeId dst,
                                    double bandwidth_mbps) {
  require(src < task_count() && dst < task_count(),
          "CommGraph: communication endpoint out of range");
  require(src != dst, "CommGraph: self-communication is not allowed");
  require(bandwidth_mbps >= 0.0, "CommGraph: bandwidth must be >= 0");
  require(!graph_.has_edge(src, dst),
          "CommGraph: duplicate communication " + task_names_[src] + " -> " +
              task_names_[dst]);
  return graph_.add_edge(src, dst, Communication{bandwidth_mbps});
}

EdgeId CommGraph::add_communication(const std::string& src,
                                    const std::string& dst,
                                    double bandwidth_mbps) {
  const auto s = find_task(src);
  const auto d = find_task(dst);
  require(s != kInvalidNode, "CommGraph: unknown task '" + src + "'");
  require(d != kInvalidNode, "CommGraph: unknown task '" + dst + "'");
  return add_communication(s, d, bandwidth_mbps);
}

const std::string& CommGraph::task_name(NodeId id) const {
  require(id < task_names_.size(), "CommGraph: task id out of range");
  return task_names_[id];
}

NodeId CommGraph::find_task(const std::string& name) const noexcept {
  const auto it = std::find(task_names_.begin(), task_names_.end(), name);
  if (it == task_names_.end()) return kInvalidNode;
  return static_cast<NodeId>(it - task_names_.begin());
}

std::vector<CommGraph::EdgeView> CommGraph::edges() const {
  std::vector<EdgeView> out;
  out.reserve(graph_.edge_count());
  for (const auto& e : graph_.edges())
    out.push_back(EdgeView{e.src, e.dst, e.data.bandwidth_mbps});
  return out;
}

void CommGraph::validate() const {
  require(task_count() >= 1, "CommGraph: at least one task is required");
  for (const auto& e : graph_.edges())
    require(e.src != e.dst, "CommGraph: self-loop detected");
}

}  // namespace phonoc
